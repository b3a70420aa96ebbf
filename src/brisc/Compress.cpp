//===- brisc/Compress.cpp - BRISC greedy dictionary construction -------------===//
//
// Part of the ccomp project (PLDI'97 "Code Compression" reproduction).
//
//===----------------------------------------------------------------------===//
//
// The compressor scans the program repeatedly. Each pass generates
// candidate patterns (one-field operand specializations, width
// narrowings, and combinations of adjacent slots), estimates each
// candidate's program-size reduction P and decompressor-table cost W,
// adopts the K best candidates with positive benefit B = P - W, and
// rewrites the program to use them. It stops after a pass that adopts
// fewer than K patterns. Finally the slot stream is emitted through the
// order-1 Markov opcode coder.
//
// Bookkeeping. Every candidate is interned once, under its serialized
// dictionary entry, in one flat table that outlives the passes: the key's
// length is the entry's dictionary bytes, its byte order is the ranking's
// tie-break, and table membership is what "candidates tested" counts.
// A slot's candidates depend only on its pattern, its concrete
// instructions and its successor slot, so each slot remembers what it
// contributed to each candidate's savings. After a rewrite only slots
// whose pattern or successor changed withdraw their contributions and
// are generated again; the other slots' contributions stand. The totals
// are then exactly what regenerating every slot would give.
//
//===----------------------------------------------------------------------===//

#include "brisc/Brisc.h"
#include "brisc/CostModel.h"

#include "support/Support.h"

#include <algorithm>
#include <cstring>
#include <set>

using namespace ccomp;
using namespace ccomp::brisc;
using vm::FieldKind;
using vm::Instr;
using vm::VMOp;

namespace {

/// A run of concrete instructions currently represented by one pattern.
struct Slot {
  uint32_t PatId = 0;
  uint32_t Begin = 0; ///< Index of the first concrete instruction.
  uint32_t Count = 1;
};

/// One slot's share of one candidate's gross saving.
struct Contribution {
  uint32_t Cand;
  uint32_t Save;
};

/// Per-function compression state.
struct FuncState {
  std::string Name;
  std::vector<Instr> Concrete;
  std::vector<uint32_t> LabelPos;
  std::vector<Slot> Slots;
  std::vector<uint8_t> BBStart; ///< Per concrete instruction.

  /// The slots as the candidate table last saw them, and what each
  /// contributed: slot J's run is Contribs[ContribEnd[J-1], ContribEnd[J]).
  std::vector<Slot> Scored;
  std::vector<Contribution> Contribs;
  std::vector<uint32_t> ContribEnd;
  bool Changed = true; ///< Slots differ from Scored.
};

/// Encoded size of one instance of a pattern with operands \p S.
unsigned instanceBytes(const OperandShape &S) { return 1 + S.bytes(); }

/// What scoring needs of a dictionary pattern, cached per pattern id.
struct PatInfo {
  OperandShape Shape;
  unsigned Native = 0; ///< Native sequence bytes, both targets summed.
  bool AllData = true;
};

PatInfo infoOf(const Pattern &P) {
  PatInfo I;
  I.Shape = P.operandShape();
  I.Native = nativeSeqBytes(P, Target::CISC) + nativeSeqBytes(P, Target::RISC);
  I.AllData = P.allDataOps();
  return I;
}

/// The base dictionary (one fully general pattern per opcode), built
/// once per process rather than once per compress() call.
struct BaseDictionary {
  std::vector<Pattern> Pats;
  std::vector<PatInfo> Info;
};

const BaseDictionary &baseDictionary() {
  static const BaseDictionary D = [] {
    BaseDictionary B;
    for (unsigned I = 0; I != static_cast<unsigned>(VMOp::NumOps); ++I) {
      B.Pats.push_back(Pattern::base(static_cast<VMOp>(I)));
      B.Info.push_back(infoOf(B.Pats.back()));
    }
    return B;
  }();
  return D;
}

/// Every candidate pattern the search has generated, interned under its
/// serialized dictionary entry (Pattern::serialize). Entries are never
/// removed: a key is in the table iff some pass has tested it.
class CandidateTable {
public:
  struct Entry {
    uint32_t KeyOff;
    uint32_t KeyLen; ///< Also the candidate's dictionary-entry bytes.
    uint32_t Hash;
    uint32_t Cost;   ///< Dictionary, successor-table and working-set cost.
    int64_t GrossSave = 0; ///< Sum of the current slots' contributions.
    bool InDict = false;   ///< Adopted; no longer a candidate.
  };

  /// Returns the id of \p Key, inserting it with \p Cost if absent (and
  /// then setting \p Inserted).
  uint32_t intern(const uint8_t *Key, size_t Len, uint32_t Cost,
                  bool &Inserted) {
    uint32_t H = hashKey(Key, Len);
    if (2 * (Entries.size() + 1) > Index.size())
      grow();
    size_t Mask = Index.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      uint32_t Ref = Index[I];
      if (Ref == 0) {
        Index[I] = static_cast<uint32_t>(Entries.size() + 1);
        Entry E;
        E.KeyOff = static_cast<uint32_t>(Keys.size());
        E.KeyLen = static_cast<uint32_t>(Len);
        E.Hash = H;
        E.Cost = Cost;
        Keys.insert(Keys.end(), Key, Key + Len);
        Entries.push_back(E);
        Inserted = true;
        return static_cast<uint32_t>(Entries.size() - 1);
      }
      const Entry &E = Entries[Ref - 1];
      if (E.Hash == H && E.KeyLen == Len &&
          std::memcmp(Keys.data() + E.KeyOff, Key, Len) == 0) {
        Inserted = false;
        return Ref - 1;
      }
    }
  }

  Entry &operator[](uint32_t Id) { return Entries[Id]; }
  const Entry &operator[](uint32_t Id) const { return Entries[Id]; }
  uint32_t size() const { return static_cast<uint32_t>(Entries.size()); }

  ByteSpan key(uint32_t Id) const {
    const Entry &E = Entries[Id];
    return ByteSpan(Keys.data() + E.KeyOff, E.KeyLen);
  }

  /// std::string's order on the keys: unsigned bytes, then length.
  bool keyLess(uint32_t A, uint32_t B) const {
    const Entry &X = Entries[A], &Y = Entries[B];
    int C = std::memcmp(Keys.data() + X.KeyOff, Keys.data() + Y.KeyOff,
                        std::min(X.KeyLen, Y.KeyLen));
    return C != 0 ? C < 0 : X.KeyLen < Y.KeyLen;
  }

private:
  static uint32_t hashKey(const uint8_t *K, size_t N) {
    uint64_t H = 0x9e3779b97f4a7c15ull ^ N;
    for (; N >= 8; K += 8, N -= 8) {
      uint64_t W;
      std::memcpy(&W, K, 8);
      H = (H ^ W) * 0xbf58476d1ce4e5b9ull;
      H ^= H >> 31;
    }
    uint64_t W = 0;
    std::memcpy(&W, K, N);
    H = (H ^ W) * 0x94d049bb133111ebull;
    H ^= H >> 29;
    return static_cast<uint32_t>(H ^ (H >> 32));
  }

  void grow() {
    std::vector<uint32_t> New(std::max<size_t>(1024, 2 * Index.size()), 0);
    size_t Mask = New.size() - 1;
    for (uint32_t Id = 0; Id != Entries.size(); ++Id) {
      size_t I = Entries[Id].Hash & Mask;
      while (New[I])
        I = (I + 1) & Mask;
      New[I] = Id + 1;
    }
    Index.swap(New);
  }

  std::vector<Entry> Entries;
  std::vector<uint8_t> Keys;
  std::vector<uint32_t> Index; ///< Open addressing; entry id + 1, 0 empty.
};

/// Longest varint (the element count that starts a key).
constexpr size_t MaxVarBytes = 10;

/// The serialized elements of one slot's pattern, with the one-field
/// variants that candidate keys are spliced from.
struct SlotForms {
  /// One variant: the pattern with element Elem's bytes replaced
  /// (Elem == NoElem: the pattern itself), and its operand shape.
  struct Variant {
    uint32_t Elem;
    uint32_t Off, Len; ///< Replacement element bytes in Bytes.
    OperandShape Shape;
  };
  static constexpr uint32_t NoElem = ~0u;

  std::vector<uint8_t> Bytes;    ///< Pattern elements, then replacements.
  std::vector<uint32_t> ElemEnd; ///< End of each pattern element.
  uint32_t PatLen = 0;
  unsigned NumElems = 0;
  std::vector<Variant> Specs;   ///< One-field specializations, then self.
  std::vector<Variant> Narrows; ///< Width narrowings of immediates.

  /// Writes variant \p V's elements at \p Out; returns their end.
  uint8_t *put(const Variant &V, uint8_t *Out) const {
    const uint8_t *B = Bytes.data();
    if (V.Elem == NoElem) {
      std::memcpy(Out, B, PatLen);
      return Out + PatLen;
    }
    uint32_t Lo = V.Elem ? ElemEnd[V.Elem - 1] : 0, Hi = ElemEnd[V.Elem];
    std::memcpy(Out, B, Lo);
    std::memcpy(Out + Lo, B + V.Off, V.Len);
    Out += Lo + V.Len;
    std::memcpy(Out, B + Hi, PatLen - Hi);
    return Out + (PatLen - Hi);
  }
  /// Bytes of the longest variant.
  size_t maxLen() const { return PatLen + MaxElemBytes; }
};

class Compressor {
public:
  Compressor(const vm::VMProgram &Prog, const CompressOptions &Opts,
             CompressStats *Stats)
      : Prog(Prog), Opts(Opts), Stats(Stats) {}

  BriscProgram run();

private:
  void initState();
  void rewriteEpilogues(FuncState &FS);
  void buildSlots(FuncState &FS);
  unsigned runPass();
  void rescore(FuncState &FS);
  void scoreSlot(const FuncState &FS, size_t SlotIdx,
                 std::vector<Contribution> &Out);
  void addCandidate(size_t KeyLen, int64_t Save, unsigned Native,
                    std::vector<Contribution> &Out);
  void adopt(uint32_t CandId);
  void rewriteCombination(uint32_t PatId);
  void rewriteSpecializations(const std::vector<uint32_t> &NewIds);
  void compactDictionary();
  void emit(BriscProgram &Out);

  unsigned slotBytes(const Slot &S) const {
    return instanceBytes(Info[S.PatId].Shape);
  }

  const vm::VMProgram &Prog;
  const CompressOptions &Opts;
  CompressStats *Stats;

  std::vector<FuncState> Funcs;
  std::vector<Pattern> Pats;
  std::vector<PatInfo> Info; ///< Parallel to Pats.
  CandidateTable Cands;
  unsigned EffectiveK = 20;

  // Scratch reused across slots and passes.
  SlotForms FormA, FormB;
  std::vector<uint8_t> KeyBuf;
  std::vector<uint32_t> Match;
  std::vector<uint8_t> Reuse;
  std::vector<Contribution> NewContribs;
  std::vector<uint32_t> NewContribEnd;
  std::vector<std::vector<uint32_t>> NewByOp;
};

//===----------------------------------------------------------------------===//
// Setup
//===----------------------------------------------------------------------===//

void Compressor::initState() {
  // Base dictionary: one fully general pattern per opcode. No candidate
  // can equal one (specializations set a mask bit, narrowings shrink an
  // immediate below its base B4, combinations have two or more elements),
  // so base patterns need no candidate-table entries.
  const BaseDictionary &Base = baseDictionary();
  Pats = Base.Pats;
  Info = Base.Info;

  for (const vm::VMFunction &F : Prog.Functions) {
    FuncState FS;
    FS.Name = F.Name;
    FS.Concrete = F.Code;
    FS.LabelPos = F.LabelPos;
    if (Opts.EnableEpi)
      rewriteEpilogues(FS);
    FS.BBStart.assign(FS.Concrete.size() + 1, 0);
    if (!FS.Concrete.empty())
      FS.BBStart[0] = 1;
    for (uint32_t L : FS.LabelPos)
      FS.BBStart[L] = 1;
    for (size_t I = 0; I + 1 < FS.Concrete.size(); ++I)
      if (FS.Concrete[I].Op == VMOp::CALL)
        FS.BBStart[I + 1] = 1; // Return addresses must be decodable.
    buildSlots(FS);
    Funcs.push_back(std::move(FS));
  }
}

void Compressor::rewriteEpilogues(FuncState &FS) {
  // Match the code generator's epilogue (reload*, exit?, rjr ra) at the
  // function's end against the prologue metadata, and fold it into the
  // single special-case macro-instruction "epi" (the paper's only
  // hand-added dictionary entry).
  vm::VMFunction Tmp;
  Tmp.Code = FS.Concrete;
  vm::FuncMeta Meta = vm::deriveMeta(Tmp);

  size_t N = FS.Concrete.size();
  if (N == 0 || FS.Concrete[N - 1].Op != VMOp::RJR ||
      FS.Concrete[N - 1].Rd != vm::RA)
    return;
  size_t EpiLen = 1;
  size_t Pos = N - 1;
  uint32_t Frame = Meta.FrameSize;
  if (Frame != 0) {
    if (Pos == 0 || FS.Concrete[Pos - 1].Op != VMOp::EXIT ||
        FS.Concrete[Pos - 1].Imm != static_cast<int32_t>(Frame))
      return;
    --Pos;
    ++EpiLen;
  }
  // Reloads, one per prologue save (any order; verify the set).
  std::set<std::pair<uint8_t, int32_t>> Want;
  for (const vm::FuncMeta::Save &S : Meta.Saves)
    Want.insert({S.Reg, S.Off});
  size_t NeedReloads = Want.size();
  for (size_t I = 0; I != NeedReloads; ++I) {
    if (Pos == 0 || FS.Concrete[Pos - 1].Op != VMOp::RELOAD)
      return;
    --Pos;
    ++EpiLen;
    if (!Want.erase({FS.Concrete[Pos].Rd, FS.Concrete[Pos].Imm}))
      return;
  }
  if (!Want.empty())
    return;
  // Labels may point at the epilogue start but not inside it.
  for (uint32_t L : FS.LabelPos)
    if (L > Pos && L < N)
      return;
  FS.Concrete.resize(Pos);
  Instr Epi;
  Epi.Op = VMOp::EPI;
  FS.Concrete.push_back(Epi);
  for (uint32_t &L : FS.LabelPos)
    if (L >= FS.Concrete.size())
      L = static_cast<uint32_t>(FS.Concrete.size() - 1);
}

void Compressor::buildSlots(FuncState &FS) {
  FS.Slots.clear();
  for (uint32_t I = 0; I != FS.Concrete.size(); ++I) {
    Slot S;
    S.PatId = static_cast<uint32_t>(FS.Concrete[I].Op);
    S.Begin = I;
    S.Count = 1;
    FS.Slots.push_back(S);
  }
}

//===----------------------------------------------------------------------===//
// Candidate generation
//===----------------------------------------------------------------------===//

/// Serializes \p P (with info \p PI, at concrete instructions \p Seq)
/// and its one-field variants into \p F; narrowings only if \p Narrow.
void buildForms(const Pattern &P, const PatInfo &PI, const Instr *Seq,
                bool Narrow, SlotForms &F) {
  using Variant = SlotForms::Variant;
  F.Bytes.clear();
  F.ElemEnd.clear();
  F.Specs.clear();
  F.Narrows.clear();
  F.NumElems = static_cast<unsigned>(P.Elems.size());
  uint8_t Buf[MaxElemBytes];
  for (const SpecInstr &El : P.Elems) {
    F.Bytes.insert(F.Bytes.end(), Buf, serializeElem(El, Buf));
    F.ElemEnd.push_back(static_cast<uint32_t>(F.Bytes.size()));
  }
  F.PatLen = static_cast<uint32_t>(F.Bytes.size());

  auto AddVariant = [&](std::vector<Variant> &To, uint32_t E,
                        const SpecInstr &Repl, const OperandShape &Shape) {
    uint32_t Off = static_cast<uint32_t>(F.Bytes.size());
    F.Bytes.insert(F.Bytes.end(), Buf, serializeElem(Repl, Buf));
    To.push_back(
        {E, Off, static_cast<uint32_t>(F.Bytes.size()) - Off, Shape});
  };

  for (uint32_t E = 0; E != F.NumElems; ++E) {
    const SpecInstr &El = P.Elems[E];
    unsigned NF = vm::numFields(El.Op);
    const FieldKind *FK = vm::fieldKinds(El.Op);
    for (unsigned F2 = 0; F2 != NF; ++F2) {
      if (El.specialized(F2) || FK[F2] == FieldKind::Label)
        continue; // Branch targets are never burned in.
      // One-field value specialization.
      SpecInstr Q = El;
      Q.SpecMask |= 1u << F2;
      Q.SpecVals[F2] = static_cast<int32_t>(vm::getField(Seq[E], F2));
      OperandShape Rest = PI.Shape;
      Rest.remove(El.Widths[F2]);
      AddVariant(F.Specs, E, Q, Rest);

      if (!Narrow || FK[F2] != FieldKind::Imm)
        continue;
      // Width narrowings of the immediate.
      int64_t V = vm::getField(Seq[E], F2);
      static const Width Narrower[] = {Width::B2, Width::B1X4, Width::B1,
                                       Width::NibX4, Width::Nib};
      for (Width W : Narrower) {
        if (widthNibbles(W) >= widthNibbles(El.Widths[F2]))
          continue;
        if (!fitsWidth(W, V))
          continue;
        Q = El;
        Q.Widths[F2] = W;
        OperandShape Narrowed = Rest;
        Narrowed.add(W);
        AddVariant(F.Narrows, E, Q, Narrowed);
      }
    }
  }
  F.Specs.push_back({SlotForms::NoElem, 0, 0, PI.Shape});
}

void Compressor::addCandidate(size_t KeyLen, int64_t Save, unsigned Native,
                              std::vector<Contribution> &Out) {
  // An adopted pattern also grows the Markov successor tables by at
  // least one entry; 3 bytes approximates the serialized id.
  unsigned Cost = static_cast<unsigned>(KeyLen) + 3;
  if (!Opts.AbundantMemory)
    Cost += workingSetCost(Native);
  bool Inserted;
  uint32_t Id = Cands.intern(KeyBuf.data(), KeyLen, Cost, Inserted);
  CandidateTable::Entry &E = Cands[Id];
  if (E.InDict)
    return; // Already in the dictionary.
  if (Inserted && Stats)
    ++Stats->CandidatesTested;
  E.GrossSave += Save;
  Out.push_back({Id, static_cast<uint32_t>(Save)});
}

void Compressor::scoreSlot(const FuncState &FS, size_t SlotIdx,
                           std::vector<Contribution> &Out) {
  const Slot &S = FS.Slots[SlotIdx];
  const Pattern &P = Pats[S.PatId];
  const PatInfo &PI = Info[S.PatId];
  const Instr *Seq = FS.Concrete.data() + S.Begin;
  unsigned Cur = instanceBytes(PI.Shape);

  const Slot *T = nullptr;
  if (Opts.EnableCombination && SlotIdx + 1 < FS.Slots.size()) {
    T = &FS.Slots[SlotIdx + 1];
    if (FS.BBStart[T->Begin] || // Never swallow a block boundary.
        !PI.AllData ||          // Control flow may only end a pattern.
        P.Elems.size() + Pats[T->PatId].Elems.size() > Opts.MaxCombinedElems)
      T = nullptr;
  }
  if (!Opts.EnableSpecialization && !T)
    return;

  buildForms(P, PI, Seq, Opts.EnableSpecialization, FormA);
  size_t Need = MaxVarBytes + FormA.maxLen();
  if (T) {
    buildForms(Pats[T->PatId], Info[T->PatId],
               FS.Concrete.data() + T->Begin, /*Narrow=*/false, FormB);
    Need += FormB.maxLen();
  }
  if (KeyBuf.size() < Need)
    KeyBuf.resize(Need);
  uint8_t *Key = KeyBuf.data();

  if (Opts.EnableSpecialization) {
    uint8_t *Elems = ByteWriter::putVarU(Key, FormA.NumElems);
    for (const std::vector<SlotForms::Variant> *L :
         {&FormA.Specs, &FormA.Narrows})
      for (const SlotForms::Variant &V : *L) {
        if (V.Elem == SlotForms::NoElem)
          continue; // The slot's own pattern.
        int64_t Save = static_cast<int64_t>(Cur) - instanceBytes(V.Shape);
        if (Save <= 0)
          continue;
        addCandidate(static_cast<size_t>(FormA.put(V, Elems) - Key), Save,
                     PI.Native, Out);
      }
  }

  if (!T)
    return;
  const PatInfo &PB = Info[T->PatId];
  unsigned CurPair = Cur + instanceBytes(PB.Shape);
  unsigned Native = PI.Native + PB.Native;
  uint8_t *Elems =
      ByteWriter::putVarU(Key, FormA.NumElems + FormB.NumElems);
  for (const SlotForms::Variant &A : FormA.Specs) {
    uint8_t *Mid = FormA.put(A, Elems);
    for (const SlotForms::Variant &B : FormB.Specs) {
      int64_t Save =
          static_cast<int64_t>(CurPair) - instanceBytes(A.Shape + B.Shape);
      if (Save <= 0)
        continue;
      addCandidate(static_cast<size_t>(FormB.put(B, Mid) - Key), Save,
                   Native, Out);
    }
  }
}

void Compressor::rescore(FuncState &FS) {
  // Rewrites only merge slots, so every current slot starts where a
  // scored one did. A slot's candidates depend on its own pattern and its
  // successor's; when neither changed, its scored contributions stand.
  const std::vector<Slot> &Old = FS.Scored;
  const std::vector<Slot> &New = FS.Slots;
  const uint32_t None = ~0u;
  Match.assign(New.size(), None);
  for (size_t I = 0, J = 0; I != New.size(); ++I) {
    while (J != Old.size() && Old[J].Begin < New[I].Begin)
      ++J;
    if (J != Old.size() && Old[J].Begin == New[I].Begin &&
        Old[J].PatId == New[I].PatId)
      Match[I] = static_cast<uint32_t>(J);
  }
  Reuse.assign(Old.size(), 0);
  for (size_t I = 0; I != New.size(); ++I) {
    if (Match[I] != None && (I + 1 == New.size() || Match[I + 1] != None))
      Reuse[Match[I]] = 1;
    else
      Match[I] = None;
  }

  // Withdraw what every other scored slot contributed.
  for (size_t J = 0; J != Old.size(); ++J) {
    if (Reuse[J])
      continue;
    for (uint32_t C = J ? FS.ContribEnd[J - 1] : 0; C != FS.ContribEnd[J];
         ++C)
      Cands[FS.Contribs[C].Cand].GrossSave -= FS.Contribs[C].Save;
  }

  NewContribs.clear();
  NewContribEnd.clear();
  for (size_t I = 0; I != New.size(); ++I) {
    if (uint32_t J = Match[I]; J != None)
      NewContribs.insert(NewContribs.end(),
                         FS.Contribs.begin() + (J ? FS.ContribEnd[J - 1] : 0),
                         FS.Contribs.begin() + FS.ContribEnd[J]);
    else
      scoreSlot(FS, I, NewContribs);
    NewContribEnd.push_back(static_cast<uint32_t>(NewContribs.size()));
  }
  FS.Contribs.swap(NewContribs);
  FS.ContribEnd.swap(NewContribEnd);
  FS.Scored = FS.Slots;
  FS.Changed = false;
}

//===----------------------------------------------------------------------===//
// Adoption and rewriting
//===----------------------------------------------------------------------===//

void Compressor::adopt(uint32_t CandId) {
  Cands[CandId].InDict = true;
  ByteReader R(Cands.key(CandId));
  Pats.push_back(Pattern::deserialize(R));
  Info.push_back(infoOf(Pats.back()));
}

void Compressor::rewriteCombination(uint32_t PatId) {
  const Pattern &P = Pats[PatId];
  const unsigned PatBytes = instanceBytes(Info[PatId].Shape);
  size_t Len = P.Elems.size();
  for (FuncState &FS : Funcs) {
    // Opcodes first: a cheap filter in front of matches().
    auto OpsMatch = [&](uint32_t Begin) {
      for (size_t K = 0; K != Len; ++K)
        if (FS.Concrete[Begin + K].Op != P.Elems[K].Op)
          return false;
      return true;
    };
    // Compacts in place: Out never passes I.
    std::vector<Slot> &Slots = FS.Slots;
    size_t Out = 0, I = 0;
    while (I < Slots.size()) {
      const Slot S = Slots[I];
      // Try to cover slots I..J whose concrete run matches P exactly.
      if (S.Begin + Len <= FS.Concrete.size() && OpsMatch(S.Begin) &&
          P.matches(FS.Concrete.data() + S.Begin, Len)) {
        // The run must align with slot boundaries and stay inside the
        // basic block.
        size_t J = I;
        uint32_t Covered = 0;
        unsigned CurBytes = 0;
        bool Aligns = true;
        while (Covered < Len && J < Slots.size()) {
          if (J != I && FS.BBStart[Slots[J].Begin]) {
            Aligns = false;
            break;
          }
          Covered += Slots[J].Count;
          CurBytes += slotBytes(Slots[J]);
          ++J;
        }
        if (Aligns && Covered == Len && PatBytes < CurBytes) {
          Slots[Out++] = Slot{PatId, S.Begin, static_cast<uint32_t>(Len)};
          I = J;
          FS.Changed = true;
          continue;
        }
      }
      Slots[Out++] = S;
      ++I;
    }
    Slots.resize(Out);
  }
}

void Compressor::rewriteSpecializations(const std::vector<uint32_t> &NewIds) {
  // Index the new patterns by first opcode, in adoption order.
  NewByOp.resize(static_cast<size_t>(VMOp::NumOps));
  for (std::vector<uint32_t> &L : NewByOp)
    L.clear();
  for (uint32_t Id : NewIds)
    NewByOp[static_cast<size_t>(Pats[Id].Elems[0].Op)].push_back(Id);
  for (FuncState &FS : Funcs) {
    for (Slot &S : FS.Slots) {
      const std::vector<uint32_t> &L =
          NewByOp[static_cast<size_t>(FS.Concrete[S.Begin].Op)];
      if (L.empty())
        continue;
      unsigned Best = slotBytes(S);
      uint32_t BestId = S.PatId;
      for (uint32_t Id : L) {
        const Pattern &P = Pats[Id];
        unsigned Bytes = instanceBytes(Info[Id].Shape);
        if (P.Elems.size() != S.Count || Bytes >= Best)
          continue;
        if (!P.matches(FS.Concrete.data() + S.Begin, S.Count))
          continue;
        Best = Bytes;
        BestId = Id;
      }
      if (BestId != S.PatId) {
        S.PatId = BestId;
        FS.Changed = true;
      }
    }
  }
}

unsigned Compressor::runPass() {
  for (FuncState &FS : Funcs)
    if (FS.Changed)
      rescore(FS);

  // Rank by benefit B = P - W, ties broken by serialized key.
  struct Ranked {
    int64_t B;
    uint32_t Id;
  };
  std::vector<Ranked> Ranking;
  for (uint32_t Id = 0; Id != Cands.size(); ++Id) {
    const CandidateTable::Entry &E = Cands[Id];
    int64_t B = E.GrossSave - static_cast<int64_t>(E.Cost);
    if (!E.InDict && B > 0)
      Ranking.push_back({B, Id});
  }
  size_t Take = std::min<size_t>(EffectiveK, Ranking.size());
  std::partial_sort(Ranking.begin(), Ranking.begin() + Take, Ranking.end(),
                    [this](const Ranked &A, const Ranked &B) {
                      if (A.B != B.B)
                        return A.B > B.B;
                      return Cands.keyLess(A.Id, B.Id);
                    });

  std::vector<uint32_t> NewCombined, NewIds;
  for (size_t R = 0; R != Take; ++R) {
    uint32_t Id = static_cast<uint32_t>(Pats.size());
    adopt(Ranking[R].Id);
    NewIds.push_back(Id);
    if (Pats[Id].Elems.size() > 1)
      NewCombined.push_back(Id);
  }

  // Combination first (paper's order), then specialization rewrites.
  for (uint32_t Id : NewCombined)
    rewriteCombination(Id);
  rewriteSpecializations(NewIds);
  return static_cast<unsigned>(Take);
}

void Compressor::compactDictionary() {
  // Greedy estimates over-promise: some adopted patterns end up unused
  // after rewriting (a competing pattern claimed their occurrences).
  // Unused entries still cost dictionary and successor-table bytes, so
  // drop them and remap ids. Base patterns are implicit in the file
  // format and stay put.
  const uint32_t NumBase = static_cast<uint32_t>(VMOp::NumOps);
  std::vector<uint32_t> Uses(Pats.size(), 0);
  for (const FuncState &FS : Funcs)
    for (const Slot &S : FS.Slots)
      ++Uses[S.PatId];

  std::vector<uint32_t> Remap(Pats.size(), ~0u);
  std::vector<Pattern> NewPats;
  NewPats.reserve(Pats.size());
  for (uint32_t I = 0; I != NumBase; ++I) {
    Remap[I] = I;
    NewPats.push_back(std::move(Pats[I]));
  }
  for (uint32_t I = NumBase; I != Pats.size(); ++I) {
    if (Uses[I] == 0)
      continue;
    Remap[I] = static_cast<uint32_t>(NewPats.size());
    NewPats.push_back(std::move(Pats[I]));
  }
  Pats = std::move(NewPats);
  for (FuncState &FS : Funcs)
    for (Slot &S : FS.Slots)
      S.PatId = Remap[S.PatId];
}

//===----------------------------------------------------------------------===//
// Emission: Markov opcode coding and operand packing
//===----------------------------------------------------------------------===//

void Compressor::emit(BriscProgram &Out) {
  Out.Pats = Pats;
  uint32_t BBCtx = static_cast<uint32_t>(Pats.size());
  Out.Successors.assign(Pats.size() + 1, {});

  // Pass 1: build successor lists (first-occurrence order) and per-slot
  // opcode byte sizes, then slot offsets.
  struct EmitFn {
    std::vector<uint32_t> SlotOff;
    std::vector<uint8_t> OpBytes;
  };
  std::vector<EmitFn> EmitFns(Funcs.size());

  auto SuccIndex = [&](uint32_t Ctx, uint32_t PatId) -> int {
    std::vector<uint32_t> &L = Out.Successors[Ctx];
    for (size_t I = 0; I != L.size(); ++I)
      if (L[I] == PatId)
        return static_cast<int>(I);
    L.push_back(PatId);
    return static_cast<int>(L.size() - 1);
  };

  for (size_t FI = 0; FI != Funcs.size(); ++FI) {
    FuncState &FS = Funcs[FI];
    EmitFn &EF = EmitFns[FI];
    uint32_t Ctx = BBCtx;
    uint32_t Off = 0;
    for (const Slot &S : FS.Slots) {
      EF.SlotOff.push_back(Off);
      int Idx = SuccIndex(Ctx, S.PatId);
      unsigned OpSize = Idx < 255 ? 1 : 3; // Escape: 255 + 2-byte id.
      EF.OpBytes.push_back(static_cast<uint8_t>(OpSize));
      Off += OpSize + Pats[S.PatId].operandBytes();
      Ctx = FS.BBStart[S.Begin + S.Count] ? BBCtx : S.PatId;
    }
    EF.SlotOff.push_back(Off);
  }

  // Pass 2: resolve branch targets to byte offsets and write the bytes.
  for (size_t FI = 0; FI != Funcs.size(); ++FI) {
    FuncState &FS = Funcs[FI];
    EmitFn &EF = EmitFns[FI];
    BriscFunction BF;
    BF.Name = FS.Name;

    // Concrete instruction index -> slot index.
    std::vector<uint32_t> SlotOfInstr(FS.Concrete.size() + 1, ~0u);
    for (size_t SI = 0; SI != FS.Slots.size(); ++SI)
      SlotOfInstr[FS.Slots[SI].Begin] = static_cast<uint32_t>(SI);

    auto LabelToOff = [&](uint32_t Label) -> uint32_t {
      uint32_t InstrIdx = FS.LabelPos[Label];
      uint32_t SlotIdx = SlotOfInstr[InstrIdx];
      if (SlotIdx == ~0u)
        reportFatal("brisc: branch target inside a combined pattern");
      return EF.SlotOff[SlotIdx];
    };

    ByteWriter W;
    uint32_t Ctx = BBCtx;
    std::vector<Instr> Rewritten;
    for (size_t SI = 0; SI != FS.Slots.size(); ++SI) {
      const Slot &S = FS.Slots[SI];
      const Pattern &P = Pats[S.PatId];
      // Opcode byte(s).
      int Idx = -1;
      const std::vector<uint32_t> &L = Out.Successors[Ctx];
      for (size_t I = 0; I != L.size(); ++I)
        if (L[I] == S.PatId) {
          Idx = static_cast<int>(I);
          break;
        }
      if (Idx < 0)
        reportFatal("brisc: successor list mismatch at emit");
      if (Idx < 255) {
        W.writeU8(static_cast<uint8_t>(Idx));
      } else {
        W.writeU8(255);
        W.writeU16(static_cast<uint16_t>(S.PatId));
      }
      // Operands, with labels rewritten to byte offsets.
      Rewritten.assign(FS.Concrete.begin() + S.Begin,
                       FS.Concrete.begin() + S.Begin + S.Count);
      for (Instr &In : Rewritten) {
        if (!vm::isBranch(In.Op))
          continue;
        uint32_t TOff = LabelToOff(In.Target);
        if (TOff > 32767)
          reportFatal("brisc: function too large for 16-bit targets");
        In.Target = TOff;
      }
      packOperands(P, Rewritten.data(), W);
      if (W.size() != EF.SlotOff[SI] + EF.OpBytes[SI] + P.operandBytes())
        reportFatal("brisc: emit size accounting mismatch");
      Ctx = FS.BBStart[S.Begin + S.Count] ? BBCtx : S.PatId;
    }
    BF.Code = W.take();

    for (size_t SI = 0; SI != FS.Slots.size(); ++SI)
      if (FS.BBStart[FS.Slots[SI].Begin])
        BF.BBOffsets.push_back(EF.SlotOff[SI]);
    Out.Funcs.push_back(std::move(BF));
  }

  Out.Entry = Prog.Entry;
  Out.Globals = Prog.Globals;
  Out.GlobalBase = Prog.GlobalBase;
  Out.GlobalEnd = Prog.GlobalEnd;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

BriscProgram Compressor::run() {
  initState();
  uint64_t TotalInstrs = 0;
  for (const FuncState &FS : Funcs)
    TotalInstrs += FS.Concrete.size();
  EffectiveK = Opts.K;
  if (Opts.AutoK)
    EffectiveK = std::max<unsigned>(
        Opts.K, static_cast<unsigned>(TotalInstrs / 1500));
  unsigned Passes = 0;
  while (Passes != Opts.MaxPasses) {
    unsigned Adopted = runPass();
    ++Passes;
    if (Adopted < EffectiveK)
      break;
  }
  compactDictionary();
  BriscProgram Out;
  emit(Out);
  if (Stats) {
    Stats->Passes = Passes;
    Stats->DictPatterns = Pats.size();
    std::vector<uint8_t> Image = Out.serialize(/*IncludeData=*/false);
    Stats->TotalBytes = Image.size();
    // Section sizes.
    ByteWriter DW;
    for (const Pattern &P : Pats)
      P.serialize(DW);
    Stats->DictBytes = DW.size();
    size_t Markov = 0;
    for (const auto &L : Out.Successors)
      Markov += 1 + 2 * L.size(); // Approximate varint accounting.
    Stats->MarkovBytes = Markov;
    size_t Code = 0, BBMap = 0;
    for (const BriscFunction &F : Out.Funcs) {
      Code += F.Code.size();
      BBMap += F.BBOffsets.size(); // Delta varints, mostly 1 byte.
    }
    Stats->CodeBytes = Code;
    Stats->BBMapBytes = BBMap;
  }
  return Out;
}

} // namespace

BriscProgram brisc::compress(const vm::VMProgram &P,
                             const CompressOptions &Opts,
                             CompressStats *Stats) {
  Compressor C(P, Opts, Stats);
  return C.run();
}
