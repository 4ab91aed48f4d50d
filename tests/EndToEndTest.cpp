//===- tests/EndToEndTest.cpp - Whole-pipeline equivalence tests ----------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strongest integration property in the repository: every TMIR
/// benchmark program must compute the same result
///
///   - under every execution mode (sequential, global lock, object STM),
///   - at every optimization level (naive → fully optimized),
///   - after a round trip through the textual printer and parser,
///
/// and the dominator tree used by the optimizer must agree with a naive
/// reachability-based definition of dominance on all benchmark CFGs.
///
//===----------------------------------------------------------------------===//

#include "bench/TmirPrograms.h"
#include "interp/Interp.h"
#include "passes/Pipeline.h"
#include "tmir/Dominators.h"
#include "tmir/Parser.h"
#include "tmir/Verifier.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace otm;
using namespace otm::bench;
using namespace otm::interp;
using namespace otm::passes;
using namespace otm::tmir;

namespace {

/// Holds an index into tmirPrograms() rather than a pointer: gtest prints
/// the parameter's raw bytes into each test's listed name, and a pointer's
/// bytes would change with every build and run under ASLR.
struct ProgramCase {
  uint64_t Index;

  const TmirProgram &program() const {
    unsigned Count = 0;
    return tmirPrograms(Count)[Index];
  }
};

std::vector<ProgramCase> allPrograms() {
  unsigned Count = 0;
  tmirPrograms(Count);
  std::vector<ProgramCase> Cases;
  for (unsigned I = 0; I < Count; ++I)
    Cases.push_back({I});
  return Cases;
}

std::string caseName(const ::testing::TestParamInfo<ProgramCase> &Info) {
  std::string Name = Info.param.program().Name;
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

int64_t runProgram(Module &M, const TmirProgram &P, Interpreter::TxMode Mode) {
  Interpreter::Options O;
  O.Mode = Mode;
  Interpreter I(M, O);
  Interpreter::RunResult R = I.run(P.Entry, {P.Arg});
  EXPECT_FALSE(R.Trapped) << P.Name << ": " << R.Error;
  return R.Value;
}

class ProgramEquivalence : public ::testing::TestWithParam<ProgramCase> {};

} // namespace

INSTANTIATE_TEST_SUITE_P(AllPrograms, ProgramEquivalence,
                         ::testing::ValuesIn(allPrograms()), caseName);

TEST_P(ProgramEquivalence, UnloweredModesAgree) {
  const TmirProgram &P = GetParam().program();
  Module M = parseModuleOrDie(P.Source);
  verifyModuleOrDie(M);
  int64_t Seq = runProgram(M, P, Interpreter::TxMode::IgnoreAtomic);
  int64_t Locked = runProgram(M, P, Interpreter::TxMode::GlobalLock);
  EXPECT_EQ(Seq, Locked);
  if (P.Expected >= 0)
    EXPECT_EQ(Seq, P.Expected);
}

TEST_P(ProgramEquivalence, EveryOptLevelAgreesUnderStm) {
  const TmirProgram &P = GetParam().program();
  Module Ref = parseModuleOrDie(P.Source);
  verifyModuleOrDie(Ref);
  int64_t Expected = runProgram(Ref, P, Interpreter::TxMode::IgnoreAtomic);

  OptConfig Levels[] = {OptConfig::none(), OptConfig::all()};
  // Also each optimization alone, to catch pairwise-masking bugs.
  for (int Bit = 0; Bit < 6; ++Bit) {
    OptConfig C = OptConfig::none();
    C.LocalCse = true;
    switch (Bit) {
    case 0:
      C.OpenElim = true;
      break;
    case 1:
      C.Upgrade = true;
      break;
    case 2:
      C.AllocElision = true;
      break;
    case 3:
      C.OpenLicm = true;
      break;
    case 4:
      C.Dce = true;
      break;
    case 5:
      C.Inline = true;
      break;
    }
    Module M = parseModuleOrDie(P.Source);
    verifyModuleOrDie(M);
    lowerAndOptimize(M, C);
    EXPECT_EQ(runProgram(M, P, Interpreter::TxMode::ObjStm), Expected)
        << "single-opt config bit " << Bit;
  }
  for (const OptConfig &C : Levels) {
    Module M = parseModuleOrDie(P.Source);
    verifyModuleOrDie(M);
    lowerAndOptimize(M, C);
    EXPECT_EQ(runProgram(M, P, Interpreter::TxMode::ObjStm), Expected);
  }
}

TEST_P(ProgramEquivalence, SurvivesPrinterRoundTripAfterLowering) {
  const TmirProgram &P = GetParam().program();
  Module M = parseModuleOrDie(P.Source);
  verifyModuleOrDie(M);
  lowerAndOptimize(M, OptConfig::all());
  std::string Printed = printModule(M);
  Module M2 = parseModuleOrDie(Printed);
  verifyModuleOrDie(M2);
  EXPECT_EQ(printModule(M2), Printed) << "printer is not a fixpoint";
  int64_t A = runProgram(M, P, Interpreter::TxMode::ObjStm);
  int64_t B = runProgram(M2, P, Interpreter::TxMode::ObjStm);
  EXPECT_EQ(A, B);
}

TEST_P(ProgramEquivalence, DominatorTreeMatchesNaiveDefinition) {
  const TmirProgram &P = GetParam().program();
  Module M = parseModuleOrDie(P.Source);
  verifyModuleOrDie(M);
  lowerAndOptimize(M, OptConfig::all()); // richer CFGs (preheaders, clones)
  for (std::unique_ptr<Function> &F : M.Functions) {
    DominatorTree DT(*F);
    std::size_t N = F->Blocks.size();
    // Naive definition: A dominates B iff B is unreachable when A is
    // removed from the graph.
    auto ReachableWithout = [&](int Removed) {
      std::vector<bool> Seen(N, false);
      if (Removed == 0)
        return Seen; // removing entry: nothing reachable
      std::vector<int> Work{0};
      Seen[0] = true;
      while (!Work.empty()) {
        int B = Work.back();
        Work.pop_back();
        for (int S : F->Blocks[B]->successors())
          if (S != Removed && !Seen[S]) {
            Seen[S] = true;
            Work.push_back(S);
          }
      }
      return Seen;
    };
    // Baseline reachability (for skipping unreachable blocks).
    std::vector<bool> Reachable(N, false);
    {
      std::vector<int> Work{0};
      Reachable[0] = true;
      while (!Work.empty()) {
        int B = Work.back();
        Work.pop_back();
        for (int S : F->Blocks[B]->successors())
          if (!Reachable[S]) {
            Reachable[S] = true;
            Work.push_back(S);
          }
      }
    }
    for (std::size_t A = 0; A < N; ++A) {
      if (!Reachable[A])
        continue;
      std::vector<bool> Cut = ReachableWithout(static_cast<int>(A));
      for (std::size_t B = 0; B < N; ++B) {
        if (!Reachable[B])
          continue;
        bool Expected = (A == B) || !Cut[B];
        EXPECT_EQ(DT.dominates(static_cast<int>(A), static_cast<int>(B)),
                  Expected)
            << F->Name << ": blocks " << A << " -> " << B;
      }
    }
  }
}
