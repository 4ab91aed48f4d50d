//===- tests/InterpDifferentialTest.cpp - threaded vs switch dispatch -----===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Differential oracle for the interpreter's two execution loops: every
// benchmark program runs through the computed-goto threaded loop and the
// portable switch loop, in every TxMode, with naive and optimized
// lowering, and the results must agree bit-for-bit — return value, trap
// state, printed values, and all eleven dynamic counters. The forced-retry
// cases drive the ObjStm snapshot/restore path deterministically.
//
//===----------------------------------------------------------------------===//

#include "bench/TmirPrograms.h"
#include "interp/Interp.h"
#include "passes/Pipeline.h"
#include "tmir/Parser.h"
#include "tmir/Verifier.h"

#include <gtest/gtest.h>

using namespace otm;
using namespace otm::bench;
using namespace otm::interp;
using namespace otm::passes;
using namespace otm::tmir;

namespace {

struct EngineSample {
  Interpreter::RunResult R;
  std::vector<int64_t> Printed;
  uint64_t Counters[11];
};

EngineSample runEngine(const char *Source, const char *Entry, long long Arg,
                       Interpreter::Dispatch Loop, Interpreter::TxMode Mode,
                       const OptConfig &Config, uint32_t ForceRetries) {
  Module M = parseModuleOrDie(Source);
  verifyModuleOrDie(M);
  lowerAndOptimize(M, Config);

  Interpreter::Options O;
  O.Mode = Mode;
  O.Loop = Loop;
  O.ForceRetries = ForceRetries;
  Interpreter I(M, O);

  EngineSample S;
  S.R = I.run(Entry, {Arg});
  S.Printed = I.printedValues();
  const DynCounts &C = I.counts();
  uint64_t Vals[11] = {
      C.Instrs.load(),     C.OpenRead.load(),  C.OpenUpdate.load(),
      C.UndoField.load(),  C.UndoElem.load(),  C.FieldReads.load(),
      C.FieldWrites.load(), C.Calls.load(),    C.TxStarted.load(),
      C.TxCommitted.load(), C.TxRetried.load()};
  std::copy(std::begin(Vals), std::end(Vals), std::begin(S.Counters));
  return S;
}

const char *const CounterNames[11] = {
    "Instrs",     "OpenRead",  "OpenUpdate", "UndoField",
    "UndoElem",   "FieldReads", "FieldWrites", "Calls",
    "TxStarted",  "TxCommitted", "TxRetried"};

void expectSameBehavior(const char *Source, const char *Entry, long long Arg,
                        Interpreter::TxMode Mode, const OptConfig &Config,
                        uint32_t ForceRetries, const char *What) {
  EngineSample T = runEngine(Source, Entry, Arg, Interpreter::Dispatch::Threaded,
                             Mode, Config, ForceRetries);
  EngineSample S = runEngine(Source, Entry, Arg, Interpreter::Dispatch::Switch,
                             Mode, Config, ForceRetries);
  EXPECT_EQ(T.R.Trapped, S.R.Trapped) << What;
  EXPECT_EQ(T.R.Error, S.R.Error) << What;
  EXPECT_EQ(T.R.Value, S.R.Value) << What;
  EXPECT_EQ(T.Printed, S.Printed) << What;
  for (int K = 0; K < 11; ++K)
    EXPECT_EQ(T.Counters[K], S.Counters[K])
        << What << ": counter " << CounterNames[K];
}

const Interpreter::TxMode AllModes[] = {Interpreter::TxMode::IgnoreAtomic,
                                        Interpreter::TxMode::GlobalLock,
                                        Interpreter::TxMode::ObjStm};

const char *modeName(Interpreter::TxMode Mode) {
  switch (Mode) {
  case Interpreter::TxMode::IgnoreAtomic:
    return "ignore-atomic";
  case Interpreter::TxMode::GlobalLock:
    return "global-lock";
  case Interpreter::TxMode::ObjStm:
    return "obj-stm";
  }
  return "?";
}

} // namespace

TEST(InterpDifferential, BenchProgramsAllModes) {
  unsigned NumPrograms = 0;
  const TmirProgram *Programs = tmirPrograms(NumPrograms);
  for (unsigned P = 0; P < NumPrograms; ++P)
    for (Interpreter::TxMode Mode : AllModes)
      for (bool Optimized : {false, true}) {
        std::string What = std::string(Programs[P].Name) + "/" +
                           modeName(Mode) +
                           (Optimized ? "/optimized" : "/naive");
        expectSameBehavior(Programs[P].Source, Programs[P].Entry,
                           Programs[P].Arg, Mode,
                           Optimized ? OptConfig::all() : OptConfig::none(),
                           0, What.c_str());
      }
}

TEST(InterpDifferential, BenchProgramsObjStmForcedRetries) {
  unsigned NumPrograms = 0;
  const TmirProgram *Programs = tmirPrograms(NumPrograms);
  for (unsigned P = 0; P < NumPrograms; ++P)
    for (bool Optimized : {false, true}) {
      std::string What = std::string(Programs[P].Name) +
                         (Optimized ? "/optimized" : "/naive") +
                         "/force-retries";
      expectSameBehavior(Programs[P].Source, Programs[P].Entry,
                         Programs[P].Arg, Interpreter::TxMode::ObjStm,
                         Optimized ? OptConfig::all() : OptConfig::none(), 2,
                         What.c_str());
    }
}

TEST(InterpDifferential, ForcedRetriesActuallyRetry) {
  // Sanity-check the hook itself: with ForceRetries=2 every top-level
  // region takes exactly two extra attempts, and the result is unchanged.
  unsigned NumPrograms = 0;
  const TmirProgram *Programs = tmirPrograms(NumPrograms);
  const TmirProgram &P = Programs[0]; // list-sum: one top-level region
  EngineSample S =
      runEngine(P.Source, P.Entry, P.Arg, Interpreter::Dispatch::Threaded,
                Interpreter::TxMode::ObjStm, OptConfig::none(), 2);
  ASSERT_FALSE(S.R.Trapped) << S.R.Error;
  EXPECT_EQ(S.R.Value, P.Expected);
  EXPECT_EQ(S.Counters[10], 2u); // TxRetried
  EXPECT_EQ(S.Counters[9], 1u);  // TxCommitted
  EXPECT_EQ(S.Counters[8], 3u);  // TxStarted: 1 + 2 retried attempts
}

TEST(InterpDifferential, PrintsAndTrapsMatch) {
  static const char *PrintProgram = R"(
func main(n: i64): i64 {
  var i: i64
entry:
  storelocal i, 0
  br loop
loop:
  %i = loadlocal i
  %n = loadlocal n
  %done = cmpge %i, %n
  condbr %done, exit, body
body:
  %sq = mul %i, %i
  print %sq
  %i2 = add %i, 1
  storelocal i, %i2
  br loop
exit:
  %r = loadlocal i
  ret %r
}
)";
  for (Interpreter::TxMode Mode : AllModes)
    expectSameBehavior(PrintProgram, "main", 10, Mode, OptConfig::none(), 0,
                       "print-squares");

  static const char *TrapProgram = R"(
func main(n: i64): i64 {
entry:
  %n = loadlocal n
  %z = sub %n, %n
  %r = div %n, %z
  ret %r
}
)";
  for (Interpreter::TxMode Mode : AllModes)
    expectSameBehavior(TrapProgram, "main", 7, Mode, OptConfig::none(), 0,
                       "div-by-zero-trap");
}
