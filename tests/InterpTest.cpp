//===- tests/InterpTest.cpp - TMIR interpreter tests ---------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end interpreter tests: sequential semantics, traps, transactional
/// execution against the real STM (single- and multi-threaded), equivalence
/// of naive vs optimized barrier placement, and the GC/log integration.
///
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "passes/Pipeline.h"
#include "stm/Stm.h"
#include "support/ThreadBarrier.h"
#include "tmir/Parser.h"
#include "tmir/Verifier.h"
#include "txn/CmStats.h"
#include "txn/SerialGate.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace otm;
using namespace otm::interp;
using namespace otm::passes;
using namespace otm::tmir;

namespace {

Module parsed(const std::string &Text) {
  Module M = parseModuleOrDie(Text);
  verifyModuleOrDie(M);
  return M;
}

Interpreter::Options seqOpts() {
  Interpreter::Options O;
  O.Mode = Interpreter::TxMode::IgnoreAtomic;
  return O;
}

} // namespace

TEST(InterpSeq, ArithmeticAndControlFlow) {
  Module M = parsed(R"(
func fib(n: i64): i64 {
  var a: i64
  var b: i64
  var i: i64
entry:
  storelocal a, 0
  storelocal b, 1
  storelocal i, 0
  br loop
loop:
  %i = loadlocal i
  %n = loadlocal n
  %done = cmpge %i, %n
  condbr %done, exit, body
body:
  %a = loadlocal a
  %b = loadlocal b
  %s = add %a, %b
  storelocal a, %b
  storelocal b, %s
  %i2 = add %i, 1
  storelocal i, %i2
  br loop
exit:
  %r = loadlocal a
  ret %r
}
)");
  Interpreter I(M, seqOpts());
  EXPECT_EQ(I.run("fib", {0}).Value, 0);
  EXPECT_EQ(I.run("fib", {1}).Value, 1);
  EXPECT_EQ(I.run("fib", {10}).Value, 55);
  EXPECT_EQ(I.run("fib", {20}).Value, 6765);
}

TEST(InterpSeq, RecursionAndCalls) {
  Module M = parsed(R"(
func fact(n: i64): i64 {
entry:
  %n = loadlocal n
  %z = cmple %n, 1
  condbr %z, base, step
base:
  ret 1
step:
  %m = sub %n, 1
  %r = call fact(%m)
  %p = mul %n, %r
  ret %p
}
)");
  Interpreter I(M, seqOpts());
  EXPECT_EQ(I.run("fact", {5}).Value, 120);
  EXPECT_EQ(I.run("fact", {10}).Value, 3628800);
}

TEST(InterpSeq, ObjectsAndArrays) {
  Module M = parsed(R"(
class Pair { a: i64, b: i64 }
func go(): i64 {
entry:
  %p = newobj Pair
  setfield %p, Pair.a, 7
  setfield %p, Pair.b, 8
  %arr = newarr 4
  %x = getfield %p, Pair.a
  arrset %arr, 0, %x
  %y = getfield %p, Pair.b
  arrset %arr, 1, %y
  %v0 = arrget %arr, 0
  %v1 = arrget %arr, 1
  %l = arrlen %arr
  %s = add %v0, %v1
  %s2 = add %s, %l
  ret %s2
}
)");
  Interpreter I(M, seqOpts());
  EXPECT_EQ(I.run("go", {}).Value, 19);
}

TEST(InterpSeq, PrintCaptures) {
  Module M = parsed(R"(
func go() {
entry:
  print 42
  print 43
  ret
}
)");
  Interpreter I(M, seqOpts());
  ASSERT_FALSE(I.run("go", {}).Trapped);
  ASSERT_EQ(I.printedValues().size(), 2u);
  EXPECT_EQ(I.printedValues()[0], 42);
  EXPECT_EQ(I.printedValues()[1], 43);
}

TEST(InterpSeq, TrapsAreReported) {
  Module M = parsed(R"(
class P { x: i64 }
func nullDeref(): i64 {
  var p: P
entry:
  %o = loadlocal p
  %v = getfield %o, P.x
  ret %v
}
func divZero(): i64 {
entry:
  %v = div 1, 0
  ret %v
}
func oob(): i64 {
entry:
  %a = newarr 2
  %v = arrget %a, 5
  ret %v
}
func infinite(): i64 {
entry:
  %r = call infinite()
  ret %r
}
)");
  Interpreter I(M, seqOpts());
  Interpreter::RunResult R = I.run("nullDeref", {});
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.Error.find("null reference"), std::string::npos);
  EXPECT_TRUE(I.run("divZero", {}).Trapped);
  EXPECT_TRUE(I.run("oob", {}).Trapped);
  R = I.run("infinite", {});
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.Error.find("depth"), std::string::npos);
}

namespace {

/// Shared counter-increment program used by the transactional tests. The
/// incr function runs `reps` atomic increments on the object's field.
const char *CounterProgram = R"(
class Counter { value: i64 }
func incr(c: Counter, reps: i64): i64 {
  var i: i64
entry:
  storelocal i, 0
  br loop
loop:
  %i = loadlocal i
  %n = loadlocal reps
  %done = cmpge %i, %n
  condbr %done, exit, body
body:
  atomic_begin
  %o = loadlocal c
  %v = getfield %o, Counter.value
  %v2 = add %v, 1
  setfield %o, Counter.value, %v2
  atomic_end
  %i2 = add %i, 1
  storelocal i, %i2
  br loop
exit:
  %o2 = loadlocal c
  %r = getfield %o2, Counter.value
  ret %r
}
)";

} // namespace

TEST(InterpDeathTest, MakeObjectRejectsUnknownClass) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Module M = parsed(CounterProgram);
  Interpreter I(M, Interpreter::Options{});
  EXPECT_DEATH(I.makeObject("Account"), "no class 'Account'");
}

TEST(InterpTx, SingleThreadCommitCounts) {
  Module M = parsed(CounterProgram);
  lowerAndOptimize(M, OptConfig::all());
  Interpreter::Options O;
  O.Mode = Interpreter::TxMode::ObjStm;
  Interpreter I(M, O);
  HeapObject *C = I.makeObject("Counter");
  Interpreter::RunResult R =
      I.run("incr", {HeapObject::toBits(C), 100});
  ASSERT_FALSE(R.Trapped) << R.Error;
  EXPECT_EQ(R.Value, 100);
  EXPECT_EQ(C->Slots[0].load(), 100);
  EXPECT_EQ(I.counts().TxCommitted.load(), 100u);
  EXPECT_EQ(I.counts().TxRetried.load(), 0u);
}

class InterpTxModes
    : public ::testing::TestWithParam<Interpreter::TxMode> {};

INSTANTIATE_TEST_SUITE_P(AllModes, InterpTxModes,
                         ::testing::Values(Interpreter::TxMode::GlobalLock,
                                           Interpreter::TxMode::ObjStm));

TEST_P(InterpTxModes, ConcurrentIncrementsAreExact) {
  Module M = parsed(CounterProgram);
  lowerAndOptimize(M, OptConfig::all());
  Interpreter::Options O;
  O.Mode = GetParam();
  Interpreter I(M, O);
  HeapObject *C = I.makeObject("Counter");

  constexpr int NumThreads = 4;
  constexpr int Reps = 300;
  ThreadBarrier Barrier(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      Barrier.arriveAndWait();
      Interpreter::RunResult R =
          I.run("incr", {HeapObject::toBits(C), Reps});
      EXPECT_FALSE(R.Trapped) << R.Error;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(C->Slots[0].load(), NumThreads * Reps);
}

TEST(InterpConcurrent, FourInterpretersBuildAtOnceOnOneModule) {
  // Every Interpreter verifies its module. Built from four threads at once
  // on one module, no constructor may see another's type inference half
  // done. Even rounds start from a freshly parsed module, whose register
  // types the first verification fills in; odd rounds from a lowered one,
  // already verified (the perfbench set-up).
  constexpr int NumThreads = 4;
  constexpr int Reps = 50;
  for (int Round = 0; Round < 32; ++Round) {
    Module M = parseModuleOrDie(CounterProgram);
    if (Round % 2)
      lowerAndOptimize(M, OptConfig::all());
    ThreadBarrier Barrier(NumThreads);
    std::vector<std::thread> Threads;
    for (int T = 0; T < NumThreads; ++T)
      Threads.emplace_back([&] {
        Barrier.arriveAndWait();
        Interpreter::Options O;
        O.Mode = Interpreter::TxMode::ObjStm;
        Interpreter I(M, O);
        HeapObject *C = I.makeObject("Counter");
        Interpreter::RunResult R =
            I.run("incr", {HeapObject::toBits(C), Reps});
        EXPECT_FALSE(R.Trapped) << R.Error;
        EXPECT_EQ(R.Value, Reps);
      });
    for (std::thread &T : Threads)
      T.join();
  }
}

TEST(InterpTx, NaiveAndOptimizedAgreeButCountsDiffer) {
  Module Naive = parsed(CounterProgram);
  lowerAndOptimize(Naive, OptConfig::none());
  Module Opt = parsed(CounterProgram);
  lowerAndOptimize(Opt, OptConfig::all());

  Interpreter::Options O;
  O.Mode = Interpreter::TxMode::ObjStm;
  Interpreter NaiveInterp(Naive, O);
  Interpreter OptInterp(Opt, O);
  HeapObject *C1 = NaiveInterp.makeObject("Counter");
  HeapObject *C2 = OptInterp.makeObject("Counter");

  EXPECT_EQ(NaiveInterp.run("incr", {HeapObject::toBits(C1), 50}).Value, 50);
  EXPECT_EQ(OptInterp.run("incr", {HeapObject::toBits(C2), 50}).Value, 50);

  uint64_t NaiveOpens = NaiveInterp.counts().OpenRead.load() +
                        NaiveInterp.counts().OpenUpdate.load();
  uint64_t OptOpens = OptInterp.counts().OpenRead.load() +
                      OptInterp.counts().OpenUpdate.load();
  EXPECT_LT(OptOpens, NaiveOpens)
      << "optimized code must execute fewer dynamic opens";
}

TEST(InterpTx, AbortedWritesRollBack) {
  // Two threads write conflicting values in long transactions; whatever
  // interleaving happens, the final state must be one thread's complete
  // transaction (both fields), never a mix.
  Module M = parsed(R"(
class Pair { a: i64, b: i64 }
func setBoth(p: Pair, v: i64, spin: i64): i64 {
  var i: i64
entry:
  atomic_begin
  %o = loadlocal p
  %v = loadlocal v
  setfield %o, Pair.a, %v
  storelocal i, 0
  br loop
loop:
  %i = loadlocal i
  %n = loadlocal spin
  %done = cmpge %i, %n
  condbr %done, fin, body
body:
  %i2 = add %i, 1
  storelocal i, %i2
  br loop
fin:
  setfield %o, Pair.b, %v
  atomic_end
  ret 0
}
)");
  lowerAndOptimize(M, OptConfig::all());
  Interpreter::Options O;
  O.Mode = Interpreter::TxMode::ObjStm;
  Interpreter I(M, O);
  HeapObject *P = I.makeObject("Pair");

  ThreadBarrier Barrier(2);
  std::vector<std::thread> Threads;
  for (int T = 0; T < 2; ++T)
    Threads.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (int K = 0; K < 50; ++K)
        I.run("setBoth", {HeapObject::toBits(P), T + 1, 200});
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(P->Slots[0].load(), P->Slots[1].load())
      << "torn transaction visible after completion";
}

namespace {

/// One hand-barriered region. `v` is stored under an undo log, so a
/// rollback restores it; `tries` is stored without one, so it survives
/// rollback and counts the region's attempts. The attempt numbered
/// `trapAt` divides by zero.
const char *TrapProgram = R"(
class Cell { v: i64, tries: i64 }
func poke(c: Cell, trapAt: i64): i64 {
entry:
  atomic_begin
  %o = loadlocal c
  open_update %o
  %t = getfield %o, Cell.tries
  %t2 = add %t, 1
  setfield %o, Cell.tries, %t2
  log_undo_field %o, Cell.v
  %nv = add %t, 99
  setfield %o, Cell.v, %nv
  %at = loadlocal trapAt
  %hit = cmpeq %t2, %at
  condbr %hit, boom, done
boom:
  %z = sub %t2, %t2
  %q = div %t2, %z
  br done
done:
  atomic_end
  ret %t2
}
)";

struct StmConfigGuard {
  StmConfigGuard() : Saved(stm::Stm::config()) {}
  ~StmConfigGuard() { stm::Stm::config() = Saved; }
  stm::TxConfig Saved;
};

/// True when another thread can take the serial gate exclusively, i.e.
/// this thread left no shared or exclusive gate state behind. A leaked
/// shared slot makes the drain wait forever (the test then times out).
bool gateIsFree() {
  if (txn::SerialGate::instance().exclusiveActive())
    return false;
  std::thread Other([] {
    txn::SerialGate &Gate = txn::SerialGate::instance();
    Gate.enterExclusive(Gate.slotForCurrentThread());
    Gate.exitExclusive();
  });
  Other.join();
  return true;
}

} // namespace

TEST(InterpTx, TrapInRegionRollsBackInSoftware) {
  Module M = parsed(TrapProgram);
  Interpreter::Options O;
  O.Mode = Interpreter::TxMode::ObjStm;
  Interpreter I(M, O);
  HeapObject *C = I.makeObject("Cell");
  C->Slots[0].store(5);
  txn::CmStatsSnapshot Before = txn::CmStats::instance().snapshot();
  Interpreter::RunResult R = I.run("poke", {HeapObject::toBits(C), 1});
  txn::CmStatsSnapshot After = txn::CmStats::instance().snapshot();
  ASSERT_TRUE(R.Trapped);
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos) << R.Error;
  EXPECT_EQ(C->Slots[0].load(), 5) << "the trapped region's store survived";
  EXPECT_EQ(C->Slots[1].load(), 1) << "the trap was not in the first attempt";
  EXPECT_FALSE(stm::TxManager::current().inTx());
  EXPECT_EQ(After.FallbackEntries, Before.FallbackEntries);
  EXPECT_TRUE(gateIsFree());
  // The thread runs its next region normally.
  R = I.run("poke", {HeapObject::toBits(C), 0});
  ASSERT_FALSE(R.Trapped) << R.Error;
  EXPECT_EQ(C->Slots[0].load(), 100);
  EXPECT_EQ(I.counts().TxCommitted.load(), 1u);
}

TEST(InterpTx, TrapInSerialModeRollsBackAndFreesTheGate) {
  StmConfigGuard Guard;
  stm::Stm::config().SerialFallbackAfter = 2;
  Module M = parsed(TrapProgram);
  Interpreter::Options O;
  O.Mode = Interpreter::TxMode::ObjStm;
  O.ForceRetries = 8; // past the budget: attempt 3 runs serial
  Interpreter I(M, O);
  HeapObject *C = I.makeObject("Cell");
  C->Slots[0].store(5);
  txn::CmStatsSnapshot Before = txn::CmStats::instance().snapshot();
  Interpreter::RunResult R = I.run("poke", {HeapObject::toBits(C), 3});
  txn::CmStatsSnapshot After = txn::CmStats::instance().snapshot();
  ASSERT_TRUE(R.Trapped);
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos) << R.Error;
  EXPECT_EQ(C->Slots[1].load(), 3);
  EXPECT_EQ(C->Slots[0].load(), 5) << "the serial attempt's store survived";
  EXPECT_EQ(After.FallbackEntries - Before.FallbackEntries, 1u);
  EXPECT_EQ(After.FallbackCommits, Before.FallbackCommits);
  EXPECT_FALSE(stm::TxManager::current().inTx());
  EXPECT_TRUE(gateIsFree());
  EXPECT_EQ(I.counts().TxCommitted.load(), 0u);
}

TEST(InterpTx, ForcedRetriesPastTheBudgetEscalateOnce) {
  StmConfigGuard Guard;
  stm::Stm::config().SerialFallbackAfter = 2;
  Module M = parsed(CounterProgram);
  lowerAndOptimize(M, OptConfig::all());
  Interpreter::Options O;
  O.Mode = Interpreter::TxMode::ObjStm;
  O.ForceRetries = 3; // two software attempts, then two serial ones
  Interpreter I(M, O);
  HeapObject *C = I.makeObject("Counter");
  txn::CmStatsSnapshot Before = txn::CmStats::instance().snapshot();
  Interpreter::RunResult R = I.run("incr", {HeapObject::toBits(C), 1});
  txn::CmStatsSnapshot After = txn::CmStats::instance().snapshot();
  ASSERT_FALSE(R.Trapped) << R.Error;
  EXPECT_EQ(R.Value, 1);
  EXPECT_EQ(C->Slots[0].load(), 1);
  EXPECT_EQ(After.FallbackEntries - Before.FallbackEntries, 1u);
  EXPECT_EQ(After.FallbackCommits - Before.FallbackCommits, 1u);
  EXPECT_EQ(I.counts().TxRetried.load(), 3u);
  EXPECT_EQ(I.counts().TxStarted.load(), 4u);
  EXPECT_EQ(I.counts().TxCommitted.load(), 1u);
  EXPECT_TRUE(gateIsFree());
}

TEST(InterpTx, UnbalancedRegionsTrap) {
  // The verifier leaves region shape to the lowering passes, so unlowered
  // code can return inside a region or close it in another function. Each
  // traps, and the region rolls back.
  Module M = parsed(R"(
class Cell { v: i64 }
func retInside(c: Cell): i64 {
entry:
  atomic_begin
  %o = loadlocal c
  open_update %o
  log_undo_field %o, Cell.v
  setfield %o, Cell.v, 1
  ret 1
}
func endOnly(): i64 {
entry:
  atomic_end
  ret 0
}
func endInCallee(c: Cell): i64 {
entry:
  atomic_begin
  %r = call endOnly()
  atomic_end
  ret %r
}
)");
  Interpreter::Options O;
  O.Mode = Interpreter::TxMode::ObjStm;
  Interpreter I(M, O);
  HeapObject *C = I.makeObject("Cell");
  Interpreter::RunResult R = I.run("retInside", {HeapObject::toBits(C)});
  ASSERT_TRUE(R.Trapped);
  EXPECT_NE(R.Error.find("return inside an atomic region"), std::string::npos)
      << R.Error;
  EXPECT_EQ(C->Slots[0].load(), 0);
  for (Interpreter::RunResult E :
       {I.run("endOnly", {}), I.run("endInCallee", {HeapObject::toBits(C)})}) {
    ASSERT_TRUE(E.Trapped);
    EXPECT_NE(E.Error.find("atomic_end outside"), std::string::npos)
        << E.Error;
  }
  EXPECT_FALSE(stm::TxManager::current().inTx());
  EXPECT_EQ(I.counts().TxCommitted.load(), 0u);
}

TEST(InterpGc, CollectsGarbageAllocations) {
  Module M = parsed(R"(
class Node { next: Node }
func churn(n: i64): i64 {
  var i: i64
  var keep: Node
entry:
  storelocal i, 0
  br loop
loop:
  %i = loadlocal i
  %n = loadlocal n
  %done = cmpge %i, %n
  condbr %done, exit, body
body:
  %fresh = newobj Node
  storelocal keep, %fresh
  %i2 = add %i, 1
  storelocal i, %i2
  br loop
exit:
  %r = loadlocal i
  ret %r
}
)");
  Interpreter::Options O;
  O.Mode = Interpreter::TxMode::IgnoreAtomic;
  O.GcEveryNAllocs = 64;
  Interpreter I(M, O);
  Interpreter::RunResult R = I.run("churn", {10000});
  ASSERT_FALSE(R.Trapped) << R.Error;
  EXPECT_EQ(R.Value, 10000);
  EXPECT_GE(I.heap().stats().Collections, 10u);
  EXPECT_GT(I.heap().stats().ObjectsFreed, 9000u);
  EXPECT_LT(I.heap().liveCount(), 200u);
}

TEST(InterpGc, LiveObjectsSurviveThroughLocals) {
  Module M = parsed(R"(
class Node { val: i64, next: Node }
func buildList(n: i64): i64 {
  var i: i64
  var head: Node
entry:
  storelocal i, 0
  storelocal head, null
  br loop
loop:
  %i = loadlocal i
  %n = loadlocal n
  %done = cmpge %i, %n
  condbr %done, count, body
body:
  %fresh = newobj Node
  setfield %fresh, Node.val, %i
  %h = loadlocal head
  setfield %fresh, Node.next, %h
  storelocal head, %fresh
  %i2 = add %i, 1
  storelocal i, %i2
  br loop
count:
  %c = loadlocal head
  storelocal i, 0
  br countloop
countloop:
  %cc = loadlocal i
  %cur = loadlocal head
  %z = cmpeq %cur, null
  condbr %z, exit, step
step:
  %nx = getfield %cur, Node.next
  storelocal head, %nx
  %c2 = add %cc, 1
  storelocal i, %c2
  br countloop
exit:
  %r = loadlocal i
  ret %r
}
)");
  Interpreter::Options O;
  O.Mode = Interpreter::TxMode::IgnoreAtomic;
  O.GcEveryNAllocs = 128; // collections happen while the list is live
  Interpreter I(M, O);
  Interpreter::RunResult R = I.run("buildList", {5000});
  ASSERT_FALSE(R.Trapped) << R.Error;
  EXPECT_EQ(R.Value, 5000) << "GC freed reachable nodes";
}

TEST(InterpGc, CompactsTransactionLogsDuringCollection) {
  // Force duplicate read enlistments by disabling runtime filtering, then
  // let the GC run mid-transaction: it must dedupe the logs.
  Module M = parsed(R"(
class P { x: i64 }
func hammer(p: P, n: i64): i64 {
  var i: i64
  var acc: i64
entry:
  atomic_begin
  storelocal i, 0
  storelocal acc, 0
  br loop
loop:
  %i = loadlocal i
  %n = loadlocal n
  %done = cmpge %i, %n
  condbr %done, exit, body
body:
  %o = loadlocal p
  open_read %o
  %junk = newobj P
  %v = getfield %o, P.x
  %a = loadlocal acc
  %a2 = add %a, %v
  storelocal acc, %a2
  %i2 = add %i, 1
  storelocal i, %i2
  br loop
exit:
  atomic_end
  %r = loadlocal acc
  ret %r
}
)");
  stm::TxConfig Saved = stm::Stm::config();
  stm::Stm::config().FilterReads = false;
  Interpreter::Options O;
  O.Mode = Interpreter::TxMode::ObjStm;
  O.GcEveryNAllocs = 32;
  Interpreter I(M, O);
  HeapObject *P = I.makeObject("P");
  P->Slots[0].store(2);
  Interpreter::RunResult R = I.run("hammer", {HeapObject::toBits(P), 500});
  stm::Stm::config() = Saved;
  ASSERT_FALSE(R.Trapped) << R.Error;
  EXPECT_EQ(R.Value, 1000);
  EXPECT_GT(I.heap().stats().ReadEntriesDropped, 100u)
      << "GC should have deduplicated unfiltered read enlistments";
  EXPECT_GT(I.heap().stats().ObjectsFreed, 0u)
      << "garbage allocated inside the transaction should be collected";
}
