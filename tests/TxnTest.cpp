//===- tests/TxnTest.cpp - Transaction-execution layer tests -------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared transaction-execution layer: contention-manager decision
/// tables (one per policy), the conflict-wait loop's rounds, budget and
/// counters, policy name parsing, the serial-irrevocable gate,
/// retry-controller fallback escalation, CM statistics, and the
/// executor-level guarantees both STM front ends inherit (results without
/// default construction, flattened-nesting accounting).
///
//===----------------------------------------------------------------------===//

#include "txn/CmStats.h"
#include "txn/ContentionManager.h"
#include "txn/RetryExecutor.h"
#include "txn/SerialGate.h"

#include "stm/Stm.h"
#include "wstm/WordStm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace otm;
using namespace otm::txn;

namespace {

struct ConfigGuard {
  ConfigGuard() : Saved(stm::TxManager::config()) {}
  ~ConfigGuard() { stm::TxManager::config() = Saved; }
  stm::TxConfig Saved;
};

/// CmTxState embeds atomics (non-copyable); this just initializes one.
struct TestState : CmTxState {
  TestState(uint64_t Stamp, uint64_t Priority) {
    beginTransaction(Stamp);
    addPriority(Priority);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Policy identity and parsing
//===----------------------------------------------------------------------===//

TEST(CmPolicyTest, NamesRoundTrip) {
  for (unsigned I = 0; I < NumCmPolicies; ++I) {
    CmPolicy P = static_cast<CmPolicy>(I);
    CmPolicy Parsed;
    ASSERT_TRUE(parsePolicy(policyName(P), Parsed)) << policyName(P);
    EXPECT_EQ(Parsed, P);
  }
  // CmRules rows follow the enum order.
  EXPECT_STREQ(policyName(CmPolicy::Passive), "passive");
  EXPECT_STREQ(policyName(CmPolicy::Backoff), "backoff");
  EXPECT_STREQ(policyName(CmPolicy::Karma), "karma");
  EXPECT_STREQ(policyName(CmPolicy::TimestampGreedy), "greedy");
}

TEST(CmPolicyTest, ParseRejectsUnknownAndNull) {
  CmPolicy P = CmPolicy::Karma;
  EXPECT_FALSE(parsePolicy("no-such-policy", P));
  EXPECT_FALSE(parsePolicy(nullptr, P));
  EXPECT_EQ(P, CmPolicy::Karma) << "failed parse must not clobber the out arg";
}

TEST(CmPolicyTest, ArrivalStampsAreUniqueAndNonZero) {
  uint64_t A = nextArrivalStamp();
  uint64_t B = nextArrivalStamp();
  EXPECT_NE(A, 0u);
  EXPECT_LT(A, B);
}

TEST(CmPolicyTest, CmTxStateResetsPerTransaction) {
  TestState St(7, 100);
  EXPECT_EQ(St.stamp(), 7u);
  EXPECT_EQ(St.priority(), 100u);
  St.beginTransaction(9);
  EXPECT_EQ(St.stamp(), 9u);
  EXPECT_EQ(St.priority(), 0u) << "karma must not leak across transactions";
}

//===----------------------------------------------------------------------===//
// Decision tables
//===----------------------------------------------------------------------===//

TEST(CmDecisionTest, PassiveNeverWaits) {
  constexpr CmPolicy P = CmPolicy::Passive;
  TestState Us(0, 0), Owner(0, 1000);
  for (unsigned Round : {0u, 1u, 100u})
    EXPECT_EQ(onConflict(P, Us, Owner, Round, 4), ConflictChoice::AbortSelf);
  EXPECT_FALSE(needsArrivalStamp(P));
  EXPECT_FALSE(pausesAfterAbort(P));
  Backoff B(1);
  EXPECT_FALSE(pauseAfterAbort(P, B)) << "passive does not pace retries";
}

TEST(CmDecisionTest, BackoffWaitsExactlyTheBudget) {
  constexpr CmPolicy P = CmPolicy::Backoff;
  TestState Us(0, 0), Owner(0, 0);
  constexpr unsigned Budget = 4;
  for (unsigned Round = 0; Round < Budget; ++Round)
    EXPECT_EQ(onConflict(P, Us, Owner, Round, Budget), ConflictChoice::Wait);
  EXPECT_EQ(onConflict(P, Us, Owner, Budget, Budget),
            ConflictChoice::AbortSelf)
      << "budget exhaustion is a timeout abort, not a priority abort";
  EXPECT_FALSE(needsArrivalStamp(P));
  EXPECT_TRUE(pausesAfterAbort(P));
  Backoff B(1);
  EXPECT_TRUE(pauseAfterAbort(P, B));
}

TEST(CmDecisionTest, KarmaRicherWaitsPoorerYields) {
  constexpr CmPolicy P = CmPolicy::Karma;
  TestState Rich(0, 500), Poor(0, 10);
  // The richer attacker outwaits the owner, with extended patience.
  EXPECT_EQ(onConflict(P, Rich, Poor, 0, 4), ConflictChoice::Wait);
  EXPECT_EQ(onConflict(P, Rich, Poor, 31, 4), ConflictChoice::Wait);
  EXPECT_EQ(onConflict(P, Rich, Poor, 32, 4), ConflictChoice::AbortSelf);
  // The poorer attacker loses the arbitration outright.
  EXPECT_EQ(onConflict(P, Poor, Rich, 0, 4),
            ConflictChoice::AbortSelfPriority);
  // Ties go to the attacker (it waits): equal karma must not deadlock into
  // mutual priority aborts.
  TestState AlsoRich(0, 500);
  EXPECT_EQ(onConflict(P, Rich, AlsoRich, 0, 4), ConflictChoice::Wait);
  EXPECT_FALSE(needsArrivalStamp(P));
  EXPECT_TRUE(pausesAfterAbort(P));
}

TEST(CmDecisionTest, GreedyOldestWins) {
  constexpr CmPolicy P = CmPolicy::TimestampGreedy;
  TestState Elder(10, 0), Younger(20, 0);
  // The elder attacker outwaits the younger owner (extended patience).
  EXPECT_EQ(onConflict(P, Elder, Younger, 0, 4), ConflictChoice::Wait);
  EXPECT_EQ(onConflict(P, Elder, Younger, 32, 4), ConflictChoice::AbortSelf);
  // The younger attacker yields to the elder at once.
  EXPECT_EQ(onConflict(P, Younger, Elder, 0, 4),
            ConflictChoice::AbortSelfPriority);
  // Unstamped owners (transactions begun outside the retry layer) are
  // arbitrated like backoff: wait, then timeout.
  TestState Unstamped(0, 0);
  EXPECT_EQ(onConflict(P, Younger, Unstamped, 0, 4), ConflictChoice::Wait);
  EXPECT_TRUE(needsArrivalStamp(P));
  EXPECT_TRUE(pausesAfterAbort(P));
}

//===----------------------------------------------------------------------===//
// The one conflict-wait loop
//===----------------------------------------------------------------------===//

namespace {
/// Runs waitRound(Owner) until it gives up; returns the rounds waited.
unsigned roundsUntilAbort(CmPolicy P, const CmTxState &Us,
                          const CmTxState &Owner, ConflictWait::Kind K) {
  ConflictWait Wait(P, Us, K);
  unsigned Calls = 0;
  while (Wait.waitRound(Owner))
    EXPECT_EQ(Wait.rounds(), ++Calls);
  return Wait.rounds();
}
} // namespace

TEST(ConflictWaitRounds, BudgetIsFourRoundsOfThirtyTwoSpins) {
  EXPECT_EQ(ConflictWait::RoundSpins, 32u);
  EXPECT_EQ(ConflictWait::BudgetRounds, 4u);
  TestState Us(0, 0), Owner(0, 0);
  EXPECT_EQ(roundsUntilAbort(CmPolicy::Passive, Us, Owner,
                             ConflictWait::Ownership),
            0u);
  EXPECT_EQ(roundsUntilAbort(CmPolicy::Backoff, Us, Owner,
                             ConflictWait::Ownership),
            ConflictWait::BudgetRounds);
  // karma and greedy scale the same budget by their patience.
  TestState Rich(0, 500), Poor(0, 10), Elder(10, 0), Younger(20, 0);
  EXPECT_EQ(roundsUntilAbort(CmPolicy::Karma, Rich, Poor,
                             ConflictWait::Semantic),
            8 * ConflictWait::BudgetRounds);
  EXPECT_EQ(roundsUntilAbort(CmPolicy::TimestampGreedy, Elder, Younger,
                             ConflictWait::Semantic),
            8 * ConflictWait::BudgetRounds);
}

TEST(ConflictWaitRounds, CountsOncePerConflictByKind) {
  TestState Us(0, 0), Owner(0, 0), Elder(10, 0), Younger(20, 0);
  CmStatsSnapshot Before = CmStats::instance().snapshot();
  // Both kinds count a wait only when the policy waits: passive never
  // does and the younger greedy attacker yields at once.
  roundsUntilAbort(CmPolicy::Passive, Us, Owner, ConflictWait::Ownership);
  roundsUntilAbort(CmPolicy::Backoff, Us, Owner, ConflictWait::Ownership);
  roundsUntilAbort(CmPolicy::TimestampGreedy, Younger, Elder,
                   ConflictWait::Ownership);
  CmStatsSnapshot Mid = CmStats::instance().snapshot();
  EXPECT_EQ(Mid.ConflictWaits - Before.ConflictWaits, 1u);
  EXPECT_EQ(Mid.PriorityAborts - Before.PriorityAborts, 1u);
  EXPECT_EQ(Mid.SemanticWaits - Before.SemanticWaits, 0u);
  roundsUntilAbort(CmPolicy::Passive, Us, Owner, ConflictWait::Semantic);
  roundsUntilAbort(CmPolicy::Backoff, Us, Owner, ConflictWait::Semantic);
  roundsUntilAbort(CmPolicy::TimestampGreedy, Younger, Elder,
                   ConflictWait::Semantic);
  CmStatsSnapshot After = CmStats::instance().snapshot();
  EXPECT_EQ(After.SemanticWaits - Mid.SemanticWaits, 1u);
  EXPECT_EQ(After.SemanticPriorityAborts - Mid.SemanticPriorityAborts, 1u);
  EXPECT_EQ(After.ConflictWaits - Mid.ConflictWaits, 0u);
  EXPECT_EQ(After.PriorityAborts - Mid.PriorityAborts, 0u);
}

TEST(ConflictWaitRounds, OwnerlessWaitIsBudgetOnly) {
  // No owner to rank: a policy waits its own budget capped at the base
  // budget (passive none, the others 4 rounds) and counts nothing.
  TestState Us(0, 0);
  CmStatsSnapshot Before = CmStats::instance().snapshot();
  for (unsigned I = 0; I < NumCmPolicies; ++I) {
    const CmPolicy P = static_cast<CmPolicy>(I);
    ConflictWait Wait(P, Us, ConflictWait::Semantic);
    unsigned Rounds = 0;
    while (Wait.waitRound())
      ++Rounds;
    EXPECT_EQ(Rounds, P == CmPolicy::Passive ? 0u : ConflictWait::BudgetRounds)
        << policyName(P);
  }
  CmStatsSnapshot After = CmStats::instance().snapshot();
  EXPECT_EQ(After.SemanticWaits, Before.SemanticWaits);
  EXPECT_EQ(After.ConflictWaits, Before.ConflictWaits);
}

//===----------------------------------------------------------------------===//
// CM statistics
//===----------------------------------------------------------------------===//

TEST(CmStatsTest, BumpSnapshotResetAgree) {
  CmStatsSnapshot Before = CmStats::instance().snapshot();
  CmStats::instance().bumpPriorityAborts();
  CmStats::instance().bumpPriorityAborts(3);
  CmStats::instance().bumpFallbackEntries();
  CmStatsSnapshot After = CmStats::instance().snapshot();
  EXPECT_EQ(After.PriorityAborts - Before.PriorityAborts, 4u);
  EXPECT_EQ(After.FallbackEntries - Before.FallbackEntries, 1u);
  unsigned Counters = 0;
  After.forEachCounter([&](const char *Name, uint64_t) {
    EXPECT_NE(Name, nullptr);
    ++Counters;
  });
  EXPECT_EQ(Counters, 18u); // 8 software + 10 HTM abort/fallback counters
}

//===----------------------------------------------------------------------===//
// Serial gate
//===----------------------------------------------------------------------===//

TEST(SerialGateTest, ExclusiveDrainsInFlightSharedAttempts) {
  SerialGate &Gate = SerialGate::instance();
  SerialGate::Slot &Mine = Gate.slotForCurrentThread();
  ASSERT_FALSE(Gate.exclusiveActive());
  Gate.enterShared(Mine);

  std::atomic<bool> Acquired{false};
  std::thread Owner([&] {
    SerialGate::Slot &Slot = Gate.slotForCurrentThread();
    Gate.enterExclusive(Slot); // must block until our shared attempt exits
    Acquired.store(true, std::memory_order_release);
    Gate.exitExclusive();
  });

  // The owner publishes the flag first, then drains; with our attempt still
  // in flight it cannot finish acquiring.
  while (!Gate.exclusiveActive())
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Acquired.load(std::memory_order_acquire))
      << "exclusive entry completed while a shared attempt was in flight";

  Gate.exitShared(Mine);
  Owner.join();
  EXPECT_TRUE(Acquired.load());
  EXPECT_FALSE(Gate.exclusiveActive());
}

TEST(SerialGateTest, ExclusiveExemptsOwnSlotDepth) {
  // A thread whose own slot is still active (outer-nesting transaction)
  // must be able to escalate without deadlocking on itself.
  SerialGate &Gate = SerialGate::instance();
  SerialGate::Slot &Mine = Gate.slotForCurrentThread();
  Gate.enterShared(Mine);
  Gate.enterExclusive(Mine);
  EXPECT_TRUE(Gate.exclusiveActive());
  Gate.exitExclusive();
  Gate.exitShared(Mine);
  EXPECT_FALSE(Gate.exclusiveActive());
}

//===----------------------------------------------------------------------===//
// Retry controller
//===----------------------------------------------------------------------===//

TEST(RetryControllerTest, EscalatesToSerialAfterBudget) {
  CmStatsSnapshot Before = CmStats::instance().snapshot();
  CmTxState St;
  {
    RetryController Ctl(CmPolicy::Passive, St,
                        /*FallbackAfter=*/2, /*BackoffSeed=*/1);
    // Two failed attempts exhaust the budget...
    Ctl.beforeAttempt(0);
    EXPECT_FALSE(Ctl.inSerialMode());
    Ctl.afterAbort(10);
    Ctl.beforeAttempt(10);
    Ctl.afterAbort(25);
    EXPECT_EQ(Ctl.attempts(), 2u);
    EXPECT_EQ(St.priority(), 25u) << "karma accrues across attempts";
    // ...so the third runs serial-irrevocable.
    Ctl.beforeAttempt(25);
    EXPECT_TRUE(Ctl.inSerialMode());
    EXPECT_TRUE(SerialGate::instance().exclusiveActive());
    Ctl.onFinished();
    EXPECT_FALSE(SerialGate::instance().exclusiveActive());
  }
  CmStatsSnapshot After = CmStats::instance().snapshot();
  EXPECT_EQ(After.FallbackEntries - Before.FallbackEntries, 1u);
  EXPECT_EQ(After.FallbackCommits - Before.FallbackCommits, 1u);
}

TEST(RetryControllerTest, DestructorReleasesExclusiveGate) {
  CmTxState St;
  {
    RetryController Ctl(CmPolicy::Passive, St,
                        /*FallbackAfter=*/1, /*BackoffSeed=*/1);
    Ctl.beforeAttempt(0);
    Ctl.afterAbort(0);
    Ctl.beforeAttempt(0);
    ASSERT_TRUE(SerialGate::instance().exclusiveActive());
    // Simulated unwind: no onFinished, the destructor must release.
  }
  EXPECT_FALSE(SerialGate::instance().exclusiveActive());
}

TEST(RetryControllerTest, ZeroBudgetNeverEscalates) {
  CmTxState St;
  RetryController Ctl(CmPolicy::Passive, St, /*FallbackAfter=*/0,
                      /*BackoffSeed=*/1);
  for (int I = 0; I < 100; ++I) {
    Ctl.beforeAttempt(0);
    EXPECT_FALSE(Ctl.inSerialMode());
    Ctl.afterAbort(0);
  }
  Ctl.onFinished();
}

TEST(RetryControllerTest, GreedyTransactionsGetArrivalStamps) {
  CmTxState St;
  RetryController Ctl(CmPolicy::TimestampGreedy, St, 0, 1);
  EXPECT_NE(St.stamp(), 0u);
  CmTxState St2;
  RetryController Ctl2(CmPolicy::TimestampGreedy, St2, 0, 1);
  EXPECT_LT(St.stamp(), St2.stamp());
  // Policies that do not rank by age skip the global clock.
  CmTxState St3;
  RetryController Ctl3(CmPolicy::Backoff, St3, 0, 1);
  EXPECT_EQ(St3.stamp(), 0u);
  Ctl.onFinished();
  Ctl2.onFinished();
  Ctl3.onFinished();
}

//===----------------------------------------------------------------------===//
// Executor-level guarantees shared by both STM front ends
//===----------------------------------------------------------------------===//

namespace {

/// Move-only, no default constructor: the old per-STM result copies
/// required `ResultType Result{}`; the unified executor must not.
struct Opaque {
  explicit Opaque(int64_t V) : V(V) {}
  Opaque(const Opaque &) = delete;
  Opaque &operator=(const Opaque &) = delete;
  Opaque(Opaque &&) = default;
  int64_t V;
};

struct Cell : stm::TxObject {
  stm::Field<int64_t> Value;
};

} // namespace

TEST(RetryExecutorTest, AtomicResultNeedsNoDefaultConstructor) {
  Cell C;
  C.Value.store(41);
  auto Body = [&](stm::TxManager &Tx) {
    return Opaque(Tx.read(&C, &Cell::Value) + 1);
  };
  // Every Stm entry point returns results through the one executor loop.
  Opaque R = stm::Stm::atomic(Body);
  EXPECT_EQ(R.V, 42);
  Opaque RO = stm::Stm::atomicReadOnly(Body);
  EXPECT_EQ(RO.V, 42);
  Opaque RS = stm::Stm::atomicScheduled(/*ClassId=*/5, Body);
  EXPECT_EQ(RS.V, 42);
  TxSummary Declared;
  Declared.addRead(reinterpret_cast<uintptr_t>(&C));
  Opaque RD = stm::Stm::atomicScheduled(/*ClassId=*/5, Declared, Body);
  EXPECT_EQ(RD.V, 42);

  wstm::WCell<int64_t> W;
  W.store(41);
  Opaque RW = wstm::WordStm::atomic([&](wstm::WTxManager &Tx) {
    return Opaque(Tx.read(W) + 1);
  });
  EXPECT_EQ(RW.V, 42);
}

TEST(RetryExecutorTest, NestedAtomicCountsAsSubsumedInBothStms) {
  // Satellite of the txn refactor: the word STM used to flatten nested
  // atomic() calls without recording them, so E5/E7 nesting counters
  // disagreed between the two STMs. Both must count one SubsumedTx per
  // flattened level now.
  uint64_t ObjBefore = stm::TxManager::current().stats().SubsumedTx;
  Cell C;
  stm::Stm::atomic([&](stm::TxManager &) {
    stm::Stm::atomic([&](stm::TxManager &) {
      stm::Stm::atomic([&](stm::TxManager &Tx) {
        Tx.write(&C, &Cell::Value, int64_t{5});
      });
    });
  });
  EXPECT_EQ(stm::TxManager::current().stats().SubsumedTx - ObjBefore, 2u);

  uint64_t WordBefore = wstm::WTxManager::current().stats().SubsumedTx;
  wstm::WCell<int64_t> W;
  wstm::WordStm::atomic([&](wstm::WTxManager &) {
    wstm::WordStm::atomic([&](wstm::WTxManager &) {
      wstm::WordStm::atomic(
          [&](wstm::WTxManager &Tx) { Tx.write(W, int64_t{5}); });
    });
  });
  EXPECT_EQ(wstm::WTxManager::current().stats().SubsumedTx - WordBefore, 2u);
  EXPECT_EQ(C.Value.load(), 5);
  EXPECT_EQ(W.load(), 5);

  // Direct begin()/tryCommit() nesting (the interpreter's path) counts the
  // same way.
  uint64_t DirectBefore = stm::TxManager::current().stats().SubsumedTx;
  stm::TxManager &Tx = stm::TxManager::current();
  Tx.begin();
  Tx.begin();
  EXPECT_TRUE(Tx.tryCommit());
  EXPECT_TRUE(Tx.tryCommit());
  EXPECT_EQ(stm::TxManager::current().stats().SubsumedTx - DirectBefore, 1u);
}

TEST(RetryExecutorTest, PolicySelectionIsRuntimeConfigurable) {
  // Every policy must drive both STMs to a correct commit (smoke-level
  // check that the adapters consult the config, not a hard-coded manager).
  ConfigGuard Guard;
  for (unsigned I = 0; I < NumCmPolicies; ++I) {
    stm::TxManager::config().ContentionPolicy = static_cast<CmPolicy>(I);
    Cell C;
    stm::Stm::atomic([&](stm::TxManager &Tx) {
      Tx.write(&C, &Cell::Value, int64_t(I + 1));
    });
    EXPECT_EQ(C.Value.load(), int64_t(I + 1));
    wstm::WCell<int64_t> W;
    wstm::WordStm::atomic(
        [&](wstm::WTxManager &Tx) { Tx.write(W, int64_t(I + 1)); });
    EXPECT_EQ(W.load(), int64_t(I + 1));
  }
}
