//===- tests/SchedulerTest.cpp - Admission scheduler tests ----------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// DESIGN.md §3.11 coverage: the fingerprint conservativeness guarantee
// (false conflicts allowed, false "compatible" never), the compat/merge
// decision table, the scheduler's admission mechanics (immediate admit,
// strict-FIFO queueing, bounded-queue overflow and wait-budget bypasses),
// the adaptive gate under forced abort storms, a sched-on vs sched-off
// differential over the same request streams, and a TSan-aimed concurrency
// suite (the CI TSan job's filter matches Scheduler*).
//
//===----------------------------------------------------------------------===//

#include "obs/AbortSites.h"
#include "stm/HashFilter.h"
#include "stm/Stm.h"
#include "support/Random.h"
#include "txn/AdmissionScheduler.h"
#include "txn/Fingerprint.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

using namespace otm;
using txn::AdmissionScheduler;
using txn::RwFingerprint;
using txn::SchedMode;
using txn::TxSummary;

namespace {

//===----------------------------------------------------------------------===//
// Fingerprints: conservativeness and the compat/merge decision table
//===----------------------------------------------------------------------===//

TEST(FingerprintTest, SharedKeyAlwaysIntersects) {
  // The one-sided guarantee, exhaustively over many key choices: a key
  // present in both filters sets the same bits in both, so disjoint() can
  // never report a provably-false "compatible".
  Xoshiro256 Rng(42);
  for (int Trial = 0; Trial < 1000; ++Trial) {
    RwFingerprint A, B;
    uint64_t Shared = Rng.next();
    A.insert(Shared);
    B.insert(Shared);
    for (unsigned I = 0, N = static_cast<unsigned>(Rng.nextBelow(16)); I < N;
         ++I)
      A.insert(Rng.next());
    for (unsigned I = 0, N = static_cast<unsigned>(Rng.nextBelow(16)); I < N;
         ++I)
      B.insert(Rng.next());
    EXPECT_FALSE(RwFingerprint::disjoint(A, B))
        << "false compatible on shared key " << Shared;
  }
}

TEST(FingerprintTest, DisjointVerdictIsProof) {
  // Whenever disjoint() says yes, the underlying sets really are disjoint.
  // (The converse direction may false-conflict; that is allowed and gets no
  // assertion.)
  Xoshiro256 Rng(43);
  for (int Trial = 0; Trial < 500; ++Trial) {
    std::set<uint64_t> SetA, SetB;
    RwFingerprint A, B;
    for (unsigned I = 0, N = 4 + static_cast<unsigned>(Rng.nextBelow(12));
         I < N; ++I) {
      uint64_t K = Rng.nextBelow(64); // tiny keyspace forces real overlaps
      SetA.insert(K);
      A.insert(K);
    }
    for (unsigned I = 0, N = 4 + static_cast<unsigned>(Rng.nextBelow(12));
         I < N; ++I) {
      uint64_t K = Rng.nextBelow(64);
      SetB.insert(K);
      B.insert(K);
    }
    if (RwFingerprint::disjoint(A, B)) {
      for (uint64_t K : SetA)
        EXPECT_EQ(SetB.count(K), 0u)
            << "disjoint() verdict contradicted by shared key " << K;
    }
  }
}

TEST(FingerprintTest, MergeIsUnion) {
  RwFingerprint A, B, Both;
  for (uint64_t K : {1ull, 2ull, 3ull}) {
    A.insert(K);
    Both.insert(K);
  }
  for (uint64_t K : {100ull, 200ull}) {
    B.insert(K);
    Both.insert(K);
  }
  A.merge(B);
  for (unsigned I = 0; I < RwFingerprint::Words; ++I)
    EXPECT_EQ(A.Bits[I], Both.Bits[I]);
}

TEST(FingerprintTest, EmptyAndClear) {
  RwFingerprint F;
  EXPECT_TRUE(F.empty());
  F.insert(7);
  EXPECT_FALSE(F.empty());
  F.clear();
  EXPECT_TRUE(F.empty());
  // Empty is compatible with everything, including itself.
  RwFingerprint G;
  G.insert(7);
  EXPECT_TRUE(RwFingerprint::disjoint(F, G));
  EXPECT_TRUE(RwFingerprint::disjoint(F, F));
}

/// Builds a summary from {reads}, {writes} key lists.
TxSummary summaryOf(std::initializer_list<uint64_t> Reads,
                    std::initializer_list<uint64_t> Writes) {
  TxSummary S;
  for (uint64_t K : Reads)
    S.addRead(K);
  for (uint64_t K : Writes)
    S.addWrite(K);
  return S;
}

TEST(FingerprintTest, CompatDecisionTable) {
  // Read/read overlap is the only overlap compat() tolerates.
  TxSummary ReadK = summaryOf({10}, {});
  TxSummary ReadK2 = summaryOf({10}, {});
  TxSummary WriteK = summaryOf({}, {10});
  TxSummary WriteK2 = summaryOf({}, {10});
  TxSummary Other = summaryOf({20}, {21});

  EXPECT_TRUE(ReadK.compat(ReadK2));   // r/r: compatible
  EXPECT_FALSE(ReadK.compat(WriteK));  // r/w: conflict
  EXPECT_FALSE(WriteK.compat(ReadK));  // w/r: conflict
  EXPECT_FALSE(WriteK.compat(WriteK2)); // w/w: conflict
  EXPECT_TRUE(WriteK.compat(Other));   // fully disjoint footprints
  EXPECT_TRUE(Other.compat(WriteK));   // ... symmetrically
}

TEST(FingerprintTest, MergedSummaryStandsInForBoth) {
  // The snippet exemplar's rule: after merging compatible transactions,
  // anything conflicting with either member conflicts with the merge.
  TxSummary A = summaryOf({1, 2}, {3});
  TxSummary B = summaryOf({4}, {5});
  ASSERT_TRUE(A.compat(B));
  TxSummary Merged = A;
  Merged.merge(B);
  TxSummary HitsA = summaryOf({}, {3});
  TxSummary HitsB = summaryOf({}, {5});
  EXPECT_FALSE(Merged.compat(HitsA));
  EXPECT_FALSE(Merged.compat(HitsB));
}

//===----------------------------------------------------------------------===//
// HashFilter fingerprint export
//===----------------------------------------------------------------------===//

TEST(HashFilterFingerprintTest, MatchesDirectInsertion) {
  stm::HashFilter Filter;
  RwFingerprint Direct;
  Xoshiro256 Rng(44);
  for (int I = 0; I < 200; ++I) {
    uint64_t Key = Rng.next() & ((uint64_t{1} << 48) - 1);
    Filter.insert(Key);
    Direct.insert(Key);
  }
  RwFingerprint Exported = Filter.fingerprint();
  for (unsigned I = 0; I < RwFingerprint::Words; ++I)
    EXPECT_EQ(Exported.Bits[I], Direct.Bits[I]);
}

TEST(HashFilterFingerprintTest, SurvivesGrowAndClear) {
  stm::HashFilter Filter;
  // Force several grows, then clear: the export must see only live keys.
  for (uint64_t K = 1; K <= 500; ++K)
    Filter.insert(K);
  Filter.clear();
  Filter.insert(0xabc);
  RwFingerprint Expected;
  Expected.insert(0xabc);
  RwFingerprint Exported = Filter.fingerprint();
  for (unsigned I = 0; I < RwFingerprint::Words; ++I)
    EXPECT_EQ(Exported.Bits[I], Expected.Bits[I]);
}

TEST(HashFilterFingerprintTest, ConservativeAcrossFilters) {
  // Same one-sidedness through the filter path: two filters sharing a key
  // can never export disjoint fingerprints.
  Xoshiro256 Rng(45);
  for (int Trial = 0; Trial < 200; ++Trial) {
    stm::HashFilter FA, FB;
    uint64_t Shared = Rng.next() & ((uint64_t{1} << 48) - 1);
    FA.insert(Shared);
    FB.insert(Shared);
    for (unsigned I = 0, N = static_cast<unsigned>(Rng.nextBelow(32)); I < N;
         ++I)
      FA.insert(Rng.next() & ((uint64_t{1} << 48) - 1));
    for (unsigned I = 0, N = static_cast<unsigned>(Rng.nextBelow(32)); I < N;
         ++I)
      FB.insert(Rng.next() & ((uint64_t{1} << 48) - 1));
    EXPECT_FALSE(
        RwFingerprint::disjoint(FA.fingerprint(), FB.fingerprint()));
  }
}

//===----------------------------------------------------------------------===//
// Scheduler admission mechanics
//===----------------------------------------------------------------------===//

/// Resets the singleton scheduler to a known configuration per test and
/// restores the environment-configured mode afterwards (other suites in
/// this binary — and the differential test — rely on it).
class SchedulerFixture : public ::testing::Test {
protected:
  void SetUp() override {
    Sched().resetForTesting();
    SavedMode = Sched().mode();
    SavedCap = Sched().queueCapacity();
    Sched().setMode(SchedMode::On);
  }

  void TearDown() override {
    Sched().resetForTesting();
    Sched().setMode(SavedMode);
    Sched().setQueueCapacity(SavedCap ? SavedCap : 64);
    Sched().setQueueWaitBudget(std::chrono::microseconds(100000));
    Sched().setGateThresholds(0.05, 0.01);
    Sched().setGateWindow(128);
  }

  static AdmissionScheduler &Sched() {
    return AdmissionScheduler::instance();
  }

  SchedMode SavedMode = SchedMode::Adaptive;
  unsigned SavedCap = 64;
};

TEST_F(SchedulerFixture, CompatibleSummariesAdmitTogether) {
  TxSummary A = summaryOf({1, 2}, {3});
  TxSummary B = summaryOf({1}, {4}); // r/r overlap only: compatible
  auto TA = Sched().admit(7, A);
  auto TB = Sched().admit(7, B);
  EXPECT_GE(TA.Slot, 0);
  EXPECT_GE(TB.Slot, 0);
  Sched().release(TA, 0);
  Sched().release(TB, 0);
}

TEST_F(SchedulerFixture, CrossClassNeverCompared) {
  // Same footprint, different classes: different key conventions, so the
  // scheduler must not treat them as conflicting.
  TxSummary A = summaryOf({}, {10});
  TxSummary B = summaryOf({}, {10});
  auto TA = Sched().admit(8, A);   // shard(8) == shard(16): same shard,
  auto TB = Sched().admit(16, B);  // different class
  EXPECT_GE(TA.Slot, 0);
  EXPECT_GE(TB.Slot, 0);
  Sched().release(TA, 0);
  Sched().release(TB, 0);
}

TEST_F(SchedulerFixture, ConflictingArrivalWaitsForRelease) {
  TxSummary A = summaryOf({}, {10});
  TxSummary B = summaryOf({10}, {}); // reads what A writes
  auto TA = Sched().admit(7, A);
  ASSERT_GE(TA.Slot, 0);

  std::atomic<bool> Admitted{false};
  std::thread Waiter([&] {
    auto TB = Sched().admit(7, B);
    EXPECT_GE(TB.Slot, 0) << "should be granted, not bypassed";
    EXPECT_TRUE(TB.Waited);
    Admitted.store(true);
    Sched().release(TB, 0);
  });
  // Give the waiter time to park; it must not be admitted while A holds
  // its slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Admitted.load());
  Sched().release(TA, 0);
  Waiter.join();
  EXPECT_TRUE(Admitted.load());
}

TEST_F(SchedulerFixture, QueueOverflowFallsBackToSpeculation) {
  Sched().setQueueCapacity(0); // any conflicting arrival overflows at once
  TxSummary A = summaryOf({}, {10});
  TxSummary B = summaryOf({}, {10});
  auto TA = Sched().admit(7, A);
  ASSERT_GE(TA.Slot, 0);
  auto Before = Sched().stats().QueueOverflows;
  auto TB = Sched().admit(7, B);
  EXPECT_LT(TB.Slot, 0) << "full queue must bypass, not block";
  EXPECT_EQ(Sched().stats().QueueOverflows, Before + 1);
  Sched().release(TA, 0);
  Sched().release(TB, 0); // bypass tickets still release (gate feedback)
}

TEST_F(SchedulerFixture, WaitBudgetBypassesStuckQueue) {
  Sched().setQueueWaitBudget(std::chrono::microseconds(5000));
  TxSummary A = summaryOf({}, {10});
  TxSummary B = summaryOf({}, {10});
  auto TA = Sched().admit(7, A);
  ASSERT_GE(TA.Slot, 0);
  auto TB = Sched().admit(7, B); // parks, then outlives the 5ms budget
  EXPECT_LT(TB.Slot, 0);
  EXPECT_TRUE(TB.Waited);
  EXPECT_GE(Sched().stats().TimeoutBypasses, 1u);
  Sched().release(TA, 0);
  Sched().release(TB, 0);
}

TEST_F(SchedulerFixture, StrictFifoNoOvertaking) {
  // B (conflicting) parks first; C is compatible with the in-flight A but
  // must not overtake the parked head.
  TxSummary A = summaryOf({}, {10});
  TxSummary B = summaryOf({}, {10});
  TxSummary C = summaryOf({}, {99});
  auto TA = Sched().admit(7, A);
  ASSERT_GE(TA.Slot, 0);

  // Grant order comes from the scheduler's own sequence numbers: one
  // release drains B and then C, and C's thread may wake before B's, so
  // the threads' own admission flags cannot order the two grants.
  std::atomic<bool> BAdmitted{false}, CAdmitted{false};
  std::atomic<uint64_t> BSeq{0}, CSeq{0};
  std::thread WaitB([&] {
    auto T = Sched().admit(7, B);
    BSeq.store(T.GrantSeq);
    BAdmitted.store(true);
    EXPECT_GE(T.Slot, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Sched().release(T, 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20)); // B parks
  std::thread WaitC([&] {
    auto T = Sched().admit(7, C);
    CSeq.store(T.GrantSeq);
    CAdmitted.store(true);
    EXPECT_GE(T.Slot, 0);
    Sched().release(T, 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20)); // C parks too
  // While A holds its slot, the parked C must not overtake the head B.
  EXPECT_FALSE(BAdmitted.load());
  EXPECT_FALSE(CAdmitted.load());
  Sched().release(TA, 0); // drains B, then C, in order
  WaitB.join();
  WaitC.join();
  // C may only be granted after B (the head) was granted.
  EXPECT_GT(TA.GrantSeq, 0u);
  EXPECT_GT(BSeq.load(), TA.GrantSeq);
  EXPECT_GT(CSeq.load(), BSeq.load());
}

TEST_F(SchedulerFixture, AdaptiveGateFlipsUnderAbortStorm) {
  Sched().setMode(SchedMode::Adaptive);
  Sched().setGateWindow(8);
  Sched().setGateThresholds(0.5, 0.1);
  const uint32_t Cls = 7;
  EXPECT_FALSE(Sched().admissionActive(Cls)) << "gates start off";

  // Storm: every release reports an aborted attempt. One full window must
  // arm the gate.
  TxSummary S = summaryOf({}, {10});
  for (int I = 0; I < 8; ++I) {
    auto T = Sched().admit(Cls, S);
    EXPECT_LT(T.Slot, 0) << "gate off: admission bypassed";
    Sched().release(T, /*AbortedAttempts=*/1);
  }
  EXPECT_TRUE(Sched().admissionActive(Cls)) << "storm arms the gate";
  EXPECT_GE(Sched().stats().GateFlipsOn, 1u);

  // Calm: a window of clean releases disarms it (hysteresis: rate <= 0.1).
  for (int I = 0; I < 8; ++I) {
    auto T = Sched().admit(Cls, S);
    Sched().release(T, /*AbortedAttempts=*/0);
  }
  EXPECT_FALSE(Sched().admissionActive(Cls)) << "calm disarms the gate";
  EXPECT_GE(Sched().stats().GateFlipsOff, 1u);
}

TEST_F(SchedulerFixture, OffModeBypassesEverything) {
  Sched().setMode(SchedMode::Off);
  TxSummary A = summaryOf({}, {10});
  TxSummary B = summaryOf({}, {10});
  auto TA = Sched().admit(7, A);
  auto TB = Sched().admit(7, B);
  EXPECT_LT(TA.Slot, 0);
  EXPECT_LT(TB.Slot, 0);
  Sched().release(TA, 0);
  Sched().release(TB, 0);
}

TEST(SchedulerEnvTest, ModeParseTable) {
  // OTM_SCHED is the tier's only off switch, so its parse is pinned here.
  // Unknown values keep the adaptive default rather than turning it off.
  struct Case {
    const char *Value;
    SchedMode Want;
  };
  for (const Case &C : {Case{nullptr, SchedMode::Adaptive},
                        Case{"0", SchedMode::Off}, Case{"off", SchedMode::Off},
                        Case{"1", SchedMode::On}, Case{"on", SchedMode::On},
                        Case{"adaptive", SchedMode::Adaptive},
                        Case{"garbage", SchedMode::Adaptive}})
    EXPECT_EQ(txn::schedModeFromEnv(C.Value), C.Want)
        << "OTM_SCHED=" << (C.Value ? C.Value : "(unset)");
}

TEST(SchedulerJsonTest, StatsKeysAlwaysPresent) {
  // Every key of the telemetry/bench schema exists, "enabled" included.
  obs::JsonValue V = txn::schedStatsToJson();
  for (const char *Key :
       {"enabled", "mode", "admitted_immediate", "queued", "queue_overflows",
        "timeout_bypasses", "bypassed", "releases", "aborts_reported",
        "gate_flips_on", "gate_flips_off", "gates_on", "max_queue_depth",
        "queue_wait_us"})
    EXPECT_NE(V.get(Key), nullptr) << "missing sched stats key: " << Key;
}

//===----------------------------------------------------------------------===//
// Stm::atomicScheduled end-to-end
//===----------------------------------------------------------------------===//

struct Cell : stm::TxObject {
  stm::Field<int64_t> Value;
};

/// Scheduled-path fixture: needs the whole STM, so reuse the scheduler
/// reset/restore plumbing.
using AtomicScheduledTest = SchedulerFixture;

TEST_F(AtomicScheduledTest, DeclaredCommitsAndAdmits) {
  auto C = std::make_unique<Cell>();
  TxSummary S;
  S.addWrite(reinterpret_cast<uintptr_t>(C.get()));
  for (int I = 0; I < 10; ++I)
    stm::Stm::atomicScheduled(7, S, [&](stm::TxManager &Tx) {
      Tx.openForUpdate(C.get());
      Tx.logUndo(&C->Value);
      C->Value.store(C->Value.load() + 1);
    });
  EXPECT_EQ(C->Value.load(), 10);
  EXPECT_GE(Sched().stats().AdmittedImmediate, 10u);
  EXPECT_EQ(Sched().stats().Releases, 10u);
}

TEST_F(AtomicScheduledTest, NestedCallsFlatten) {
  auto C = std::make_unique<Cell>();
  TxSummary S;
  S.addWrite(reinterpret_cast<uintptr_t>(C.get()));
  stm::Stm::atomicScheduled(7, S, [&](stm::TxManager &Tx) {
    Tx.openForUpdate(C.get());
    Tx.logUndo(&C->Value);
    C->Value.store(1);
    // Nested scheduled atomic: must flatten (admitting inside our own
    // in-flight slot would self-deadlock), and its effects must be part of
    // the enclosing transaction.
    stm::Stm::atomicScheduled(7, S, [&](stm::TxManager &Tx2) {
      Tx2.logUndo(&C->Value);
      C->Value.store(C->Value.load() + 10);
    });
  });
  EXPECT_EQ(C->Value.load(), 11);
}

TEST_F(AtomicScheduledTest, ExceptionsPropagateAndReleaseTicket) {
  auto C = std::make_unique<Cell>();
  TxSummary S;
  S.addWrite(reinterpret_cast<uintptr_t>(C.get()));
  struct Boom {};
  EXPECT_THROW(stm::Stm::atomicScheduled(7, S,
                                         [&](stm::TxManager &Tx) {
                                           Tx.openForUpdate(C.get());
                                           Tx.logUndo(&C->Value);
                                           C->Value.store(42);
                                           throw Boom{};
                                         }),
               Boom);
  EXPECT_EQ(C->Value.load(), 0) << "failure atomicity";
  // The ticket was released: a conflicting admit must go straight in.
  auto T = Sched().admit(7, S);
  EXPECT_GE(T.Slot, 0);
  Sched().release(T, 0);
}

TEST_F(AtomicScheduledTest, UserAbortRunsOnceAndReleasesTicket) {
  auto C = std::make_unique<Cell>();
  TxSummary S;
  S.addWrite(reinterpret_cast<uintptr_t>(C.get()));
  int Runs = 0;
  auto Body = [&](stm::TxManager &Tx) {
    ++Runs;
    Tx.openForUpdate(C.get());
    Tx.logUndo(&C->Value);
    C->Value.store(42);
    Tx.userAbort();
  };
  // Declared footprint (admitted into a slot), then sampled (speculates).
  stm::Stm::atomicScheduled(7, S, Body);
  EXPECT_EQ(Runs, 1) << "a user abort is final, never retried";
  stm::Stm::atomicScheduled(7, Body);
  EXPECT_EQ(Runs, 2);
  EXPECT_EQ(C->Value.load(), 0) << "both attempts rolled back";
  auto St = Sched().stats();
  EXPECT_EQ(St.Releases, 2u);
  EXPECT_EQ(St.AbortsReported, 0u) << "user aborts are released clean";
  // No ticket is held: a conflicting admit goes straight in.
  auto T = Sched().admit(7, S);
  EXPECT_GE(T.Slot, 0);
  Sched().release(T, 0);
}

TEST_F(AtomicScheduledTest, SampledModeConvergesUnderContention) {
  // Two threads increment one cell through the sampled path: first
  // attempts speculate, aborted ones sample their footprint and re-enter
  // admitted. The final count proves no increment was lost either way.
  auto C = std::make_unique<Cell>();
  constexpr int PerThread = 2000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < 2; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I < PerThread; ++I)
        stm::Stm::atomicScheduled(7, [&](stm::TxManager &Tx) {
          Tx.openForUpdate(C.get());
          Tx.logUndo(&C->Value);
          C->Value.store(C->Value.load() + 1);
        });
      stm::TxManager::current().flushStats();
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(C->Value.load(), 2 * PerThread);
}

TEST_F(AtomicScheduledTest, GateReadsOnlyItsCallersReports) {
  // Conflict-graph edges charged to this thread's site (aborts of other
  // classes or of unscheduled transactions) are not the class's aborts: a
  // window of clean releases must leave its gate off.
  Sched().setMode(SchedMode::Adaptive);
  Sched().setGateWindow(4);
  const uint32_t Cls = 11;
  obs::AbortSites &Sites = obs::AbortSites::instance();
  Sites.reset();
  const uint32_t Site = stm::TxManager::current().siteId();
  int Addr = 0;
  for (int I = 0; I < 3; ++I)
    Sites.record(&Addr, obs::AbortCause::Conflict, /*OwnerSite=*/0, Site);

  auto C = std::make_unique<Cell>();
  TxSummary S;
  S.addWrite(reinterpret_cast<uintptr_t>(C.get()));
  for (int I = 0; I < 4; ++I)
    stm::Stm::atomicScheduled(Cls, S, [&](stm::TxManager &Tx) {
      Tx.openForUpdate(C.get());
      Tx.logUndo(&C->Value);
      C->Value.store(C->Value.load() + 1);
    });
  Sites.reset();
  EXPECT_EQ(C->Value.load(), 4);
  EXPECT_FALSE(Sched().admissionActive(Cls)) << "4 clean releases";
  EXPECT_EQ(Sched().stats().GateFlipsOn, 0u);
}

TEST_F(AtomicScheduledTest, SerialRetryReportsToItsClass) {
  // The retry budget sends attempt 2 serial; attempt 3 already holds the
  // exclusive gate and skips admission, but still reports to class Cls.
  struct ConfigGuard {
    stm::TxConfig Saved = stm::TxManager::config();
    ~ConfigGuard() { stm::TxManager::config() = Saved; }
  } Guard;
  stm::TxManager::config().SerialFallbackAfter = 1;
  Sched().setMode(SchedMode::Adaptive);
  Sched().setGateWindow(3);
  const uint32_t Cls = 13;
  auto C = std::make_unique<Cell>();
  unsigned Attempts = 0;
  stm::Stm::atomicScheduled(Cls, [&](stm::TxManager &Tx) {
    Tx.openForUpdate(C.get());
    Tx.logUndo(&C->Value);
    C->Value.store(C->Value.load() + 1);
    if (++Attempts <= 2)
      throw stm::AbortTx{stm::AbortTx::Cause::Conflict};
  });
  EXPECT_EQ(Attempts, 3u);
  EXPECT_EQ(C->Value.load(), 1);
  auto St = Sched().stats();
  EXPECT_EQ(St.Releases, 3u);
  EXPECT_EQ(St.AbortsReported, 2u);
  EXPECT_TRUE(Sched().admissionActive(Cls)) << "3 releases with 2 aborts";
}

//===----------------------------------------------------------------------===//
// Differential: scheduled execution is invisible to final state
//===----------------------------------------------------------------------===//

/// Runs the E11-shaped workload (deterministic per-thread request streams,
/// commutative increments) under one arm and returns the final table.
std::vector<int64_t> runWorkload(bool Scheduled, unsigned NumThreads) {
  constexpr unsigned TableSize = 64; // small: force real conflicts
  constexpr int PerThread = 500;
  std::vector<std::unique_ptr<Cell>> Table;
  for (unsigned I = 0; I < TableSize; ++I)
    Table.push_back(std::make_unique<Cell>());

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Xoshiro256 Role(500 + T);
      Xoshiro256 Keys(600 + T);
      for (int I = 0; I < PerThread; ++I) {
        uint32_t K1 = static_cast<uint32_t>(Keys.nextBelow(TableSize));
        uint32_t K2 = static_cast<uint32_t>(Keys.nextBelow(TableSize));
        bool WriteBoth = Role.nextPercent(50);
        auto Body = [&](stm::TxManager &Tx) {
          Cell *A = Table[K1].get();
          Cell *B = Table[K2].get();
          Tx.openForUpdate(A);
          Tx.logUndo(&A->Value);
          A->Value.store(A->Value.load() + 1);
          if (WriteBoth && K2 != K1) {
            Tx.openForUpdate(B);
            Tx.logUndo(&B->Value);
            B->Value.store(B->Value.load() + 1);
          } else {
            Tx.openForRead(B);
            (void)B->Value.load();
          }
        };
        if (Scheduled) {
          TxSummary S;
          S.addWrite(reinterpret_cast<uintptr_t>(Table[K1].get()));
          if (WriteBoth && K2 != K1)
            S.addWrite(reinterpret_cast<uintptr_t>(Table[K2].get()));
          else
            S.addRead(reinterpret_cast<uintptr_t>(Table[K2].get()));
          stm::Stm::atomicScheduled(7, S, Body);
        } else {
          stm::Stm::atomic(Body);
        }
      }
      stm::TxManager::current().flushStats();
    });
  for (std::thread &Th : Threads)
    Th.join();

  std::vector<int64_t> Final;
  for (auto &C : Table)
    Final.push_back(C->Value.load());
  return Final;
}

TEST_F(SchedulerFixture, DifferentialSchedOnEqualsSchedOff) {
  // Same deterministic request streams; increments are commutative, so the
  // final per-row totals are interleaving-independent. Any divergence
  // means the scheduler dropped, duplicated, or corrupted a transaction.
  Sched().setMode(SchedMode::Off);
  std::vector<int64_t> Off = runWorkload(/*Scheduled=*/true, 4);
  Sched().resetForTesting();
  Sched().setMode(SchedMode::On);
  std::vector<int64_t> On = runWorkload(/*Scheduled=*/true, 4);
  Sched().resetForTesting();
  std::vector<int64_t> Plain = runWorkload(/*Scheduled=*/false, 4);
  EXPECT_EQ(Off, On);
  EXPECT_EQ(On, Plain);
}

//===----------------------------------------------------------------------===//
// Concurrency (TSan suite — keep "Scheduler" in these names)
//===----------------------------------------------------------------------===//

TEST(SchedulerConcurrencyTest, MixedArmsHammer) {
  auto &Sched = AdmissionScheduler::instance();
  Sched.resetForTesting();
  SchedMode Saved = Sched.mode();
  Sched.setMode(SchedMode::On);

  constexpr unsigned TableSize = 32;
  constexpr int PerThread = 800;
  std::vector<std::unique_ptr<Cell>> Table;
  for (unsigned I = 0; I < TableSize; ++I)
    Table.push_back(std::make_unique<Cell>());

  // Four threads, four flavors at once: declared, sampled, plain atomic,
  // and raw admit/release traffic on a disjoint class — every cross-thread
  // interaction the scheduler has.
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      Xoshiro256 Rng(900 + T);
      for (int I = 0; I < PerThread; ++I) {
        uint32_t K = static_cast<uint32_t>(Rng.nextBelow(TableSize));
        Cell *Obj = Table[K].get();
        auto Body = [&](stm::TxManager &Tx) {
          Tx.openForUpdate(Obj);
          Tx.logUndo(&Obj->Value);
          Obj->Value.store(Obj->Value.load() + 1);
        };
        switch (T) {
        case 0: {
          TxSummary S;
          S.addWrite(reinterpret_cast<uintptr_t>(Obj));
          stm::Stm::atomicScheduled(3, S, Body);
          break;
        }
        case 1:
          stm::Stm::atomicScheduled(3, Body);
          break;
        case 2:
          stm::Stm::atomic(Body);
          break;
        default: {
          TxSummary S;
          S.addWrite(Rng.nextBelow(1000));
          auto Ticket = Sched.admit(5, S);
          Sched.release(Ticket, I % 3 == 0 ? 1 : 0);
          break;
        }
        }
      }
      stm::TxManager::current().flushStats();
    });
  for (std::thread &Th : Threads)
    Th.join();

  int64_t Total = 0;
  for (auto &C : Table)
    Total += C->Value.load();
  EXPECT_EQ(Total, 3 * PerThread); // threads 0-2 each ran PerThread incs
  Sched.resetForTesting();
  Sched.setMode(Saved);
}

TEST(SchedulerConcurrencyTest, AdaptiveFlipsWhileAdmitting) {
  auto &Sched = AdmissionScheduler::instance();
  Sched.resetForTesting();
  SchedMode Saved = Sched.mode();
  Sched.setMode(SchedMode::Adaptive);
  Sched.setGateWindow(16);
  Sched.setGateThresholds(0.3, 0.05);

  // Gate recomputation racing admission from multiple threads: alternating
  // storm/calm feedback keeps the gates flipping while others admit.
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      Xoshiro256 Rng(950 + T);
      for (int I = 0; I < 2000; ++I) {
        TxSummary S;
        S.addWrite(Rng.nextBelow(64));
        auto Ticket = Sched.admit(static_cast<uint32_t>(Rng.nextBelow(4)), S);
        Sched.release(Ticket, (I / 64) % 2);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  auto Stats = Sched.stats();
  EXPECT_EQ(Stats.Releases, 4u * 2000u);
  Sched.resetForTesting();
  Sched.setGateThresholds(0.05, 0.01);
  Sched.setGateWindow(128);
  Sched.setMode(Saved);
}

} // namespace
