//===- tests/MvccTest.cpp - Multi-version snapshot path tests ------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MVCC tier (DESIGN.md section 3.9): snapshot-isolation semantics of
/// read-only transactions against concurrent writer commits, the dynamic
/// upgrade restart, chain truncation at the configured depth, version
/// reclamation through the epoch manager, and the serial-gate bypass that
/// keeps snapshot readers running while a writer holds the gate.
///
/// Each test sets the history depth it needs, so the suite passes whatever
/// OTM_MV_VERSIONS holds; the last one checks that depth 0, the tier's off
/// switch, falls back to the validate path with the schema intact.
///
//===----------------------------------------------------------------------===//

#include "stm/Stm.h"

#include "gc/EpochManager.h"
#include "stm/StatsJson.h"
#include "stm/TxGlobal.h"
#include "support/Random.h"
#include "support/ThreadBarrier.h"
#include "txn/SerialGate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

using namespace otm;
using namespace otm::stm;

namespace {

struct Counter : TxObject {
  Field<int64_t> Value;
};

struct Account : TxObject {
  Field<int64_t> Balance;
};

struct ConfigGuard {
  ConfigGuard() : Saved(TxManager::config()) {}
  ~ConfigGuard() { TxManager::config() = Saved; }
  TxConfig Saved;
};

/// Every test starts at the default history depth of 8, whatever
/// OTM_MV_VERSIONS holds, and gets the whole config back afterwards.
class Mvcc : public ::testing::Test {
protected:
  Mvcc() { TxManager::config().MvVersions = 8; }
  ConfigGuard Guard;
};

/// Discards the calling thread's unflushed stats into the global block and
/// zeroes it, so the test's assertions see only its own traffic.
void resetStats() {
  TxManager::current().flushStats();
  Stm::resetGlobalStats();
}

TxStats statsNow() {
  TxManager::current().flushStats();
  return Stm::globalStats();
}

/// Spins until \p Pred holds; fails (returns false) after ~10 seconds.
template <typename PredType> bool spinUntil(PredType Pred) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!Pred()) {
    if (std::chrono::steady_clock::now() > Deadline)
      return false;
    std::this_thread::yield();
  }
  return true;
}

} // namespace

TEST_F(Mvcc, QuiescentSnapshotReadCommitsWithoutAbort) {
  Counter C;
  Stm::atomic([&](TxManager &Tx) { Tx.write(&C, &Counter::Value, int64_t{7}); });
  resetStats();
  int64_t Got = -1;
  bool SawSnapshotMode = false;
  Stm::atomicReadOnly([&](TxManager &Tx) {
    SawSnapshotMode = Tx.inSnapshotMode();
    Got = Tx.read(&C, &Counter::Value);
  });
  EXPECT_TRUE(SawSnapshotMode);
  EXPECT_EQ(Got, 7);
  TxStats S = statsNow();
  EXPECT_EQ(S.SnapshotCommits, 1u);
  EXPECT_EQ(S.Commits, 1u);
  EXPECT_EQ(S.Aborts, 0u);
  EXPECT_EQ(S.SnapshotReads, 1u);
  // Nothing committed above the snapshot stamp: the seqlock fast path
  // serves the read, the chain is never walked.
  EXPECT_EQ(S.SnapshotReadsFromChain, 0u);
  // Nothing was enlisted: there is no read log to validate.
  EXPECT_EQ(S.ReadLogAppends, 0u);
}

TEST_F(Mvcc, SnapshotSeesBeginStampStateAcrossWriterCommit) {
  Counter X, Y;
  Stm::atomic([&](TxManager &Tx) {
    Tx.write(&X, &Counter::Value, int64_t{100});
    Tx.write(&Y, &Counter::Value, int64_t{200});
  });
  resetStats();

  // Monotonic flags: a restarted body re-raises ReaderReady (idempotent)
  // and sails through an already-raised WriterDone.
  std::atomic<bool> ReaderReady{false}, WriterDone{false};
  int64_t Rx = -1, Ry = -1;
  std::thread Reader([&] {
    Stm::atomicReadOnly([&](TxManager &Tx) {
      Rx = Tx.read(&X, &Counter::Value);
      ReaderReady.store(true, std::memory_order_release);
      if (!spinUntil([&] { return WriterDone.load(std::memory_order_acquire); }))
        return;
      Ry = Tx.read(&Y, &Counter::Value);
    });
    TxManager::current().flushStats();
  });

  ASSERT_TRUE(spinUntil([&] { return ReaderReady.load(std::memory_order_acquire); }));
  Stm::atomic([&](TxManager &Tx) {
    Tx.write(&X, &Counter::Value, int64_t{101});
    Tx.write(&Y, &Counter::Value, int64_t{201});
  });
  WriterDone.store(true, std::memory_order_release);
  Reader.join();

  // The reader's stamp predates the writer's commit: Y resolves to its
  // pre-image from the version chain even though the in-place value moved.
  EXPECT_EQ(Rx, 100);
  EXPECT_EQ(Ry, 200);
  TxStats S = statsNow();
  EXPECT_EQ(S.SnapshotCommits, 1u);
  EXPECT_EQ(S.Aborts, 0u);
  EXPECT_EQ(S.SnapshotRefreshes, 0u);
  EXPECT_GE(S.SnapshotReadsFromChain, 1u);

  // A reader that begins after the commit sees the new state in place.
  int64_t Fx = -1, Fy = -1;
  Stm::atomicReadOnly([&](TxManager &Tx) {
    Fx = Tx.read(&X, &Counter::Value);
    Fy = Tx.read(&Y, &Counter::Value);
  });
  EXPECT_EQ(Fx, 101);
  EXPECT_EQ(Fy, 201);
}

TEST_F(Mvcc, DynamicUpgradeRestartsAsWriterWithoutCountingAnAbort) {
  Counter C;
  resetStats();
  int Attempts = 0;
  bool FirstAttemptSnapshot = false, SecondAttemptSnapshot = true;
  Stm::atomicReadOnly([&](TxManager &Tx) {
    ++Attempts;
    if (Attempts == 1)
      FirstAttemptSnapshot = Tx.inSnapshotMode();
    else
      SecondAttemptSnapshot = Tx.inSnapshotMode();
    int64_t V = Tx.read(&C, &Counter::Value);
    Tx.write(&C, &Counter::Value, V + 1); // not read-only after all
  });
  EXPECT_EQ(Attempts, 2);
  EXPECT_TRUE(FirstAttemptSnapshot);
  EXPECT_FALSE(SecondAttemptSnapshot);
  EXPECT_EQ(C.Value.load(), 1);
  TxStats S = statsNow();
  EXPECT_EQ(S.SnapshotUpgrades, 1u);
  EXPECT_EQ(S.Commits, 1u);
  EXPECT_EQ(S.SnapshotCommits, 0u); // committed as a writer
  EXPECT_EQ(S.Aborts, 0u);          // the upgrade is a restart, not an abort

  // The upgrade latch is per-transaction: the next read-only transaction
  // runs on the snapshot path again.
  Stm::atomicReadOnly(
      [&](TxManager &Tx) { EXPECT_TRUE(Tx.inSnapshotMode()); });
  TxStats S2 = statsNow();
  EXPECT_EQ(S2.SnapshotCommits, 1u);
}

TEST_F(Mvcc, PerCallModeDoesNotLeakPastAFailedCall) {
  Counter C;
  struct Boom {};
  // A read-only call that upgrades to a writer and then ends without
  // committing, by user abort or by a non-STM exception.
  auto FailedReadOnlyCall = [&](bool Throw) {
    int Attempts = 0;
    auto Body = [&](TxManager &Tx) {
      ++Attempts;
      Tx.write(&C, &Counter::Value, int64_t{1}); // upgrades attempt 1
      if (Throw)
        throw Boom{};
      Tx.userAbort();
    };
    if (Throw)
      EXPECT_THROW(Stm::atomicReadOnly(Body), Boom);
    else
      Stm::atomicReadOnly(Body);
    EXPECT_EQ(Attempts, 2) << "snapshot attempt, then one writer attempt";
    EXPECT_EQ(C.Value.load(), 0);
  };
  for (bool Throw : {false, true}) {
    // The upgrade latch ends with the call: read-only again next time.
    FailedReadOnlyCall(Throw);
    bool Snapshot = false;
    Stm::atomicReadOnly([&](TxManager &Tx) {
      Snapshot = Tx.inSnapshotMode();
      (void)Tx.read(&C, &Counter::Value);
    });
    EXPECT_TRUE(Snapshot) << "Throw=" << Throw;
    // So does the read-only flag: a plain atomic() is a writer.
    FailedReadOnlyCall(Throw);
    Snapshot = true;
    Stm::atomic([&](TxManager &Tx) {
      Snapshot = Tx.inSnapshotMode();
      (void)Tx.read(&C, &Counter::Value);
    });
    EXPECT_FALSE(Snapshot) << "Throw=" << Throw;
  }
}

TEST_F(Mvcc, ChainTruncatesAtConfiguredDepth) {
  TxManager::config().MvVersions = 3;
  Counter C;
  resetStats();
  for (int I = 0; I < 8; ++I)
    Stm::atomic([&](TxManager &Tx) {
      Tx.write(&C, &Counter::Value, int64_t{I});
    });
  EXPECT_EQ(C.historyDepthForTesting(), 3u);
  TxStats S = statsNow();
  EXPECT_EQ(S.MvVersionsInstalled, 8u);
  EXPECT_EQ(S.MvVersionsRetired, 5u);
}

namespace {

/// Commits one write of \p V to \p C.
void commitWrite(Counter &C, int64_t V) {
  Stm::atomic([&](TxManager &Tx) { Tx.write(&C, &Counter::Value, V); });
}

/// Runs \p N commits on \p C at depth \p K, checking the chain depth and
/// the installed/retired counts after each one. \p Depth is the depth the
/// chain had before; returns the depth it has after.
std::size_t commitAndCheck(Counter &C, unsigned K, int N, std::size_t Depth) {
  TxManager::config().MvVersions = K;
  for (int I = 0; I < N; ++I) {
    TxStats Before = statsNow();
    commitWrite(C, I);
    const std::size_t Want = std::min<std::size_t>(Depth + 1, K);
    EXPECT_EQ(C.historyDepthForTesting(), Want) << "K=" << K << " I=" << I;
    TxStats After = statsNow();
    EXPECT_EQ(After.MvVersionsInstalled - Before.MvVersionsInstalled, 1u);
    EXPECT_EQ(After.MvVersionsRetired - Before.MvVersionsRetired,
              Depth + 1 - Want)
        << "K=" << K << " I=" << I;
    Depth = Want;
  }
  return Depth;
}

} // namespace

namespace {

uint64_t clockWord() {
  return mv::commitClock().load(std::memory_order_seq_cst);
}

/// Commits one write of \p V to \p C and returns the commit's stamp.
uint64_t stampedWrite(Counter &C, int64_t V) {
  commitWrite(C, V);
  return TxManager::current().lastCommitStampForTesting();
}

/// One write to a scratch object, so the clock starts unobserved whatever
/// ran before on it.
void settleClock() {
  Counter Scratch;
  commitWrite(Scratch, 1);
}

/// Runs an empty snapshot reader and returns its snapshot stamp.
uint64_t snapshotStamp() {
  uint64_t T = 0;
  Stm::atomicReadOnly(
      [&](TxManager &Tx) { T = Tx.snapshotStampForTesting(); });
  return T;
}

/// A software write to \p C that rolls back through the abort release.
void abortedWrite(Counter &C) {
  Stm::atomic([&](TxManager &Tx) {
    Tx.write(&C, &Counter::Value, int64_t{99});
    Tx.userAbort();
  });
}

} // namespace

TEST_F(Mvcc, WritersWithoutASnapshotReaderLeaveTheClockAlone) {
  TxManager::config().HtmAttempts = 0;
  settleClock();
  Counter A, B;
  resetStats();
  const uint64_t Clock = clockWord();
  ASSERT_EQ(Clock & mv::ObservedBit, 0u);
  uint64_t LastA = 0, LastB = 0;
  for (int I = 0; I < 100; ++I) {
    Counter &C = I % 3 ? A : B;
    uint64_t &Last = I % 3 ? LastA : LastB;
    const uint64_t Stamp = stampedWrite(C, I);
    // The clock's part, one above the object's previous version.
    EXPECT_EQ(mv::stampPart(Stamp), mv::clockPart(Clock));
    EXPECT_GT(Stamp, Last);
    EXPECT_EQ(C.versionForTesting(), Stamp);
    Last = Stamp;
  }
  EXPECT_EQ(clockWord(), Clock);
  EXPECT_EQ(statsNow().MvClockAdvances, 0u);
}

TEST_F(Mvcc, ASnapshotReaderMovesTheNextWriterPastItsStamp) {
  TxManager::config().HtmAttempts = 0;
  settleClock();
  Counter C;
  commitWrite(C, 1);
  resetStats();
  const uint64_t T = snapshotStamp();
  // The reader marked the part observed and covers all of it.
  EXPECT_EQ(clockWord(), (mv::stampPart(T) << 1) | mv::ObservedBit);
  EXPECT_EQ(T & mv::SeqMask, mv::SeqMask);
  EXPECT_EQ(snapshotStamp(), T) << "a second reader shares the part";

  const uint64_t S1 = stampedWrite(C, 2);
  EXPECT_GT(S1, T);
  EXPECT_EQ(S1, (mv::stampPart(T) + 1) << mv::SeqBits);
  EXPECT_EQ(clockWord(), (mv::stampPart(T) + 1) << 1) << "advanced, unobserved";
  // The new part is unobserved: the next writer stays in it.
  const uint64_t S2 = stampedWrite(C, 3);
  EXPECT_EQ(S2, S1 + 1);
  EXPECT_EQ(statsNow().MvClockAdvances, 1u);

  int64_t Got = -1;
  uint64_t T2 = 0;
  Stm::atomicReadOnly([&](TxManager &Tx) {
    T2 = Tx.snapshotStampForTesting();
    Got = Tx.read(&C, &Counter::Value);
  });
  EXPECT_GE(T2, S2);
  EXPECT_EQ(Got, 3);
}

TEST_F(Mvcc, SpentSequenceSpaceAdvancesTheClock) {
  TxManager::config().HtmAttempts = 0;
  TxManager::config().MvVersions = 1; // keep 2^16 commits cheap
  settleClock();
  Counter C;
  resetStats();
  const uint64_t Part = mv::clockPart(clockWord());
  uint64_t Last = C.versionForTesting();
  // 2^SeqBits + 1 commits to one object cannot fit in one part.
  for (uint64_t I = 0; I <= mv::SeqMask + 1; ++I) {
    const uint64_t Stamp = stampedWrite(C, int64_t(I));
    if (Stamp <= Last) {
      ADD_FAILURE() << "commit " << I << ": stamp " << Stamp
                    << " does not exceed " << Last;
      break;
    }
    Last = Stamp;
  }
  EXPECT_EQ(mv::stampPart(Last), Part + 1);
  EXPECT_EQ(clockWord(), (Part + 1) << 1);
  EXPECT_EQ(statsNow().MvClockAdvances, 1u);
}

TEST_F(Mvcc, AbortReleasesTakeStampsByTheWriterRule) {
  TxManager::config().HtmAttempts = 0; // the abort must run in software
  settleClock();
  Counter C;
  commitWrite(C, 1);
  resetStats();
  // No reader: the identity commit stays in the part, one above the
  // object's version.
  const uint64_t Clock = clockWord();
  const uint64_t V0 = C.versionForTesting();
  abortedWrite(C);
  EXPECT_EQ(C.versionForTesting(), V0 + 1);
  EXPECT_EQ(clockWord(), Clock);
  // After a reader observed the part, the identity commit moves past it.
  const uint64_t T = snapshotStamp();
  abortedWrite(C);
  EXPECT_EQ(C.versionForTesting(), (mv::stampPart(T) + 1) << mv::SeqBits);
  EXPECT_EQ(clockWord(), (mv::stampPart(T) + 1) << 1);
  EXPECT_EQ(C.Value.load(), 1);
  TxStats S = statsNow();
  EXPECT_EQ(S.AbortsByUser, 2u);
  EXPECT_EQ(S.MvClockAdvances, 1u);
}

TEST_F(Mvcc, TruncationIsExactAtDepthsOneTwoAndEight) {
  for (unsigned K : {1u, 2u, 8u}) {
    Counter C;
    resetStats();
    commitAndCheck(C, K, 3 * int(K) + 4, 0);
    TxStats S = statsNow();
    EXPECT_EQ(S.MvVersionsInstalled, 3 * K + 4);
    EXPECT_EQ(S.MvVersionsRetired, 2 * K + 4);
  }
}

TEST_F(Mvcc, DepthChangesMidObjectResyncTheChain) {
  Counter C;
  resetStats();
  std::size_t Depth = commitAndCheck(C, 8, 10, 0); // full at 8
  Depth = commitAndCheck(C, 3, 4, Depth);  // lowered: one commit cuts 6
  Depth = commitAndCheck(C, 5, 4, Depth);  // raised: grows back to 5
  Depth = commitAndCheck(C, 1, 2, Depth);  // lowered to the head only
  Depth = commitAndCheck(C, 8, 12, Depth); // raised to the default
  EXPECT_EQ(Depth, 8u);
  // Pausing history keeps the chain; resuming continues from it.
  TxManager::config().MvVersions = 0;
  commitWrite(C, 42);
  EXPECT_EQ(C.historyDepthForTesting(), 8u);
  Depth = commitAndCheck(C, 2, 3, Depth);
  TxStats S = statsNow();
  EXPECT_EQ(S.MvVersionsInstalled, 35u);
  EXPECT_EQ(S.MvVersionsInstalled - S.MvVersionsRetired, Depth);
}

TEST_F(Mvcc, DepthsPastTheTagBitsFallBackToTheWalk) {
  for (unsigned K : {16u, 17u, 40u}) {
    Counter C;
    resetStats();
    std::size_t Depth = commitAndCheck(C, K, int(K) + 5, 0);
    // Back under the tag limit: the walk re-tags, the O(1) cut takes over.
    Depth = commitAndCheck(C, 8, 10, Depth);
    TxStats S = statsNow();
    EXPECT_EQ(S.MvVersionsInstalled, K + 15);
    EXPECT_EQ(S.MvVersionsRetired, K + 7);
  }
}

TEST_F(Mvcc, AbortIdentityCommitsInstallAndTruncateLikeCommits) {
  TxManager::config().MvVersions = 2;
  TxManager::config().HtmAttempts = 0; // the abort must run in software
  Counter C;
  resetStats();
  commitWrite(C, 1);
  // A rolled-back in-place store releases like an identity commit of the
  // restored value, installing a version and truncating like any commit.
  for (int I = 0; I < 3; ++I) {
    Stm::atomic([&](TxManager &Tx) {
      Tx.write(&C, &Counter::Value, int64_t{99});
      Tx.userAbort();
    });
    EXPECT_EQ(C.historyDepthForTesting(), 2u);
  }
  commitWrite(C, 2);
  EXPECT_EQ(C.historyDepthForTesting(), 2u);
  EXPECT_EQ(C.Value.load(), 2);
  TxStats S = statsNow();
  EXPECT_EQ(S.AbortsByUser, 3u);
  EXPECT_EQ(S.MvVersionsInstalled, 5u);
  EXPECT_EQ(S.MvVersionsRetired, 3u);
}

TEST_F(Mvcc, DestroyingPartlyAndFullyGrownChainsFreesEverything) {
  TxManager::config().MvVersions = 4;
  gc::EpochManager &EM = gc::EpochManager::global();
  EM.drainForTesting();
  resetStats();
  const uint64_t Freed0 = EM.freedCount();
  auto *Partial = new Counter();
  auto *Full = new Counter();
  for (int I = 0; I < 2; ++I)
    commitWrite(*Partial, I);
  for (int I = 0; I < 6; ++I)
    commitWrite(*Full, I);
  EXPECT_EQ(Partial->historyDepthForTesting(), 2u);
  EXPECT_EQ(Full->historyDepthForTesting(), 4u);
  TxStats S = statsNow();
  EXPECT_EQ(S.MvVersionsInstalled, 8u);
  EXPECT_EQ(S.MvVersionsRetired, 2u);
  delete Partial;
  delete Full;
  // A recycled block starts with an empty chain and an untagged tail.
  auto *Fresh = new Counter();
  commitAndCheck(*Fresh, 4, 6, 0);
  delete Fresh;
  EM.drainForTesting();
  // Each record holds its commit's node, so each retires once: truncation
  // retired 2 + 2 records, and the destructors the 2 + 4 + 4 left behind.
  EXPECT_EQ(EM.freedCount() - Freed0, 4u + 10u);
}

TEST_F(Mvcc, RecordRetiredOnceWhenLastNodeCut) {
  TxManager::config().MvVersions = 1;
  gc::EpochManager &EM = gc::EpochManager::global();
  auto *A = new Counter();
  auto *B = new Counter();
  // One record, embedding one node for each object.
  Stm::atomic([&](TxManager &Tx) {
    Tx.write(A, &Counter::Value, int64_t{1});
    Tx.write(B, &Counter::Value, int64_t{1});
  });
  EM.drainForTesting();
  const uint64_t Freed0 = EM.freedCount();
  // Cutting A's node leaves B's node holding the shared record.
  commitWrite(*A, 2);
  EM.drainForTesting();
  EXPECT_EQ(EM.freedCount() - Freed0, 0u);
  // Cutting B's node drops the last reference: the record retires once.
  commitWrite(*B, 2);
  EM.drainForTesting();
  EXPECT_EQ(EM.freedCount() - Freed0, 1u);
  // Teardown retires only the two single-object records still on a chain;
  // the shared one is not retired again.
  delete A;
  delete B;
  EM.drainForTesting();
  EXPECT_EQ(EM.freedCount() - Freed0, 3u);
}

TEST_F(Mvcc, TruncatedChainRefreshesInsteadOfServingTooNewState) {
  TxManager::config().MvVersions = 1; // keep only the newest pre-image
  Counter C;
  Stm::atomic([&](TxManager &Tx) { Tx.write(&C, &Counter::Value, int64_t{1}); });
  resetStats();

  // Monotonic flags: the refresh restart re-runs the body, which re-raises
  // ReaderReady (idempotent) and passes straight through WriterDone.
  std::atomic<bool> ReaderReady{false}, WriterDone{false};
  int64_t First = -1, Second = -1;
  std::thread Reader([&] {
    Stm::atomicReadOnly([&](TxManager &Tx) {
      int64_t V = Tx.read(&C, &Counter::Value);
      ReaderReady.store(true, std::memory_order_release);
      if (!spinUntil([&] { return WriterDone.load(std::memory_order_acquire); }))
        return;
      // Two commits landed since our stamp and the chain holds only the
      // newest pre-image: the walk cannot reach our snapshot, so the
      // attempt restarts on a fresh stamp (observable as a refresh) and
      // both reads then agree on the final state.
      int64_t W = Tx.read(&C, &Counter::Value);
      First = V;
      Second = W;
    });
    TxManager::current().flushStats();
  });

  ASSERT_TRUE(spinUntil([&] { return ReaderReady.load(std::memory_order_acquire); }));
  Stm::atomic([&](TxManager &Tx) { Tx.write(&C, &Counter::Value, int64_t{2}); });
  Stm::atomic([&](TxManager &Tx) { Tx.write(&C, &Counter::Value, int64_t{3}); });
  WriterDone.store(true, std::memory_order_release);
  Reader.join();

  // Whatever stamp the final (committed) attempt ran on, its two reads
  // must be mutually consistent — and after the refresh that stamp covers
  // both commits.
  EXPECT_EQ(First, 3);
  EXPECT_EQ(Second, 3);
  TxStats S = statsNow();
  EXPECT_GE(S.SnapshotRefreshes, 1u);
  EXPECT_EQ(S.SnapshotCommits, 1u);
  EXPECT_EQ(S.Aborts, 0u); // refreshes are restarts, never aborts
}

TEST_F(Mvcc, VersionsAreReclaimedThroughTheEpochManager) {
  TxManager::config().MvVersions = 2;
  resetStats();
  gc::EpochManager &EM = gc::EpochManager::global();
  EM.drainForTesting();
  const uint64_t Freed0 = EM.freedCount();

  // Churn: objects come and go while their chains grow and truncate.
  for (int Round = 0; Round < 10; ++Round) {
    auto *Obj = new Counter();
    for (int I = 0; I < 6; ++I)
      Stm::atomic([&](TxManager &Tx) {
        Tx.write(Obj, &Counter::Value, int64_t{I});
      });
    EXPECT_EQ(Obj->historyDepthForTesting(), 2u);
    delete Obj; // releaseHistory: drops the chain, epoch-retires records
  }
  TxStats S = statsNow();
  EXPECT_EQ(S.MvVersionsInstalled, 60u);
  EXPECT_EQ(S.MvVersionsRetired, 40u); // 4 truncated per object, 10 objects
  EM.drainForTesting();
  // Every record is freed exactly once when the epochs drain: per object,
  // 4 cut by truncation plus the 2 the destructor drops.
  EXPECT_EQ(EM.freedCount() - Freed0, 60u);
}

TEST_F(Mvcc, SnapshotReadersRunWhileSerialGateIsHeld) {
  Counter C;
  Stm::atomic([&](TxManager &Tx) { Tx.write(&C, &Counter::Value, int64_t{5}); });
  resetStats();

  txn::SerialGate &Gate = txn::SerialGate::instance();
  txn::SerialGate::Slot &Slot = Gate.slotForCurrentThread();
  Gate.enterExclusive(Slot);
  ASSERT_TRUE(Gate.exclusiveActive());

  // A zero-conflict snapshot reader must not stall behind the drain: it
  // owns nothing, writes nothing, and pins its epoch independently.
  auto ReaderDone = std::async(std::launch::async, [&] {
    int64_t Sum = 0;
    for (int I = 0; I < 100; ++I)
      Stm::atomicReadOnly(
          [&](TxManager &Tx) { Sum += Tx.read(&C, &Counter::Value); });
    TxManager::current().flushStats();
    return Sum;
  });
  auto Status = ReaderDone.wait_for(std::chrono::seconds(10));
  Gate.exitExclusive();
  ASSERT_EQ(Status, std::future_status::ready)
      << "snapshot readers stalled behind the serial gate";
  EXPECT_EQ(ReaderDone.get(), 500);
  TxStats S = statsNow();
  EXPECT_EQ(S.SnapshotCommits, 100u);
  EXPECT_EQ(S.Aborts, 0u);
}

TEST_F(Mvcc, TxGlobalReadsResolveAgainstTheSnapshot) {
  TxGlobal<int64_t> G(41);
  Stm::atomic([&](TxManager &Tx) { G.set(Tx, 42); });
  resetStats();
  int64_t Got = -1;
  Stm::atomicReadOnly([&](TxManager &Tx) { Got = G.get(Tx); });
  EXPECT_EQ(Got, 42);
  TxStats S = statsNow();
  EXPECT_EQ(S.SnapshotCommits, 1u);
  EXPECT_EQ(S.SnapshotReads, 1u);
}

namespace {

/// Two writers transfer among eight accounts while two snapshot readers sum
/// them. Every snapshot must see the invariant total, and the chain
/// bookkeeping must balance exactly: each account ends at depth \p K, and
/// installed minus retired versions equals the sum of chain depths.
void checkSnapshotSumsUnderChurn(unsigned K) {
  constexpr int NumAccounts = 8;
  constexpr int64_t Initial = 1000;
  constexpr int TransfersPerWriter = 2000;
  constexpr int ReadsPerReader = 400;
  constexpr int NumWriters = 2, NumReaders = 2;

  std::vector<std::unique_ptr<Account>> Accounts;
  for (int I = 0; I < NumAccounts; ++I) {
    Accounts.push_back(std::make_unique<Account>());
    Accounts.back()->Balance.store(Initial);
  }
  resetStats();

  ThreadBarrier Start(NumWriters + NumReaders);
  std::atomic<int> BadSums{0};
  std::vector<std::thread> Threads;
  for (int W = 0; W < NumWriters; ++W)
    Threads.emplace_back([&, W] {
      Xoshiro256 Rng(4242 + W);
      Start.arriveAndWait();
      for (int I = 0; I < TransfersPerWriter; ++I) {
        Account *From = Accounts[Rng.nextBelow(NumAccounts)].get();
        Account *To = Accounts[Rng.nextBelow(NumAccounts)].get();
        Stm::atomic([&](TxManager &Tx) {
          int64_t Amount = 1 + int64_t(Rng.nextBelow(5));
          Tx.write(From, &Account::Balance,
                   Tx.read(From, &Account::Balance) - Amount);
          Tx.write(To, &Account::Balance,
                   Tx.read(To, &Account::Balance) + Amount);
        });
      }
      TxManager::current().flushStats();
    });
  for (int R = 0; R < NumReaders; ++R)
    Threads.emplace_back([&] {
      Start.arriveAndWait();
      for (int I = 0; I < ReadsPerReader; ++I) {
        int64_t Sum = 0;
        Stm::atomicReadOnly([&](TxManager &Tx) {
          Sum = 0; // body may restart on a refresh
          for (auto &A : Accounts)
            Sum += Tx.read(A.get(), &Account::Balance);
        });
        if (Sum != NumAccounts * Initial)
          BadSums.fetch_add(1, std::memory_order_relaxed);
      }
      TxManager::current().flushStats();
    });
  for (std::thread &T : Threads)
    T.join();

  // Transfers preserve the total; any reader observing a different sum saw
  // a torn (non-snapshot) state.
  EXPECT_EQ(BadSums.load(), 0);
  int64_t FinalSum = 0;
  uint64_t Depths = 0;
  for (auto &A : Accounts) {
    FinalSum += A->Balance.load();
    EXPECT_EQ(A->historyDepthForTesting(), K);
    Depths += A->historyDepthForTesting();
  }
  EXPECT_EQ(FinalSum, NumAccounts * Initial);
  TxStats S = statsNow();
  // Every read-only transaction committed on the never-abort path, exactly
  // once, no matter how many refresh restarts the churn forced.
  EXPECT_EQ(S.SnapshotCommits, uint64_t(NumReaders) * ReadsPerReader);
  EXPECT_EQ(S.MvVersionsInstalled - S.MvVersionsRetired, Depths);
}

} // namespace

TEST_F(Mvcc, SnapshotSumsStayConsistentUnderWriterChurn) {
  checkSnapshotSumsUnderChurn(8);
}

TEST_F(Mvcc, SnapshotSumsStayConsistentAtDepthOne) {
  TxManager::config().MvVersions = 1; // every install cuts the old head
  checkSnapshotSumsUnderChurn(1);
}

TEST_F(Mvcc, SnapshotSumsStayConsistentAtDepthTwo) {
  TxManager::config().MvVersions = 2;
  checkSnapshotSumsUnderChurn(2);
}

TEST_F(Mvcc, HistoryOffFallsBackToTheValidatePath) {
  // MvVersions = 0 switches the tier off at run time: writers install no
  // history, atomicReadOnly runs on the validate path, and the counters
  // and schema keys stay, so BENCH json and telemetry never fork.
  TxManager::config().MvVersions = 0;
  Counter C;
  resetStats();
  commitWrite(C, 7);
  EXPECT_EQ(C.historyDepthForTesting(), 0u);
  int64_t Got = -1;
  Stm::atomicReadOnly([&](TxManager &Tx) {
    EXPECT_FALSE(Tx.inSnapshotMode());
    Got = Tx.read(&C, &Counter::Value);
  });
  EXPECT_EQ(Got, 7);
  TxStats S = statsNow();
  EXPECT_EQ(S.Commits, 2u);
  EXPECT_EQ(S.SnapshotCommits, 0u);
  EXPECT_EQ(S.MvVersionsInstalled, 0u);
  obs::JsonValue J = mvccStatsToJson(S);
  ASSERT_NE(J.get("enabled"), nullptr);
  EXPECT_FALSE(J.get("enabled")->asBool());
  EXPECT_EQ(J.get("snapshot_commits")->asUInt(), 0u);
  TxManager::config().MvVersions = 8;
  EXPECT_TRUE(mvccStatsToJson(S).get("enabled")->asBool());
}
