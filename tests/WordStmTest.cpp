//===- tests/WordStmTest.cpp - TL2-style word STM tests ------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "wstm/WordStm.h"

#include "gc/EpochManager.h"
#include "stm/Stm.h"

#include "support/Random.h"
#include "support/ThreadBarrier.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace otm;
using namespace otm::wstm;

TEST(WriteSetTest, PutLookupOverwrite) {
  WriteSet WS;
  int Dummy1, Dummy2;
  WS.put(&Dummy1, 10, nullptr);
  WS.put(&Dummy2, 20, nullptr);
  uint64_t Bits = 0;
  ASSERT_TRUE(WS.lookup(&Dummy1, Bits));
  EXPECT_EQ(Bits, 10u);
  WS.put(&Dummy1, 30, nullptr); // overwrite keeps one entry
  ASSERT_TRUE(WS.lookup(&Dummy1, Bits));
  EXPECT_EQ(Bits, 30u);
  EXPECT_EQ(WS.size(), 2u);
  EXPECT_FALSE(WS.lookup(&Bits, Bits));
}

TEST(WriteSetTest, ClearForgetsEntries) {
  WriteSet WS;
  int Dummy;
  WS.put(&Dummy, 1, nullptr);
  WS.clear();
  uint64_t Bits;
  EXPECT_FALSE(WS.lookup(&Dummy, Bits));
  EXPECT_TRUE(WS.empty());
}

TEST(WriteSetTest, GrowthKeepsAllEntries) {
  WriteSet WS;
  std::vector<std::unique_ptr<int>> Keys;
  for (int I = 0; I < 1000; ++I) {
    Keys.push_back(std::make_unique<int>(I));
    WS.put(Keys.back().get(), static_cast<uint64_t>(I), nullptr);
  }
  for (int I = 0; I < 1000; ++I) {
    uint64_t Bits = 0;
    ASSERT_TRUE(WS.lookup(Keys[I].get(), Bits));
    EXPECT_EQ(Bits, static_cast<uint64_t>(I));
  }
}

TEST(VersionedLockTest, LockUnlockCycle) {
  VersionedLock L;
  uint64_t Saved = 99;
  ASSERT_TRUE(L.tryLock(Saved, 0x1000));
  EXPECT_EQ(Saved, 0u);
  EXPECT_TRUE(VersionedLock::isLocked(L.load()));
  uint64_t Other;
  EXPECT_FALSE(L.tryLock(Other, 0x2000));
  L.unlockToVersion(7);
  EXPECT_FALSE(VersionedLock::isLocked(L.load()));
  EXPECT_EQ(VersionedLock::versionOf(L.load()), 7u);
}

TEST(WordStmBasic, CommitPublishes) {
  WCell<int64_t> X(0), Y(0);
  WordStm::atomic([&](WTxManager &Tx) {
    Tx.write(X, int64_t{5});
    Tx.write(Y, int64_t{6});
  });
  EXPECT_EQ(X.load(), 5);
  EXPECT_EQ(Y.load(), 6);
}

TEST(WordStmBasic, ReadOwnWrite) {
  WCell<int64_t> X(1);
  int64_t Seen = 0;
  WordStm::atomic([&](WTxManager &Tx) {
    Tx.write(X, int64_t{42});
    Seen = Tx.read(X);
  });
  EXPECT_EQ(Seen, 42);
}

TEST(WordStmBasic, BufferedWritesInvisibleUntilCommit) {
  WCell<int64_t> X(1);
  WordStm::atomic([&](WTxManager &Tx) {
    Tx.write(X, int64_t{2});
    // Lazy versioning: memory must not change before commit.
    EXPECT_EQ(X.load(), 1);
  });
  EXPECT_EQ(X.load(), 2);
}

TEST(WordStmBasic, UserExceptionRollsBackAndPropagates) {
  WCell<int64_t> X(1);
  struct Boom {};
  EXPECT_THROW(WordStm::atomic([&](WTxManager &Tx) {
                 Tx.write(X, int64_t{9});
                 throw Boom{};
               }),
               Boom);
  EXPECT_EQ(X.load(), 1);
}

TEST(WordStmBasic, AtomicResult) {
  WCell<int64_t> X(20);
  int64_t R = WordStm::atomic(
      [&](WTxManager &Tx) { return Tx.read(X) + 2; });
  EXPECT_EQ(R, 22);
}

TEST(WordStmBasic, NestedFlattening) {
  WCell<int64_t> X(0);
  WordStm::atomic([&](WTxManager &Outer) {
    Outer.write(X, int64_t{1});
    WordStm::atomic([&](WTxManager &Inner) {
      EXPECT_EQ(&Inner, &Outer);
      EXPECT_EQ(Inner.read(X), 1);
      Inner.write(X, int64_t{2});
    });
    EXPECT_EQ(Outer.read(X), 2);
  });
  EXPECT_EQ(X.load(), 2);
}

TEST(WordStmConcurrency, NoLostUpdates) {
  constexpr int NumThreads = 4;
  constexpr int PerThread = 2000;
  WCell<int64_t> Counter(0);
  ThreadBarrier Barrier(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      Barrier.arriveAndWait();
      for (int I = 0; I < PerThread; ++I)
        WordStm::atomic([&](WTxManager &Tx) {
          Tx.write(Counter, Tx.read(Counter) + 1);
        });
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Counter.load(), NumThreads * PerThread);
}

TEST(WordStmConcurrency, InvariantPairHolds) {
  WCell<int64_t> X(0), Y(0);
  std::atomic<bool> Stop{false};
  std::atomic<int> Violations{0};

  std::thread Writer([&] {
    Xoshiro256 Rng(3);
    for (int I = 0; I < 20000; ++I) {
      int64_t D = static_cast<int64_t>(Rng.nextBelow(9)) - 4;
      WordStm::atomic([&](WTxManager &Tx) {
        Tx.write(X, Tx.read(X) + D);
        Tx.write(Y, Tx.read(Y) - D);
      });
    }
    Stop.store(true);
  });
  std::thread Checker([&] {
    while (!Stop.load()) {
      int64_t SX = 0, SY = 0;
      WordStm::atomic([&](WTxManager &Tx) {
        SX = Tx.read(X);
        SY = Tx.read(Y);
      });
      if (SX + SY != 0)
        ++Violations;
    }
  });
  Writer.join();
  Checker.join();
  EXPECT_EQ(Violations.load(), 0);
}

TEST(WordStmConcurrency, StaleReadAborts) {
  // A transaction that began before a concurrent commit and then reads the
  // committed location must restart (version > read version).
  WCell<int64_t> X(0);
  ThreadBarrier Sync(2);
  std::atomic<int> Attempts{0};
  int64_t Final = -1;

  std::thread ReaderThread([&] {
    WordStm::atomic([&](WTxManager &Tx) {
      if (++Attempts == 1) {
        Sync.arriveAndWait(); // writer commits now
        Sync.arriveAndWait();
      }
      Final = Tx.read(X);
    });
  });
  std::thread WriterThread([&] {
    Sync.arriveAndWait();
    WordStm::atomic([&](WTxManager &Tx) { Tx.write(X, int64_t{5}); });
    Sync.arriveAndWait();
  });
  ReaderThread.join();
  WriterThread.join();
  EXPECT_GE(Attempts.load(), 2);
  EXPECT_EQ(Final, 5);
}

namespace {

std::atomic<int> WNodeLive{0};

struct WNode {
  WNode() { ++WNodeLive; }
  ~WNode() { --WNodeLive; }
  WCell<int64_t> Value;
};

} // namespace

TEST(WordStmAlloc, AbortFreesRecordedAllocations) {
  gc::EpochManager::global().drainForTesting();
  int Before = WNodeLive.load();
  struct Boom {};
  EXPECT_THROW(WordStm::atomic([&](WTxManager &Tx) {
                 WNode *N = new WNode();
                 Tx.recordAlloc(N);
                 throw Boom{};
               }),
               Boom);
  gc::EpochManager::global().drainForTesting();
  EXPECT_EQ(WNodeLive.load(), Before) << "aborted allocation leaked";
}

TEST(WordStmAlloc, RetireOnCommitFreesAfterCommitOnly) {
  gc::EpochManager::global().drainForTesting();
  WNode *Kept = new WNode();
  int After = WNodeLive.load();

  struct Boom {};
  EXPECT_THROW(WordStm::atomic([&](WTxManager &Tx) {
                 Tx.retireOnCommit(Kept);
                 throw Boom{};
               }),
               Boom);
  gc::EpochManager::global().drainForTesting();
  EXPECT_EQ(WNodeLive.load(), After) << "abort must keep the object";

  WordStm::atomic([&](WTxManager &Tx) { Tx.retireOnCommit(Kept); });
  gc::EpochManager::global().drainForTesting();
  EXPECT_EQ(WNodeLive.load(), After - 1);
}

TEST(WordStmStats, CountersAccumulate) {
  stm::Stm::resetGlobalStats();
  WCell<int64_t> X(0);
  for (int I = 0; I < 10; ++I)
    WordStm::atomic([&](WTxManager &Tx) { Tx.write(X, Tx.read(X) + 1); });
  WTxManager::current().flushStats();
  stm::TxStats S = stm::Stm::globalStats();
  EXPECT_GE(S.Starts, 10u);
  EXPECT_GE(S.Commits, 10u);
  EXPECT_GE(S.OpensForRead, 10u);
  EXPECT_GE(S.OpensForUpdate, 10u);
}

TEST(WordStmRegression, ModeratelyStaleWriterMustAbort) {
  // Regression for a double-decoded version check: the commit-time
  // pre-lock validation compared Saved/2 against the read version, so a
  // writer whose stripe advanced to at most twice its read version
  // committed stale data without aborting (observed as lost hashtable
  // inserts under preemption). The stale writer below sits exactly in
  // that window and must retry, not clobber.
  WCell<int64_t> X(0);
  // Raise both the global clock and X's stripe version to 10.
  for (int I = 0; I < 10; ++I)
    WordStm::atomic([&](WTxManager &Tx) { Tx.write(X, Tx.read(X) + 1); });

  ThreadBarrier Sync(2);
  std::atomic<int> Attempts{0};
  std::thread Stale([&] {
    WordStm::atomic([&](WTxManager &Tx) {
      int64_t Seen = Tx.read(X); // RV = 10 on the first attempt
      if (++Attempts == 1) {
        Sync.arriveAndWait(); // main commits 5 more times (version 15)
        Sync.arriveAndWait();
      }
      Tx.write(X, Seen + 100);
    });
  });
  Sync.arriveAndWait();
  for (int I = 0; I < 5; ++I)
    WordStm::atomic([&](WTxManager &Tx) { Tx.write(X, Tx.read(X) + 1); });
  Sync.arriveAndWait();
  Stale.join();

  EXPECT_GE(Attempts.load(), 2) << "stale writer committed without retry";
  EXPECT_EQ(X.load(), 115); // 15 from increments + 100 from the fresh retry
}

TEST(WordStmRegression, PreemptedInsertersLoseNothing) {
  // End-to-end version of the same bug: many rounds of disjoint-key
  // inserts; any stale-commit clobber shows up as a short final count.
  for (int Round = 0; Round < 20; ++Round) {
    WCell<int64_t> Cells[64];
    constexpr int NumThreads = 4, PerThread = 400;
    ThreadBarrier Barrier(NumThreads);
    std::vector<std::thread> Threads;
    for (int T = 0; T < NumThreads; ++T)
      Threads.emplace_back([&] {
        Barrier.arriveAndWait();
        Xoshiro256 Rng(Round * 131 + 7);
        for (int I = 0; I < PerThread; ++I) {
          WCell<int64_t> &C = Cells[Rng.nextBelow(64)];
          WordStm::atomic(
              [&](WTxManager &Tx) { Tx.write(C, Tx.read(C) + 1); });
        }
      });
    for (std::thread &T : Threads)
      T.join();
    int64_t Total = 0;
    for (WCell<int64_t> &C : Cells)
      Total += C.load();
    ASSERT_EQ(Total, NumThreads * PerThread) << "round " << Round;
  }
}
