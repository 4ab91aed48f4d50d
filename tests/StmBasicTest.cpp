//===- tests/StmBasicTest.cpp - Single-threaded STM semantics ------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sequential semantics of the decomposed direct-update STM: visibility of
/// commits, rollback of aborts, idempotence of opens, filter behaviour,
/// nesting, allocation logging and GC log compaction.
///
//===----------------------------------------------------------------------===//

#include "stm/Stm.h"

#include "gc/EpochManager.h"
#include "stm/HashFilter.h"
#include "stm/TxArray.h"
#include "stm/TxGlobal.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace otm;
using namespace otm::stm;

namespace {

struct Point : TxObject {
  Field<int64_t> X;
  Field<int64_t> Y;
};

struct ConfigGuard {
  ConfigGuard() : Saved(TxManager::config()) {}
  ~ConfigGuard() { TxManager::config() = Saved; }
  TxConfig Saved;
};

} // namespace

TEST(HashFilterTest, InsertDetectsDuplicates) {
  HashFilter F;
  EXPECT_TRUE(F.insert(0x1000));
  EXPECT_FALSE(F.insert(0x1000));
  EXPECT_TRUE(F.insert(0x2000));
  EXPECT_TRUE(F.contains(0x1000));
  EXPECT_FALSE(F.contains(0x3000));
}

TEST(HashFilterTest, ClearIsLogical) {
  HashFilter F;
  for (uintptr_t K = 1; K <= 100; ++K)
    EXPECT_TRUE(F.insert(K * 8));
  F.clear();
  EXPECT_EQ(F.size(), 0u);
  for (uintptr_t K = 1; K <= 100; ++K)
    EXPECT_FALSE(F.contains(K * 8)) << "stale entry survived clear";
}

TEST(HashFilterTest, GrowthPreservesMembership) {
  HashFilter F;
  for (uintptr_t K = 1; K <= 1000; ++K)
    EXPECT_TRUE(F.insert(K * 16));
  for (uintptr_t K = 1; K <= 1000; ++K)
    EXPECT_FALSE(F.insert(K * 16));
  EXPECT_EQ(F.size(), 1000u);
}

TEST(HashFilterTest, ManyClearGenerationsNeverResurrectEntries) {
  // clear() is O(1) by bumping a generation stamp, and grow() burns an
  // extra generation per rehash; stale slots from any earlier generation
  // must stay logically empty no matter how many generations have passed.
  HashFilter F;
  for (uint64_t Cycle = 1; Cycle <= 5000; ++Cycle) {
    uintptr_t K1 = Cycle * 64, K2 = Cycle * 64 + 8;
    EXPECT_TRUE(F.insert(K1));
    EXPECT_TRUE(F.insert(K2));
    EXPECT_FALSE(F.insert(K1)) << "duplicate not caught in cycle " << Cycle;
    EXPECT_EQ(F.size(), 2u);
    if (Cycle > 1)
      EXPECT_FALSE(F.contains((Cycle - 1) * 64))
          << "previous cycle's key resurrected in cycle " << Cycle;
    F.clear();
    EXPECT_FALSE(F.contains(K1));
    EXPECT_FALSE(F.contains(K2));
    EXPECT_EQ(F.size(), 0u);
  }
}

TEST(HashFilterTest, GrowAfterManyClearsStaysExact) {
  // A grow rehash keys off the pre-grow generation; after a long clear
  // history the rehashed table must carry exactly the live keys forward.
  HashFilter F;
  for (uintptr_t K = 1; K <= 200; ++K) {
    F.insert(K * 8);
    F.clear();
  }
  for (uintptr_t K = 1; K <= 500; ++K) // forces several grows
    EXPECT_TRUE(F.insert(K * 32));
  EXPECT_EQ(F.size(), 500u);
  for (uintptr_t K = 1; K <= 500; ++K) {
    EXPECT_TRUE(F.contains(K * 32));
    EXPECT_FALSE(F.insert(K * 32));
  }
  EXPECT_FALSE(F.contains(8)) << "pre-clear key leaked through the grow";
}

TEST(StmBasic, ReadFilterGrowsMidTransaction) {
  // More distinct opens than the filter's initial capacity: the filter
  // grows inside the transaction and must keep catching duplicates (the
  // read log stays deduplicated) without dropping first-time opens.
  ConfigGuard Guard;
  TxManager::config().FilterReads = true;
  constexpr std::size_t NumObjs = 300; // initial capacity is 64 slots
  std::vector<std::unique_ptr<Point>> Objs;
  for (std::size_t I = 0; I < NumObjs; ++I)
    Objs.push_back(std::make_unique<Point>());
  uint64_t FilteredBefore = TxManager::current().stats().ReadsFiltered;
  Stm::atomic([&](TxManager &Tx) {
    for (auto &P : Objs)
      Tx.openForRead(P.get());
    for (auto &P : Objs)
      Tx.openForRead(P.get()); // every one a duplicate
    EXPECT_EQ(Tx.readLogSizeForTesting(), NumObjs);
  });
  EXPECT_EQ(TxManager::current().stats().ReadsFiltered - FilteredBefore,
            NumObjs);
}

TEST(StmBasic, CommitPublishesValues) {
  Point P;
  Stm::atomic([&](TxManager &Tx) {
    Tx.write(&P, &Point::X, int64_t{11});
    Tx.write(&P, &Point::Y, int64_t{13});
  });
  EXPECT_EQ(P.X.load(), 11);
  EXPECT_EQ(P.Y.load(), 13);
  EXPECT_FALSE(P.isOpenForUpdate());
}

TEST(StmBasic, CommitInstallsOneNewVersionPerObject) {
  Point P;
  uint64_t V0 = P.versionForTesting();
  Stm::atomic([&](TxManager &Tx) {
    Tx.write(&P, &Point::X, int64_t{1});
    Tx.write(&P, &Point::Y, int64_t{2}); // same object: one update entry
  });
  // The new version is a global commit stamp: strictly greater, not +1.
  uint64_t V1 = P.versionForTesting();
  EXPECT_GT(V1, V0);
  // A second commit to the same object installs exactly one newer version.
  Stm::atomic([&](TxManager &Tx) { Tx.write(&P, &Point::X, int64_t{3}); });
  EXPECT_GT(P.versionForTesting(), V1);
}

TEST(StmBasic, ReadSeesOwnWrite) {
  Point P;
  int64_t Observed = -1;
  Stm::atomic([&](TxManager &Tx) {
    Tx.write(&P, &Point::X, int64_t{7});
    Observed = Tx.read(&P, &Point::X);
  });
  EXPECT_EQ(Observed, 7);
}

TEST(StmBasic, UserAbortRollsBackAndDoesNotRetry) {
  Point P;
  P.X.store(5);
  uint64_t V0 = P.versionForTesting();
  int Executions = 0;
  Stm::atomic([&](TxManager &Tx) {
    ++Executions;
    Tx.write(&P, &Point::X, int64_t{99});
    Tx.userAbort();
  });
  EXPECT_EQ(Executions, 1);
  EXPECT_EQ(P.X.load(), 5) << "in-place store not undone";
  // The rollback of an in-place store must move the version forward: a
  // transaction that read the dirty 99 between the store and the rollback
  // would otherwise still validate against the old word and could commit
  // state that never existed (the abort-ABA race).
  EXPECT_GT(P.versionForTesting(), V0)
      << "abort of an in-place store must advance the version";
  EXPECT_FALSE(P.isOpenForUpdate()) << "ownership leaked";
}

TEST(StmBasic, UserExceptionAbortsAndPropagates) {
  Point P;
  P.X.store(1);
  struct Boom {};
  EXPECT_THROW(Stm::atomic([&](TxManager &Tx) {
                 Tx.write(&P, &Point::X, int64_t{2});
                 throw Boom{};
               }),
               Boom);
  EXPECT_EQ(P.X.load(), 1);
  EXPECT_FALSE(P.isOpenForUpdate());
}

TEST(StmBasic, UndoRestoresMultipleFieldsInOrder) {
  ConfigGuard Guard;
  TxManager::config().FilterUndo = false; // force duplicate undo entries
  Point P;
  P.X.store(10);
  Stm::atomic([&](TxManager &Tx) {
    Tx.write(&P, &Point::X, int64_t{20});
    Tx.write(&P, &Point::X, int64_t{30});
    Tx.write(&P, &Point::X, int64_t{40});
    Tx.userAbort();
  });
  EXPECT_EQ(P.X.load(), 10) << "reverse replay must restore oldest value";
}

TEST(StmBasic, OpenForReadIsIdempotentViaFilter) {
  Point P;
  TxManager &Tx = TxManager::current();
  TxStats Before = Tx.stats();
  Stm::atomic([&](TxManager &T) {
    for (int I = 0; I < 10; ++I)
      T.openForRead(&P);
  });
  TxStats &After = Tx.stats();
  EXPECT_EQ(After.OpensForRead - Before.OpensForRead, 10u);
  EXPECT_EQ(After.ReadLogAppends - Before.ReadLogAppends, 1u);
  EXPECT_EQ(After.ReadsFiltered - Before.ReadsFiltered, 9u);
}

TEST(StmBasic, OpenForUpdateSkipsReadLogging) {
  Point P;
  TxManager &Tx = TxManager::current();
  TxStats Before = Tx.stats();
  Stm::atomic([&](TxManager &T) {
    T.openForUpdate(&P);
    T.openForRead(&P); // we own it: no enlistment needed
  });
  TxStats &After = Tx.stats();
  EXPECT_EQ(After.ReadLogAppends - Before.ReadLogAppends, 0u);
}

TEST(StmBasic, UndoFilterSuppressesDuplicates) {
  Point P;
  TxManager &Tx = TxManager::current();
  TxStats Before = Tx.stats();
  Stm::atomic([&](TxManager &T) {
    T.openForUpdate(&P);
    for (int I = 0; I < 5; ++I) {
      T.logUndo(&P.X);
      P.X.store(I);
    }
  });
  TxStats &After = Tx.stats();
  EXPECT_EQ(After.UndoLogAppends - Before.UndoLogAppends, 1u);
  EXPECT_EQ(After.UndosFiltered - Before.UndosFiltered, 4u);
  EXPECT_EQ(P.X.load(), 4);
}

TEST(StmBasic, NestedAtomicIsFlattened) {
  Point P;
  Stm::atomic([&](TxManager &Tx) {
    EXPECT_EQ(Tx.nestingDepth(), 1u);
    Stm::atomic([&](TxManager &Inner) {
      EXPECT_EQ(&Inner, &Tx) << "same per-thread manager";
      EXPECT_EQ(Inner.nestingDepth(), 1u) << "flattened, not nested begin";
      Inner.write(&P, &Point::X, int64_t{3});
    });
    EXPECT_TRUE(Tx.inTx());
  });
  EXPECT_EQ(P.X.load(), 3);
}

TEST(StmBasic, ExplicitBeginNestingIsCounted) {
  TxManager &Tx = TxManager::current();
  Tx.begin();
  Tx.begin();
  EXPECT_EQ(Tx.nestingDepth(), 2u);
  EXPECT_TRUE(Tx.tryCommit()); // inner
  EXPECT_EQ(Tx.nestingDepth(), 1u);
  EXPECT_TRUE(Tx.tryCommit()); // outer
  EXPECT_FALSE(Tx.inTx());
}

TEST(StmBasic, AllocInTxFreedOnAbort) {
  gc::EpochManager &EM = gc::EpochManager::global();
  EM.drainForTesting();
  uint64_t FreedBefore = EM.freedCount();
  Stm::atomic([&](TxManager &Tx) {
    Point *Fresh = Tx.allocInTx<Point>();
    Fresh->X.store(123); // transaction-local: no open, no undo log needed
    Tx.userAbort();
  });
  EM.drainForTesting();
  EXPECT_EQ(EM.freedCount(), FreedBefore + 1) << "aborted alloc leaked";
}

TEST(StmBasic, AllocInTxSurvivesCommit) {
  Point *Fresh = nullptr;
  Stm::atomic([&](TxManager &Tx) {
    Fresh = Tx.allocInTx<Point>();
    Fresh->X.store(55);
  });
  ASSERT_NE(Fresh, nullptr);
  EXPECT_EQ(Fresh->X.load(), 55);
  delete Fresh;
}

TEST(StmBasic, RetireOnCommitFreesOnlyOnCommit) {
  gc::EpochManager &EM = gc::EpochManager::global();

  // Abort path: object must survive.
  Point *Kept = new Point();
  EM.drainForTesting();
  uint64_t Freed0 = EM.freedCount();
  Stm::atomic([&](TxManager &Tx) {
    Tx.openForUpdate(Kept);
    Tx.retireOnCommit(Kept);
    Tx.userAbort();
  });
  EM.drainForTesting();
  EXPECT_EQ(EM.freedCount(), Freed0) << "abort must keep the object";
  EXPECT_EQ(Kept->X.load(), 0);

  // Commit path: object must be retired and eventually freed. While
  // history is kept, the committing update also installs a version record
  // that the object's destructor retires, so one extra block is freed.
  Stm::atomic([&](TxManager &Tx) {
    Tx.openForUpdate(Kept);
    Tx.retireOnCommit(Kept);
  });
  EM.drainForTesting();
  EXPECT_EQ(EM.freedCount(),
            Freed0 + (TxManager::config().MvVersions > 0 ? 2 : 1));
}

TEST(StmBasic, TxGlobalRoundTrip) {
  static TxGlobal<int64_t> Counter(0);
  Stm::atomic([&](TxManager &Tx) { Counter.set(Tx, Counter.get(Tx) + 5); });
  Stm::atomic([&](TxManager &Tx) { Counter.set(Tx, Counter.get(Tx) + 7); });
  EXPECT_EQ(Counter.unsafeGet(), 12);
}

TEST(StmBasic, TxArrayElementOps) {
  TxArray<int64_t> Arr(16);
  Stm::atomic([&](TxManager &Tx) {
    for (std::size_t I = 0; I < Arr.size(); ++I)
      Arr.set(Tx, I, static_cast<int64_t>(I * I));
  });
  int64_t Sum = 0;
  Stm::atomic([&](TxManager &Tx) {
    for (std::size_t I = 0; I < Arr.size(); ++I)
      Sum += Arr.get(Tx, I);
  });
  EXPECT_EQ(Sum, 1240);
}

TEST(StmBasic, TxArrayAbortRestoresAllElements) {
  TxArray<int64_t> Arr(8);
  for (std::size_t I = 0; I < 8; ++I)
    Arr.unsafeSet(I, 100 + static_cast<int64_t>(I));
  Stm::atomic([&](TxManager &Tx) {
    for (std::size_t I = 0; I < 8; ++I)
      Arr.set(Tx, I, -1);
    Tx.userAbort();
  });
  for (std::size_t I = 0; I < 8; ++I)
    EXPECT_EQ(Arr.unsafeGet(I), 100 + static_cast<int64_t>(I));
}

TEST(StmBasic, ValidateTrueWithoutConcurrency) {
  Point P;
  Stm::atomic([&](TxManager &Tx) {
    Tx.openForRead(&P);
    EXPECT_TRUE(Tx.validate());
    Tx.validateOrAbort(); // must not throw
  });
}

TEST(StmBasic, CompactLogsForGcDeduplicates) {
  ConfigGuard Guard;
  TxManager::config().FilterReads = false;
  TxManager::config().FilterUndo = false;
  Point P, Q;
  Stm::atomic([&](TxManager &Tx) {
    for (int I = 0; I < 4; ++I) {
      Tx.openForRead(&P);
      Tx.openForRead(&Q);
    }
    Tx.openForUpdate(&P);
    for (int I = 0; I < 3; ++I) {
      Tx.logUndo(&P.X);
      P.X.store(I);
    }
    EXPECT_EQ(Tx.readLogSizeForTesting(), 8u);
    EXPECT_EQ(Tx.undoLogSizeForTesting(), 3u);
    auto [ReadsRemoved, UndosRemoved] = Tx.compactLogsForGc();
    EXPECT_EQ(ReadsRemoved, 6u);
    EXPECT_EQ(UndosRemoved, 2u);
    EXPECT_EQ(Tx.readLogSizeForTesting(), 2u);
    EXPECT_EQ(Tx.undoLogSizeForTesting(), 1u);
    Tx.userAbort(); // replay the compacted undo log
  });
  EXPECT_EQ(P.X.load(), 0) << "compaction must keep the oldest undo value";
}

TEST(StmBasic, StatsFlushAggregatesGlobally) {
  Stm::resetGlobalStats();
  Point P;
  Stm::atomic([&](TxManager &Tx) { Tx.write(&P, &Point::X, int64_t{1}); });
  TxManager::current().flushStats();
  TxStats G = Stm::globalStats();
  EXPECT_GE(G.Commits, 1u);
  EXPECT_GE(G.OpensForUpdate, 1u);
}

TEST(StmBasic, AtomicResultReturnsValue) {
  Point P;
  P.X.store(21);
  int64_t V = Stm::atomic(
      [&](TxManager &Tx) { return Tx.read(&P, &Point::X) * 2; });
  EXPECT_EQ(V, 42);
}
