//===- tests/ContainersBoostTest.cpp - Transactional boosting tests ------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic conflict detection (DESIGN.md §3.10): deferred-action ordering,
/// semantic undo on abort across all four containers, same-transaction
/// insert/erase edge cases, abstract-lock stripe contention, the
/// structural-fallback gate, and a boosted-vs-ObjStmOpt differential over
/// random multi-op transactions.
///
//===----------------------------------------------------------------------===//

#include "containers/HashMap.h"
#include "containers/RBTree.h"
#include "containers/SkipList.h"
#include "containers/SortedList.h"

#include "stm/Stm.h"
#include "stm/TxStats.h"
#include "support/Random.h"
#include "support/ThreadBarrier.h"
#include "txn/AbstractLockTable.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

using namespace otm;
using namespace otm::containers;
using otm::stm::Stm;
using otm::stm::TxManager;

//===----------------------------------------------------------------------===//
// Deferred-action subsystem
//===----------------------------------------------------------------------===//

TEST(DeferredActions, CommitRunsFifoAbortHandlersDisposed) {
  std::vector<int> Order;
  bool AbortRan = false;
  Stm::atomic([&](TxManager &Tx) {
    Tx.onCommit([&] { Order.push_back(1); });
    Tx.onCommit([&] { Order.push_back(2); });
    Tx.onCommit([&] { Order.push_back(3); });
    Tx.onAbort([&] { AbortRan = true; });
  });
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(AbortRan) << "abort handlers must not run on commit";
}

TEST(DeferredActions, AbortRunsLifoCommitHandlersDisposed) {
  std::vector<int> Order;
  bool CommitRan = false;
  Stm::atomic([&](TxManager &Tx) {
    Tx.onAbort([&] { Order.push_back(1); });
    Tx.onAbort([&] { Order.push_back(2); });
    Tx.onAbort([&] { Order.push_back(3); });
    Tx.onCommit([&] { CommitRan = true; });
    Tx.userAbort();
  });
  EXPECT_EQ(Order, (std::vector<int>{3, 2, 1}))
      << "abort replay must be LIFO (reverse registration order)";
  EXPECT_FALSE(CommitRan) << "commit handlers must not run on abort";
}

TEST(DeferredActions, LogsEmptyAfterEitherOutcome) {
  Stm::atomic([&](TxManager &Tx) {
    Tx.onCommit([] {});
    Tx.onAbort([] {});
    EXPECT_EQ(Tx.deferredCommitCountForTesting(), 1u);
    EXPECT_EQ(Tx.deferredAbortCountForTesting(), 1u);
  });
  Stm::atomic([&](TxManager &Tx) {
    EXPECT_EQ(Tx.deferredCommitCountForTesting(), 0u);
    EXPECT_EQ(Tx.deferredAbortCountForTesting(), 0u);
    Tx.onAbort([] {});
    Tx.userAbort();
  });
  Stm::atomic([&](TxManager &Tx) {
    EXPECT_EQ(Tx.deferredAbortCountForTesting(), 0u);
  });
}

//===----------------------------------------------------------------------===//
// Semantic undo on abort, all four containers
//===----------------------------------------------------------------------===//

namespace {

/// Seeds keys 0..N-1 with value 10*key.
template <typename ContainerType> void seed(ContainerType &C, int64_t N) {
  for (int64_t K = 0; K < N; ++K)
    ASSERT_TRUE(C.insert(K, 10 * K));
}

/// Runs insert-new + update + erase inside an outer transaction that user-
/// aborts, then checks every key is back to its seeded value.
template <typename ContainerType> void checkUndoAfterAbort(ContainerType &C) {
  seed(C, 8);
  ASSERT_EQ(C.sizeSlow(), 8u);
  Stm::atomic([&](TxManager &Tx) {
    C.insert(100, 1);  // new key
    C.insert(3, 999);  // update
    C.erase(5);        // erase
    Tx.userAbort();
  });
  EXPECT_EQ(C.sizeSlow(), 8u);
  int64_t V = 0;
  EXPECT_FALSE(C.lookup(100, V));
  ASSERT_TRUE(C.lookup(3, V));
  EXPECT_EQ(V, 30);
  ASSERT_TRUE(C.lookup(5, V));
  EXPECT_EQ(V, 50);
}

/// The same ops committed must stick (and the erased node must be freed
/// without disturbing the structure).
template <typename ContainerType> void checkCommitApplies(ContainerType &C) {
  seed(C, 8);
  Stm::atomic([&](TxManager &) {
    C.insert(100, 1);
    C.insert(3, 999);
    C.erase(5);
  });
  EXPECT_EQ(C.sizeSlow(), 8u); // +1 insert, -1 erase
  int64_t V = 0;
  ASSERT_TRUE(C.lookup(100, V));
  EXPECT_EQ(V, 1);
  ASSERT_TRUE(C.lookup(3, V));
  EXPECT_EQ(V, 999);
  EXPECT_FALSE(C.lookup(5, V));
}

} // namespace

TEST(BoostUndo, HashMapRestoredOnAbort) {
  HashMap<BoostedPolicy> Map(64);
  checkUndoAfterAbort(Map);
  EXPECT_TRUE(Map.checkPlacementSlow());
}

TEST(BoostUndo, SortedListRestoredOnAbort) {
  SortedList<BoostedPolicy> List;
  checkUndoAfterAbort(List);
  EXPECT_TRUE(List.isSortedSlow());
}

TEST(BoostUndo, SkipListRestoredOnAbort) {
  SkipList<BoostedPolicy> List;
  checkUndoAfterAbort(List);
  EXPECT_TRUE(List.checkInvariantsSlow());
}

TEST(BoostUndo, RBTreeRestoredOnAbort) {
  RBTree<BoostedPolicy> Tree;
  checkUndoAfterAbort(Tree);
  EXPECT_TRUE(Tree.checkInvariantsSlow());
}

TEST(BoostUndo, CommitApplies) {
  HashMap<BoostedPolicy> Map(64);
  checkCommitApplies(Map);
  RBTree<BoostedPolicy> Tree;
  checkCommitApplies(Tree);
  EXPECT_TRUE(Tree.checkInvariantsSlow());
}

TEST(BoostUndo, InsertThenEraseSameKeyAborted) {
  HashMap<BoostedPolicy> Map(64);
  Stm::atomic([&](TxManager &Tx) {
    EXPECT_TRUE(Map.insert(7, 70));
    EXPECT_TRUE(Map.erase(7));
    Tx.userAbort();
  });
  // LIFO replay: erase's re-insert runs first, then insert's erase — the
  // key must end up absent, as before the transaction.
  EXPECT_FALSE(Map.contains(7));
  EXPECT_EQ(Map.sizeSlow(), 0u);
}

TEST(BoostUndo, EraseThenInsertSameKeyAborted) {
  SkipList<BoostedPolicy> List;
  ASSERT_TRUE(List.insert(7, 70));
  Stm::atomic([&](TxManager &Tx) {
    EXPECT_TRUE(List.erase(7));
    EXPECT_TRUE(List.insert(7, 71));
    Tx.userAbort();
  });
  int64_t V = 0;
  ASSERT_TRUE(List.lookup(7, V));
  EXPECT_EQ(V, 70);
  EXPECT_EQ(List.sizeSlow(), 1u);
  EXPECT_TRUE(List.checkInvariantsSlow());
}

TEST(BoostUndo, LockTableDrainedAfterTransactions) {
  HashMap<BoostedPolicy> Map(64);
  seed(Map, 16);
  Stm::atomic([&](TxManager &Tx) {
    Map.insert(99, 1);
    Tx.userAbort();
  });
  EXPECT_EQ(txn::AbstractLockTable::instance().heldCount(), 0u)
      << "every abstract lock must be released on both outcomes";
}

TEST(BoostUndo, StatsCountAcquiresAndUndos) {
  TxManager::current().flushStats();
  auto Before = stm::GlobalTxStats::instance().snapshot();
  HashMap<BoostedPolicy> Map(64);
  seed(Map, 4);
  Stm::atomic([&](TxManager &Tx) {
    Map.insert(50, 5);
    Tx.userAbort();
  });
  TxManager::current().flushStats();
  auto After = stm::GlobalTxStats::instance().snapshot();
  EXPECT_GE(After.BoostLockAcquires - Before.BoostLockAcquires, 5u);
  EXPECT_GE(After.BoostUndoOps - Before.BoostUndoOps, 1u);
}

//===----------------------------------------------------------------------===//
// Differential: boosted vs ObjStmOpt vs std::map over random transactions
//===----------------------------------------------------------------------===//

TEST(BoostDifferential, RandomMultiOpTransactionsAgree) {
  HashMap<BoostedPolicy> Boosted(128);
  HashMap<ObjStmOptPolicy> Opt(128);
  std::map<int64_t, int64_t> Model;
  Xoshiro256 Rng(20260809);

  for (int Txn = 0; Txn < 800; ++Txn) {
    // 1-4 ops per transaction; ~1 in 6 transactions aborts at the end.
    unsigned Ops = 1 + static_cast<unsigned>(Rng.nextBelow(4));
    bool Abort = Rng.nextPercent(16);
    struct Op {
      int Kind; // 0 insert, 1 erase
      int64_t Key;
      int64_t Value;
    };
    std::vector<Op> Plan;
    for (unsigned I = 0; I < Ops; ++I)
      Plan.push_back({Rng.nextPercent(55) ? 0 : 1,
                      static_cast<int64_t>(Rng.nextBelow(48)),
                      static_cast<int64_t>(Rng.next() & 0xffff)});

    Stm::atomic([&](TxManager &Tx) {
      for (const Op &O : Plan) {
        if (O.Kind == 0)
          Boosted.insert(O.Key, O.Value);
        else
          Boosted.erase(O.Key);
      }
      if (Abort)
        Tx.userAbort();
    });
    Stm::atomic([&](TxManager &Tx) {
      for (const Op &O : Plan) {
        if (O.Kind == 0)
          Opt.insert(O.Key, O.Value);
        else
          Opt.erase(O.Key);
      }
      if (Abort)
        Tx.userAbort();
    });
    if (!Abort) {
      for (const Op &O : Plan) {
        if (O.Kind == 0)
          Model[O.Key] = O.Value;
        else
          Model.erase(O.Key);
      }
    }

    if ((Txn & 63) != 0)
      continue;
    ASSERT_EQ(Boosted.sizeSlow(), Model.size()) << "after txn " << Txn;
    ASSERT_EQ(Opt.sizeSlow(), Model.size());
    for (const auto &[K, V] : Model) {
      int64_t Got = 0;
      ASSERT_TRUE(Boosted.lookup(K, Got));
      ASSERT_EQ(Got, V);
      ASSERT_TRUE(Opt.lookup(K, Got));
      ASSERT_EQ(Got, V);
    }
  }
  EXPECT_EQ(Boosted.sizeSlow(), Model.size());
  EXPECT_TRUE(Boosted.checkPlacementSlow());
}

//===----------------------------------------------------------------------===//
// Concurrency: stripe contention and the structural-fallback gate
//===----------------------------------------------------------------------===//

TEST(BoostConcurrency, ContendedKeysStayConsistent) {
  // A small keyspace forces abstract-lock conflicts (and some slot-stripe
  // collisions); every conflict must resolve through the contention manager
  // without losing an update or leaking a lock.
  constexpr int NumThreads = 4;
  constexpr int OpsPerThread = 1500;
  HashMap<BoostedPolicy> Map(32);
  seed(Map, 16);
  ThreadBarrier Barrier(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Xoshiro256 Rng(1000 + T);
      Barrier.arriveAndWait();
      for (int I = 0; I < OpsPerThread; ++I) {
        int64_t Key = static_cast<int64_t>(Rng.nextBelow(16));
        if (Rng.nextPercent(50))
          Map.insert(Key, static_cast<int64_t>(Rng.next() & 0xffff));
        else if (Rng.nextPercent(50))
          Map.erase(Key);
        else
          Map.contains(Key);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_TRUE(Map.checkPlacementSlow());
  EXPECT_LE(Map.sizeSlow(), 16u);
  EXPECT_EQ(txn::AbstractLockTable::instance().heldCount(), 0u);
}

TEST(BoostConcurrency, MultiKeyTransfersPreserveSum) {
  // Transfers move value between two keys inside one transaction; aborted
  // transfers (conflict or the deliberate user abort) must undo partially
  // applied updates, so the total is invariant.
  constexpr int NumThreads = 4;
  constexpr int OpsPerThread = 800;
  constexpr int64_t NumKeys = 12;
  RBTree<BoostedPolicy> Tree;
  int64_t Expected = 0;
  for (int64_t K = 0; K < NumKeys; ++K) {
    ASSERT_TRUE(Tree.insert(K, 1000));
    Expected += 1000;
  }
  ThreadBarrier Barrier(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Xoshiro256 Rng(7000 + T);
      Barrier.arriveAndWait();
      for (int I = 0; I < OpsPerThread; ++I) {
        int64_t A = static_cast<int64_t>(Rng.nextBelow(NumKeys));
        int64_t B = static_cast<int64_t>(Rng.nextBelow(NumKeys));
        int64_t Delta = static_cast<int64_t>(Rng.nextBelow(9)) - 4;
        bool Abort = Rng.nextPercent(10);
        Stm::atomic([&](TxManager &Tx) {
          int64_t VA = 0, VB = 0;
          ASSERT_TRUE(Tree.lookup(A, VA));
          Tree.insert(A, VA - Delta);
          // When A == B this lookup sees VA - Delta, so adding Delta back
          // restores the original value: the sum is invariant either way.
          ASSERT_TRUE(Tree.lookup(B, VB));
          Tree.insert(B, VB + Delta);
          if (Abort)
            Tx.userAbort();
        });
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_TRUE(Tree.checkInvariantsSlow());
  int64_t Sum = 0;
  for (int64_t K = 0; K < NumKeys; ++K) {
    int64_t V = 0;
    ASSERT_TRUE(Tree.lookup(K, V));
    Sum += V;
  }
  EXPECT_EQ(Sum, Expected) << "an aborted transfer left a partial update";
}

TEST(BoostConcurrency, StructuralGateSeesConsistentSums) {
  // sumValues (whole-container, no per-key footprint) takes the structural
  // gate; concurrent sum-preserving transfers must never be observed
  // half-applied.
  constexpr int NumWriters = 3;
  constexpr int TransfersPerWriter = 400;
  constexpr int64_t NumKeys = 16;
  SortedList<BoostedPolicy> List;
  int64_t Expected = 0;
  for (int64_t K = 0; K < NumKeys; ++K) {
    ASSERT_TRUE(List.insert(K, 500));
    Expected += 500;
  }
  std::atomic<bool> Stop{false};
  std::atomic<int> BadSums{0};
  ThreadBarrier Barrier(NumWriters + 1);
  std::thread Reader([&] {
    Barrier.arriveAndWait();
    while (!Stop.load(std::memory_order_acquire))
      if (List.sumValues() != Expected)
        BadSums.fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<std::thread> Writers;
  for (int T = 0; T < NumWriters; ++T)
    Writers.emplace_back([&, T] {
      Xoshiro256 Rng(42 + T);
      Barrier.arriveAndWait();
      for (int I = 0; I < TransfersPerWriter; ++I) {
        int64_t A = static_cast<int64_t>(Rng.nextBelow(NumKeys));
        int64_t B = static_cast<int64_t>(Rng.nextBelow(NumKeys));
        int64_t Delta = static_cast<int64_t>(Rng.nextBelow(7)) - 3;
        Stm::atomic([&](TxManager &) {
          int64_t VA = 0, VB = 0;
          ASSERT_TRUE(List.lookup(A, VA));
          List.insert(A, VA - Delta);
          ASSERT_TRUE(List.lookup(B, VB));
          List.insert(B, VB + Delta);
        });
      }
    });
  for (std::thread &Th : Writers)
    Th.join();
  Stop.store(true, std::memory_order_release);
  Reader.join();
  EXPECT_EQ(BadSums.load(), 0)
      << "structural gate admitted a half-applied transfer";
  EXPECT_EQ(List.sumValues(), Expected);
  EXPECT_TRUE(List.isSortedSlow());
}
