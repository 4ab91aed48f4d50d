//===- tests/SupportTest.cpp - Support library unit tests ----------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/TxObs.h"
#include "stm/Mvcc.h"
#include "stm/TxManager.h"
#include "support/Backoff.h"
#include "support/ChunkedVector.h"
#include "support/Random.h"
#include "support/ThreadBarrier.h"
#include "support/TxPool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

using namespace otm;

TEST(Random, DeterministicForSameSeed) {
  Xoshiro256 A(42), B(42);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, DifferentSeedsDiffer) {
  Xoshiro256 A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    Same += (A.next() == B.next());
  EXPECT_LT(Same, 3);
}

TEST(Random, NextBelowStaysInRange) {
  Xoshiro256 Rng(7);
  for (uint64_t Bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(Rng.nextBelow(Bound), Bound);
  }
}

TEST(Random, NextBelowCoversSmallRange) {
  Xoshiro256 Rng(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 200; ++I)
    Seen.insert(Rng.nextBelow(4));
  EXPECT_EQ(Seen.size(), 4u);
}

TEST(Random, NextDoubleInUnitInterval) {
  Xoshiro256 Rng(11);
  for (int I = 0; I < 1000; ++I) {
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Random, PercentExtremes) {
  Xoshiro256 Rng(13);
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(Rng.nextPercent(0));
    EXPECT_TRUE(Rng.nextPercent(100));
  }
}

TEST(ChunkedVector, AppendAndIndex) {
  ChunkedVector<int, 4> V;
  for (int I = 0; I < 100; ++I)
    V.emplaceBack(I);
  ASSERT_EQ(V.size(), 100u);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(V[I], I);
}

TEST(ChunkedVector, AddressesStableAcrossGrowth) {
  ChunkedVector<int, 4> V;
  std::vector<int *> Ptrs;
  for (int I = 0; I < 64; ++I)
    Ptrs.push_back(V.emplaceBack(I));
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(*Ptrs[I], I) << "entry moved after later appends";
}

TEST(ChunkedVector, ClearRetainsCapacityAndReuses) {
  ChunkedVector<int, 4> V;
  for (int I = 0; I < 10; ++I)
    V.emplaceBack(I);
  V.clear();
  EXPECT_EQ(V.size(), 0u);
  EXPECT_TRUE(V.empty());
  V.emplaceBack(99);
  EXPECT_EQ(V[0], 99);
}

TEST(ChunkedVector, PopBackRemovesLast) {
  ChunkedVector<int, 4> V;
  V.emplaceBack(1);
  V.emplaceBack(2);
  V.popBack();
  ASSERT_EQ(V.size(), 1u);
  EXPECT_EQ(V.back(), 1);
}

TEST(ChunkedVector, ForEachReverseVisitsInReverse) {
  ChunkedVector<int, 4> V;
  for (int I = 0; I < 9; ++I)
    V.emplaceBack(I);
  std::vector<int> Seen;
  V.forEachReverse([&](int X) { Seen.push_back(X); });
  ASSERT_EQ(Seen.size(), 9u);
  for (int I = 0; I < 9; ++I)
    EXPECT_EQ(Seen[I], 8 - I);
}

TEST(ChunkedVector, RemoveIfKeepsOrderAndCounts) {
  ChunkedVector<int, 4> V;
  for (int I = 0; I < 20; ++I)
    V.emplaceBack(I);
  std::size_t Removed = V.removeIf([](int X) { return X % 2 == 0; });
  EXPECT_EQ(Removed, 10u);
  ASSERT_EQ(V.size(), 10u);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(V[I], 2 * I + 1);
}

TEST(ChunkedVector, RemoveIfNothingMatches) {
  ChunkedVector<int, 4> V;
  for (int I = 0; I < 5; ++I)
    V.emplaceBack(I);
  EXPECT_EQ(V.removeIf([](int) { return false; }), 0u);
  EXPECT_EQ(V.size(), 5u);
}

TEST(ChunkedVector, MoveOnlyElements) {
  // Storage is raw memory: move-only types need only a matching
  // emplaceBack constructor (this type takes the destructor path, not
  // reuse-by-assignment).
  ChunkedVector<std::unique_ptr<int>, 4> V;
  for (int I = 0; I < 10; ++I)
    V.emplaceBack(std::make_unique<int>(I));
  int Sum = 0;
  V.forEach([&](std::unique_ptr<int> &P) { Sum += *P; });
  EXPECT_EQ(Sum, 45);
  V.popBack();
  EXPECT_EQ(V.size(), 9u);
  V.clear();
  EXPECT_TRUE(V.empty());
  V.emplaceBack(std::make_unique<int>(7));
  EXPECT_EQ(*V[0], 7);
}

namespace {
struct NoDefault {
  explicit NoDefault(int X) : X(X) {}
  int X;
};
} // namespace

TEST(ChunkedVector, NonDefaultConstructibleElements) {
  // NoDefault is trivially destructible + move-assignable, so clear() keeps
  // slots constructed and the second fill takes the reuse-by-assignment
  // path over them.
  ChunkedVector<NoDefault, 4> V;
  for (int I = 0; I < 9; ++I)
    V.emplaceBack(I);
  V.clear();
  for (int I = 0; I < 6; ++I)
    V.emplaceBack(10 + I);
  ASSERT_EQ(V.size(), 6u);
  for (int I = 0; I < 6; ++I)
    EXPECT_EQ(V[I].X, 10 + I);
}

TEST(ChunkedVector, AddressesStableAcrossTailGrowth) {
  // Every returned slot pointer must survive later appends (the STM word
  // points straight at update-log entries), including across the chunk
  // boundaries where the tail pointers are re-seated.
  ChunkedVector<int, 4> V;
  std::vector<int *> Slots;
  for (int I = 0; I < 29; ++I)
    Slots.push_back(V.emplaceBack(I));
  for (int I = 0; I < 29; ++I) {
    EXPECT_EQ(Slots[I], &V[I]);
    EXPECT_EQ(*Slots[I], I);
  }
}

TEST(ChunkedVector, ForEachExactCountAfterClearAndReuse) {
  // After clear()+reuse the chunk-wise walks must visit exactly size()
  // entries: stale constructed slots past the logical tail stay invisible.
  ChunkedVector<int, 4> V;
  for (int I = 0; I < 11; ++I) // 2.75 chunks
    V.emplaceBack(I);
  V.clear();
  for (int I = 0; I < 5; ++I)
    V.emplaceBack(100 + I);
  std::size_t Visited = 0;
  V.forEach([&](int X) {
    EXPECT_EQ(X, 100 + static_cast<int>(Visited));
    ++Visited;
  });
  EXPECT_EQ(Visited, 5u);
  std::size_t ChunkTotal = 0;
  V.forEachChunkArray([&](int *, std::size_t N) { ChunkTotal += N; });
  EXPECT_EQ(ChunkTotal, 5u);
  std::size_t Reversed = 0;
  V.forEachReverse([&](int X) {
    ++Reversed;
    EXPECT_EQ(X, 105 - static_cast<int>(Reversed));
  });
  EXPECT_EQ(Reversed, 5u);
}

TEST(ChunkedVector, PopBackAcrossChunkBoundary) {
  ChunkedVector<int, 4> V;
  for (int I = 0; I < 5; ++I) // one full chunk + one entry
    V.emplaceBack(I);
  V.popBack();
  EXPECT_EQ(V.size(), 4u);
  EXPECT_EQ(V.back(), 3);
  V.popBack(); // back into the first chunk
  EXPECT_EQ(V.back(), 2);
  int *Slot = V.emplaceBack(42); // refill the vacated slot
  EXPECT_EQ(*Slot, 42);
  EXPECT_EQ(V.size(), 4u);
}

TEST(TxPool, RecyclesSameThreadFrees) {
  auto &Pool = support::TxPool::threadPool();
  uint64_t HitsBefore = Pool.statsForTesting().FreeListHits;
  void *A = support::TxPool::allocate(48);
  support::TxPool::deallocate(A);
  void *B = support::TxPool::allocate(48);
  EXPECT_EQ(A, B); // LIFO free list returns the block just freed
  EXPECT_GT(Pool.statsForTesting().FreeListHits, HitsBefore);
  support::TxPool::deallocate(B);
}

TEST(TxPool, CrossThreadFreeDrainsBackToOwner) {
  auto &Pool = support::TxPool::threadPool();
  void *P = support::TxPool::allocate(64);
  uint64_t RemoteBefore = Pool.remoteFreesForTesting();
  std::thread([P] { support::TxPool::deallocate(P); }).join();
  EXPECT_EQ(Pool.remoteFreesForTesting(), RemoteBefore + 1);
  // Exhaust the local free list; the drain must eventually hand the
  // remotely freed block back to this thread.
  std::vector<void *> Held;
  bool Recycled = false;
  for (int I = 0; I < 1000 && !Recycled; ++I) {
    void *Q = support::TxPool::allocate(64);
    Recycled = (Q == P);
    Held.push_back(Q);
  }
  EXPECT_TRUE(Recycled);
  for (void *Q : Held)
    support::TxPool::deallocate(Q);
}

TEST(TxPool, OversizeFallsThroughToOperatorNew) {
  // Requests beyond the largest size class take the null-owner header path:
  // ::operator new on allocate, ::operator delete on deallocate.
  EXPECT_GE(support::TxPool::classFor(4096), support::TxPool::numClasses());
  void *P = support::TxPool::allocate(4096);
  ASSERT_NE(P, nullptr);
  std::memset(P, 0xab, 4096); // must really own the bytes
  support::TxPool::deallocate(P);
}

TEST(TxPool, ClassForMatchesClassSize) {
  for (unsigned C = 0; C < support::TxPool::numClasses(); ++C) {
    std::size_t Size = support::TxPool::classSize(C);
    EXPECT_EQ(support::TxPool::classFor(Size), C);
    if (Size > 1)
      EXPECT_LE(support::TxPool::classFor(Size - 1), C);
    EXPECT_EQ(support::TxPool::classFor(Size + 1), C + 1);
  }
}

TEST(Backoff, RoundsEscalate) {
  Backoff B(1);
  for (int I = 0; I < 3; ++I)
    B.pause();
  EXPECT_EQ(B.rounds(), 3u);
  B.reset();
  EXPECT_EQ(B.rounds(), 0u);
}

TEST(ThreadBarrier, ReleasesAllThreads) {
  constexpr int NumThreads = 4;
  ThreadBarrier Barrier(NumThreads);
  std::atomic<int> Before{0}, After{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&] {
      ++Before;
      Barrier.arriveAndWait();
      // Every thread must have arrived before any proceeds.
      EXPECT_EQ(Before.load(), NumThreads);
      ++After;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(After.load(), NumThreads);
}

TEST(ThreadBarrier, Reusable) {
  constexpr int NumThreads = 3;
  ThreadBarrier Barrier(NumThreads);
  std::atomic<int> Counter{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&] {
      for (int Round = 0; Round < 5; ++Round) {
        Barrier.arriveAndWait();
        ++Counter;
        Barrier.arriveAndWait();
        EXPECT_EQ(Counter.load() % NumThreads, 0);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Counter.load(), NumThreads * 5);
}

TEST(CacheLine, CommitClockOwnsItsBlock) {
  // Every writer commit RMWs the clock; the config and the sampling switch
  // are read by every transaction. Sharing a block with the clock would
  // make each commit evict them from every other core.
  auto Addr = [](const void *P) { return reinterpret_cast<uintptr_t>(P); };
  const uintptr_t Clock = Addr(&stm::mv::commitClock());
  EXPECT_EQ(Clock % support::CacheLine, 0u);
  auto OutsideClockBlock = [&](const void *P) {
    return Addr(P) < Clock || Addr(P) >= Clock + support::CacheLine;
  };
  EXPECT_TRUE(OutsideClockBlock(&stm::TxManager::config()));
  EXPECT_TRUE(OutsideClockBlock(&obs::SamplingOn));
}
