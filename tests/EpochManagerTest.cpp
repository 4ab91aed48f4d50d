//===- tests/EpochManagerTest.cpp - EBR unit tests -----------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gc/EpochManager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace otm;
using namespace otm::gc;

namespace {

std::atomic<int> LiveObjects{0};

struct Tracked {
  Tracked() { ++LiveObjects; }
  ~Tracked() { --LiveObjects; }
  int Payload = 0;
};

void retireTracked(Tracked *T) {
  EpochManager::global().retire(
      T, [](void *P) { delete static_cast<Tracked *>(P); });
}

} // namespace

TEST(EpochManager, RetireEventuallyFrees) {
  EpochManager &EM = EpochManager::global();
  int Before = LiveObjects.load();
  for (int I = 0; I < 10; ++I)
    retireTracked(new Tracked());
  EXPECT_EQ(LiveObjects.load(), Before + 10);
  EM.drainForTesting();
  EXPECT_EQ(LiveObjects.load(), Before);
}

TEST(EpochManager, PinnedThreadBlocksReclamation) {
  EpochManager &EM = EpochManager::global();
  EM.drainForTesting();
  int Before = LiveObjects.load();

  EM.pin();
  retireTracked(new Tracked());
  // While we are pinned at the retirement epoch, collect() must not free.
  EM.collect();
  EM.collect();
  EXPECT_EQ(LiveObjects.load(), Before + 1);
  EM.unpin();

  EM.drainForTesting();
  EXPECT_EQ(LiveObjects.load(), Before);
}

TEST(EpochManager, NestedPinsCount) {
  EpochManager &EM = EpochManager::global();
  EM.pin();
  EM.pin();
  EXPECT_TRUE(EM.isPinned());
  EM.unpin();
  EXPECT_TRUE(EM.isPinned());
  EM.unpin();
  EXPECT_FALSE(EM.isPinned());
}

TEST(EpochManager, ManyShortLivedThreadsDoNotLeak) {
  EpochManager &EM = EpochManager::global();
  EM.drainForTesting();
  int Before = LiveObjects.load();
  for (int Round = 0; Round < 8; ++Round) {
    std::vector<std::thread> Threads;
    for (int T = 0; T < 4; ++T)
      Threads.emplace_back([] {
        EpochManager &Local = EpochManager::global();
        for (int I = 0; I < 50; ++I) {
          Local.pin();
          retireTracked(new Tracked());
          Local.unpin();
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  EM.drainForTesting();
  EXPECT_EQ(LiveObjects.load(), Before);
}

TEST(EpochManager, ConcurrentReadersNeverSeeFreedMemory) {
  // A writer repeatedly replaces a shared node and retires the old one; a
  // reader pins, loads, and dereferences. Payload corruption or ASan-style
  // crashes would indicate premature reclamation.
  struct Node {
    explicit Node(int V) : Value(V) {}
    int Value;
  };
  std::atomic<Node *> Shared{new Node(0)};
  std::atomic<bool> Stop{false};
  EpochManager &EM = EpochManager::global();

  std::thread Reader([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      EM.pin();
      Node *N = Shared.load(std::memory_order_acquire);
      EXPECT_GE(N->Value, 0);
      EM.unpin();
    }
  });

  for (int I = 1; I <= 2000; ++I) {
    Node *Fresh = new Node(I);
    Node *Old = Shared.exchange(Fresh, std::memory_order_acq_rel);
    EM.retire(Old, [](void *P) {
      static_cast<Node *>(P)->Value = -1; // poison for the EXPECT above
      delete static_cast<Node *>(P);
    });
  }
  Stop.store(true, std::memory_order_release);
  Reader.join();
  delete Shared.load();
}

TEST(EpochManager, FreedCountMatchesRetirementsFromTwoThreads) {
  // freeUpTo adds its whole pass to the shared counter at once; no pass may
  // drop or double its share, whether it runs in a worker's own collect,
  // over the orphan bin of an exited thread, or in the final drain.
  EpochManager &EM = EpochManager::global();
  EM.drainForTesting();
  const uint64_t Freed0 = EM.freedCount();
  const int Live0 = LiveObjects.load();
  constexpr int PerThread = 1000; // several collect thresholds per thread
  std::vector<std::thread> Threads;
  for (int T = 0; T < 2; ++T)
    Threads.emplace_back([] {
      EpochManager &Local = EpochManager::global();
      for (int I = 0; I < PerThread; ++I) {
        Local.pin();
        retireTracked(new Tracked());
        Local.unpin();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EM.drainForTesting();
  EXPECT_EQ(EM.pendingForTesting(), 0u);
  EXPECT_EQ(EM.freedCount() - Freed0, uint64_t{2} * PerThread);
  EXPECT_EQ(LiveObjects.load(), Live0);
}

TEST(EpochManager, RetireAfterThreadStateDestroyedGoesToOrphanBin) {
  // Thread-local destructors run in reverse order of construction. The
  // guard below is built before the thread's epoch state, so its destructor
  // retires after that state is gone, as a static TxObject's history does
  // at process exit. The retirement must land in the orphan bin, not in
  // the dead thread's bin.
  struct RetireAtExit {
    ~RetireAtExit() { retireTracked(new Tracked()); }
  };
  EpochManager &EM = EpochManager::global();
  EM.drainForTesting();
  const int Live0 = LiveObjects.load();
  std::thread([] {
    thread_local RetireAtExit Guard;
    (void)&Guard;
    EpochManager &Local = EpochManager::global();
    Local.pin();
    retireTracked(new Tracked());
    Local.unpin();
  }).join();
  EXPECT_EQ(LiveObjects.load(), Live0 + 2);
  EXPECT_EQ(EM.pendingForTesting(), 2u);
  EM.drainForTesting();
  EXPECT_EQ(EM.pendingForTesting(), 0u);
  EXPECT_EQ(LiveObjects.load(), Live0);
}
