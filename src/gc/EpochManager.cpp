//===- gc/EpochManager.cpp - Epoch-based memory reclamation --------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gc/EpochManager.h"

#include "support/Compiler.h"

#include <cassert>

using namespace otm;
using namespace otm::gc;

EpochManager &EpochManager::global() {
  // Leaked singleton: avoids a static destructor racing with thread-local
  // ThreadState destructors during process shutdown.
  static EpochManager *EM = new EpochManager();
  return *EM;
}

namespace {
/// Set once the calling thread's ThreadState is destroyed. A thread-local
/// destructor (or, on the main thread, a static one) that runs later may
/// still retire; it must not touch the dead state's bin. Trivially
/// destructible, so it outlives every thread-local object.
constinit thread_local bool ThreadStateGone = false;
} // namespace

EpochManager::ThreadState::~ThreadState() {
  ThreadStateGone = true;
  if (!Owner)
    return;
  // Move any not-yet-freed retirements to the orphan bin so a short-lived
  // thread never leaks, and release the slot for reuse.
  if (!Bin.empty()) {
    std::lock_guard<std::mutex> Lock(Owner->OrphanMutex);
    for (const Retired &R : Bin)
      Owner->OrphanBin.push_back(R);
    Bin.clear();
  }
  if (S) {
    S->LocalEpoch.store(Unpinned, std::memory_order_release);
    S->InUse.store(false, std::memory_order_release);
  }
}

EpochManager::ThreadState &EpochManager::state() {
  static thread_local ThreadState TS;
  if (!TS.Owner) {
    TS.Owner = this;
    TS.S = acquireSlot();
  }
  return TS;
}

EpochManager::Slot *EpochManager::acquireSlot() {
  std::lock_guard<std::mutex> Lock(SlotsMutex);
  for (Slot *S : Slots) {
    bool Expected = false;
    if (S->InUse.compare_exchange_strong(Expected, true,
                                         std::memory_order_acq_rel))
      return S;
  }
  Slot *S = new Slot();
  S->InUse.store(true, std::memory_order_release);
  Slots.push_back(S);
  return S;
}

void EpochManager::pin() {
  ThreadState &TS = state();
  if (TS.PinDepth++ != 0)
    return;
  // Publish the epoch we entered under. The seq_cst store orders the
  // publication against subsequent shared-memory loads.
  uint64_t E = GlobalEpoch.load(std::memory_order_seq_cst);
  TS.LastEpoch = E;
  TS.S->LocalEpoch.store(E, std::memory_order_seq_cst);
}


void EpochManager::unpin() {
  ThreadState &TS = state();
  assert(TS.PinDepth > 0 && "unpin without matching pin");
  if (--TS.PinDepth == 0)
    TS.S->LocalEpoch.store(Unpinned, std::memory_order_release);
}

bool EpochManager::isPinned() const {
  EpochManager *Self = const_cast<EpochManager *>(this);
  return Self->state().PinDepth > 0;
}

void EpochManager::retire(void *Ptr, Deleter D) {
  if (OTM_UNLIKELY(ThreadStateGone)) {
    // Thread exit: the bin is gone, so hand the object straight to the
    // orphan bin, which any later collect() frees.
    uint64_t E = GlobalEpoch.load(std::memory_order_acquire);
    std::lock_guard<std::mutex> Lock(OrphanMutex);
    OrphanBin.push_back({Ptr, D, E});
    return;
  }
  ThreadState &TS = state();
  uint64_t E = GlobalEpoch.load(std::memory_order_acquire);
  TS.Bin.push_back({Ptr, D, E});
  // Deleters may retire further objects (an object's destructor retiring
  // the version records hanging off it). Those land in the bin like any
  // other retirement, but must not re-enter collect(): the outer collect
  // is mid-iteration over this bin (double free) and may hold OrphanMutex
  // (self-deadlock).
  if (TS.Bin.size() >= CollectThreshold && !TS.InCollect)
    collect();
}

uint64_t EpochManager::minActiveEpoch() {
  uint64_t Min = GlobalEpoch.load(std::memory_order_seq_cst);
  std::lock_guard<std::mutex> Lock(SlotsMutex);
  for (Slot *S : Slots) {
    uint64_t E = S->LocalEpoch.load(std::memory_order_seq_cst);
    if (E != Unpinned && E < Min)
      Min = E;
  }
  return Min;
}

void EpochManager::freeUpTo(std::vector<Retired> &Bin, uint64_t SafeEpoch) {
  std::size_t Kept = 0;
  uint64_t NumFreed = 0;
  for (std::size_t I = 0; I < Bin.size(); ++I) {
    // An object retired at epoch E may still be referenced by threads pinned
    // at E; it is safe once the minimum active epoch exceeds E.
    if (Bin[I].Epoch < SafeEpoch) {
      Bin[I].D(Bin[I].Ptr);
      ++NumFreed;
    } else {
      Bin[Kept++] = Bin[I];
    }
  }
  Bin.resize(Kept);
  // One shared-counter update per pass: every collecting thread writes
  // Freed.
  if (NumFreed)
    Freed.fetch_add(NumFreed, std::memory_order_relaxed);
}

void EpochManager::collect() {
  ThreadState &TS = state();
  if (TS.InCollect)
    return; // re-entered from a deleter; the outer collect finishes the job
  // Try to advance the global epoch: allowed when every pinned thread has
  // observed the current epoch.
  uint64_t Current = GlobalEpoch.load(std::memory_order_seq_cst);
  if (minActiveEpoch() == Current)
    GlobalEpoch.compare_exchange_strong(Current, Current + 1,
                                        std::memory_order_seq_cst);

  uint64_t Safe = minActiveEpoch();
  TS.InCollect = true;
  freeUpTo(TS.Bin, Safe);
  {
    std::lock_guard<std::mutex> Lock(OrphanMutex);
    freeUpTo(OrphanBin, Safe);
  }
  TS.InCollect = false;
}

void EpochManager::drainForTesting() {
  {
    std::lock_guard<std::mutex> Lock(SlotsMutex);
    for ([[maybe_unused]] Slot *S : Slots)
      assert(S->LocalEpoch.load(std::memory_order_seq_cst) == Unpinned &&
             "drainForTesting with a pinned thread");
  }
  // Two epoch advances make every retirement strictly older than the
  // minimum active epoch.
  collect();
  collect();
  ThreadState &TS = state();
  uint64_t Max = ~static_cast<uint64_t>(0);
  TS.InCollect = true;
  freeUpTo(TS.Bin, Max);
  {
    std::lock_guard<std::mutex> Lock(OrphanMutex);
    freeUpTo(OrphanBin, Max);
  }
  TS.InCollect = false;
}

std::size_t EpochManager::pendingForTesting() {
  std::size_t N = state().Bin.size();
  std::lock_guard<std::mutex> Lock(OrphanMutex);
  return N + OrphanBin.size();
}
