//===- gc/EpochManager.h - Epoch-based memory reclamation ------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Epoch-based reclamation (EBR) for transactional objects.
///
/// The PLDI 2006 direct-update STM relies on the CLR garbage collector for a
/// crucial safety property: a doomed ("zombie") transaction that has read a
/// stale pointer can still dereference it, because the collector will not
/// recycle memory that a running thread can reach. In unmanaged C++ we
/// substitute epoch-based reclamation: every transaction attempt runs inside
/// an epoch *pin*, and retired objects are only freed once every pinned
/// thread has moved past the retirement epoch. This preserves the paper's
/// zombie-safety behaviour without a tracing collector.
///
/// (The tracing mark-sweep collector that reproduces the paper's GC/log
/// integration experiments lives in src/interp/Heap.h; it manages the IR
/// interpreter's heap, where we control the full object graph.)
///
//===----------------------------------------------------------------------===//

#ifndef OTM_GC_EPOCHMANAGER_H
#define OTM_GC_EPOCHMANAGER_H

#include "support/Compiler.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace otm {
namespace gc {

/// Process-wide epoch-based reclamation domain.
///
/// Usage: call pin() before touching shared transactional objects and
/// unpin() afterwards (TxManager does this per transaction attempt). Call
/// retire() after an object has been unlinked from all shared structures;
/// the deleter runs once no pinned thread can still hold a reference.
class EpochManager {
public:
  using Deleter = void (*)(void *);

  /// Returns the process-wide reclamation domain.
  static EpochManager &global();

  /// Enters a critical region. Reentrant: nested pins are counted.
  void pin();

  /// Leaves a critical region; the outermost unpin unpublishes the epoch.
  void unpin();

  /// True if the calling thread currently holds a pin.
  bool isPinned() const;

  /// Schedules \p Ptr for deletion once all current pins are released.
  /// May be called with or without a pin held.
  void retire(void *Ptr, Deleter D);

  /// Attempts to advance the global epoch and free retired objects that are
  /// no longer reachable. Called automatically every few retirements.
  void collect();

  /// Frees everything unconditionally. Only safe when no thread is pinned
  /// (e.g. test teardown); asserts that this is the case.
  void drainForTesting();

  /// Number of objects retired but not yet freed (approximate).
  std::size_t pendingForTesting();

  /// Total objects freed so far (for tests and the E8 bench).
  uint64_t freedCount() const { return Freed.load(std::memory_order_relaxed); }

  class ThreadPin;

  /// The calling thread's pin handle. Fetch once per scope that pins on a
  /// hot path and operate on the handle: every ThreadPin method is inline
  /// and thread-local-lookup-free. The handle is valid for the lifetime of
  /// the calling thread (it points at the same per-thread state pin()
  /// uses, so handle and non-handle calls nest freely).
  ThreadPin threadPin();

private:
  EpochManager() = default;

  static constexpr uint64_t Unpinned = ~static_cast<uint64_t>(0);
  static constexpr std::size_t CollectThreshold = 128;

  /// One thread's published epoch. Its owner writes it twice per
  /// transaction (pin, unpin), so it owns its cache line.
  struct alignas(support::CacheLine) Slot {
    std::atomic<uint64_t> LocalEpoch{Unpinned};
    std::atomic<bool> InUse{false};
  };
  static_assert(alignof(Slot) == support::CacheLine &&
                    sizeof(Slot) == support::CacheLine,
                "an epoch slot must own its cache line");

  struct Retired {
    void *Ptr;
    Deleter D;
    uint64_t Epoch;
  };

  struct ThreadState {
    Slot *S = nullptr;
    unsigned PinDepth = 0;
    uint64_t LastEpoch = 0; ///< epoch published by the last outermost pin
    bool InCollect = false; ///< a deleter on this thread is running
    std::vector<Retired> Bin;
    EpochManager *Owner = nullptr;
    ~ThreadState();
  };

  ThreadState &state();
  Slot *acquireSlot();
  /// Minimum epoch over all pinned threads, or current epoch if none.
  uint64_t minActiveEpoch();
  void freeUpTo(std::vector<Retired> &Bin, uint64_t SafeEpoch);

  /// Read on every pin and every retire: alone on its line, apart from
  /// the words collect() writes (Freed, the mutexes, the vectors).
  alignas(support::CacheLine) std::atomic<uint64_t> GlobalEpoch{2};
  alignas(support::CacheLine) std::atomic<uint64_t> Freed{0};

  std::mutex SlotsMutex;
  std::vector<Slot *> Slots; // never shrinks; slots are reused

  std::mutex OrphanMutex;
  std::vector<Retired> OrphanBin; // bins of exited threads
};

/// Inline, cached-thread-state pin operations (see threadPin()). Two entry
/// styles:
///
///   - pin()/unpin(): the full protocol, equivalent to the EpochManager
///     methods minus the thread-local lookup.
///   - prePin()/confirmPin() around a caller-owned seq_cst fence: prePin
///     publishes the epoch observed by the previous pin with a relaxed
///     store — a stale epoch is always safe to publish, it can only lower
///     minActiveEpoch() and delay reclamation. After the caller's fence,
///     confirmPin() re-reads the global epoch and re-publishes behind its
///     own fence in the rare case it advanced, restoring pin()'s protocol
///     while letting the common case share one fence with the caller's
///     other per-attempt publications (the serial gate's Dekker store).
class EpochManager::ThreadPin {
public:
  void pin() {
    if (TS->PinDepth++ != 0)
      return;
    uint64_t E = EM->GlobalEpoch.load(std::memory_order_seq_cst);
    TS->LastEpoch = E;
    TS->S->LocalEpoch.store(E, std::memory_order_seq_cst);
  }

  void prePin() {
    if (TS->PinDepth++ != 0)
      return;
#if OTM_TSAN
    // TSan does not understand the caller's fence; keep the seq_cst-store
    // protocol so the pin/collect synchronization stays visible to it.
    uint64_t E = EM->GlobalEpoch.load(std::memory_order_seq_cst);
    TS->LastEpoch = E;
    TS->S->LocalEpoch.store(E, std::memory_order_seq_cst);
#else
    TS->S->LocalEpoch.store(TS->LastEpoch, std::memory_order_relaxed);
#endif
  }

  void confirmPin() {
    if (TS->PinDepth != 1)
      return; // nested: the outermost pin's publication already stands
    // The caller fenced after prePin's relaxed publication, so this load
    // is ordered after it. If the global epoch moved past the (stale)
    // value we published, catch up: each re-publication gets its own
    // fence before the re-check, restoring the pin() protocol exactly.
    uint64_t E = EM->GlobalEpoch.load(std::memory_order_relaxed);
    while (OTM_UNLIKELY(E != TS->LastEpoch)) {
      TS->S->LocalEpoch.store(E, std::memory_order_relaxed);
      TS->LastEpoch = E;
      std::atomic_thread_fence(std::memory_order_seq_cst);
      E = EM->GlobalEpoch.load(std::memory_order_relaxed);
    }
  }

  void unpin() {
    if (--TS->PinDepth == 0)
      TS->S->LocalEpoch.store(Unpinned, std::memory_order_release);
  }

private:
  friend class EpochManager;
  ThreadPin(EpochManager *EM, ThreadState *TS) : EM(EM), TS(TS) {}

  EpochManager *EM;
  ThreadState *TS;
};

inline EpochManager::ThreadPin EpochManager::threadPin() {
  return ThreadPin(this, &state());
}

/// Convenience: retire \p Ptr with a typed deleter.
template <typename T> void retireObject(T *Ptr) {
  EpochManager::global().retire(
      Ptr, [](void *P) { delete static_cast<T *>(P); });
}

} // namespace gc
} // namespace otm

#endif // OTM_GC_EPOCHMANAGER_H
