//===- txn/SerialGate.h - Serial-irrevocable execution gate ----*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The starvation escape hatch: when a transaction has exhausted its retry
/// budget, it escalates to *serial-irrevocable* mode — it acquires this
/// process-wide gate exclusively, every other transaction's next attempt
/// stalls at the gate, in-flight attempts drain, and the starving
/// transaction then runs alone (so it cannot conflict and commits on the
/// next attempt). Pathological contention degrades to brief serialization
/// instead of livelock.
///
/// Cost discipline: the shared (non-serial) fast path must not put a
/// contended atomic on every transaction. Each thread registers a leaked,
/// cache-line-padded slot holding its in-flight attempt depth; enterShared
/// is an uncontended store to that slot plus a fence and one load of the
/// exclusive flag. The (rare) serial owner pays the expensive part:
/// walking every slot until the fleet has drained.
///
/// The gate is cooperative at the retry-executor layer: transactions begun
/// outside RetryExecutor/RetryController (unit tests driving TxManager by
/// hand) do not participate. They cannot break safety — at worst they
/// conflict with the serial owner, which rolls back and retries while
/// still holding the gate.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_TXN_SERIALGATE_H
#define OTM_TXN_SERIALGATE_H

#include "support/Compiler.h"

#include <atomic>
#include <cstdint>

namespace otm {
namespace txn {

class SerialGate {
public:
  /// One registered thread's in-flight attempt depth. Padded so the
  /// per-attempt store never shares a line with another thread's slot.
  struct alignas(support::CacheLine) Slot {
    std::atomic<uint64_t> Active{0};
  };
  static_assert(alignof(Slot) == support::CacheLine &&
                    sizeof(Slot) == support::CacheLine,
                "a gate slot must own its cache line");

  static SerialGate &instance();

  /// The calling thread's slot (created and registered on first use;
  /// leaked, mirroring the TxManager lifetime rules).
  Slot &slotForCurrentThread();

  /// First half of enterShared for callers that share one seq_cst fence
  /// across several per-attempt publications (RetryController also
  /// publishes the epoch pin under the same fence). Only this thread
  /// writes its slot, so the depth bump itself can be relaxed; the
  /// caller's fence pairs it against the owner's flag-publish + slot-scan
  /// (Dekker).
  void publishShared(Slot &S) {
    S.Active.store(S.Active.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  }

  /// Second half: call after the fence. Returns true when no serial owner
  /// holds the gate and the attempt may proceed; otherwise steps the slot
  /// back out and returns false — the caller should waitWhileExclusive()
  /// and re-publish.
  bool confirmShared(Slot &S) {
    if (OTM_LIKELY(!Exclusive.load(std::memory_order_relaxed)))
      return true;
    S.Active.store(S.Active.load(std::memory_order_relaxed) - 1,
                   std::memory_order_relaxed);
    return false;
  }

  /// Blocks while a serial owner holds the gate (cold path of
  /// confirmShared; also usable directly).
  void waitWhileExclusive();

  /// Marks an attempt in flight on \p S, stalling first while a serial
  /// owner holds the gate. Returns true if it had to stall (statistics).
  /// Nested use on one thread (an outer object-STM transaction driving an
  /// inner word-STM one) just deepens the slot count.
  bool enterShared(Slot &S) {
    bool Stalled = false;
    for (;;) {
      publishShared(S);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (confirmShared(S))
        return Stalled;
      // A serial owner is (or just went) active: wait it out.
      Stalled = true;
      waitWhileExclusive();
    }
  }

  /// Ends the in-flight attempt on \p S.
  void exitShared(Slot &S) {
    S.Active.store(S.Active.load(std::memory_order_relaxed) - 1,
                   std::memory_order_release);
  }

  /// Acquires the gate exclusively: publishes the flag, then drains every
  /// other thread's in-flight attempts. \p Self is the caller's slot — its
  /// own depth is exempt (an outer-nesting transaction on this thread may
  /// legitimately still be open).
  void enterExclusive(Slot &Self);

  /// Releases exclusive ownership.
  void exitExclusive();

  /// True while some transaction runs serial-irrevocable (tests).
  bool exclusiveActive() const {
    return Exclusive.load(std::memory_order_acquire);
  }

private:
  SerialGate() = default;

  std::atomic<bool> Exclusive{false};
};

} // namespace txn
} // namespace otm

#endif // OTM_TXN_SERIALGATE_H
