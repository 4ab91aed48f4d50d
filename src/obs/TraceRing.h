//===- obs/TraceRing.h - Lock-free per-thread event tracing ----*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded lock-free ring buffer of transaction events. Each thread that
/// runs transactions acquires its own ring (so the hot path never shares a
/// cache line with another writer); the export walks every registered ring
/// and emits Chrome `trace_event` JSON that chrome://tracing or Perfetto
/// loads directly.
///
/// Tracing is off unless the process starts with OTM_TRACE=1. When off,
/// forCurrentThread() returns nullptr and the instrumentation sites reduce
/// to one well-predicted null check.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_OBS_TRACERING_H
#define OTM_OBS_TRACERING_H

#include "obs/Tsc.h"
#include "support/Compiler.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace otm {
namespace obs {

enum class EventKind : uint16_t {
  TxBegin = 0,
  TxCommit = 1,
  TxAbort = 2, ///< Aux carries the abort cause (AuxCause*)
  GcBegin = 3,
  GcEnd = 4,
  SerialEnter = 5, ///< transaction escalated to serial-irrevocable mode
  SerialExit = 6,  ///< serial-irrevocable transaction finished
};

/// Aux payload values for TxAbort events. The two Snapshot* causes are
/// *restarts*, not aborts: a read-only attempt re-running as a writer
/// (upgrade) or on a newer snapshot stamp (refresh). They never undo
/// in-place state and are excluded from the Aborts counter.
inline constexpr uint16_t AuxCauseConflict = 0;
inline constexpr uint16_t AuxCauseValidation = 1;
inline constexpr uint16_t AuxCauseUser = 2;
inline constexpr uint16_t AuxCauseSnapshotUpgrade = 3;
inline constexpr uint16_t AuxCauseSnapshotRefresh = 4;

/// Aux payload bit marking the word-STM (vs the object STM) on tx events.
inline constexpr uint16_t AuxWordStm = 1u << 8;

struct TraceEvent {
  uint64_t Tsc = 0;
  uint16_t Kind = 0;
  uint16_t Aux = 0;
};

class TraceRing {
public:
  /// True iff the process was started with OTM_TRACE=1 (parsed once).
  static bool enabled();

  /// The calling thread's ring, or nullptr when tracing is disabled.
  /// Rings are registered globally and intentionally leaked, mirroring the
  /// TxManager lifetime rules.
  static TraceRing *forCurrentThread();

  /// Renders every registered ring as Chrome trace_event JSON.
  static std::string chromeTraceJson();

  /// Writes chromeTraceJson() to \p Path; returns false on I/O failure.
  /// No-op (returns true) when tracing is disabled or no events exist.
  static bool writeChromeTrace(const std::string &Path);

  explicit TraceRing(uint32_t ThreadOrd, std::size_t CapacityPow2);

  void record(EventKind K, uint16_t Aux) {
    uint64_t I = Head.fetch_add(1, std::memory_order_relaxed);
    TraceEvent &E = Slots[I & Mask];
    E.Tsc = readTsc();
    E.Kind = static_cast<uint16_t>(K);
    E.Aux = Aux;
  }

  std::size_t capacity() const { return Mask + 1; }
  uint32_t threadOrdinal() const { return ThreadOrd; }

  /// Total events ever recorded (>= capacity() means the ring wrapped).
  uint64_t recorded() const { return Head.load(std::memory_order_acquire); }

  /// Copies the surviving events, oldest first. With concurrent writers a
  /// slot being overwritten mid-copy can surface torn, but each returned
  /// slot was written by exactly one record() call once writers quiesce —
  /// exports happen after the measured region.
  std::vector<TraceEvent> snapshot() const;

  /// Registered rings, for export and tests.
  static std::vector<TraceRing *> allRings();

  /// Creates and registers a ring detached from the thread-local lookup
  /// (test hook; the returned ring is owned by the registry and leaked).
  static TraceRing *createDetached(std::size_t CapacityPow2);

private:
  std::vector<TraceEvent> Slots;
  std::size_t Mask;
  uint32_t ThreadOrd;
  std::atomic<uint64_t> Head{0};
};

#define OTM_TRACE_EVENT(RingPtr, Kind, Aux)                                     \
  do {                                                                         \
    if (OTM_UNLIKELY((RingPtr) != nullptr))                                    \
      (RingPtr)->record((Kind), (Aux));                                        \
  } while (0)

} // namespace obs
} // namespace otm

#endif // OTM_OBS_TRACERING_H
