//===- txn/AdmissionScheduler.h - Conflict-avoiding admission --*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The admission/batching layer above the retry executor (DESIGN.md §3.11):
/// every mechanism below this line resolves conflicts *after* transactions
/// collide (contention managers arbitrate, the serial gate guarantees
/// progress, MVCC hides readers). This layer is the complementary move —
/// detect statically-compatible transactions *before* they execute and
/// schedule them so the conflict never happens, turning aborted speculation
/// into bounded queueing.
///
/// Mechanics:
///
///   - Incoming transactions carry a TxSummary (Bloom read/write-set
///     fingerprints, declared up front or sampled from a first speculative
///     attempt). Summaries whose fingerprints are provably disjoint from
///     every in-flight transaction of the same class are admitted
///     immediately and run concurrently — the retry path is untouched.
///
///   - A transaction whose summary maybe-conflicts with in-flight work
///     parks in a bounded per-shard FIFO instead of speculating. Releases
///     drain the queue strictly in order (no overtaking, so the queue
///     cannot starve anyone). A full queue — or a waiter that outlives the
///     wait budget — falls back to ordinary speculation: the scheduler is
///     an optimization gate, never a correctness gate, and the STM below
///     stays the sole arbiter of serializability.
///
///   - Admission costs a lock+scan per transaction, which only pays for
///     itself under contention. A per-class adaptive gate therefore keeps
///     admission OFF until the measured abort rate of that class crosses a
///     threshold, and turns it back off when the storm passes. The rate is
///     fed by caller-reported aborted attempts and cross-checked against
///     the per-victim abort totals of the obs::AbortSites conflict-graph
///     edge table (the same table the topology work consumes).
///
/// Classes partition the key-space convention: summaries are only compared
/// within one class (one container / one request family), so declared
/// container-key summaries never meet sampled address-based ones.
/// Cross-class conflicts remain speculative — safe, just unscheduled.
///
/// The tier is always built. Its off switch is the runtime mode, read from
/// OTM_SCHED= (off | on | adaptive, default adaptive): with OTM_SCHED=0
/// admit() bypasses every transaction and Stm::atomicScheduled behaves as
/// plain speculation.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_TXN_ADMISSIONSCHEDULER_H
#define OTM_TXN_ADMISSIONSCHEDULER_H

#include "obs/Json.h"
#include "txn/Fingerprint.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

/// Always 1: the admission tier is always built. Kept only because the
/// perfbench host block prints it; no library code reads it.
#define OTM_SCHED 1

namespace otm {
namespace txn {

/// Runtime admission mode (OTM_SCHED environment variable).
enum class SchedMode : uint8_t {
  Off,      ///< never admit; every transaction speculates (baseline arm)
  On,       ///< admission always active for every class
  Adaptive, ///< per-class gates driven by measured abort rates (default)
};

/// Parses an OTM_SCHED value (null when unset): 0/off -> Off, 1/on -> On,
/// anything else -> Adaptive. Unknown values keep the default rather than
/// surprising a bench with a typo'd full-off.
SchedMode schedModeFromEnv(const char *E);

/// Plain snapshot of the scheduler counters (relaxed reads; same memory-
/// order policy as the other stats blocks).
struct SchedStatsSnapshot {
  uint64_t AdmittedImmediate = 0; ///< compatible on arrival, ran at once
  uint64_t Queued = 0;            ///< parked in a shard FIFO at least once
  uint64_t QueueOverflows = 0;    ///< queue full: fell back to speculation
  uint64_t TimeoutBypasses = 0;   ///< outwaited the budget: speculated
  uint64_t Bypassed = 0;          ///< admission off (mode or class gate)
  uint64_t Releases = 0;          ///< transactions that reported back
  uint64_t AbortsReported = 0;    ///< aborted attempts across all releases
  uint64_t GateFlipsOn = 0;       ///< adaptive gates armed by abort storms
  uint64_t GateFlipsOff = 0;      ///< adaptive gates disarmed after calm
  uint64_t GatesOn = 0;           ///< gauge: classes currently gated on
  uint64_t MaxQueueDepth = 0;     ///< high-water mark across all shards
  uint64_t QueueWaitMicros = 0;   ///< total time spent parked (nd)
};

class AdmissionScheduler {
public:
  /// Shards partition classes; slots bound the compat scan; the queue cap
  /// bounds how much latency queueing may add before the scheduler gets out
  /// of the way and lets speculation absorb the burst.
  static constexpr unsigned NumShards = 8;      // power of two
  static constexpr unsigned SlotsPerShard = 16; // in-flight compat window
  static constexpr unsigned NumClasses = 64;    // adaptive gate slots

  static AdmissionScheduler &instance();

  /// Handle for one admitted (or bypassed) transaction; returned by
  /// admit(), consumed by release(). A negative Slot means the transaction
  /// was not admitted into an in-flight slot (bypass/overflow/timeout) and
  /// runs as ordinary speculation — release() then only feeds the gate.
  struct Ticket {
    uint32_t Shard = 0;
    int32_t Slot = -1;
    uint32_t ClassId = 0;
    bool Waited = false;
    /// Position of this grant in its shard's grant order (1-based; 0 when
    /// no slot was granted). Lets callers check FIFO order as the
    /// scheduler decided it, independent of when the waiter thread runs.
    uint64_t GrantSeq = 0;
  };

  /// Admission decision for one transaction of \p ClassId with footprint
  /// \p S. May block (bounded by the queue-wait budget) while conflicting
  /// in-flight transactions drain. Never blocks when the mode or the
  /// class gate has admission off.
  Ticket admit(uint32_t ClassId, const TxSummary &S);

  /// Reports the transaction done. \p AbortedAttempts is how many times
  /// the STM below still aborted it (0 for a clean run) — the adaptive
  /// gate's primary feedback; \p VictimSite optionally names the executing
  /// thread's obs site id so the gate can cross-check the AbortSites
  /// conflict-graph edge table. Must be called exactly once per admit().
  void release(Ticket &T, uint64_t AbortedAttempts, uint32_t VictimSite = 0);

  SchedMode mode() const { return Mode.load(std::memory_order_relaxed); }
  void setMode(SchedMode M) { Mode.store(M, std::memory_order_relaxed); }

  /// True when transactions of \p ClassId are currently being admission-
  /// controlled (mode On, or mode Adaptive with the class gate armed).
  bool admissionActive(uint32_t ClassId) const {
    SchedMode M = mode();
    if (M == SchedMode::Off)
      return false;
    if (M == SchedMode::On)
      return true;
    return Gates[ClassId % NumClasses].On.load(std::memory_order_relaxed);
  }

  /// Adaptive-gate tuning (tests force storms through these; defaults are
  /// conservative: admission must be clearly cheaper than the aborts it
  /// prevents before it turns on).
  void setGateThresholds(double OnRate, double OffRate) {
    GateOnRate = OnRate;
    GateOffRate = OffRate;
  }
  void setGateWindow(unsigned Releases) { GateWindow = Releases; }
  void setQueueCapacity(unsigned Cap) { QueueCap = Cap; }
  unsigned queueCapacity() const { return QueueCap; }
  void setQueueWaitBudget(std::chrono::microseconds B) { WaitBudget = B; }

  SchedStatsSnapshot stats() const;

  /// Drops all gates, counters, and high-water marks. Only safe while no
  /// transaction is between admit() and release() (bench cell boundaries,
  /// test setup).
  void resetForTesting();

private:
  AdmissionScheduler();

  struct InFlight {
    TxSummary S;
    uint32_t ClassId = 0;
    bool Active = false;
  };

  struct Waiter {
    const TxSummary *S = nullptr;
    uint32_t ClassId = 0;
    int32_t GrantedSlot = -1;
    uint64_t GrantSeq = 0;
  };

  struct Shard {
    std::mutex M;
    std::condition_variable CV;
    InFlight Slots[SlotsPerShard];
    unsigned ActiveCount = 0;
    uint64_t Grants = 0; ///< slots granted so far (Ticket::GrantSeq)
    std::deque<Waiter *> Queue;
  };

  /// Per-class adaptive gate: a sliding window of release feedback plus
  /// the clamped delta of this class's victim-site abort total from the
  /// AbortSites edge table.
  struct ClassGate {
    std::atomic<bool> On{false};
    std::atomic<uint32_t> VictimSite{0};
    std::atomic<uint64_t> WindowReleases{0};
    std::atomic<uint64_t> WindowAborts{0};
    std::atomic<uint64_t> PrevEdgeTotal{0};
  };

  Shard &shardFor(uint32_t ClassId) {
    return Shards[ClassId & (NumShards - 1)];
  }

  /// Caller holds the shard mutex. Returns the granted slot index, or -1
  /// when \p S conflicts with an active same-class summary (or no slot is
  /// free). Different classes use different key conventions, so their
  /// fingerprints are incomparable — they pass each other freely and their
  /// conflicts stay with the STM.
  int32_t tryInstall(Shard &Sh, uint32_t ClassId, const TxSummary &S);

  /// Caller holds the shard mutex: grants slots to queue heads in strict
  /// FIFO order until the head is incompatible (or the queue empties).
  void drainQueueLocked(Shard &Sh);

  void recordRelease(uint32_t ClassId, uint64_t AbortedAttempts,
                     uint32_t VictimSite);
  void recomputeGate(ClassGate &G, uint64_t WindowAborts);

  /// Sum of the AbortSites conflict-graph edge totals whose victim is
  /// \p Site (0 -> 0). Linear scan of the bounded edge table; runs once
  /// per gate window, not per transaction.
  static uint64_t victimEdgeTotal(uint32_t Site);

  Shard Shards[NumShards];
  ClassGate Gates[NumClasses];

  std::atomic<SchedMode> Mode{SchedMode::Adaptive};
  unsigned QueueCap = 64;
  unsigned GateWindow = 128;
  double GateOnRate = 0.05;  ///< aborts per release that arm a gate
  double GateOffRate = 0.01; ///< ... and disarm it (hysteresis)
  std::chrono::microseconds WaitBudget{100000}; // 100ms safety valve

  // Counters (names match SchedStatsSnapshot).
  std::atomic<uint64_t> AdmittedImmediate{0};
  std::atomic<uint64_t> QueuedCount{0};
  std::atomic<uint64_t> QueueOverflows{0};
  std::atomic<uint64_t> TimeoutBypasses{0};
  std::atomic<uint64_t> Bypassed{0};
  std::atomic<uint64_t> Releases{0};
  std::atomic<uint64_t> AbortsReported{0};
  std::atomic<uint64_t> GateFlipsOn{0};
  std::atomic<uint64_t> GateFlipsOff{0};
  std::atomic<uint64_t> GatesOn{0};
  std::atomic<uint64_t> MaxQueueDepth{0};
  std::atomic<uint64_t> QueueWaitMicros{0};
};

/// The scheduler's view for BENCH_E*.json ("sched" section) and the
/// telemetry stream ("sched" source). "enabled" is always true; it stays
/// in the schema so older streams and baselines still match.
obs::JsonValue schedStatsToJson();

} // namespace txn
} // namespace otm

#endif // OTM_TXN_ADMISSIONSCHEDULER_H
