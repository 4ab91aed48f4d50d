//===- obs/Telemetry.h - Continuous time-series telemetry ------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An opt-in background sampler that turns the process-wide aggregates
/// (GlobalTxStats, CmStats, AbortSites, phase histograms) into a live time
/// series while the workload runs, instead of only a post-mortem document.
///
/// Sources are registered as named callbacks returning cumulative-total
/// JsonValue trees, so the obs library stays dependency-free: the stm
/// library registers its own sources (see TxManager.cpp). Every interval
/// the sampler emits one JSONL record (schema `otm-telemetry-v1`):
///
///   {"schema":"otm-telemetry-v1","seq":N,"t_us":...,"interval_ms":M,
///    "totals":{"stm":{...},"txn_cm":{...},...},
///    "deltas":{"stm":{...},...}}
///
/// Deltas mirror the unsigned-integer leaves of totals and are computed
/// with clampedDelta(): a concurrent reset() (bench loops reset the
/// aggregates between cells) makes the counter *smaller*, and the clamp
/// treats that as a restart from zero instead of emitting a negative rate.
///
/// Activation: OTM_TELEMETRY=<ms> starts the sampler before main();
/// OTM_TELEMETRY_OUT names the JSONL sink (default
/// otm-telemetry-<pid>.jsonl, in $OTM_BENCH_JSON_DIR when set, "-" for
/// stdout); OTM_TELEMETRY_PROM additionally rewrites a Prometheus text
/// exposition file each interval (textfile-collector style). The sampler
/// emits one final record on stop()/exit so short runs are never empty.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_OBS_TELEMETRY_H
#define OTM_OBS_TELEMETRY_H

#include "obs/Json.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace otm {
namespace obs {

inline constexpr const char *TelemetrySchema = "otm-telemetry-v1";

class Telemetry {
public:
  static Telemetry &instance();

  /// A named producer of one cumulative-totals subtree per sample. Called
  /// from the sampler thread; must be safe to call concurrently with the
  /// workload (relaxed snapshot reads) and must only touch process-lifetime
  /// state (the sampler may still fire during exit).
  using SampleFn = std::function<JsonValue()>;

  /// Registers (or replaces, matched by name) a source. Safe any time,
  /// including while the sampler runs.
  void registerSource(const std::string &Name, SampleFn Fn);

  /// Starts the background sampler. Returns false when already running,
  /// when \p IntervalMs is 0, or when observability is compiled out.
  /// \p JsonlPath may be "-" for stdout; \p PromPath empty disables the
  /// Prometheus exposition file.
  bool start(unsigned IntervalMs, const std::string &JsonlPath,
             const std::string &PromPath = "");

  /// Reads OTM_TELEMETRY / OTM_TELEMETRY_OUT / OTM_TELEMETRY_PROM and
  /// starts accordingly. Returns true iff the sampler was started.
  bool startFromEnv();

  /// Stops the sampler: signals the thread, joins it (it emits one final
  /// record first), and closes the sinks. Idempotent.
  void stop();

  bool running() const { return Running.load(std::memory_order_acquire); }
  uint64_t samplesEmitted() const {
    return Samples.load(std::memory_order_acquire);
  }
  unsigned intervalMs() const { return IntervalMs; }

  /// Builds and emits one record immediately (also what the thread does per
  /// tick). Usable without start() for tests and one-shot dumps.
  JsonValue sampleOnce();

  /// cur - prev for monotonic counters, treating a shrink (concurrent
  /// reset) as a restart from zero — never underflows.
  static uint64_t clampedDelta(uint64_t Cur, uint64_t Prev) {
    return Cur >= Prev ? Cur - Prev : Cur;
  }

  /// Renders the unsigned/double leaves of \p Totals as Prometheus text
  /// exposition lines (`otm_<source>_<path> <value>`).
  static std::string prometheusText(const JsonValue &Totals);

  ~Telemetry() { stop(); }

private:
  Telemetry() = default;

  void threadMain();
  /// Builds the next record (totals from every source, deltas vs the
  /// previous totals) under EmitMutex.
  JsonValue buildRecordLocked();
  void emitLocked(const JsonValue &Record);

  mutable std::mutex SourceMutex;
  std::vector<std::pair<std::string, SampleFn>> Sources;

  std::mutex EmitMutex; // serializes buildRecord/emit (thread vs sampleOnce)
  JsonValue PrevTotals = JsonValue::object();
  uint64_t Seq = 0;
  std::chrono::steady_clock::time_point Epoch;

  std::mutex WakeMutex;
  std::condition_variable Wake;
  bool StopRequested = false;

  std::thread Worker;
  std::atomic<bool> Running{false};
  std::atomic<uint64_t> Samples{0};
  unsigned IntervalMs = 0;
  std::string JsonlPath;
  std::string PromPath;
  void *JsonlFile = nullptr; // FILE*; void* keeps <cstdio> out of the header
};

} // namespace obs
} // namespace otm

#endif // OTM_OBS_TELEMETRY_H
