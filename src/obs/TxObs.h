//===- obs/TxObs.h - Per-transaction observability hooks -------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small per-manager state both STMs embed to feed the observability
/// layer: the thread's trace ring (nullptr when OTM_TRACE is unset), a
/// process-unique site id for abort attribution, and the begin-timestamp /
/// retry bookkeeping behind the commit-latency and retries-per-commit
/// histograms.
///
/// Cost discipline: with tracing off and sampling off, onBegin is one
/// relaxed atomic load and onCommit/onAbort are a predictable branch each.
/// Latency sampling (two TSC reads per transaction) only happens after
/// setSampling(true) — the benchmarks' StatsCapture/BenchReport turn it
/// on; OTM_STATS=1 does so from the environment.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_OBS_TXOBS_H
#define OTM_OBS_TXOBS_H

#include "obs/Histogram.h"
#include "obs/TraceRing.h"
#include "obs/Tsc.h"

#include <atomic>

namespace otm {
namespace obs {

/// Process-wide switch for latency/retry histogram sampling. An inline
/// variable (not a function-local static) so samplingEnabled() inlines to a
/// single relaxed load with no call and no guard check — it sits on every
/// transaction's begin path. OTM_STATS=1 turns it on at startup (TxObs.cpp).
inline std::atomic<bool> SamplingOn{false};
inline bool samplingEnabled() {
  return SamplingOn.load(std::memory_order_relaxed);
}
inline void setSampling(bool On) {
  SamplingOn.store(On, std::memory_order_relaxed);
}

/// Allocates the next transaction-site id (1-based; 0 means unknown).
uint32_t nextSiteId();

struct TxObs {
  TraceRing *Ring = nullptr;
  uint32_t SiteId = 0;
  bool Sampling = false;
  uint64_t BeginTsc = 0;
  uint64_t PendingRetries = 0;

  /// Called once, from the owning manager's first use on its thread.
  void attachThread() {
    Ring = TraceRing::forCurrentThread();
    SiteId = nextSiteId();
  }

  OTM_ALWAYS_INLINE void onBegin(uint16_t StmAux) {
    OTM_TRACE_EVENT(Ring, EventKind::TxBegin, StmAux);
    Sampling = samplingEnabled();
    if (OTM_UNLIKELY(Sampling))
      BeginTsc = readTsc();
  }

  OTM_ALWAYS_INLINE void onCommit(uint16_t StmAux, Histogram &CommitCycles,
                                  Histogram &RetriesPerCommit) {
    OTM_TRACE_EVENT(Ring, EventKind::TxCommit, StmAux);
    if (OTM_UNLIKELY(Sampling)) {
      CommitCycles.record(readTsc() - BeginTsc);
      RetriesPerCommit.record(PendingRetries);
    }
    PendingRetries = 0;
  }

  /// \p Cause is one of the AuxCause* values; user aborts do not retry so
  /// they close the attempt chain instead of extending it.
  OTM_ALWAYS_INLINE void onAbort(uint16_t Cause, uint16_t StmAux) {
    OTM_TRACE_EVENT(Ring, EventKind::TxAbort,
                    static_cast<uint16_t>(StmAux | Cause));
    if (Cause == AuxCauseUser)
      PendingRetries = 0;
    else
      ++PendingRetries;
  }
};

} // namespace obs
} // namespace otm

#endif // OTM_OBS_TXOBS_H
