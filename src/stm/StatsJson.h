//===- stm/StatsJson.h - STM stats to JSON conversion ----------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts STM statistics blocks into obs::JsonValue trees for the
/// machine-readable BENCH_E*.json documents. Lives on the stm side of the
/// layering (obs knows nothing about TxStats); BenchUtil and the
/// experiment binaries are the consumers.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_STM_STATSJSON_H
#define OTM_STM_STATSJSON_H

#include "obs/AbortSites.h"
#include "obs/Json.h"
#include "obs/PhaseProfile.h"
#include "stm/TxManager.h"
#include "stm/TxStats.h"
#include "txn/AbstractLockTable.h"
#include "txn/CmStats.h"
#include "txn/Htm.h"

namespace otm {
namespace stm {

inline obs::JsonValue histogramToJson(const obs::Histogram &H) {
  obs::JsonValue V = obs::JsonValue::object();
  V.set("count", H.count());
  V.set("sum", H.sum());
  V.set("max", H.max());
  V.set("mean", H.mean());
  obs::JsonValue Buckets = obs::JsonValue::array();
  H.forEachBucket([&](uint64_t Lower, uint64_t N) {
    obs::JsonValue Pair = obs::JsonValue::array();
    Pair.push(Lower);
    Pair.push(N);
    Buckets.push(std::move(Pair));
  });
  V.set("buckets_pow2", std::move(Buckets));
  // Interpolated percentiles; exact only up to bucket resolution, but the
  // tail quantiles are what the latency studies read.
  V.set("p50", H.percentile(50.0));
  V.set("p99", H.percentile(99.0));
  V.set("p999", H.percentile(99.9));
  return V;
}

/// Per-phase {count, cycles, mean_cycles} breakdown of where transaction
/// time went (see obs/PhaseProfile.h for the phase inventory). Keys are the
/// obs::phaseName() strings.
inline obs::JsonValue phaseBreakdownToJson(const TxStats &S) {
  obs::JsonValue V = obs::JsonValue::object();
  auto Emit = [&](obs::Phase P, const obs::Histogram &H) {
    obs::JsonValue Entry = obs::JsonValue::object();
    Entry.set("count", H.count());
    Entry.set("cycles", H.sum());
    Entry.set("mean_cycles", H.mean());
    V.set(obs::phaseName(P), std::move(Entry));
  };
  Emit(obs::Phase::Validate, S.PhaseValidateCycles);
  Emit(obs::Phase::CommitLock, S.PhaseCommitLockCycles);
  Emit(obs::Phase::WriteBack, S.PhaseWriteBackCycles);
  Emit(obs::Phase::CmWait, S.PhaseCmWaitCycles);
  Emit(obs::Phase::Backoff, S.PhaseBackoffCycles);
  return V;
}

/// {counters: {...}, histograms: {...}} for one stats block.
inline obs::JsonValue statsToJson(const TxStats &S) {
  obs::JsonValue V = obs::JsonValue::object();
  obs::JsonValue Counters = obs::JsonValue::object();
  S.forEachCounter(
      [&](const char *Name, uint64_t Value) { Counters.set(Name, Value); });
  V.set("counters", std::move(Counters));
  obs::JsonValue Histograms = obs::JsonValue::object();
  S.forEachHistogram([&](const char *Name, const obs::Histogram &H) {
    Histograms.set(Name, histogramToJson(H));
  });
  V.set("histograms", std::move(Histograms));
  return V;
}

/// The MVCC tier's view of a stats block: snapshot-path traffic, version
/// churn, commit-clock advances (each one a writer meeting an observed
/// part) and the chain-depth distribution (DESIGN.md §3.9). live_versions
/// is a gauge derived from two counters sampled non-atomically, so it can
/// transiently undershoot; it is clamped at zero. "enabled" follows the
/// live TxConfig::MvVersions (0 switches the tier off).
inline obs::JsonValue mvccStatsToJson(const TxStats &S) {
  obs::JsonValue V = obs::JsonValue::object();
  V.set("enabled", TxManager::config().MvVersions > 0);
  V.set("snapshot_commits", S.SnapshotCommits);
  V.set("snapshot_upgrades", S.SnapshotUpgrades);
  V.set("snapshot_refreshes", S.SnapshotRefreshes);
  V.set("snapshot_reads", S.SnapshotReads);
  V.set("snapshot_reads_from_chain", S.SnapshotReadsFromChain);
  V.set("snapshot_waits", S.SnapshotWaits);
  V.set("versions_installed", S.MvVersionsInstalled);
  V.set("versions_retired", S.MvVersionsRetired);
  V.set("versions_live", S.MvVersionsInstalled >= S.MvVersionsRetired
                             ? S.MvVersionsInstalled - S.MvVersionsRetired
                             : 0);
  V.set("clock_advances", S.MvClockAdvances);
  obs::JsonValue Depth = obs::JsonValue::object();
  Depth.set("count", S.MvChainDepth.count());
  Depth.set("max", S.MvChainDepth.max());
  Depth.set("p50", S.MvChainDepth.percentile(50.0));
  Depth.set("p99", S.MvChainDepth.percentile(99.0));
  V.set("chain_depth", std::move(Depth));
  return V;
}

/// The boosting tier's view of a stats block: abstract-lock traffic,
/// deferred-action volume, and the live lock-table occupancy gauge
/// (DESIGN.md §3.10). "enabled" is always true: the tier is always built,
/// and the key stays so the telemetry schema is unchanged.
inline obs::JsonValue boostStatsToJson(const TxStats &S) {
  obs::JsonValue V = obs::JsonValue::object();
  V.set("enabled", true);
  V.set("lock_acquires", S.BoostLockAcquires);
  V.set("lock_waits", S.BoostLockWaits);
  V.set("commit_ops", S.BoostCommitOps);
  V.set("undo_ops", S.BoostUndoOps);
  V.set("structural_fallbacks", S.BoostStructuralFallbacks);
  V.set("lock_table_held", txn::AbstractLockTable::instance().heldCount());
  V.set("lock_table_capacity",
        static_cast<uint64_t>(txn::AbstractLockTable::capacity()));
  return V;
}

/// The hardware tier's view (DESIGN.md §3.12): attempt/commit volume from
/// the per-thread stats, abort attribution by code and fallback transitions
/// from the process-wide CmStats. "enabled" says whether the platform has
/// the RTM primitives (false on non-x86-64 and TSan builds), "available"
/// is the runtime probe verdict; both keys exist on every build and host,
/// so the telemetry schema never forks.
inline obs::JsonValue htmStatsToJson(const TxStats &S,
                                     const txn::CmStatsSnapshot &C) {
  obs::JsonValue V = obs::JsonValue::object();
  V.set("enabled", OTM_HTM != 0);
  V.set("available", txn::htm::HtmRuntime::instance().available());
  V.set("attempts", S.HtmAttempts);
  V.set("commits", S.HtmCommits);
  V.set("aborts_conflict", C.HtmAbortsConflict);
  V.set("aborts_capacity", C.HtmAbortsCapacity);
  V.set("aborts_explicit", C.HtmAbortsExplicit);
  V.set("aborts_serial", C.HtmAbortsSerial);
  V.set("aborts_locked", C.HtmAbortsLocked);
  V.set("aborts_unsupported", C.HtmAbortsUnsupported);
  V.set("aborts_user", C.HtmAbortsUser);
  V.set("aborts_exception", C.HtmAbortsException);
  V.set("aborts_other", C.HtmAbortsOther);
  V.set("fallbacks", C.HtmFallbacks);
  return V;
}

/// Top-K abort attribution plus the conflict graph (shared by both STMs).
inline obs::JsonValue abortSitesToJson(std::size_t K = 16) {
  const obs::AbortSites &A = obs::AbortSites::instance();
  obs::JsonValue V = obs::JsonValue::object();
  V.set("top", A.toJson(K));
  V.set("dropped", A.dropped());
  V.set("edges", A.edgesToJson(K));
  V.set("edges_dropped", A.edgesDropped());
  obs::JsonValue Occ = obs::JsonValue::object();
  Occ.set("sites_used", static_cast<uint64_t>(A.siteOccupancy()));
  Occ.set("sites_capacity", static_cast<uint64_t>(A.siteCapacity()));
  Occ.set("edges_used", static_cast<uint64_t>(A.edgeOccupancy()));
  Occ.set("edges_capacity", static_cast<uint64_t>(A.edgeCapacity()));
  V.set("occupancy", std::move(Occ));
  return V;
}

} // namespace stm
} // namespace otm

#endif // OTM_STM_STATSJSON_H
