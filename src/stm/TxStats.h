//===- stm/TxStats.h - Transaction statistics -------------------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-thread transaction statistics, accumulated without atomics on the
/// fast path and flushed into a process-wide aggregate on demand. These
/// counters feed the dynamic-count tables (E5), the contention study (E7)
/// and the machine-readable BENCH_E*.json stats documents.
///
/// The field inventory lives in two X-macros so the per-thread block, the
/// atomic aggregate, and every add/snapshot/reset/serialize routine are
/// generated from one list — a new counter cannot silently desync them.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_STM_TXSTATS_H
#define OTM_STM_TXSTATS_H

#include "obs/Histogram.h"

#include <atomic>
#include <cstdint>

namespace otm {
namespace stm {

/// Scalar event counters. X(Name) per field.
#define OTM_TXSTAT_COUNTERS(X)                                                 \
  X(Starts)                                                                    \
  X(SubsumedTx)         /* nested transactions flattened into their parent */  \
  X(Commits)                                                                   \
  X(Aborts)                                                                    \
  X(AbortsOnConflict)   /* open saw a foreign owner */                         \
  X(AbortsOnValidation) /* commit-time read validation failed */               \
  X(AbortsByUser)                                                              \
  X(OpensForRead)                                                              \
  X(OpensForUpdate)                                                            \
  X(ReadLogAppends)                                                            \
  X(ReadsFiltered)                                                             \
  X(UndoLogAppends)                                                            \
  X(UndosFiltered)                                                             \
  X(Allocations)                                                               \
  X(Retires) /* retireOnCommit calls (deferred deletes), both STMs */          \
  X(SnapshotCommits)        /* read-only commits off the MVCC snapshot path */ \
  X(SnapshotUpgrades)       /* snapshot attempts restarted as writers */       \
  X(SnapshotRefreshes)      /* snapshot attempts restarted on a newer stamp */ \
  X(SnapshotReads)          /* field reads resolved in snapshot mode */        \
  X(SnapshotReadsFromChain) /* ... that reconstructed from a version chain */  \
  X(SnapshotWaits)          /* ... that waited out an in-flight writer */      \
  X(MvVersionsInstalled)    /* version-chain nodes pushed at commit */         \
  X(MvVersionsRetired)      /* version-chain nodes cut and epoch-retired */    \
  X(MvClockAdvances)        /* writer stamps that moved the commit clock */    \
  X(BoostLockAcquires)      /* abstract (container,key) locks taken */         \
  X(BoostLockWaits)         /* ... that found a foreign owner first */         \
  X(BoostCommitOps)         /* deferred on-commit actions executed */          \
  X(BoostUndoOps)           /* semantic inverse actions executed on abort */   \
  X(BoostStructuralFallbacks) /* whole-container ops via the gate */           \
  X(HtmAttempts) /* hardware (RTM) attempts issued, counted pre-xbegin */      \
  X(HtmCommits)  /* transactions retired on the hardware tier; bumped */       \
                 /* inside the speculative region, so an aborted attempt */    \
                 /* rolls its bump back and the counter is commit-exact */

/// Power-of-two distributions sampled when obs::setSampling(true):
/// CommitTscCycles is outermost begin() -> published commit in TSC ticks;
/// RetriesPerCommit is aborted attempts absorbed by each commit. The
/// Phase*Cycles histograms record one sample per phase *episode* (one
/// validation scan, one backoff pause, ...) so sum() is the total cycles
/// that phase consumed — the per-phase breakdown of obs::Phase (see
/// obs/PhaseProfile.h; keep the two lists in sync).
#define OTM_TXSTAT_HISTOGRAMS(X)                                               \
  X(CommitTscCycles)                                                           \
  X(RetriesPerCommit)                                                          \
  X(PhaseValidateCycles)   /* obs::Phase::Validate */                          \
  X(PhaseCommitLockCycles) /* obs::Phase::CommitLock (word STM) */             \
  X(PhaseWriteBackCycles)  /* obs::Phase::WriteBack */                         \
  X(PhaseCmWaitCycles)     /* obs::Phase::CmWait */                            \
  X(PhaseBackoffCycles)    /* obs::Phase::Backoff (retry layer) */             \
  X(MvChainDepth)          /* version-chain depth after each install */

/// Plain counter block (per thread; no synchronization).
struct TxStats {
#define OTM_X(Name) uint64_t Name = 0;
  OTM_TXSTAT_COUNTERS(OTM_X)
#undef OTM_X
#define OTM_X(Name) obs::Histogram Name;
  OTM_TXSTAT_HISTOGRAMS(OTM_X)
#undef OTM_X

  void reset() { *this = TxStats(); }

  void add(const TxStats &O) {
#define OTM_X(Name) Name += O.Name;
    OTM_TXSTAT_COUNTERS(OTM_X)
#undef OTM_X
#define OTM_X(Name) Name.merge(O.Name);
    OTM_TXSTAT_HISTOGRAMS(OTM_X)
#undef OTM_X
  }

  /// Visits (const char *Name, uint64_t Value) per scalar counter.
  template <typename FnType> void forEachCounter(FnType Fn) const {
#define OTM_X(Name) Fn(#Name, Name);
    OTM_TXSTAT_COUNTERS(OTM_X)
#undef OTM_X
  }

  /// Visits (const char *Name, const obs::Histogram &) per histogram.
  template <typename FnType> void forEachHistogram(FnType Fn) const {
#define OTM_X(Name) Fn(#Name, Name);
    OTM_TXSTAT_HISTOGRAMS(OTM_X)
#undef OTM_X
  }
};

/// Process-wide aggregate, updated by TxManager::flushStats().
class GlobalTxStats {
public:
  static GlobalTxStats &instance() {
    static GlobalTxStats G;
    return G;
  }

  void add(const TxStats &S) {
#define OTM_X(Name) Name.fetch_add(S.Name, std::memory_order_relaxed);
    OTM_TXSTAT_COUNTERS(OTM_X)
#undef OTM_X
#define OTM_X(Name) Name.add(S.Name);
    OTM_TXSTAT_HISTOGRAMS(OTM_X)
#undef OTM_X
  }

  /// Snapshot into a plain TxStats block.
  TxStats snapshot() const {
    TxStats S;
#define OTM_X(Name) S.Name = Name.load(std::memory_order_relaxed);
    OTM_TXSTAT_COUNTERS(OTM_X)
#undef OTM_X
#define OTM_X(Name) S.Name = Name.snapshot();
    OTM_TXSTAT_HISTOGRAMS(OTM_X)
#undef OTM_X
    return S;
  }

  /// Relaxed stores, consistent with the documented memory-order policy
  /// (reset races with concurrent flushes only across bench boundaries).
  void reset() {
#define OTM_X(Name) Name.store(0, std::memory_order_relaxed);
    OTM_TXSTAT_COUNTERS(OTM_X)
#undef OTM_X
#define OTM_X(Name) Name.reset();
    OTM_TXSTAT_HISTOGRAMS(OTM_X)
#undef OTM_X
  }

private:
#define OTM_X(Name) std::atomic<uint64_t> Name{0};
  OTM_TXSTAT_COUNTERS(OTM_X)
#undef OTM_X
#define OTM_X(Name) obs::AtomicHistogram Name;
  OTM_TXSTAT_HISTOGRAMS(OTM_X)
#undef OTM_X
};

} // namespace stm
} // namespace otm

#endif // OTM_STM_TXSTATS_H
