//===- stm/Stm.h - Public STM entry points ----------------------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public face of the direct-update STM: Stm::atomic runs a lambda as a
/// transaction with automatic retry and returns its result, which is what
/// an `atomic { ... }` block lowers to. Inside the lambda the TxManager
/// exposes the decomposed barriers that the compiler (or careful
/// hand-written code) places.
///
/// Every entry point runs the one retry loop of the shared
/// transaction-execution layer (txn::RetryExecutor) under a per-call mode:
/// atomicReadOnly declares the call read-only (MVCC snapshot attempts), and
/// atomicScheduled routes it through the admission scheduler. This header
/// supplies the adapter that binds the loop to stm::TxManager's
/// begin/commit/abort protocol. Contention policy and the serial-fallback
/// budget come from TxConfig (and the OTM_CM / OTM_RETRY_BUDGET environment
/// variables).
///
/// \code
///   otm::stm::Stm::atomic([&](otm::stm::TxManager &Tx) {
///     Tx.openForUpdate(Account);
///     Tx.logUndo(&Account->Balance);
///     Account->Balance.store(Account->Balance.load() + Amount);
///   });
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef OTM_STM_STM_H
#define OTM_STM_STM_H

#include "obs/AbortSites.h"
#include "stm/Field.h"
#include "stm/TxManager.h"
#include "stm/TxObject.h"
#include "stm/TxStats.h"
#include "txn/RetryExecutor.h"

#include <utility>

namespace otm {
namespace stm {

/// Binds txn::RetryExecutor to the object STM: AbortTx is the abort
/// protocol, opens + undo logs are the karma work measure.
struct StmRetryAdapter {
  using Manager = TxManager;

  static Manager &manager() { return TxManager::current(); }
  static bool inTx(Manager &Tx) { return Tx.inTx(); }
  static void noteSubsumed(Manager &Tx) { ++Tx.stats().SubsumedTx; }
  static void begin(Manager &Tx, bool Snapshot) { Tx.begin(Snapshot); }

  template <typename FnType>
  static txn::AttemptOutcome attempt(Manager &Tx, FnType &Fn,
                                     txn::TxSummary *Footprint) {
    try {
      Fn(Tx);
      // The footprint is complete here; sample it before tryCommit(),
      // whose rollback or commit clears the filters and logs it reads.
      if (Footprint)
        Tx.sampleSummary(*Footprint);
      if (Tx.tryCommit())
        return txn::AttemptOutcome::Committed;
      return txn::AttemptOutcome::RetryAbort;
    } catch (const AbortTx &Reason) {
      // Explicit user abort: roll back and leave, do not retry.
      if (Reason.Why == AbortTx::Cause::User) {
        Tx.rollbackAttempt(Reason.Why);
        return txn::AttemptOutcome::NoRetryAbort;
      }
      // Mid-body abort: the partial footprint (keys opened so far) is
      // still the best available sample. Under-approximation is safe —
      // admission is advisory; the STM below remains the arbiter.
      if (Footprint)
        Tx.sampleSummary(*Footprint);
      Tx.rollbackAttempt(Reason.Why);
      return Reason.Why == AbortTx::Cause::SnapshotUpgrade
                 ? txn::AttemptOutcome::RetryAsWriter
                 : txn::AttemptOutcome::RetryAbort;
    } catch (...) {
      // A non-STM exception escaping the block aborts the transaction
      // (failure atomicity) and propagates to the caller.
      Tx.rollbackAttempt(AbortTx::Cause::User);
      throw;
    }
  }

  static uint64_t opCount(Manager &Tx) {
    const TxStats &S = Tx.stats();
    return S.OpensForRead + S.OpensForUpdate + S.UndoLogAppends;
  }
  static txn::CmTxState &cmState(Manager &Tx) { return Tx.cmState(); }
  static txn::CmPolicy policy() {
    return TxManager::config().ContentionPolicy;
  }
  static unsigned fallbackAfter() {
    return TxManager::config().SerialFallbackAfter;
  }
  static uint64_t seedMix() { return 0x9e3779b97f4a7c15ULL; }
  static obs::Histogram *backoffHistogram(Manager &Tx) {
    return &Tx.stats().PhaseBackoffCycles;
  }
  /// Read-only calls run snapshot attempts while version chains are kept.
  /// Snapshot readers are invisible and validate-free: the retry layer lets
  /// them bypass the serial gate (they cannot conflict with the exclusive
  /// writer) while still pinning the epoch.
  static bool snapshotAvailable() { return TxManager::config().MvVersions > 0; }

  // Hardware rung (DESIGN.md §3.12): delegate straight to the manager's
  // hardware-mode surface. htmAttempts is sampled from the live config so
  // tests and benches can flip the budget per phase.
  static unsigned htmAttempts() { return TxManager::config().HtmAttempts; }
  static void htmPrepare(Manager &Tx) { Tx.htmPrepare(); }
  static void htmEnter(Manager &Tx) { Tx.htmEnter(); }
  static void htmCommit(Manager &Tx) { Tx.htmCommit(); }
  static void htmAbortReset(Manager &Tx) { Tx.htmAbortReset(); }
  static void htmUnpin(Manager &Tx) { Tx.htmUnpin(); }
  static void htmUserAbort(Manager &Tx) { Tx.htmNoteUserAbort(); }
};

/// Every entry point is one call into RetryExecutor's loop; the private
/// base gives them access to its per-call mode.
class Stm : private txn::RetryExecutor<StmRetryAdapter> {
public:
  /// Runs \p Fn transactionally with automatic conflict retry and returns
  /// its result (move-constructed; no default-constructible requirement).
  /// Nested calls are flattened into the enclosing transaction
  /// (subsumption). \p Fn must be safe to re-execute; all its
  /// transactional effects are rolled back before a retry.
  template <typename FnType> static auto atomic(FnType &&Fn) {
    return run({}, Fn);
  }

  /// Runs \p Fn as a *read-only* transaction on the MVCC snapshot path: all
  /// reads must go through Tx.read()/Tx.snapshotLoad(), the commit needs no
  /// validation, and no concurrent writer can abort it. A body that turns
  /// out to write (any update barrier, allocation, or decomposed
  /// openForRead) transparently restarts as an ordinary writer for the rest
  /// of the call, so the hint is always safe — just wasted when wrong.
  /// Nested inside an existing transaction it flattens like atomic() and
  /// the hint is ignored. Runs like atomic() when TxConfig.MvVersions is 0.
  template <typename FnType> static auto atomicReadOnly(FnType &&Fn) {
    return run({.ReadOnly = true}, Fn);
  }

  /// Alias of atomicReadOnly, kept under this name because perfbench/
  /// calls it.
  template <typename FnType> static auto atomicReadOnlyResult(FnType &&Fn) {
    return atomicReadOnly(std::forward<FnType>(Fn));
  }

  /// atomic() routed through the admission scheduler (DESIGN.md §3.11),
  /// with the transaction's footprint *declared* up front: \p Declared
  /// summarizes the keys \p Fn will touch (same key convention as every
  /// other \p ClassId transaction — E11 uses row addresses). Provably
  /// compatible transactions run concurrently; maybe-conflicting ones
  /// queue instead of speculating. The summary is advisory only — an
  /// under-declared footprint costs aborts (the STM still arbitrates),
  /// never correctness. Nested calls flatten like atomic(): admission
  /// inside our own in-flight slot would self-deadlock.
  template <typename FnType>
  static auto atomicScheduled(uint32_t ClassId, const txn::TxSummary &Declared,
                              FnType &&Fn) {
    return run({.Scheduled = true, .ClassId = ClassId, .Declared = &Declared},
               Fn);
  }

  /// atomicScheduled() with the footprint *sampled from the first attempt*
  /// instead of declared: the first attempt speculates unadmitted, and if
  /// it aborts, its read filter / update log are fingerprinted before
  /// rollback — every retry then admits with that summary. Zero caller
  /// knowledge needed; costs one speculative attempt before scheduling
  /// engages (exactly the transactions that were going to abort anyway).
  template <typename FnType>
  static auto atomicScheduled(uint32_t ClassId, FnType &&Fn) {
    return run({.Scheduled = true, .ClassId = ClassId}, Fn);
  }

  static TxConfig &config() { return TxManager::config(); }

  /// Process-wide statistics (includes only flushed threads; benchmark
  /// workers call TxManager::current().flushStats() before joining).
  static TxStats globalStats() {
    return GlobalTxStats::instance().snapshot();
  }
  static void resetGlobalStats() {
    GlobalTxStats::instance().reset();
    obs::AbortSites::instance().reset();
  }
};

} // namespace stm
} // namespace otm

#endif // OTM_STM_STM_H
