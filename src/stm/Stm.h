//===- stm/Stm.h - Public STM entry points ----------------------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public face of the direct-update STM: Stm::atomic runs a lambda as a
/// transaction with automatic retry, which is what an `atomic { ... }`
/// block lowers to. Inside the lambda the TxManager exposes the decomposed
/// barriers that the compiler (or careful hand-written code) places.
///
/// The retry loop itself lives in the shared transaction-execution layer
/// (txn::RetryExecutor): this header only supplies the adapter that binds
/// the loop to stm::TxManager's begin/commit/abort protocol. Contention
/// policy and the serial-fallback budget come from TxConfig (and the
/// OTM_CM / OTM_RETRY_BUDGET environment variables).
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
#include "txn/AdmissionScheduler.h"
#include "txn/RetryExecutor.h"

#include <optional>
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
  static void begin(Manager &Tx) { Tx.begin(); }

  template <typename FnType>
  static txn::AttemptOutcome attempt(Manager &Tx, FnType &Fn) {
    try {
      Fn(Tx);
      if (Tx.tryCommit())
        return txn::AttemptOutcome::Committed;
      return txn::AttemptOutcome::RetryAbort;
    } catch (const AbortTx &Reason) {
      Tx.rollbackAttempt(Reason.Why);
      // Explicit user abort: roll back and leave, do not retry.
      return Reason.Why == AbortTx::Cause::User
                 ? txn::AttemptOutcome::NoRetryAbort
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
  /// Snapshot readers are invisible and validate-free: the retry layer lets
  /// them bypass the serial gate (they cannot conflict with the exclusive
  /// writer) while still pinning the epoch. Evaluated per attempt so an
  /// upgrade restart re-enters the gate as a normal writer.
  static bool zeroConflict(Manager &Tx) { return Tx.armAttemptMode(); }

  // Hardware rung (DESIGN.md §3.12): delegate straight to the manager's
  // hardware-mode surface. htmAttempts is sampled from the live config so
  // tests and benches can flip the budget per phase.
  static unsigned htmAttempts() { return TxManager::config().HtmAttempts; }
  static bool htmEligible(Manager &Tx) { return Tx.htmEligible(); }
  static void htmPrepare(Manager &Tx) { Tx.htmPrepare(); }
  static void htmEnter(Manager &Tx) { Tx.htmEnter(); }
  static void htmCommit(Manager &Tx) { Tx.htmCommit(); }
  static void htmAbortReset(Manager &Tx) { Tx.htmAbortReset(); }
  static void htmUnpin(Manager &Tx) { Tx.htmUnpin(); }
  static void htmUserAbort(Manager &Tx) { Tx.htmNoteUserAbort(); }
};

class Stm {
public:
  /// Runs \p Fn transactionally with automatic conflict retry. Nested calls
  /// are flattened into the enclosing transaction (subsumption). \p Fn must
  /// be safe to re-execute; all its transactional effects are rolled back
  /// before a retry.
  template <typename FnType> static void atomic(FnType &&Fn) {
    txn::RetryExecutor<StmRetryAdapter>::atomic(std::forward<FnType>(Fn));
  }

  /// Runs \p Fn transactionally and returns its result (move-constructed
  /// out of optional storage; no default-constructible requirement).
  template <typename FnType> static auto atomicResult(FnType &&Fn) {
    return txn::RetryExecutor<StmRetryAdapter>::atomicResult(
        std::forward<FnType>(Fn));
  }

  /// Runs \p Fn as a *read-only* transaction on the MVCC snapshot path: all
  /// reads must go through Tx.read()/Tx.snapshotLoad(), the commit needs no
  /// validation, and no concurrent writer can abort it. A body that turns
  /// out to write (any update barrier, allocation, or decomposed
  /// openForRead) transparently restarts as an ordinary writer, so the hint
  /// is always safe — just wasted when wrong. Nested inside an existing
  /// transaction it flattens like atomic() and the hint is ignored. Falls
  /// back to atomic() entirely when the MVCC tier is compiled out or
  /// TxConfig.MvVersions is 0.
  template <typename FnType> static void atomicReadOnly(FnType &&Fn) {
    TxManager &Tx = TxManager::current();
    if (!Tx.inTx())
      Tx.setReadOnlyHint(true);
    txn::RetryExecutor<StmRetryAdapter>::atomic(std::forward<FnType>(Fn));
  }

  /// atomicReadOnly with a result (see atomicResult for the storage rules).
  template <typename FnType> static auto atomicReadOnlyResult(FnType &&Fn) {
    using ResultType = decltype(Fn(std::declval<TxManager &>()));
    std::optional<ResultType> Result;
    atomicReadOnly([&](TxManager &Tx) { Result.emplace(Fn(Tx)); });
    return std::move(*Result);
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
  static void atomicScheduled(uint32_t ClassId, const txn::TxSummary &Declared,
                              FnType &&Fn) {
    atomicScheduledImpl(ClassId, &Declared, std::forward<FnType>(Fn));
  }

  /// atomicScheduled() with the footprint *sampled from the first attempt*
  /// instead of declared: the first attempt speculates unadmitted, and if
  /// it aborts, its read filter / update log are fingerprinted before
  /// rollback — every retry then admits with that summary. Zero caller
  /// knowledge needed; costs one speculative attempt before scheduling
  /// engages (exactly the transactions that were going to abort anyway).
  template <typename FnType>
  static void atomicScheduled(uint32_t ClassId, FnType &&Fn) {
    atomicScheduledImpl(ClassId, nullptr, std::forward<FnType>(Fn));
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

private:
  /// The scheduled retry loop. Uses RetryController directly (the
  /// interpreter's pattern) rather than RetryExecutor: each attempt is
  /// bracketed by a scheduler ticket — admit *before* the serial-gate
  /// entry (a parked waiter holds no gate or epoch state, so it cannot
  /// deadlock the gate's drain), release *before* the inter-attempt
  /// backoff pause (the freed slot drains the shard queue while we wait).
  /// Serial-exclusive attempts skip admission entirely: they already run
  /// alone, and parking while holding the exclusive gate would stall every
  /// in-flight slot holder against the queue — the one circular wait the
  /// layering otherwise rules out.
  template <typename FnType>
  static void atomicScheduledImpl(uint32_t ClassId,
                                  const txn::TxSummary *Declared,
                                  FnType &&Fn) {
    TxManager &Tx = TxManager::current();
    if (Tx.inTx()) {
      ++Tx.stats().SubsumedTx;
      Fn(Tx);
      return;
    }
    txn::AdmissionScheduler &Sched = txn::AdmissionScheduler::instance();
    txn::TxSummary Sampled;
    const txn::TxSummary *Summary = Declared; // null until sampled
    static const txn::TxSummary EmptySummary{};

    const txn::ContentionManager &CM =
        txn::managerFor(StmRetryAdapter::policy());
    txn::RetryController Ctl(CM, Tx.cmState(), StmRetryAdapter::fallbackAfter(),
                             reinterpret_cast<uintptr_t>(&Tx) *
                                 StmRetryAdapter::seedMix());
    Ctl.setBackoffHistogram(&Tx.stats().PhaseBackoffCycles);
    for (;;) {
      // An empty summary bypasses in admit() but release() still feeds the
      // adaptive gate — the unsampled first attempt and gated-off classes
      // keep reporting abort rates, so storms can arm the gate.
      txn::AdmissionScheduler::Ticket Ticket;
      if (!Ctl.inSerialMode())
        Ticket = Sched.admit(ClassId, Summary ? *Summary : EmptySummary);
      Ctl.beforeAttempt(StmRetryAdapter::opCount(Tx),
                        StmRetryAdapter::zeroConflict(Tx));
      Tx.begin();
      txn::AttemptOutcome Out;
      try {
        Fn(Tx);
        // Footprint is complete here; sample before tryCommit() — a failed
        // validation throws through finishAttempt(), which clears the
        // filters this reads.
        if (!Summary) {
          Tx.sampleSummary(Sampled);
          Summary = &Sampled;
        }
        Out = Tx.tryCommit() ? txn::AttemptOutcome::Committed
                             : txn::AttemptOutcome::RetryAbort;
      } catch (const AbortTx &Reason) {
        // Mid-body conflict: the partial footprint (keys opened so far) is
        // still the best available sample. Under-approximation is safe —
        // admission is advisory; the STM below remains the arbiter.
        if (!Summary && Reason.Why != AbortTx::Cause::User) {
          Tx.sampleSummary(Sampled);
          Summary = &Sampled;
        }
        Tx.rollbackAttempt(Reason.Why);
        Out = Reason.Why == AbortTx::Cause::User
                  ? txn::AttemptOutcome::NoRetryAbort
                  : txn::AttemptOutcome::RetryAbort;
      } catch (...) {
        Sched.release(Ticket, 0, Tx.siteId());
        Tx.rollbackAttempt(AbortTx::Cause::User);
        throw; // Ctl's destructor releases the gate/pin
      }
      if (Out != txn::AttemptOutcome::RetryAbort) {
        Sched.release(Ticket, 0, Tx.siteId());
        Ctl.onFinished();
        return;
      }
      Sched.release(Ticket, 1, Tx.siteId());
      Ctl.afterAbort(StmRetryAdapter::opCount(Tx));
    }
  }
};

} // namespace stm
} // namespace otm

#endif // OTM_STM_STM_H
