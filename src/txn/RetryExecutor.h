//===- txn/RetryExecutor.h - Unified transaction retry loop ----*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one transaction-execution loop shared by all three execution paths
/// (object-STM Stm entry points, word-STM WordStm::atomic, and the TMIR
/// interpreter's atomic regions). It owns the begin/try/rollback/pause
/// sequencing, delegates every conflict decision to the configured
/// ContentionManager, and escalates to serial-irrevocable mode through the
/// SerialGate once the retry budget is exhausted.
///
/// Two entry shapes:
///
///   - RetryExecutor<Adapter>::atomic(Fn) — the lambda style; returns the
///     body's result. The Adapter binds the loop to a concrete STM (manager
///     lookup, begin, one attempt with that STM's abort-exception protocol,
///     op counting for karma). See stm/Stm.h and wstm/WordStm.h for the two
///     adapters. Front ends that need a per-call mode (read-only hint,
///     admission scheduling) derive from the executor and call run().
///
///   - RetryController — the stateful core of the loop, used directly by
///     clients whose control flow cannot be shaped as a callable (the
///     interpreter restarts from a frame snapshot instead of re-entering a
///     lambda). beforeAttempt/afterAbort/onFinished bracket each attempt;
///     the destructor releases any gate state, so unwinding on a non-STM
///     exception cannot leak serial ownership.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_TXN_RETRYEXECUTOR_H
#define OTM_TXN_RETRYEXECUTOR_H

#include "gc/EpochManager.h"
#include "obs/PhaseProfile.h"
#include "obs/TraceRing.h"
#include "obs/TxObs.h"
#include "support/Backoff.h"
#include "txn/AdmissionScheduler.h"
#include "txn/CmStats.h"
#include "txn/ContentionManager.h"
#include "txn/Htm.h"
#include "txn/SerialGate.h"

#include <optional>
#include <type_traits>
#include <utility>

namespace otm {
namespace txn {

/// Result of one transaction attempt, as reported by an Adapter.
enum class AttemptOutcome : uint8_t {
  Committed,     ///< published; the transaction is done
  RetryAbort,    ///< rolled back on conflict/validation; run another attempt
  RetryAsWriter, ///< a snapshot attempt reached a write and rolled back;
                 ///< every further attempt of the call runs as a writer
  NoRetryAbort,  ///< rolled back on explicit user abort; do not retry
};

/// Stateful retry sequencing for one top-level transaction. Construct it
/// when the transaction arrives, call beforeAttempt() before each STM-level
/// begin, afterAbort() after each rolled-back attempt, and onFinished()
/// when an attempt commits (or aborts without retry).
class RetryController {
public:
  /// \p FallbackAfter is the retry budget: after that many aborted
  /// attempts the next one runs serial-irrevocable (0 disables fallback).
  RetryController(const ContentionManager &CM, CmTxState &St,
                  unsigned FallbackAfter, uint64_t BackoffSeed)
      : CM(CM), St(St), Gate(SerialGate::instance()),
        Slot(Gate.slotForCurrentThread()),
        EPin(gc::EpochManager::global().threadPin()),
        FallbackAfter(FallbackAfter), B(BackoffSeed) {
    St.beginTransaction(CM.needsArrivalStamp() ? nextArrivalStamp() : 0);
  }

  RetryController(const RetryController &) = delete;
  RetryController &operator=(const RetryController &) = delete;

  ~RetryController() {
    releasePin();
    releaseGate();
  }

  /// Brackets the next attempt into the serial gate; escalates to
  /// exclusive mode first when afterAbort() exhausted the budget. \p
  /// OpCountNow is the client's monotone work counter (karma accrual).
  ///
  /// The shared-mode fast path also takes the attempt's outermost epoch
  /// pin: the gate's slot publication and the epoch publication are both
  /// "store mine, fence, check theirs" patterns, so funneling them through
  /// one seq_cst fence halves the fence count of every uncontended
  /// transaction. The STM's begin() then pins nested (a depth bump), and
  /// afterAbort()/onFinished() release the controller's pin.
  /// \p ZeroConflict marks an attempt that cannot conflict with anyone
  /// (an MVCC snapshot reader): it skips the serial gate entirely — it must
  /// not stall behind an exclusive writer's drain, and the writer does not
  /// need it drained either — but still takes the epoch pin. Re-evaluated
  /// per attempt, so an upgraded (now writing) retry rejoins the gate. A
  /// zero-conflict transaction that exhausts the retry budget anyway
  /// (refresh storms) still escalates to serial, which is always safe.
  void beforeAttempt(uint64_t OpCountNow, bool ZeroConflict = false) {
    OpAtBegin = OpCountNow;
    if (Mode == GateMode::Exclusive)
      return; // still serial from the previous attempt
    if (OTM_UNLIKELY(ZeroConflict && !PendingSerial)) {
      EPin.pin();
      HoldsPin = true;
      Mode = GateMode::Bypass;
      return;
    }
    if (OTM_UNLIKELY(PendingSerial)) {
      PendingSerial = false;
      Gate.enterExclusive(Slot);
      Mode = GateMode::Exclusive;
      CmStats::instance().bumpFallbackEntries();
      OTM_TRACE_EVENT(obs::TraceRing::forCurrentThread(),
                      obs::EventKind::SerialEnter, nullptr, 0);
      return;
    }
    for (;;) {
      Gate.publishShared(Slot);
      EPin.prePin();
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (OTM_LIKELY(Gate.confirmShared(Slot))) {
        EPin.confirmPin();
        break;
      }
      EPin.unpin(); // drop the speculative pin before blocking on the gate
      CmStats::instance().bumpGateWaits();
      Gate.waitWhileExclusive();
    }
    HoldsPin = true;
    Mode = GateMode::Shared;
  }

  /// Call after a failed attempt has been fully rolled back. Performs the
  /// policy's inter-attempt pause and arms the serial fallback once the
  /// budget is gone.
  void afterAbort(uint64_t OpCountNow) {
    ++Attempts;
    St.addPriority(OpCountNow >= OpAtBegin ? OpCountNow - OpAtBegin : 0);
    if (Mode == GateMode::Exclusive)
      return; // retry immediately; we already run alone
    releasePin(); // unpin across the inter-attempt pause
    if (Mode == GateMode::Shared)
      leaveShared();
    else
      Mode = GateMode::Outside; // Bypass held no gate state
    if (FallbackAfter != 0 && Attempts >= FallbackAfter) {
      PendingSerial = true;
      return; // no pause: escalate on the next attempt
    }
    bool Paused;
    {
      // Attribute the inter-attempt pause to the Backoff phase. The scope
      // is armed only when the client wired a histogram (setter below) and
      // latency sampling is on, so the common path costs one null check.
      obs::PhaseScope Ph(BackoffHist && obs::samplingEnabled(), *BackoffHist);
      Paused = CM.pauseAfterAbort(Attempts, B);
    }
    if (Paused)
      CmStats::instance().bumpAttemptPauses();
  }

  /// Call once the transaction committed or user-aborted (no more
  /// attempts). Safe to destroy the controller right after.
  void onFinished() {
    if (Mode == GateMode::Exclusive)
      CmStats::instance().bumpFallbackCommits();
    releasePin();
    releaseGate();
  }

  unsigned attempts() const { return Attempts; }
  bool inSerialMode() const { return Mode == GateMode::Exclusive; }

  /// Wires the histogram that receives one sample per inter-attempt pause
  /// (obs::Phase::Backoff). Optional; the txn layer cannot name TxStats, so
  /// the STM-specific adapter (or the interpreter) passes its own.
  void setBackoffHistogram(obs::Histogram *H) { BackoffHist = H; }

private:
  enum class GateMode : uint8_t { Outside, Shared, Exclusive, Bypass };

  void leaveShared() {
    Gate.exitShared(Slot);
    Mode = GateMode::Outside;
  }

  void releasePin() {
    if (HoldsPin) {
      EPin.unpin();
      HoldsPin = false;
    }
  }

  void releaseGate() {
    if (Mode == GateMode::Shared) {
      leaveShared();
    } else if (Mode == GateMode::Bypass) {
      Mode = GateMode::Outside; // nothing published to the gate
    } else if (Mode == GateMode::Exclusive) {
      Gate.exitExclusive();
      Mode = GateMode::Outside;
      OTM_TRACE_EVENT(obs::TraceRing::forCurrentThread(),
                      obs::EventKind::SerialExit, nullptr, 0);
    }
  }

  const ContentionManager &CM;
  CmTxState &St;
  SerialGate &Gate;
  SerialGate::Slot &Slot;
  gc::EpochManager::ThreadPin EPin;
  unsigned FallbackAfter;
  Backoff B;
  unsigned Attempts = 0;
  uint64_t OpAtBegin = 0;
  obs::Histogram *BackoffHist = nullptr;
  bool PendingSerial = false;
  bool HoldsPin = false;
  GateMode Mode = GateMode::Outside;
};

/// The hardware rung of the ladder: up to Adapter::htmAttempts() RTM
/// attempts before RetryExecutor falls through to the software retry loop.
/// The executor calls it only for calls the rung can carry (not snapshot
/// readers, not scheduled calls; DESIGN.md §3.12). Returns true when an
/// attempt committed (or terminally user-aborted) in hardware, false to
/// hand the transaction to the STM.
///
/// Interaction rules (DESIGN.md §3.12):
///  - The serial gate is subscribed from inside the region: a pre-begin
///    check skips doomed attempts cheaply, and the post-begin re-check
///    loads the exclusive flag transactionally, so a writer entering
///    exclusive mode after we started aborts us instead of racing us.
///  - The epoch pin is taken *outside* the region (htmPrepare): a pin
///    stored speculatively is invisible to concurrent reclaimers until
///    commit, which is too late to protect the reads before it.
///  - User aborts (CodeUser) are terminal: the adapter records the abort
///    and we return true without touching the software tier, matching
///    AttemptOutcome::NoRetryAbort semantics.
///  - Everything else maps onto the same contention-management hooks the
///    software tier uses: retryable aborts consult CM.pauseAfterAbort with
///    the shared Backoff, and exhaustion bumps HtmFallbacks before the STM
///    takes over.
template <typename Adapter, typename FnType>
bool htmTryExecute(typename Adapter::Manager &Tx, FnType &Fn) {
  const unsigned MaxAttempts = Adapter::htmAttempts();
  if (OTM_LIKELY(MaxAttempts == 0))
    return false;
  if (!htm::HtmRuntime::instance().available())
    return false;
  SerialGate &Gate = SerialGate::instance();
  CmStats &CS = CmStats::instance();
  const ContentionManager &CM = managerFor(Adapter::policy());
  Backoff B(reinterpret_cast<uintptr_t>(&Tx) * Adapter::seedMix());
  for (unsigned Attempt = 1; Attempt <= MaxAttempts; ++Attempt) {
    if (Gate.exclusiveActive())
      break; // an irrevocable writer runs; wait at the gate in software
    Adapter::htmPrepare(Tx);
    unsigned Status = htm::begin();
    if (Status == htm::Started) {
      // Transactional load of the gate flag: subscribes this region to it,
      // so enterExclusive() by anyone else aborts us before their drain.
      if (OTM_UNLIKELY(Gate.exclusiveActive()))
        htm::abortWith<htm::CodeSerial>();
      Adapter::htmEnter(Tx);
      try {
        Fn(Tx);
      } catch (...) {
        // Unwinding inside a region is not generally safe (the handler
        // frames may alias speculative state); funnel through an explicit
        // abort and let the software tier surface the exception.
        htm::abortWith<htm::CodeException>();
      }
      Adapter::htmCommit(Tx);
      htm::end();
      Adapter::htmUnpin(Tx);
      return true;
    }
    // Aborted: the region's side effects (including htmEnter's bookkeeping)
    // rolled back; only the pre-begin prepare state survives.
    Adapter::htmAbortReset(Tx);
    Adapter::htmUnpin(Tx);
    bool RetryHw = (Status & htm::StatusRetry) != 0;
    if (Status & htm::StatusExplicit) {
      CS.bumpHtmAbortsExplicit();
      switch (htm::abortCode(Status)) {
      case htm::CodeSerial:
        CS.bumpHtmAbortsSerial();
        RetryHw = false; // the gate is busy; go wait at it properly
        break;
      case htm::CodeUnsupported:
        CS.bumpHtmAbortsUnsupported();
        RetryHw = false; // the body needs software-only machinery
        break;
      case htm::CodeUser:
        CS.bumpHtmAbortsUser();
        Adapter::htmUserAbort(Tx);
        return true; // terminal: user aborts never retry on any tier
      case htm::CodeException:
        CS.bumpHtmAbortsException();
        RetryHw = false; // rerun in software so the exception propagates
        break;
      case htm::CodeLocked:
        CS.bumpHtmAbortsLocked();
        RetryHw = true; // software owner mid-commit; likely gone next try
        break;
      default:
        break;
      }
    } else if (Status & htm::StatusConflict) {
      CS.bumpHtmAbortsConflict();
    } else if (Status & htm::StatusCapacity) {
      CS.bumpHtmAbortsCapacity();
      RetryHw = false; // will not fit this time either
    } else {
      // Spurious (interrupt, page fault, ...): retryable but unattributed.
      CS.bumpHtmAbortsOther();
    }
    if (!RetryHw)
      break;
    // Same inter-attempt arbitration as the software rungs.
    if (CM.pauseAfterAbort(Attempt, B))
      CS.bumpAttemptPauses();
  }
  CS.bumpHtmFallbacks();
  return false;
}

/// The admission bracket of one scheduled call (DESIGN.md §3.11). Every
/// attempt holds one scheduler ticket. It is admitted *before* the
/// serial-gate entry: a parked waiter holds no gate or epoch state, so it
/// cannot deadlock the gate's drain. It is released *before* the
/// inter-attempt pause, so the freed slot drains the shard queue while we
/// wait. Serial-exclusive attempts skip admission: they already run alone,
/// and parking while holding the exclusive gate would stall every in-flight
/// slot holder against the queue. An attempt is admitted under the declared
/// footprint or, without one, under the footprint the first aborted attempt
/// sampled; until then it speculates unadmitted.
class AdmissionBracket {
public:
  AdmissionBracket(uint32_t ClassId, const TxSummary *Declared)
      : Sched(AdmissionScheduler::instance()), ClassId(ClassId),
        Footprint(Declared) {}

  AdmissionBracket(const AdmissionBracket &) = delete;
  AdmissionBracket &operator=(const AdmissionBracket &) = delete;

  /// A non-STM exception unwinding out of an attempt releases it as clean.
  ~AdmissionBracket() {
    if (Held)
      Sched.release(Ticket, 0, Site);
  }

  /// \p VictimSite names the executing thread's obs site in every release.
  void admit(bool Serial, uint32_t VictimSite) {
    // An empty summary bypasses in admit() but release() still feeds the
    // adaptive gate — the unsampled first attempt and gated-off classes
    // keep reporting abort rates, so storms can arm the gate.
    static const TxSummary EmptySummary{};
    Ticket = {};
    if (!Serial)
      Ticket = Sched.admit(ClassId, Footprint ? *Footprint : EmptySummary);
    Site = VictimSite;
    Held = true;
  }

  /// Where the attempt samples its footprint, or null once one is known.
  TxSummary *sampleInto() { return Footprint ? nullptr : &Sampled; }

  /// Reports the attempt to the scheduler. A retried attempt sampled its
  /// footprint (see the Adapter::attempt contract), which admits the rest.
  void release(AttemptOutcome Out) {
    const bool Retry = Out == AttemptOutcome::RetryAbort ||
                       Out == AttemptOutcome::RetryAsWriter;
    Held = false;
    Sched.release(Ticket, Retry ? 1 : 0, Site);
    if (Retry && !Footprint)
      Footprint = &Sampled;
  }

private:
  AdmissionScheduler &Sched;
  uint32_t ClassId;
  const TxSummary *Footprint; ///< declared or sampled; null until sampled
  uint32_t Site = 0;
  TxSummary Sampled;
  AdmissionScheduler::Ticket Ticket;
  bool Held = false;
};

/// The lambda-style retry loop. An Adapter provides:
///
/// \code
///   struct Adapter {
///     using Manager = ...;                     // per-thread descriptor
///     static Manager &manager();               // thread's descriptor
///     static bool inTx(Manager &);             // inside a transaction?
///     static void noteSubsumed(Manager &);     // flattened-nesting stat
///     static void begin(Manager &, bool Snapshot); // TxStart
///     // One attempt: run + commit, or catch-abort + rollback; non-STM
///     // exceptions roll back and rethrow. A non-null Footprint receives
///     // the attempt's footprint whenever it returns a retry outcome.
///     template <typename Fn>
///     static AttemptOutcome attempt(Manager &, Fn &, TxSummary *Footprint);
///     static uint64_t opCount(Manager &);      // monotone work counter
///     static uint32_t siteId(Manager &);       // obs site (abort victim)
///     static CmTxState &cmState(Manager &);    // embedded CM state
///     static CmPolicy policy();                // from the active config
///     static unsigned fallbackAfter();         // retry budget
///     static uint64_t seedMix();               // backoff seed multiplier
///     // optional: read-only calls may run snapshot attempts, which cannot
///     // conflict and so bypass the serial gate (begin gets Snapshot=true)
///     static bool snapshotAvailable();
///     // optional (all-or-none): opt into the hardware rung. htmAttempts
///     // is the per-transaction RTM budget (0 = software only); the rest
///     // flip the manager in and out of hardware execution mode. See
///     // htmTryExecute above for the exact call sequence.
///     static unsigned htmAttempts();
///     static void htmPrepare(Manager &);    // outside the region: pin
///     static void htmEnter(Manager &);      // inside: enter HtmMode
///     static void htmCommit(Manager &);     // inside: commit bookkeeping
///     static void htmAbortReset(Manager &); // after abort: clear HtmMode
///     static void htmUnpin(Manager &);      // outside: drop the pin
///     static void htmUserAbort(Manager &);  // record a terminal CodeUser
///   };
/// \endcode
template <typename Adapter> class RetryExecutor {
public:
  using Manager = typename Adapter::Manager;

  /// Runs \p Fn transactionally with automatic retry and returns its result
  /// (see run()). Nested calls flatten into the enclosing transaction.
  template <typename FnType> static auto atomic(FnType &&Fn) {
    return run(CallMode{}, Fn);
  }

protected:
  /// How one top-level call runs; a front end's entry points build it.
  /// Nested calls flatten into the enclosing transaction and ignore it.
  struct CallMode {
    /// Attempts run as snapshot readers (if Adapter::snapshotAvailable())
    /// until one reaches a write; the loop then clears the flag, so the
    /// rest of the call runs as a writer.
    bool ReadOnly = false;
    /// Admitted through the AdmissionScheduler as transaction class
    /// ClassId, under the Declared footprint or, when that is null, a
    /// sampled one (AdmissionBracket). Scheduled calls skip the hardware
    /// rung.
    bool Scheduled = false;
    uint32_t ClassId = 0;
    const TxSummary *Declared = nullptr;
  };

  /// atomic() under \p Mode. A result is constructed into optional
  /// storage, so its type needs neither default construction nor
  /// assignment, only move construction. A body that user-aborts has no
  /// result; asking for one then throws std::bad_optional_access. Forced
  /// inline so that each entry point's literal mode selects one loop call
  /// before the compiler weighs inlining the loop.
  template <typename FnType>
  OTM_ALWAYS_INLINE static auto run(CallMode Mode, FnType &Fn) {
    using ResultType = decltype(Fn(std::declval<Manager &>()));
    if constexpr (!std::is_void_v<ResultType>) {
      std::optional<ResultType> Result;
      auto Capture = [&](Manager &Tx) { Result.emplace(Fn(Tx)); };
      run(Mode, Capture);
      return std::move(Result).value();
    } else if (OTM_UNLIKELY(Mode.Scheduled)) {
      // The bracket lives out here, where the mode is still a literal, so
      // an unscheduled call carries no admission state into the loop.
      AdmissionBracket Admission(Mode.ClassId, Mode.Declared);
      loop(Mode.ReadOnly, &Admission, Fn);
    } else {
      loop(Mode.ReadOnly, nullptr, Fn);
    }
  }

private:
  /// The one retry loop. \p Admission brackets each attempt of a
  /// scheduled call.
  template <typename FnType>
  static void loop(bool ReadOnly, AdmissionBracket *Admission, FnType &Fn) {
    Manager &Tx = Adapter::manager();
    if (Adapter::inTx(Tx)) {
      // Flattening: the nested body runs inside the enclosing transaction
      // and conflicts unwind to the outermost retry loop.
      Adapter::noteSubsumed(Tx);
      Fn(Tx);
      return;
    }
    // Top rung: hardware attempts, for adapters that opt in. Snapshot
    // readers already commit without validation or aborts, and scheduled
    // calls let admission gate re-execution, so both start in software.
    // Falls through to the software retry loop on exhaustion.
    if constexpr (requires { Adapter::htmAttempts(); })
      if (!Admission && !snapshotAttempt(ReadOnly) &&
          htmTryExecute<Adapter>(Tx, Fn))
        return;
    const ContentionManager &CM = managerFor(Adapter::policy());
    RetryController Ctl(CM, Adapter::cmState(Tx), Adapter::fallbackAfter(),
                        reinterpret_cast<uintptr_t>(&Tx) *
                            Adapter::seedMix());
    if constexpr (requires { Adapter::backoffHistogram(Tx); })
      Ctl.setBackoffHistogram(Adapter::backoffHistogram(Tx));
    for (;;) {
      // Decided once per attempt: a snapshot attempt cannot conflict, so
      // it bypasses the serial gate, and begin() runs the same decision.
      const bool Snapshot = snapshotAttempt(ReadOnly);
      if (Admission)
        Admission->admit(Ctl.inSerialMode(), Adapter::siteId(Tx));
      Ctl.beforeAttempt(Adapter::opCount(Tx), Snapshot);
      Adapter::begin(Tx, Snapshot);
      AttemptOutcome Out = Adapter::attempt(
          Tx, Fn, Admission ? Admission->sampleInto() : nullptr);
      if (Admission)
        Admission->release(Out);
      if (Out == AttemptOutcome::Committed ||
          Out == AttemptOutcome::NoRetryAbort) {
        Ctl.onFinished();
        return;
      }
      // Upgrade latch: the rest of the call runs as a writer.
      if (Out == AttemptOutcome::RetryAsWriter)
        ReadOnly = false;
      Ctl.afterAbort(Adapter::opCount(Tx));
    }
  }

  static bool snapshotAttempt(bool ReadOnly) {
    if constexpr (requires { Adapter::snapshotAvailable(); })
      return ReadOnly && Adapter::snapshotAvailable();
    else
      return false;
  }
};

} // namespace txn
} // namespace otm

#endif // OTM_TXN_RETRYEXECUTOR_H
