//===- stm/TxManager.h - Decomposed direct-access STM interface -*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TxManager is the per-thread transaction manager and exposes the paper's
/// *decomposed direct-access* STM interface:
///
/// \code
///   TxManager &Tx = TxManager::current();   // GetTxManager()
///   Tx.begin();                             // TxStart
///   Tx.openForRead(Obj);                    // OpenForRead
///   Tx.openForUpdate(Obj);                  // OpenForUpdate
///   Tx.logUndo(&Obj->F);                    // LogForUndo
///   Obj->F.store(V);                        // direct in-place store
///   Tx.tryCommit();                         // TxCommit
/// \endcode
///
/// Reads are optimistic and invisible (the seen STM word is logged and
/// validated at commit); updates take eager ownership of the object by
/// CASing its STM word to point at the transaction's update-log entry, and
/// stores happen in place with old values recorded in an undo log. This is
/// exactly the design whose barrier costs the paper's compiler
/// optimizations attack: because opens and undo-logs are idempotent,
/// explicit operations, the compiler (src/passes) removes redundant ones
/// and the runtime hash filters (stm/HashFilter.h) catch the rest.
///
/// The combined read()/write() helpers are what *naive* lowering emits (one
/// open per access); optimized code calls the decomposed operations
/// directly and elides the duplicates.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_STM_TXMANAGER_H
#define OTM_STM_TXMANAGER_H

#include "gc/EpochManager.h"
#include "obs/PhaseProfile.h"
#include "obs/TxObs.h"
#include "stm/Field.h"
#include "stm/HashFilter.h"
#include "stm/LogEntries.h"
#include "stm/Mvcc.h"
#include "stm/StmWord.h"
#include "stm/TxConfig.h"
#include "stm/TxObject.h"
#include "stm/TxStats.h"
#include "support/Backoff.h"
#include "support/ChunkedVector.h"
#include "support/Compiler.h"
#include "support/TxPool.h"
#include "txn/AbstractLockTable.h"
#include "txn/ContentionManager.h"
#include "txn/Htm.h"

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace otm {
namespace stm {

/// Thrown (internally) when a transaction must abort and restart: ownership
/// conflict, failed revalidation, or an explicit user abort. Caught by
/// Stm::atomic's retry loop; user code should not catch it.
///
/// The two Snapshot* causes are restarts of the MVCC read-only path, not
/// aborts: SnapshotUpgrade re-runs a read-only attempt as a writer after it
/// hit an update barrier, SnapshotRefresh re-runs it on a fresh snapshot
/// stamp after its begin stamp fell off a version chain. Neither undoes
/// any in-place state (snapshot attempts have none) and neither counts as
/// an abort in the statistics.
struct AbortTx {
  enum class Cause { Conflict, Validation, User, SnapshotUpgrade,
                     SnapshotRefresh };
  Cause Why = Cause::Conflict;
};

class TxManager;

namespace detail {
/// The calling thread's manager, or nullptr before its first transaction.
/// constinit guarantees constant initialization, so cross-TU accesses
/// compile to a direct TLS load with no init-wrapper call — this sits on
/// the entry path of every top-level transaction.
extern constinit thread_local TxManager *CurrentTxPtr;
} // namespace detail

/// Each thread's manager is heap-allocated once and lives for the process;
/// the alignment gives it whole cache lines, so no neighbouring heap block
/// (another thread's data, say) shares a line with its hot fields.
class alignas(support::CacheLine) TxManager {
public:
  /// Returns the calling thread's transaction manager (the paper's
  /// GetTxManager operation; creation is lazy and thread-local).
  static TxManager &current() {
    TxManager *Tx = detail::CurrentTxPtr;
    if (OTM_UNLIKELY(!Tx))
      return currentSlow();
    return *Tx;
  }

  /// Process-wide configuration; sampled at begin() of each transaction.
  /// Inline: the retry layer reads the policy knobs once or twice per
  /// transaction, and an out-of-line call costs more than the access.
  static TxConfig &config() {
    static TxConfig Config;
    return Config;
  }

  TxManager(const TxManager &) = delete;
  TxManager &operator=(const TxManager &) = delete;

  //===--------------------------------------------------------------------===
  // Lifecycle
  //===--------------------------------------------------------------------===

  /// Starts a transaction. Nested calls are flattened (subsumption): only
  /// the outermost begin/commit pair does real work. \p Snapshot runs the
  /// attempt on the MVCC snapshot path (DESIGN.md §3.9); the retry layer
  /// decides it per attempt, so a plain begin() is a writer.
  void begin(bool Snapshot = false) {
    if (Depth++ != 0) {
      ++Stats.SubsumedTx; // flattened nested transaction
      return;
    }
    ActiveConfig = config();
    FilterReadsOn = ActiveConfig.FilterReads;
    FilterUndoOn = ActiveConfig.FilterUndo;
    assert(ReadLog.empty() && UpdateLog.empty() && UndoLog.empty() &&
           AllocLog.empty() && "logs leaked from a previous attempt");
    assert(boostStateEmpty() && "boost state leaked from a previous attempt");
    EPin.pin(); // nested under RetryController's pre-pin on executor paths
    MaxPrevVersion = 0;
    SnapshotMode = Snapshot;
    if (OTM_UNLIKELY(SnapshotMode))
      SnapshotStamp = mv::observeClock();
    ++Stats.Starts;
    Obs.onBegin(0);
  }

  /// Attempts to commit the innermost begin(). For the outermost level,
  /// validates the read log and either publishes (returns true) or rolls
  /// back (returns false, caller must restart). Nested levels always
  /// succeed.
  bool tryCommit();

  /// Explicitly aborts the current transaction attempt: rolls back all
  /// in-place stores, releases ownership, frees transaction-local
  /// allocations, and throws AbortTx to unwind to the retry loop.
  [[noreturn]] void userAbort();

  /// True between an outermost begin() and its commit/abort.
  bool inTx() const { return Depth > 0; }
  unsigned nestingDepth() const { return Depth; }

  //===--------------------------------------------------------------------===
  // Decomposed barriers (the unit the compiler optimizes)
  //===--------------------------------------------------------------------===

  /// Enlists \p Obj for optimistic reading. Idempotent; a transaction that
  /// already owns the object for update skips logging entirely.
  void openForRead(TxObject *Obj) {
    assert(inTx() && "openForRead outside a transaction");
    // Hardware mode: the speculation hardware tracks the read set, so the
    // only job left is conflict detection against *software* owners — an
    // owned word means a writer is mid-flight with dirty in-place values.
    // Loading the word also subscribes it: a later software acquisition
    // aborts this region via coherence.
    if (OTM_UNLIKELY(HtmMode)) {
      ++Stats.OpensForRead;
      if (OTM_UNLIKELY(isOwned(Obj->Word.load(std::memory_order_acquire))))
        txn::htm::abortWith<txn::htm::CodeLocked>();
      return;
    }
    // Decomposed opens hand out raw in-place access, which a snapshot
    // cannot honor; only the combined read()/snapshotLoad() barriers are
    // snapshot-safe. Restart as a writer (same rule as openForUpdate).
    if (OTM_UNLIKELY(SnapshotMode))
      upgradeToWriter();
    ++Stats.OpensForRead;
    OTM_TRACE_OPEN_EVENT(Obs.Ring, obs::EventKind::OpenForRead, Obj, 0);
    OTM_PHASE_OPEN_SCOPE(Obs.Sampling, Stats.PhaseOpenCycles);
    WordValue W = Obj->Word.load(std::memory_order_acquire);
    if (OTM_UNLIKELY(isOwned(W))) {
      if (ownerEntry(W)->owner() == this)
        return; // we own it: reads are trivially consistent
      W = waitForUnowned(Obj);
    }
    if (FilterReadsOn &&
        !ReadFilter.insert(reinterpret_cast<uintptr_t>(Obj))) {
      ++Stats.ReadsFiltered;
      return;
    }
    ReadLog.emplaceBack(Obj, W);
    ++Stats.ReadLogAppends;
  }

  /// Acquires exclusive update ownership of \p Obj (eager two-phase
  /// locking). Idempotent. On conflict with another owner, spins briefly
  /// and then aborts this transaction.
  void openForUpdate(TxObject *Obj) {
    assert(inTx() && "openForUpdate outside a transaction");
    // Hardware mode: no ownership CAS, no update log. Publishing the new
    // version stamp *speculatively* is what keeps software validation
    // exact — if this region commits, every concurrent software read of
    // the object sees a moved word and fails its equality check; if it
    // aborts, the store was never visible. Re-opens just restamp with the
    // same clock stamp.
    if (OTM_UNLIKELY(HtmMode)) {
      ++Stats.OpensForUpdate;
      WordValue W = Obj->Word.load(std::memory_order_acquire);
      if (OTM_UNLIKELY(isOwned(W)))
        txn::htm::abortWith<txn::htm::CodeLocked>();
      Obj->Word.store(makeVersion(htmStamp()), std::memory_order_relaxed);
      return;
    }
    // Dynamic read-only detection: the first update barrier restarts the
    // attempt as a writer (the paper's upgrade rule lifted to tx level).
    if (OTM_UNLIKELY(SnapshotMode))
      upgradeToWriter();
    ++Stats.OpensForUpdate;
    OTM_TRACE_OPEN_EVENT(Obs.Ring, obs::EventKind::OpenForUpdate, Obj, 0);
    OTM_PHASE_OPEN_SCOPE(Obs.Sampling, Stats.PhaseOpenCycles);
    WordValue W = Obj->Word.load(std::memory_order_acquire);
    for (;;) {
      if (OTM_UNLIKELY(isOwned(W))) {
        if (ownerEntry(W)->owner() == this)
          return; // already ours
        W = waitForUnowned(Obj);
        continue;
      }
      UpdateEntry *Entry = UpdateLog.emplaceBack(Obj, W, this);
      // seq_cst: the writer's half of the snapshot handshake (DESIGN.md
      // §3.9) orders this CAS before the commit's clock load.
      if (Obj->Word.compare_exchange_strong(W, makeOwned(Entry),
                                            std::memory_order_seq_cst)) {
        if (versionOf(W) > MaxPrevVersion)
          MaxPrevVersion = versionOf(W);
        return;
      }
      UpdateLog.popBack(); // lost the race; W holds the fresh word
    }
  }

  /// Records the old value of \p F so an abort can restore it. Must be
  /// called before the in-place store, on an object this transaction has
  /// opened for update. Filtered dynamically unless disabled.
  template <typename T> void logUndo(Field<T> *F) {
    assert(inTx() && "logUndo outside a transaction");
    if (OTM_UNLIKELY(HtmMode))
      return; // the hardware rolls every speculative store back itself
    if (FilterUndoOn && !UndoFilter.insert(reinterpret_cast<uintptr_t>(F))) {
      ++Stats.UndosFiltered;
      return;
    }
    UndoLog.emplaceBack(F, F->bitsForUndo(), &restoreField<T>);
    ++Stats.UndoLogAppends;
  }

  /// Allocates a transaction-local object. If the transaction aborts the
  /// object is destroyed; opens and undo logging on it are unnecessary
  /// (the compiler's alloc-elision pass exploits exactly this). The `new`
  /// lands in the per-thread transaction pool (TxObject::operator new), so
  /// abort-heavy churn recycles blocks O(1) once the epoch reclaimer
  /// returns them.
  template <typename T, typename... ArgTypes> T *allocInTx(ArgTypes &&...Args) {
    T *Obj = new T(std::forward<ArgTypes>(Args)...);
    recordAlloc(Obj);
    return Obj;
  }

  /// Registers an externally allocated object as transaction-local.
  template <typename T> void recordAlloc(T *Obj) {
    assert(inTx() && "recordAlloc outside a transaction");
    // Registering a destructor for the abort path cannot work when the
    // abort path is a hardware rollback; escalate to the software tier
    // (which also unwinds the speculative TxPool bump of the allocation).
    if (OTM_UNLIKELY(HtmMode))
      txn::htm::abortWith<txn::htm::CodeUnsupported>();
    if (OTM_UNLIKELY(SnapshotMode))
      upgradeToWriter(); // allocation is a side effect: not read-only
    AllocLog.emplaceBack(static_cast<TxObject *>(Obj),
                         static_cast<void *>(Obj),
                         +[](void *P) { delete static_cast<T *>(P); },
                         /*FreeOnCommit=*/false);
    ++Stats.Allocations;
  }

  /// Logically deletes \p Obj: it is retired to the epoch reclaimer when
  /// the transaction commits, and kept alive if it aborts. The caller must
  /// have opened \p Obj for update (so no concurrent committer holds it).
  template <typename T> void retireOnCommit(T *Obj) {
    assert(inTx() && "retireOnCommit outside a transaction");
    if (OTM_UNLIKELY(HtmMode)) // epoch retirement is a commit side effect
      txn::htm::abortWith<txn::htm::CodeUnsupported>();
    if (OTM_UNLIKELY(SnapshotMode))
      upgradeToWriter(); // deletion is a side effect: not read-only
    AllocLog.emplaceBack(static_cast<TxObject *>(Obj),
                         static_cast<void *>(Obj),
                         +[](void *P) { delete static_cast<T *>(P); },
                         /*FreeOnCommit=*/true);
    ++Stats.Retires;
  }

  //===--------------------------------------------------------------------===
  // Combined barriers (what naive lowering emits, one open per access)
  //===--------------------------------------------------------------------===

  template <typename ObjType, typename T>
  T read(ObjType *Obj, Field<T> ObjType::*Member) {
    if (OTM_UNLIKELY(SnapshotMode))
      return snapshotLoad(static_cast<TxObject *>(Obj), &(Obj->*Member));
    openForRead(Obj);
    return (Obj->*Member).load();
  }

  template <typename ObjType, typename T>
  void write(ObjType *Obj, Field<T> ObjType::*Member, T Value) {
    openForUpdate(Obj);
    logUndo(&(Obj->*Member));
    (Obj->*Member).store(Value);
  }

  //===--------------------------------------------------------------------===
  // Snapshot (MVCC) read path — see DESIGN.md §3.9
  //===--------------------------------------------------------------------===

  /// Always true. The MVCC tier is always built; TxConfig::MvVersions = 0
  /// switches it off at run time. Kept because perfbench's history check
  /// calls it.
  static constexpr bool mvccEnabled() { return true; }

  /// True while the current attempt runs on the snapshot path.
  bool inSnapshotMode() const { return Depth > 0 && SnapshotMode; }

  uint64_t snapshotStampForTesting() const { return SnapshotStamp; }

  /// Stamp of this thread's last writer commit (software or hardware).
  uint64_t lastCommitStampForTesting() const { return LastCommitStamp; }

  /// Snapshot-consistent field read: the in-place value when the object's
  /// version is at or below the begin stamp (seqlock-checked), otherwise
  /// the pre-image reconstructed from the object's version chain. Never
  /// enlists anything; never aborts (it can *restart* the attempt on a
  /// truncated chain). Outside snapshot mode degrades to a plain combined
  /// read barrier.
  template <typename T> T snapshotLoad(TxObject *Obj, Field<T> *F) {
    if (!SnapshotMode) {
      openForRead(Obj);
      return F->load();
    }
    assert(inTx() && "snapshotLoad outside a transaction");
    ++Stats.SnapshotReads;
    const uint64_t T0 = SnapshotStamp;
    unsigned Retries = 0;
    for (;;) {
      // seq_cst: the reader's half of the handshake with in-flight writers
      // (DESIGN.md §3.9); it follows observeClock() in begin().
      WordValue W = Obj->Word.load(std::memory_order_seq_cst);
      if (OTM_LIKELY(!isOwned(W) && versionOf(W) <= T0)) {
        // Fast path: the committed in-place value is old enough. The word
        // recheck behind an acquire fence makes the two loads a seqlock:
        // any concurrent commit would have changed the word.
        T V = F->load();
        std::atomic_thread_fence(std::memory_order_acquire);
        if (OTM_LIKELY(Obj->Word.load(std::memory_order_relaxed) == W))
          return V;
      } else {
        uint64_t Bits = 0;
        switch (snapshotResolve(Obj, F, W, Bits)) {
        case SnapshotResolve::Hit:
          ++Stats.SnapshotReadsFromChain;
          return fieldFromBits<T>(Bits);
        case SnapshotResolve::InPlace: {
          // Chain walk proved no commit above T0 touched this field; the
          // in-place value stands if the word has not moved meanwhile.
          T V = F->load();
          std::atomic_thread_fence(std::memory_order_acquire);
          if (Obj->Word.load(std::memory_order_relaxed) == W)
            return V;
          break; // a commit landed mid-walk: retry from the word
        }
        case SnapshotResolve::Wait:
          // An in-flight writer holds the only copy of the value we need
          // (its pre-images are not published until it commits or rolls
          // back). Waiting is progress, so it does not charge the retry
          // budget; writer progress is guaranteed by the CM/serial gate.
          snapshotWait(Obj);
          continue;
        case SnapshotResolve::Refresh:
          refreshSnapshot(); // [[noreturn]]: restart on a fresh stamp
        }
      }
      if (OTM_UNLIKELY(++Retries > 64))
        refreshSnapshot(); // word churn outran T0; a fresh stamp catches up
      cpuRelax();
    }
  }

  //===--------------------------------------------------------------------===
  // Deferred actions & abstract locks (transactional boosting, §3.10)
  //===--------------------------------------------------------------------===

  /// Defers \p Fn to run iff the outermost transaction commits, after
  /// write-back and ownership release but *before* the abstract locks are
  /// dropped. Handlers run in registration (FIFO) order. They must not
  /// throw and must not start transactions or register further deferred
  /// actions (node destruction from inside a handler is routed through
  /// runningDeferredActions() instead).
  template <typename FnType> void onCommit(FnType &&Fn) {
    deferAction(CommitActions, std::forward<FnType>(Fn));
  }

  /// Defers \p Fn to run iff the outermost transaction aborts. Handlers run
  /// in reverse registration (LIFO) order — the semantic undo discipline —
  /// after the in-place undo replay and STM-word release, and before the
  /// abstract locks are dropped, so an inverse always executes while the
  /// keys it touches are still exclusively this transaction's.
  template <typename FnType> void onAbort(FnType &&Fn) {
    deferAction(AbortActions, std::forward<FnType>(Fn));
  }

  /// Acquires the abstract lock for (\p ContainerId, \p Key), waiting or
  /// aborting under the configured contention manager exactly as a
  /// structural ownership conflict would. Idempotent for locks this
  /// transaction already holds; released automatically at commit/abort.
  void boostAcquireKey(uint64_t ContainerId, uint64_t Key);

  /// Acquires \p ContainerId's whole-container gate (structural fallback):
  /// claims the gate, then drains concurrently held abstract key locks.
  /// The drain is bounded by the conflict-spin budget; exceeding it aborts
  /// this transaction (no single owner exists to arbitrate against).
  void boostAcquireStructural(uint64_t ContainerId);

  /// True while commit/abort deferred actions are executing. Semantic
  /// inverse helpers use it to destroy nodes immediately instead of
  /// registering further deferred deletes into the log being walked.
  bool runningDeferredActions() const { return RunningDeferred; }

  std::size_t boostLockCountForTesting() const { return BoostLocks.size(); }
  std::size_t deferredCommitCountForTesting() const {
    return CommitActions.size();
  }
  std::size_t deferredAbortCountForTesting() const {
    return AbortActions.size();
  }

  //===--------------------------------------------------------------------===
  // Hardware (RTM) execution mode — see DESIGN.md §3.12
  //===--------------------------------------------------------------------===

  /// True while the current attempt runs inside a hardware transaction.
  bool inHtmMode() const { return HtmMode; }

  /// Pre-xbegin prologue: counts the attempt and pins the epoch. The pin
  /// must happen *outside* the speculative region — a speculative store to
  /// the pin slot is invisible to reclaimers until commit, which is
  /// exactly when the protection is too late.
  void htmPrepare() {
    ++Stats.HtmAttempts;
    EPin.pin();
  }
  /// Post-attempt epilogue (any outcome): drops htmPrepare's pin.
  void htmUnpin() { EPin.unpin(); }

  /// Inside-the-region begin: runs after a successful xbegin. Every store
  /// here is speculative, so an abort rewinds the mode flags and counters
  /// by itself — htmAbortReset() below is defensive, not load-bearing.
  void htmEnter() {
    Depth = 1; // nested atomics flatten off inTx(), same as software
    HtmMode = true;
    HtmStamped = false;
    ++Stats.Starts;
    Obs.onBegin(0);
  }

  /// Inside-the-region commit: runs right before xend, so the counter
  /// bumps publish atomically with the data — HtmCommits is commit-exact.
  void htmCommit() {
    ++Stats.Commits;
    ++Stats.HtmCommits;
    Obs.onCommit(0, Stats.CommitTscCycles, Stats.RetriesPerCommit);
    HtmMode = false;
    Depth = 0;
  }

  /// Post-abort cleanup. The hardware already restored HtmMode/Depth (they
  /// were set speculatively); clearing again is free and keeps the manager
  /// obviously consistent even if an abort path changes someday.
  void htmAbortReset() {
    HtmMode = false;
    Depth = 0;
  }

  /// Accounting for a userAbort() that fired inside a hardware region: the
  /// rollback erased the speculative Starts bump, so restore the exact
  /// counter shape a software user abort leaves behind.
  void htmNoteUserAbort() {
    ++Stats.Starts;
    ++Stats.AbortsByUser;
    ++Stats.Aborts;
    Obs.onAbort(obs::AuxCauseUser, 0);
  }

  //===--------------------------------------------------------------------===
  // Validation
  //===--------------------------------------------------------------------===

  /// Re-checks the read log. Direct-update STM is not opaque: a doomed
  /// transaction can observe inconsistent state, so long-running loops call
  /// this periodically to bound zombie execution.
  bool validate();

  /// validate() or abort-and-restart.
  void validateOrAbort() {
    if (OTM_LIKELY(validate()))
      return;
    ++Stats.AbortsOnValidation;
    recordValidationFailureSite();
    abortAndThrow(AbortTx::Cause::Validation);
  }

  //===--------------------------------------------------------------------===
  // Statistics & introspection
  //===--------------------------------------------------------------------===

  TxStats &stats() { return Stats; }
  /// Adds this thread's counters into the process aggregate and zeroes them.
  void flushStats();

  /// This manager's process-unique transaction site id (abort attribution
  /// reports it as the owner of contended objects).
  uint32_t siteId() const { return Obs.SiteId; }

  /// Contention-management state of this manager's current transaction.
  /// Attackers read it cross-thread during conflict arbitration (karma
  /// priority, greedy arrival stamp); the retry layer resets it per
  /// transaction.
  txn::CmTxState &cmState() { return CmState; }

  std::size_t readLogSizeForTesting() const { return ReadLog.size(); }
  std::size_t updateLogSizeForTesting() const { return UpdateLog.size(); }
  std::size_t undoLogSizeForTesting() const { return UndoLog.size(); }

  /// Samples this attempt's footprint into \p S as Bloom fingerprints over
  /// *object addresses* (DESIGN.md §3.11): reads from the read filter when
  /// it is on (already deduplicated) or the read log otherwise; writes from
  /// the update-log objects — the undo filter keys on field addresses, a
  /// different keyspace, so it is deliberately not used. Call *before*
  /// rollbackAttempt()/tryCommit(): finishAttempt() clears the filters and
  /// logs. The scheduler replays this summary to admit the retry only when
  /// it is provably disjoint from in-flight work.
  void sampleSummary(txn::TxSummary &S) {
    S.clear();
    if (FilterReadsOn)
      ReadFilter.appendFingerprint(S.Reads);
    else
      ReadLog.forEach([&](ReadEntry &Entry) {
        S.Reads.insert(reinterpret_cast<uintptr_t>(Entry.Obj));
      });
    UpdateLog.forEach([&](UpdateEntry &Entry) {
      S.Writes.insert(reinterpret_cast<uintptr_t>(Entry.Obj));
    });
  }

  /// Rolls the current attempt back (undo, release, free allocations).
  /// Public so the retry loop can clean up after catching AbortTx thrown
  /// from arbitrary user-frame depth.
  void rollbackAttempt(AbortTx::Cause Why);

  /// GC log-compaction hook (paper's GC integration): deduplicates read and
  /// undo logs in place, as the collector does while logs are roots.
  /// Returns (readEntriesRemoved, undoEntriesRemoved).
  std::pair<std::size_t, std::size_t> compactLogsForGc();

  /// GC root enumeration (paper's GC integration): visits every object the
  /// current transaction has enlisted in its read, update or alloc logs.
  template <typename FnType> void forEachEnlistedObject(FnType Fn) {
    ReadLog.forEach([&](ReadEntry &Entry) { Fn(Entry.Obj); });
    UpdateLog.forEach([&](UpdateEntry &Entry) { Fn(Entry.Obj); });
    AllocLog.forEach([&](AllocEntry &Entry) { Fn(Entry.Obj); });
  }

private:
  TxManager() = default;
  friend class TxManagerTestPeer;

  /// Creates and registers this thread's manager (first use only).
  static TxManager &currentSlow();

  /// Spins while \p Obj is owned by another transaction; returns the
  /// unowned word, or aborts this transaction after the spin budget.
  WordValue waitForUnowned(TxObject *Obj);

  /// Attributes the first invalid read-log entry (called on the abort
  /// path, so scanning the log again is fine).
  void recordValidationFailureSite();

  [[noreturn]] void abortAndThrow(AbortTx::Cause Why);

  bool validateEntry(const ReadEntry &Entry) const;
  void releaseOwnershipForCommit(uint64_t CommitStamp);
  void releaseOwnershipForAbort();

  /// Restarts the attempt as a writer (first update barrier in snapshot
  /// mode) / on a fresh snapshot stamp (begin stamp no longer covered by a
  /// version chain). Both unwind via AbortTx; neither counts as an abort.
  [[noreturn]] void upgradeToWriter();
  [[noreturn]] void refreshSnapshot();

  /// Spins (with yields) while \p Obj is owned by an in-flight writer.
  /// Snapshot readers are invisible, so there is no CM arbitration and no
  /// abort — only patience.
  void snapshotWait(TxObject *Obj);

  enum class SnapshotResolve : uint8_t {
    Hit,     ///< pre-image found in the chain; Bits holds it
    InPlace, ///< no commit above the stamp touched the field; read in place
    Wait,    ///< an in-flight owner must release before the value exists
    Refresh, ///< chain truncated/unmaintained below the stamp: new stamp
  };

  /// Chain walk for one field of an object whose in-place value is too new
  /// (or owned). \p W is the word the caller just loaded.
  SnapshotResolve snapshotResolve(TxObject *Obj, const void *Addr,
                                  WordValue W, uint64_t &Bits) const;

  /// Commit-side chain maintenance: builds the shared pre-image record from
  /// the undo log in one allocation with one embedded node per updated
  /// object, prepends each node to its object's chain, and truncates each
  /// chain to ActiveConfig.MvVersions. A full chain with a valid tail word
  /// loses its tail in O(1).
  void installVersions(uint64_t CommitStamp);

  /// Cuts one node: drops its reference to its record and epoch-retires
  /// the record, nodes included, on the last reference.
  void retireVersion(mv::MvNode *Cut);

  /// Resync fallback of installVersions: walks \p Obj's chain from its new
  /// head \p Head, truncates it to \p K nodes, re-tags the tail word, and
  /// returns the resulting depth.
  unsigned truncateByWalk(TxObject *Obj, mv::MvNode *Head, unsigned K);

  /// Snapshot-path commit: no validation, no write-back, no release walk.
  bool snapshotCommit();

  /// The stamp for releasing this attempt's update log (mv::writerStamp);
  /// counts the clock advance it may make. Call with every write
  /// ownership held.
  uint64_t takeWriterStamp();

  /// Wraps \p Fn in a TxPool-allocated closure and appends it to \p Log.
  /// The snapshot upgrade happens before the allocation so an upgrade
  /// restart cannot leak the payload.
  template <typename LogType, typename FnType>
  void deferAction(LogType &Log, FnType &&Fn) {
    assert(inTx() && "deferred action outside a transaction");
    if (OTM_UNLIKELY(HtmMode)) // deferred handlers need the software logs
      txn::htm::abortWith<txn::htm::CodeUnsupported>();
    if (OTM_UNLIKELY(SnapshotMode))
      upgradeToWriter(); // a deferred handler is a side effect
    using Closure = std::decay_t<FnType>;
    void *Payload = support::TxPool::allocate(sizeof(Closure));
    ::new (Payload) Closure(std::forward<FnType>(Fn));
    Log.emplaceBack(DeferredAction{
        +[](void *P) { (*static_cast<Closure *>(P))(); },
        +[](void *P) {
          static_cast<Closure *>(P)->~Closure();
          support::TxPool::deallocate(P);
        },
        Payload});
  }

  /// Commit epilogue: run commit handlers (FIFO), dispose abort handlers,
  /// release abstract locks. Rollback epilogue: run abort handlers (LIFO),
  /// dispose commit handlers, release abstract locks. Lock release is last
  /// in both so no concurrent transaction can acquire a key whose semantic
  /// state is still being settled.
  void commitBoostState();
  void abortBoostState();
  void releaseBoostLocks();

  bool boostStateEmpty() const {
    return CommitActions.empty() && AbortActions.empty() && BoostLocks.empty();
  }

  /// The version stamp a hardware transaction publishes into the STM words
  /// it writes. Every stamp must come from the global commit
  /// clock (snapshot readers order by it), and the clock advance happens
  /// *inside* the speculative region: the RMW joins the transaction, so if
  /// this region survives to commit, no other clock user intervened and
  /// the stamp sits above every stamp published before it. The cost is
  /// that any concurrent clock write (a reader's observation or a software
  /// writer's advance) aborts a speculating hardware writer; E12 prices
  /// that.
  uint64_t htmStamp() {
    if (!HtmStamped) {
      HtmStampVal = mv::advanceClock();
      HtmStamped = true;
      ++Stats.MvClockAdvances;
      LastCommitStamp = HtmStampVal; // speculative: kept only if we commit
    }
    return HtmStampVal;
  }

  template <typename T> static T fieldFromBits(uint64_t Bits) {
    T V;
    std::memcpy(&V, &Bits, sizeof(T));
    return V;
  }

  /// Per-attempt epilogue: reset logs and filters, unpin the epoch. All
  /// clears are pointer/generation resets, so this inlines into the commit
  /// and rollback paths without touching chunk storage.
  void finishAttempt() {
    ReadLog.clear();
    UpdateLog.clear();
    UndoLog.clear();
    AllocLog.clear();
    ReadFilter.clear();
    UndoFilter.clear();
    Depth = 0;
    SnapshotMode = false;
    EPin.unpin();
  }

  template <typename T> static void restoreField(void *Addr, uint64_t Bits) {
    static_cast<Field<T> *>(Addr)->restoreFromBits(Bits);
  }

  unsigned Depth = 0;
  TxConfig ActiveConfig;
  bool FilterReadsOn = true;
  bool FilterUndoOn = true;
  bool HtmMode = false; ///< current attempt runs inside a hardware txn
  bool HtmStamped = false;   ///< this hardware attempt drew its clock stamp
  uint64_t HtmStampVal = 0;  ///< ... and this is it
  bool SnapshotMode = false;   ///< current attempt runs validate-free
  uint64_t SnapshotStamp = 0;  ///< largest stamp the snapshot covers
  uint64_t MaxPrevVersion = 0;  ///< largest version the update log overwrote
  uint64_t LastCommitStamp = 0; ///< stamp of the last writer commit

  ChunkedVector<ReadEntry> ReadLog;
  ChunkedVector<UpdateEntry> UpdateLog;
  ChunkedVector<UndoEntry> UndoLog;
  ChunkedVector<AllocEntry> AllocLog;
  HashFilter ReadFilter;
  HashFilter UndoFilter;
  ChunkedVector<DeferredAction> CommitActions;
  ChunkedVector<DeferredAction> AbortActions;
  ChunkedVector<txn::AbstractLockTable::LockRef> BoostLocks;
  bool RunningDeferred = false;

  TxStats Stats;
  obs::TxObs Obs;
  txn::CmTxState CmState;

  /// Cached per-thread pin handle: begin()/finishAttempt() pin and unpin
  /// once per attempt, so the inline handle keeps the epoch operations off
  /// the out-of-line + thread-local-lookup path.
  gc::EpochManager::ThreadPin EPin = gc::EpochManager::global().threadPin();
};
static_assert(alignof(TxManager) == support::CacheLine,
              "a TxManager must own every cache line it touches");

} // namespace stm
} // namespace otm

#endif // OTM_STM_TXMANAGER_H
