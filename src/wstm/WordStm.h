//===- wstm/WordStm.h - TL2-style word-based STM baseline ------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A word-granularity STM in the TL2 style: global version clock, striped
/// versioned write locks, per-read validation against the transaction's
/// read version, lazy (buffered) writes applied at commit under the locks.
///
/// This is the *baseline* the paper's object-based direct-update STM is
/// compared against (experiment E2): every word-sized access pays a barrier
/// and a lock-table probe, whereas the object STM amortizes one open over
/// all accesses to the object's fields.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_WSTM_WORDSTM_H
#define OTM_WSTM_WORDSTM_H

#include "gc/EpochManager.h"
#include "obs/AbortSites.h"
#include "obs/PhaseProfile.h"
#include "obs/TxObs.h"
#include "stm/Field.h"
#include "stm/TxStats.h"
#include "stm/TxManager.h" // shared process-wide TxConfig (policy knobs)
#include "support/Backoff.h"
#include "support/ChunkedVector.h"
#include "support/Compiler.h"
#include "txn/Htm.h"
#include "txn/RetryExecutor.h"
#include "wstm/VersionedLock.h"
#include "wstm/WriteSet.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace otm {
namespace wstm {

/// Word-based transactional cell; reuses stm::Field's relaxed-atomic
/// storage so the two STMs can share container layouts.
template <typename T> using WCell = stm::Field<T>;

/// Thrown on conflict; caught by WordStm::atomic.
struct WAbort {};

class WTxManager;

namespace detail {
/// The calling thread's descriptor, or nullptr before its first
/// transaction (same constinit-TLS fast path as stm::detail::CurrentTxPtr).
extern constinit thread_local WTxManager *CurrentWTxPtr;
} // namespace detail

/// Per-thread word-STM transaction descriptor.
class WTxManager {
public:
  static WTxManager &current() {
    WTxManager *Tx = detail::CurrentWTxPtr;
    if (OTM_UNLIKELY(!Tx))
      return currentSlow();
    return *Tx;
  }

  /// Global version clock shared by all word-STM transactions.
  static std::atomic<uint64_t> &clock();

  void begin() {
    if (Depth++ != 0) {
      ++Stats.SubsumedTx; // flattened, like TxManager::begin
      return;
    }
    ActiveConfig = stm::TxManager::config();
    ReadVersion = clock().load(std::memory_order_acquire);
    EPin.pin(); // nested under RetryController's pre-pin on executor paths
    ++Stats.Starts;
    Obs.onBegin(obs::AuxWordStm);
  }

  /// TL2 read barrier: pre-validate lock, load, post-validate lock.
  template <typename T> T read(const WCell<T> &Cell) {
    assert(inTx() && "wstm read outside transaction");
    if (OTM_UNLIKELY(HtmMode)) {
      // Hardware path: the transactional load of the stripe word is the
      // whole protocol — any software locker's CAS aborts this region. No
      // read set, no post-validate. A currently-locked stripe means a
      // software commit is mid-flight; yield to it explicitly.
      ++Stats.OpensForRead;
      if (OTM_UNLIKELY(
              VersionedLock::isLocked(LockTable::global().lockFor(&Cell).load())))
        txn::htm::abortWith<txn::htm::CodeLocked>();
      return Cell.load();
    }
    ++Stats.OpensForRead;
    OTM_TRACE_OPEN_EVENT(Obs.Ring, obs::EventKind::OpenForRead, &Cell,
                    obs::AuxWordStm);
    OTM_PHASE_OPEN_SCOPE(Obs.Sampling, Stats.PhaseOpenCycles);
    uint64_t Buffered;
    if (!Writes.empty() && Writes.lookup(&Cell, Buffered))
      return fromBits<T>(Buffered); // read-own-write
    VersionedLock &Lock = LockTable::global().lockFor(&Cell);
    uint64_t L1 = Lock.load();
    if (OTM_UNLIKELY(VersionedLock::isLocked(L1) ||
                     VersionedLock::versionOf(L1) > ReadVersion))
      abortOnRead(&Cell, L1);
    T Value = Cell.load();
    uint64_t L2 = Lock.load();
    if (OTM_UNLIKELY(L1 != L2))
      abortOnRead(&Cell, L2);
    ReadSet.emplaceBack(&Lock);
    ++Stats.ReadLogAppends;
    return Value;
  }

  /// TL2 write barrier: buffer the value in the redo log.
  template <typename T> void write(WCell<T> &Cell, T Value) {
    assert(inTx() && "wstm write outside transaction");
    if (OTM_UNLIKELY(HtmMode)) {
      // Hardware path: write in place and advance the stripe version
      // speculatively, so software readers that raced past us revalidate
      // against the bumped version when we commit. One clock stamp per
      // region, fetched lazily — the RMW joins the transaction, so a
      // surviving region held the clock's latest value at commit.
      ++Stats.OpensForUpdate;
      VersionedLock &Lock = LockTable::global().lockFor(&Cell);
      if (OTM_UNLIKELY(VersionedLock::isLocked(Lock.load())))
        txn::htm::abortWith<txn::htm::CodeLocked>();
      Lock.unlockToVersion(htmStamp());
      Cell.store(Value);
      return;
    }
    ++Stats.OpensForUpdate;
    OTM_TRACE_OPEN_EVENT(Obs.Ring, obs::EventKind::OpenForUpdate, &Cell,
                    obs::AuxWordStm);
    OTM_PHASE_OPEN_SCOPE(Obs.Sampling, Stats.PhaseOpenCycles);
    Writes.put(&Cell, toBits(Value), &applyCell<T>);
  }

  /// Registers a transaction-locally allocated object (deleted on abort).
  template <typename T> void recordAlloc(T *Obj) {
    if (OTM_UNLIKELY(HtmMode))
      txn::htm::abortWith<txn::htm::CodeUnsupported>();
    Allocs.emplaceBack(static_cast<void *>(Obj),
                       +[](void *P) { delete static_cast<T *>(P); },
                       /*FreeOnCommit=*/false);
    ++Stats.Allocations;
  }

  /// Defers deletion of \p Obj to a successful commit (epoch-retired).
  template <typename T> void retireOnCommit(T *Obj) {
    if (OTM_UNLIKELY(HtmMode))
      txn::htm::abortWith<txn::htm::CodeUnsupported>();
    Allocs.emplaceBack(static_cast<void *>(Obj),
                       +[](void *P) { delete static_cast<T *>(P); },
                       /*FreeOnCommit=*/true);
    ++Stats.Retires;
  }

  bool tryCommit();

  /// Rolls back the attempt (discard redo log, free allocations). \p
  /// AuxCause is the obs::AuxCause* code reported to the tracer.
  void rollbackAttempt(uint16_t AuxCause = obs::AuxCauseValidation);

  bool inTx() const { return Depth > 0; }

  /// Process-unique site id for abort attribution (locked stripes encode
  /// the owner descriptor, which is leaked, so this is always derefable).
  uint32_t siteId() const { return Obs.SiteId; }

  stm::TxStats &stats() { return Stats; }
  void flushStats() {
    stm::GlobalTxStats::instance().add(Stats);
    Stats.reset();
  }

  /// Contention-management state (read cross-thread by attackers that find
  /// this descriptor's tag in a locked stripe).
  txn::CmTxState &cmState() { return CmState; }

  // Hardware (RTM) execution mode — see DESIGN.md §3.12 and the matching
  // surface on stm::TxManager. The executor calls prepare/unpin outside
  // the region and enter/commit inside it.
  bool inHtmMode() const { return HtmMode; }
  void htmPrepare() {
    ++Stats.HtmAttempts;
    EPin.pin(); // must precede xbegin: a speculative pin protects nothing
  }
  void htmUnpin() { EPin.unpin(); }
  void htmEnter() {
    Depth = 1;
    HtmMode = true;
    HtmStamped = false;
    ++Stats.Starts;
    Obs.onBegin(obs::AuxWordStm);
  }
  void htmCommit() {
    ++Stats.Commits;
    ++Stats.HtmCommits; // inside the region: rolls back with it, so exact
    Obs.onCommit(obs::AuxWordStm, Stats.CommitTscCycles,
                 Stats.RetriesPerCommit);
    HtmMode = false;
    Depth = 0;
  }
  void htmAbortReset() {
    // The region's speculative state (including htmEnter's effects) is
    // already gone; only the non-speculative flags need clearing.
    HtmMode = false;
    Depth = 0;
  }
  void htmNoteUserAbort() {
    // Unreachable today (the word STM has no user-abort surface), but the
    // executor contract requires the hook; account it like a software
    // no-retry abort.
    ++Stats.Starts;
    ++Stats.Aborts;
    ++Stats.AbortsByUser;
    Obs.onAbort(obs::AuxCauseUser, obs::AuxWordStm);
  }

private:
  WTxManager() = default;

  /// Creates and registers this thread's descriptor (first use only).
  static WTxManager &currentSlow();

  /// Owner site encoded in a locked stripe word, or 0 when unlocked.
  static uint32_t ownerSiteOf(uint64_t LockWord) {
    if (!VersionedLock::isLocked(LockWord))
      return 0;
    return reinterpret_cast<const WTxManager *>(LockWord & ~uint64_t(1))
        ->siteId();
  }

  [[noreturn]] void abortOnRead(const void *Addr, uint64_t LockWord) {
    ++Stats.AbortsOnValidation;
    obs::AbortSites::instance().record(Addr, obs::AbortCause::Validation,
                                       ownerSiteOf(LockWord), siteId());
    throw WAbort{};
  }

  template <typename T> static uint64_t toBits(T Value) {
    uint64_t Bits = 0;
    std::memcpy(&Bits, &Value, sizeof(T));
    return Bits;
  }

  template <typename T> static T fromBits(uint64_t Bits) {
    T Value;
    std::memcpy(&Value, &Bits, sizeof(T));
    return Value;
  }

  template <typename T> static void applyCell(void *Addr, uint64_t Bits) {
    static_cast<WCell<T> *>(Addr)->restoreFromBits(Bits);
  }

  struct AllocRecord {
    void *Raw = nullptr;
    void (*Destroy)(void *) = nullptr;
    bool FreeOnCommit = false;
  };

  /// Releases the first \p N acquired commit locks to their saved versions.
  void unlockFirstN(std::size_t N);
  /// Clears all per-attempt state and unpins the epoch.
  void finish();

  /// One global-clock stamp per hardware region, fetched lazily on the
  /// first write barrier. The fetch_add joins the region: if anyone else
  /// touches the clock before we commit, we abort, so a surviving region's
  /// stamp is effectively a commit-time stamp — unique and monotone.
  uint64_t htmStamp() {
    if (!HtmStamped) {
      HtmStampVal = 1 + clock().fetch_add(1, std::memory_order_acq_rel);
      HtmStamped = true;
    }
    return HtmStampVal;
  }

  unsigned Depth = 0;
  uint64_t ReadVersion = 0;
  stm::TxConfig ActiveConfig;
  WriteSet Writes;
  ChunkedVector<VersionedLock *> ReadSet;
  ChunkedVector<AllocRecord> Allocs;
  std::vector<VersionedLock *> LockOrder;  // scratch for commit
  std::vector<uint64_t> SavedVersions;     // pre-lock versions, commit scratch
  stm::TxStats Stats;
  obs::TxObs Obs;
  txn::CmTxState CmState;
  bool HtmMode = false;
  bool HtmStamped = false;
  uint64_t HtmStampVal = 0;

  /// Cached per-thread pin handle (same rationale as stm::TxManager).
  gc::EpochManager::ThreadPin EPin = gc::EpochManager::global().threadPin();
};

/// Binds txn::RetryExecutor to the word STM: WAbort is the abort protocol,
/// read/write barriers are the karma work measure. Policy knobs are shared
/// with the object STM through the process-wide TxConfig.
struct WstmRetryAdapter {
  using Manager = WTxManager;

  static Manager &manager() { return WTxManager::current(); }
  static bool inTx(Manager &Tx) { return Tx.inTx(); }
  static void noteSubsumed(Manager &Tx) { ++Tx.stats().SubsumedTx; }
  static void begin(Manager &Tx, bool /*Snapshot: never requested*/) {
    Tx.begin();
  }

  /// Word-STM calls are never scheduled, so \p Footprint is always null.
  template <typename FnType>
  static txn::AttemptOutcome attempt(Manager &Tx, FnType &Fn,
                                     txn::TxSummary * /*Footprint*/) {
    try {
      Fn(Tx);
      if (Tx.tryCommit())
        return txn::AttemptOutcome::Committed;
      return txn::AttemptOutcome::RetryAbort;
    } catch (const WAbort &) {
      Tx.rollbackAttempt(obs::AuxCauseValidation);
      return txn::AttemptOutcome::RetryAbort;
    } catch (...) {
      Tx.rollbackAttempt(obs::AuxCauseUser);
      throw;
    }
  }

  static uint64_t opCount(Manager &Tx) {
    const stm::TxStats &S = Tx.stats();
    return S.OpensForRead + S.OpensForUpdate;
  }
  static uint32_t siteId(Manager &Tx) { return Tx.siteId(); }
  static txn::CmTxState &cmState(Manager &Tx) { return Tx.cmState(); }
  static txn::CmPolicy policy() {
    return stm::TxManager::config().ContentionPolicy;
  }
  static unsigned fallbackAfter() {
    return stm::TxManager::config().SerialFallbackAfter;
  }
  static uint64_t seedMix() { return 0x2545f4914f6cdd1dULL; }
  static obs::Histogram *backoffHistogram(Manager &Tx) {
    return &Tx.stats().PhaseBackoffCycles;
  }

  // Hardware rung (DESIGN.md §3.12); same shape as StmRetryAdapter's.
  static unsigned htmAttempts() {
    return stm::TxManager::config().HtmAttempts;
  }
  static void htmPrepare(Manager &Tx) { Tx.htmPrepare(); }
  static void htmEnter(Manager &Tx) { Tx.htmEnter(); }
  static void htmCommit(Manager &Tx) { Tx.htmCommit(); }
  static void htmAbortReset(Manager &Tx) { Tx.htmAbortReset(); }
  static void htmUnpin(Manager &Tx) { Tx.htmUnpin(); }
  static void htmUserAbort(Manager &Tx) { Tx.htmNoteUserAbort(); }
};

/// Public entry point mirroring stm::Stm::atomic for the baseline STM:
/// runs \p Fn with automatic retry and returns its result.
class WordStm {
public:
  template <typename FnType> static auto atomic(FnType &&Fn) {
    return txn::RetryExecutor<WstmRetryAdapter>::atomic(
        std::forward<FnType>(Fn));
  }
};

} // namespace wstm
} // namespace otm

#endif // OTM_WSTM_WORDSTM_H
