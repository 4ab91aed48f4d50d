//===- wstm/WordStm.cpp - TL2-style word-based STM -----------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "wstm/WordStm.h"

#include "obs/PhaseProfile.h"
#include "support/Compiler.h"

#include <algorithm>

using namespace otm;
using namespace otm::wstm;

constinit thread_local WTxManager *otm::wstm::detail::CurrentWTxPtr = nullptr;

WTxManager &WTxManager::currentSlow() {
  // Leaked per-thread descriptor (same rationale as stm::TxManager).
  WTxManager *Tx = new WTxManager();
  Tx->Obs.attachThread();
  detail::CurrentWTxPtr = Tx;
  return *Tx;
}

std::atomic<uint64_t> &WTxManager::clock() {
  // Every writer commit RMWs the clock: it owns its cache line.
  constinit static support::CacheAligned<std::atomic<uint64_t>> Clock{0};
  return Clock.Value;
}

bool WTxManager::tryCommit() {
  assert(inTx() && "tryCommit outside transaction");
  if (Depth > 1) {
    --Depth;
    return true;
  }

  // Read-only fast path: every read was validated against ReadVersion when
  // it happened, so the snapshot is already consistent. Deferred frees
  // still take effect — a committed transaction may delete without writing.
  if (Writes.empty()) {
    Allocs.forEach([](AllocRecord &R) {
      if (R.FreeOnCommit)
        gc::EpochManager::global().retire(R.Raw, R.Destroy);
    });
    ++Stats.Commits;
    Obs.onCommit(obs::AuxWordStm, Stats.CommitTscCycles,
                 Stats.RetriesPerCommit);
    finish();
    return true;
  }

  // Phase 1: lock the write set. Stripes are deduplicated and locked in
  // table order, which makes the locking phase deadlock-free.
  LockOrder.clear();
  Writes.forEach([&](WriteSet::Entry &E) {
    LockOrder.push_back(&LockTable::global().lockFor(E.Addr));
  });
  std::sort(LockOrder.begin(), LockOrder.end());
  LockOrder.erase(std::unique(LockOrder.begin(), LockOrder.end()),
                  LockOrder.end());

  uintptr_t OwnerTag = reinterpret_cast<uintptr_t>(this) & ~uintptr_t(1);
  std::size_t Acquired = 0;
  {
    // CommitLock covers the whole acquisition loop, stripe waits included;
    // an abort inside the loop records the partial scope on the way out.
    obs::PhaseScope LockPh(Obs.Sampling, &Stats.PhaseCommitLockCycles);
    for (VersionedLock *Lock : LockOrder) {
      uint64_t Saved;
      // Stripe-lock arbitration is the object STM's: one ConflictWait per
      // stripe, one contention-manager decision per round.
      txn::ConflictWait Wait(ActiveConfig.ContentionPolicy, CmState,
                             txn::ConflictWait::Ownership);
      while (!Lock->tryLock(Saved, OwnerTag)) {
        uint64_t W = Lock->load();
        if (!VersionedLock::isLocked(W))
          continue; // the CAS lost a race but the stripe is free: no conflict
        if (Wait.waitRound(
                reinterpret_cast<WTxManager *>(W & ~uint64_t(1))->CmState))
          continue;
        unlockFirstN(Acquired);
        ++Stats.AbortsOnConflict;
        obs::AbortSites::instance().record(Lock, obs::AbortCause::Conflict,
                                           ownerSiteOf(Lock->load()), siteId());
        rollbackAttempt(obs::AuxCauseConflict);
        return false;
      }
      // Saved is already a decoded version number (tryLock strips the lock
      // encoding). This pre-lock check is the only witness of commits that
      // happened to this stripe while we slept: once we own the lock, the
      // read-set validation below exempts self-owned stripes.
      if (Saved > ReadVersion) {
        Lock->unlockToVersion(Saved);
        unlockFirstN(Acquired);
        ++Stats.AbortsOnValidation;
        obs::AbortSites::instance().record(Lock, obs::AbortCause::Validation, 0,
                                           siteId());
        rollbackAttempt(obs::AuxCauseValidation);
        return false;
      }
      SavedVersions.push_back(Saved);
      ++Acquired;
    }
  }

  // Phase 2: advance the clock and validate the read set.
  uint64_t WriteVersion = clock().fetch_add(1, std::memory_order_acq_rel) + 1;
  if (WriteVersion != ReadVersion + 1) { // else nothing else committed
    obs::PhaseScope ValidatePh(Obs.Sampling, &Stats.PhaseValidateCycles);
    bool Valid = true;
    VersionedLock *FirstBad = nullptr;
    uint64_t FirstBadWord = 0;
    ReadSet.forEach([&](VersionedLock *Lock) {
      uint64_t W = Lock->load();
      bool Ok = true;
      if (VersionedLock::isLocked(W)) {
        // Locked by us is fine (we hold write locks); by others is not.
        if ((W & ~uint64_t(1)) != OwnerTag)
          Ok = false;
      } else if (VersionedLock::versionOf(W) > ReadVersion) {
        Ok = false;
      }
      if (!Ok && Valid) {
        Valid = false;
        FirstBad = Lock;
        FirstBadWord = W;
      }
    });
    if (!Valid) {
      for (std::size_t I = 0; I < Acquired; ++I)
        LockOrder[I]->unlockToVersion(SavedVersions[I]);
      SavedVersions.clear();
      ++Stats.AbortsOnValidation;
      obs::AbortSites::instance().record(FirstBad, obs::AbortCause::Validation,
                                         ownerSiteOf(FirstBadWord), siteId());
      rollbackAttempt(obs::AuxCauseValidation);
      return false;
    }
  }

  // Phase 3: write back and release with the new version.
  {
    obs::PhaseScope WriteBackPh(Obs.Sampling, &Stats.PhaseWriteBackCycles);
    Writes.applyAll();
    for (VersionedLock *Lock : LockOrder)
      Lock->unlockToVersion(WriteVersion);
  }
  SavedVersions.clear();

  Allocs.forEach([](AllocRecord &R) {
    if (R.FreeOnCommit)
      gc::EpochManager::global().retire(R.Raw, R.Destroy);
  });
  ++Stats.Commits;
  Obs.onCommit(obs::AuxWordStm, Stats.CommitTscCycles, Stats.RetriesPerCommit);
  finish();
  return true;
}

void WTxManager::rollbackAttempt(uint16_t AuxCause) {
  assert(inTx() && "rollbackAttempt outside transaction");
  // Writes were buffered, so memory is untouched; just drop the logs and
  // free this attempt's allocations.
  Allocs.forEach([](AllocRecord &R) {
    if (!R.FreeOnCommit)
      gc::EpochManager::global().retire(R.Raw, R.Destroy);
  });
  ++Stats.Aborts;
  Obs.onAbort(AuxCause, obs::AuxWordStm);
  finish();
}

void WTxManager::unlockFirstN(std::size_t N) {
  for (std::size_t I = 0; I < N; ++I)
    LockOrder[I]->unlockToVersion(SavedVersions[I]);
  SavedVersions.clear();
}

void WTxManager::finish() {
  Writes.clear();
  ReadSet.clear();
  Allocs.clear();
  LockOrder.clear();
  Depth = 0;
  EPin.unpin();
}
