//===- txn/ContentionManager.cpp - Pluggable conflict policies ------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "txn/ContentionManager.h"

#include "support/Compiler.h"
#include "txn/CmStats.h"

#include <cstdlib>
#include <cstring>
#include <thread>

using namespace otm;
using namespace otm::txn;

namespace {

/// passive — the attacker never waits at a conflict and retries without
/// pacing. Pure optimism: progress comes from the retry loop (and, under
/// pathological contention, from the serial fallback).
class PassiveCm final : public ContentionManager {
public:
  CmPolicy kind() const override { return CmPolicy::Passive; }
  const char *name() const override { return "passive"; }

  ConflictChoice onConflict(const CmTxState &, const CmTxState &, unsigned,
                            unsigned) const override {
    return ConflictChoice::AbortSelf;
  }

  bool pauseAfterAbort(unsigned, Backoff &) const override { return false; }
};

/// backoff — the pre-refactor heuristic: spin at the conflict up to the
/// configured budget, randomized exponential backoff between attempts.
class BackoffCm final : public ContentionManager {
public:
  CmPolicy kind() const override { return CmPolicy::Backoff; }
  const char *name() const override { return "backoff"; }

  ConflictChoice onConflict(const CmTxState &, const CmTxState &,
                            unsigned Round,
                            unsigned BudgetRounds) const override {
    return Round < BudgetRounds ? ConflictChoice::Wait
                                : ConflictChoice::AbortSelf;
  }

  bool pauseAfterAbort(unsigned, Backoff &B) const override {
    B.pause();
    return true;
  }
};

/// karma — priority is the work (opens + undo logs) a transaction has
/// invested across all its attempts. A richer attacker outwaits the owner
/// (it has more to lose) up to an extended budget; a poorer one yields
/// immediately — a *priority* abort. Repeated losers accrue karma with
/// every attempt, so starvation self-corrects before the serial fallback
/// has to step in.
class KarmaCm final : public ContentionManager {
public:
  CmPolicy kind() const override { return CmPolicy::Karma; }
  const char *name() const override { return "karma"; }

  ConflictChoice onConflict(const CmTxState &Us, const CmTxState &Owner,
                            unsigned Round,
                            unsigned BudgetRounds) const override {
    if (Us.priority() >= Owner.priority())
      return Round < PatienceFactor * BudgetRounds
                 ? ConflictChoice::Wait
                 : ConflictChoice::AbortSelf;
    return ConflictChoice::AbortSelfPriority;
  }

  bool pauseAfterAbort(unsigned, Backoff &B) const override {
    B.pause();
    return true;
  }

private:
  static constexpr unsigned PatienceFactor = 8;
};

/// greedy — timestamp order: the oldest transaction wins. An older
/// attacker outwaits the owner; a younger one yields at once and retries
/// after a pause (by which time the elder has usually finished). Owners
/// without a stamp (transactions begun outside the retry layer) are
/// treated as unknown and outwaited like backoff.
class GreedyCm final : public ContentionManager {
public:
  GreedyCm() : ContentionManager(/*NeedsStamp=*/true) {}

  CmPolicy kind() const override { return CmPolicy::TimestampGreedy; }
  const char *name() const override { return "greedy"; }

  ConflictChoice onConflict(const CmTxState &Us, const CmTxState &Owner,
                            unsigned Round,
                            unsigned BudgetRounds) const override {
    uint64_t OwnerStamp = Owner.stamp();
    uint64_t UsStamp = Us.stamp();
    if (UsStamp != 0 && OwnerStamp != 0 && UsStamp > OwnerStamp)
      return ConflictChoice::AbortSelfPriority; // younger yields to elder
    return Round < PatienceFactor * BudgetRounds ? ConflictChoice::Wait
                                                 : ConflictChoice::AbortSelf;
  }

  bool pauseAfterAbort(unsigned, Backoff &B) const override {
    B.pause();
    return true;
  }

private:
  static constexpr unsigned PatienceFactor = 8;
};

// Singleton instances behind the inline managerFor table. Namespace-scope
// (not function-local statics) so the table lookup carries no init guard.
const PassiveCm PassiveInst;
const BackoffCm BackoffInst;
const KarmaCm KarmaInst;
const GreedyCm GreedyInst;

} // namespace

const ContentionManager *const otm::txn::detail::CmTable[NumCmPolicies] = {
    &PassiveInst, &BackoffInst, &KarmaInst, &GreedyInst};

void ConflictWait::pause() {
  for (unsigned Spin = 0; Spin < RoundSpins - 1; ++Spin)
    cpuRelax();
  std::this_thread::yield(); // crucial on oversubscribed machines
  ++Rounds;
}

bool ConflictWait::waitRound(const CmTxState &Owner) {
  CmStats &Stats = CmStats::instance();
  if (K == Semantic && Rounds == 0)
    Stats.bumpSemanticWaits();
  ConflictChoice Choice = CM.onConflict(Us, Owner, Rounds, BudgetRounds);
  if (Choice == ConflictChoice::Wait) {
    if (K == Ownership && Rounds == 0)
      Stats.bumpConflictWaits();
    pause();
    return true;
  }
  if (Choice == ConflictChoice::AbortSelfPriority)
    K == Semantic ? Stats.bumpSemanticPriorityAborts()
                  : Stats.bumpPriorityAborts();
  return false;
}

bool ConflictWait::waitRound() {
  if (Rounds >= BudgetRounds)
    return false;
  pause();
  return true;
}

const char *otm::txn::policyName(CmPolicy P) {
  return managerFor(P).name();
}

bool otm::txn::parsePolicy(const char *Name, CmPolicy &Out) {
  if (!Name)
    return false;
  for (unsigned I = 0; I < NumCmPolicies; ++I) {
    CmPolicy P = static_cast<CmPolicy>(I);
    if (std::strcmp(Name, policyName(P)) == 0) {
      Out = P;
      return true;
    }
  }
  return false;
}

CmPolicy otm::txn::policyFromEnv(CmPolicy Fallback) {
  CmPolicy P = Fallback;
  parsePolicy(std::getenv("OTM_CM"), P);
  return P;
}

uint64_t otm::txn::nextArrivalStamp() {
  // Every greedy-CM transaction RMWs this clock: it owns its cache line.
  constinit static support::CacheAligned<std::atomic<uint64_t>> Clock{0};
  return Clock.Value.fetch_add(1, std::memory_order_relaxed) + 1;
}
