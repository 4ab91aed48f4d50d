//===- txn/ContentionManager.cpp - Pluggable conflict policies ------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "txn/ContentionManager.h"

#include "support/Compiler.h"
#include "txn/CmStats.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace otm;
using namespace otm::txn;

ConflictChoice otm::txn::onConflict(CmPolicy P, const CmTxState &Us,
                                    const CmTxState &Owner, unsigned Round,
                                    unsigned BudgetRounds) {
  const CmRule &R = ruleFor(P);
  bool Yields = false;
  switch (R.YieldRule) {
  case CmRule::Never:
    break;
  case CmRule::Poorer:
    Yields = Us.priority() < Owner.priority();
    break;
  case CmRule::Younger: {
    uint64_t UsStamp = Us.stamp(), OwnerStamp = Owner.stamp();
    Yields = UsStamp != 0 && OwnerStamp != 0 && UsStamp > OwnerStamp;
    break;
  }
  }
  if (Yields)
    return ConflictChoice::AbortSelfPriority;
  return Round < R.WaitFactor * BudgetRounds ? ConflictChoice::Wait
                                             : ConflictChoice::AbortSelf;
}

void ConflictWait::pause() {
  for (unsigned Spin = 0; Spin < RoundSpins - 1; ++Spin)
    cpuRelax();
  std::this_thread::yield(); // crucial on oversubscribed machines
  ++Rounds;
}

bool ConflictWait::waitRound(const CmTxState &Owner) {
  CmStats &Stats = CmStats::instance();
  ConflictChoice Choice = onConflict(P, Us, Owner, Rounds, BudgetRounds);
  if (Choice == ConflictChoice::Wait) {
    if (Rounds == 0)
      K == Semantic ? Stats.bumpSemanticWaits() : Stats.bumpConflictWaits();
    pause();
    return true;
  }
  if (Choice == ConflictChoice::AbortSelfPriority)
    K == Semantic ? Stats.bumpSemanticPriorityAborts()
                  : Stats.bumpPriorityAborts();
  return false;
}

bool ConflictWait::waitRound() {
  if (Rounds >= std::min(ruleFor(P).WaitFactor * BudgetRounds, BudgetRounds))
    return false;
  pause();
  return true;
}

const char *otm::txn::policyName(CmPolicy P) { return ruleFor(P).Name; }

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
