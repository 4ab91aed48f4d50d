//===- txn/ContentionManager.h - Pluggable conflict policies ---*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contention-management layer: *what happens on conflict* is a policy,
/// not a hard-coded heuristic. A policy is one row of CmRules; both STMs
/// consult it at their two decision points:
///
///   - onConflict: attacker-side arbitration while another transaction owns
///     the resource we want — keep waiting for the owner, or abort
///     ourselves (a *priority* abort when the row's yield rule ranked the
///     owner above us, rather than a timeout);
///   - pauseAfterAbort: inter-attempt pacing inside the retry loop.
///
/// Four policies ship (selected per-process via TxConfig or the OTM_CM
/// environment variable):
///
///   - passive: never waits, never pauses — maximal optimism, relies on
///     the retry loop for progress;
///   - backoff: the pre-refactor behaviour — bounded wait at the conflict,
///     randomized exponential backoff between attempts;
///   - karma: priority accrues with work done (opens + undo logs) across
///     the attempts of one transaction; richer attackers wait 8x longer,
///     poorer ones yield at once (adapted to this STM: we cannot abort the
///     *owner* remotely, so losing means aborting ourselves), so repeated
///     losers gain priority before the serial fallback has to step in;
///   - greedy: timestamp order — the oldest transaction wins: an older
///     attacker outwaits the owner 8x longer, a younger one yields at once.
///
/// This library sits below both STMs (it depends only on support + obs), so
/// the per-transaction arbitration state (CmTxState) is defined here and
/// embedded by each transaction-manager type.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_TXN_CONTENTIONMANAGER_H
#define OTM_TXN_CONTENTIONMANAGER_H

#include "support/Backoff.h"

#include <atomic>
#include <cstdint>

namespace otm {
namespace txn {

/// Identifies a contention-management policy.
enum class CmPolicy : uint8_t {
  Passive = 0,
  Backoff = 1,
  Karma = 2,
  TimestampGreedy = 3,
};

inline constexpr unsigned NumCmPolicies = 4;

/// Per-transaction arbitration state. Embedded in each transaction manager
/// so an attacker can inspect the *owner's* priority/age across threads;
/// all fields are relaxed atomics (arbitration tolerates staleness — a
/// wrong decision costs a wasted wait or an extra retry, never safety).
class CmTxState {
public:
  /// Called by the retry layer when a new top-level transaction starts.
  /// \p NewStamp is the global arrival stamp (0 when the policy does not
  /// need one); priority restarts from zero.
  void beginTransaction(uint64_t NewStamp) {
    Stamp.store(NewStamp, std::memory_order_relaxed);
    Priority.store(0, std::memory_order_relaxed);
  }

  /// Arrival stamp of the current transaction (0 = unknown/none).
  uint64_t stamp() const { return Stamp.load(std::memory_order_relaxed); }

  /// Karma accrued by this transaction so far.
  uint64_t priority() const {
    return Priority.load(std::memory_order_relaxed);
  }

  /// Accrues \p Work units of karma (only this thread writes; attackers
  /// read concurrently).
  void addPriority(uint64_t Work) {
    Priority.store(Priority.load(std::memory_order_relaxed) + Work,
                   std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> Stamp{0};
  std::atomic<uint64_t> Priority{0};
};

/// Attacker-side arbitration outcome for one wait round.
enum class ConflictChoice : uint8_t {
  Wait,              ///< keep waiting for the owner to release
  AbortSelf,         ///< give up (wait budget exhausted)
  AbortSelfPriority, ///< yield because the policy ranked the owner above us
};

/// What a policy does, as one row of CmRules. onConflict applies the same
/// rule to every row: an attacker the row's yield rule ranks below the
/// owner aborts at once (a priority abort); any other attacker waits
/// WaitFactor times the caller's budget, then aborts on timeout.
struct CmRule {
  /// Which attacker yields to the owner before any wait.
  enum Yield : uint8_t {
    Never,   ///< no priority rule
    Poorer,  ///< less karma (opens + undo logs across attempts) than the owner
    Younger, ///< a later arrival stamp than the owner; an unstamped owner
             ///< (begun outside the retry layer) is simply waited on
  };

  const char *Name;
  unsigned WaitFactor; ///< wait budget as a multiple of the base; 0 = none
  Yield YieldRule;
  bool Pauses; ///< randomized exponential backoff between attempts
};

/// One row per CmPolicy, in enum order.
inline constexpr CmRule CmRules[NumCmPolicies] = {
    {"passive", 0, CmRule::Never, false},
    {"backoff", 1, CmRule::Never, true},
    {"karma", 8, CmRule::Poorer, true},
    {"greedy", 8, CmRule::Younger, true},
};

inline const CmRule &ruleFor(CmPolicy P) {
  return CmRules[static_cast<unsigned>(P)];
}

/// Arbitrates one wait round of an open/lock conflict under \p P. \p Round
/// counts completed wait rounds on this conflict (see ConflictWait);
/// \p BudgetRounds is the base wait budget in rounds.
ConflictChoice onConflict(CmPolicy P, const CmTxState &Us,
                          const CmTxState &Owner, unsigned Round,
                          unsigned BudgetRounds);

/// True when \p P paces the retry loop between attempts.
inline bool pausesAfterAbort(CmPolicy P) { return ruleFor(P).Pauses; }

/// True when \p P needs a global arrival stamp per transaction. Asked once
/// per transaction by the retry layer, on the hot path.
inline bool needsArrivalStamp(CmPolicy P) {
  return ruleFor(P).YieldRule == CmRule::Younger;
}

/// Inter-attempt pacing after an aborted attempt. Returns true if \p P
/// actually paused (for statistics).
inline bool pauseAfterAbort(CmPolicy P, Backoff &B) {
  if (!pausesAfterAbort(P))
    return false;
  B.pause();
  return true;
}

/// The one conflict-wait loop: an attacker's wait on one held resource (an
/// object or stripe owner, an abstract key lock, a structural gate). Each
/// round consults the policy once and, if it says wait, spins
/// RoundSpins - 1 times and yields once. Callers retry the resource between
/// rounds and keep what differs: their per-thread stats, the abort-site key
/// and rollback. Slow path only, so the rounds run out of line.
class ConflictWait {
public:
  /// Which CmStats family a conflict counts in.
  enum Kind : uint8_t {
    Ownership, ///< object or stripe owner: ConflictWaits, PriorityAborts
    Semantic,  ///< abstract lock or gate: SemanticWaits, SemanticPriorityAborts
  };

  static constexpr unsigned RoundSpins = 32;
  /// Rounds the backoff policy waits (karma and greedy scale it).
  static constexpr unsigned BudgetRounds = 4;

  ConflictWait(CmPolicy P, const CmTxState &Us, Kind K)
      : P(P), Us(Us), K(K) {}

  /// Arbitrates one round against \p Owner: true after waiting it out
  /// (retry the resource), false when the attacker must abort. Counts a
  /// ConflictWait (Ownership) or SemanticWait (Semantic) the first time
  /// the policy waits on this conflict.
  bool waitRound(const CmTxState &Owner);

  /// A round with no single owner to arbitrate with: waits while
  /// min(policy wait budget, BudgetRounds) lasts — so passive never waits
  /// — ranks no one and counts nothing.
  bool waitRound();

  /// Rounds waited so far on this conflict.
  unsigned rounds() const { return Rounds; }

private:
  void pause();

  const CmPolicy P;
  const CmTxState &Us;
  unsigned Rounds = 0;
  const Kind K;
};

/// Short lowercase name ("passive", "backoff", "karma", "greedy").
const char *policyName(CmPolicy P);

/// Parses a policy name (the OTM_CM values); returns false on unknown.
bool parsePolicy(const char *Name, CmPolicy &Out);

/// Reads OTM_CM from the environment; \p Fallback when unset/unknown.
CmPolicy policyFromEnv(CmPolicy Fallback);

/// Next value of the global transaction arrival clock (1-based; 0 is
/// reserved for "no stamp"). Only taken when the policy asks for stamps.
uint64_t nextArrivalStamp();

} // namespace txn
} // namespace otm

#endif // OTM_TXN_CONTENTIONMANAGER_H
