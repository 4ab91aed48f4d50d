//===- txn/ContentionManager.h - Pluggable conflict policies ---*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contention-management layer: *what happens on conflict* is a policy,
/// not a hard-coded heuristic. Both STMs and the interpreter consult one
/// ContentionManager at their two decision points:
///
///   - onConflict: attacker-side arbitration while another transaction owns
///     the object/stripe we want — keep waiting for the owner, or abort
///     ourselves (optionally attributed as a *priority* abort when the
///     policy decided we lost the arbitration rather than timed out);
///   - pauseAfterAbort: inter-attempt pacing inside the retry loop.
///
/// Four policies ship (selected per-process via TxConfig or the OTM_CM
/// environment variable):
///
///   - passive: the attacker always yields immediately — minimal waiting,
///     maximal optimism, relies on the retry loop for progress;
///   - backoff: the pre-refactor behaviour — bounded spin at the conflict,
///     randomized exponential backoff between attempts;
///   - karma: priority accrues with work done (opens + undo logs) across
///     the attempts of one transaction; richer transactions wait longer,
///     poorer ones yield to them (adapted to this STM: we cannot abort the
///     *owner* remotely, so losing means aborting ourselves);
///   - greedy: timestamp order — the oldest transaction wins: an older
///     attacker outwaits the owner, a younger one yields at once.
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

/// One contention-management policy. Implementations are stateless
/// process-wide singletons (all per-transaction state lives in CmTxState),
/// so consulting one from any thread is free of synchronization.
class ContentionManager {
public:
  virtual ~ContentionManager() = default;

  /// True when the policy needs a global arrival stamp per transaction.
  /// A plain flag (not a virtual) because the retry layer asks once per
  /// transaction, on the hot path.
  bool needsArrivalStamp() const { return NeedsStamp; }

  virtual CmPolicy kind() const = 0;
  virtual const char *name() const = 0;

  /// Arbitrates one wait round of an open/lock conflict. \p Round counts
  /// completed wait rounds on this conflict (see ConflictWait);
  /// \p BudgetRounds is the base wait budget in rounds.
  virtual ConflictChoice onConflict(const CmTxState &Us,
                                    const CmTxState &Owner, unsigned Round,
                                    unsigned BudgetRounds) const = 0;

  /// Inter-attempt pacing after attempt number \p Attempts aborted.
  /// Returns true if the policy actually paused (for statistics).
  virtual bool pauseAfterAbort(unsigned Attempts, Backoff &B) const = 0;

protected:
  explicit ContentionManager(bool NeedsStamp = false)
      : NeedsStamp(NeedsStamp) {}

private:
  const bool NeedsStamp;
};

namespace detail {
/// Singleton table indexed by CmPolicy (defined in ContentionManager.cpp).
extern const ContentionManager *const CmTable[NumCmPolicies];
} // namespace detail

/// The process-wide singleton implementing \p P. Inline (one indexed load):
/// the retry layer resolves the policy at every top-level transaction.
inline const ContentionManager &managerFor(CmPolicy P) {
  return *detail::CmTable[static_cast<unsigned>(P)];
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
      : CM(managerFor(P)), Us(Us), K(K) {}

  /// Arbitrates one round against \p Owner: true after waiting it out
  /// (retry the resource), false when the attacker must abort. Ownership
  /// counts a ConflictWait the first time the policy waits; Semantic counts
  /// a SemanticWait per conflict, whatever the policy decides.
  bool waitRound(const CmTxState &Owner);

  /// A round with no single owner to arbitrate with: waits while the
  /// budget lasts, consults no policy, counts nothing.
  bool waitRound();

  /// Rounds waited so far on this conflict.
  unsigned rounds() const { return Rounds; }

private:
  void pause();

  const ContentionManager &CM;
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
