//===- tests/ConflictWaitTest.cpp - Wait-then-abort on every conflict ----===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives each place an attacker can find a resource held by another
/// transaction, on purpose and deterministically: the object owner
/// (openForUpdate/openForRead), the boosted key lock, the structural gate
/// claim, the structural drain and the word-STM commit stripe. A second
/// thread takes the resource inside a transaction and parks there on a
/// flag; the test thread drives the attacker's manager directly and checks
/// that it gives up with a conflict abort, and which contention counters
/// that cost:
///
///   - passive aborts at the first arbitration;
///   - backoff waits the round budget out, then aborts on timeout;
///   - karma, attacking an owner with as much karma, waits 8x the budget
///     out, then aborts on timeout;
///   - greedy, attacking an elder owner, yields at once on priority.
///
/// The structural drain has no single owner to rank, so it waits the
/// policy's budget capped at the base one: passive aborts at once, the
/// others after 4 rounds. Each case pins the attacker's AbortsOnConflict
/// and BoostLockWaits and the process-wide ConflictWaits, SemanticWaits,
/// PriorityAborts and SemanticPriorityAborts.
///
//===----------------------------------------------------------------------===//

#include "stm/Stm.h"
#include "txn/AbstractLockTable.h"
#include "txn/CmStats.h"
#include "txn/ContentionManager.h"
#include "wstm/WordStm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <ostream>
#include <thread>

using namespace otm;
using otm::stm::AbortTx;
using otm::stm::TxManager;
using otm::txn::CmPolicy;
using otm::wstm::WTxManager;

namespace otm {
namespace txn {
/// Prints a policy by name, so parameterized cases read /passive etc.
void PrintTo(CmPolicy P, std::ostream *OS) { *OS << policyName(P); }
} // namespace txn
} // namespace otm

namespace {

struct ConfigGuard {
  ConfigGuard() : Saved(TxManager::config()) {}
  ~ConfigGuard() { TxManager::config() = Saved; }
  stm::TxConfig Saved;
};

/// A second thread that takes a resource inside a transaction and parks
/// there until this object is destroyed. The body calls park() once it
/// holds the resource; the constructor returns only after that.
class ParkedHolder {
public:
  template <typename FnType>
  explicit ParkedHolder(FnType Body) : Thread([this, Body] { Body(*this); }) {
    while (!Holding.load(std::memory_order_acquire))
      std::this_thread::yield();
  }

  ~ParkedHolder() {
    Release.store(true, std::memory_order_release);
    Thread.join();
  }

  void park() {
    Holding.store(true, std::memory_order_release);
    while (!Release.load(std::memory_order_acquire))
      std::this_thread::yield();
  }

private:
  std::atomic<bool> Holding{false};
  std::atomic<bool> Release{false};
  std::thread Thread;
};

/// The counters one lost conflict may move.
struct Counts {
  uint64_t AbortsOnConflict = 0;
  uint64_t BoostLockWaits = 0;
  uint64_t ConflictWaits = 0;
  uint64_t SemanticWaits = 0;
  uint64_t PriorityAborts = 0;
  uint64_t SemanticPriorityAborts = 0;

  bool operator==(const Counts &O) const {
    return AbortsOnConflict == O.AbortsOnConflict &&
           BoostLockWaits == O.BoostLockWaits &&
           ConflictWaits == O.ConflictWaits &&
           SemanticWaits == O.SemanticWaits &&
           PriorityAborts == O.PriorityAborts &&
           SemanticPriorityAborts == O.SemanticPriorityAborts;
  }

  friend void PrintTo(const Counts &C, std::ostream *OS) {
    *OS << "{AbortsOnConflict=" << C.AbortsOnConflict
        << " BoostLockWaits=" << C.BoostLockWaits
        << " ConflictWaits=" << C.ConflictWaits
        << " SemanticWaits=" << C.SemanticWaits
        << " PriorityAborts=" << C.PriorityAborts
        << " SemanticPriorityAborts=" << C.SemanticPriorityAborts << "}";
  }
};

/// Attacker-thread stats plus the process-wide CM counters, right now.
Counts sample(const stm::TxStats &S) {
  txn::CmStatsSnapshot Cm = txn::CmStats::instance().snapshot();
  Counts C;
  C.AbortsOnConflict = S.AbortsOnConflict;
  C.BoostLockWaits = S.BoostLockWaits;
  C.ConflictWaits = Cm.ConflictWaits;
  C.SemanticWaits = Cm.SemanticWaits;
  C.PriorityAborts = Cm.PriorityAborts;
  C.SemanticPriorityAborts = Cm.SemanticPriorityAborts;
  return C;
}

Counts operator-(const Counts &A, const Counts &B) {
  Counts D;
  D.AbortsOnConflict = A.AbortsOnConflict - B.AbortsOnConflict;
  D.BoostLockWaits = A.BoostLockWaits - B.BoostLockWaits;
  D.ConflictWaits = A.ConflictWaits - B.ConflictWaits;
  D.SemanticWaits = A.SemanticWaits - B.SemanticWaits;
  D.PriorityAborts = A.PriorityAborts - B.PriorityAborts;
  D.SemanticPriorityAborts = A.SemanticPriorityAborts - B.SemanticPriorityAborts;
  return D;
}

/// Begins a writer transaction on \p Tx with a fresh arrival stamp, so a
/// holder begun earlier is the elder under greedy.
template <typename ManagerType> void beginStamped(ManagerType &Tx) {
  Tx.begin();
  Tx.cmState().beginTransaction(txn::nextArrivalStamp());
}

/// Runs \p Attack in a fresh transaction on this thread's TxManager and
/// expects it to abort on a conflict. Returns the counter deltas.
template <typename FnType> Counts attackExpectingConflict(FnType Attack) {
  TxManager &Tx = TxManager::current();
  Counts Before = sample(Tx.stats());
  beginStamped(Tx);
  try {
    Attack(Tx);
    ADD_FAILURE() << "the attacker got past a held resource";
    Tx.tryCommit();
  } catch (const AbortTx &E) {
    EXPECT_EQ(E.Why, AbortTx::Cause::Conflict);
    Tx.rollbackAttempt(E.Why);
  }
  EXPECT_FALSE(Tx.inTx());
  return sample(Tx.stats()) - Before;
}

struct Obj : stm::TxObject {
  stm::Field<int64_t> Value;
};

class ConflictWaitPaths : public ::testing::TestWithParam<CmPolicy> {
protected:
  void SetUp() override { TxManager::config().ContentionPolicy = GetParam(); }

  /// True when the policy waits on this owner: backoff and karma (the
  /// owner has no more karma than the attacker) do, passive never does,
  /// greedy yields to the elder owner at once.
  bool waits() const {
    return GetParam() == CmPolicy::Backoff || GetParam() == CmPolicy::Karma;
  }

  /// Expected deltas of an object-owner or stripe conflict: a waiting
  /// policy counts one ConflictWait per conflict, greedy loses on priority.
  Counts ownership(uint64_t Conflicts) const {
    Counts C;
    C.AbortsOnConflict = Conflicts;
    if (waits())
      C.ConflictWaits = Conflicts;
    if (GetParam() == CmPolicy::TimestampGreedy)
      C.PriorityAborts = Conflicts;
    return C;
  }

  /// Expected deltas of a key-lock or gate-claim conflict: counted as an
  /// ownership conflict is, in the semantic counters, plus one
  /// BoostLockWait per conflict whatever the policy decides.
  Counts semantic() const {
    Counts C;
    C.AbortsOnConflict = 1;
    C.BoostLockWaits = 1;
    if (waits())
      C.SemanticWaits = 1;
    if (GetParam() == CmPolicy::TimestampGreedy)
      C.SemanticPriorityAborts = 1;
    return C;
  }

  ConfigGuard Guard;
};

INSTANTIATE_TEST_SUITE_P(Policies, ConflictWaitPaths,
                         ::testing::Values(CmPolicy::Passive,
                                           CmPolicy::Backoff, CmPolicy::Karma,
                                           CmPolicy::TimestampGreedy));

} // namespace

TEST_P(ConflictWaitPaths, ObjectOwner) {
  Obj O;
  ParkedHolder Owner([&](ParkedHolder &P) {
    TxManager &Tx = TxManager::current();
    beginStamped(Tx);
    Tx.openForUpdate(&O);
    Tx.logUndo(&O.Value);
    O.Value.store(1);
    P.park();
    EXPECT_TRUE(Tx.tryCommit());
  });
  EXPECT_EQ(attackExpectingConflict([&](TxManager &Tx) {
              Tx.openForUpdate(&O);
            }),
            ownership(1));
  EXPECT_EQ(attackExpectingConflict([&](TxManager &Tx) {
              Tx.openForRead(&O);
            }),
            ownership(1));
}

TEST_P(ConflictWaitPaths, BoostedKeyLock) {
  const uint64_t Id = txn::AbstractLockTable::nextContainerId();
  ParkedHolder Owner([&](ParkedHolder &P) {
    TxManager &Tx = TxManager::current();
    beginStamped(Tx);
    Tx.boostAcquireKey(Id, 7);
    P.park();
    EXPECT_TRUE(Tx.tryCommit());
  });
  EXPECT_EQ(attackExpectingConflict([&](TxManager &Tx) {
              Tx.boostAcquireKey(Id, 7);
            }),
            semantic());
  EXPECT_EQ(TxManager::current().boostLockCountForTesting(), 0u);
}

TEST_P(ConflictWaitPaths, KeyLockBehindStructuralGate) {
  const uint64_t Id = txn::AbstractLockTable::nextContainerId();
  ParkedHolder Owner([&](ParkedHolder &P) {
    TxManager &Tx = TxManager::current();
    beginStamped(Tx);
    Tx.boostAcquireStructural(Id);
    P.park();
    EXPECT_TRUE(Tx.tryCommit());
  });
  EXPECT_EQ(attackExpectingConflict([&](TxManager &Tx) {
              Tx.boostAcquireKey(Id, 7);
            }),
            semantic());
}

TEST_P(ConflictWaitPaths, StructuralGateClaim) {
  const uint64_t Id = txn::AbstractLockTable::nextContainerId();
  ParkedHolder Owner([&](ParkedHolder &P) {
    TxManager &Tx = TxManager::current();
    beginStamped(Tx);
    Tx.boostAcquireStructural(Id);
    P.park();
    EXPECT_TRUE(Tx.tryCommit());
  });
  EXPECT_EQ(attackExpectingConflict([&](TxManager &Tx) {
              Tx.boostAcquireStructural(Id);
            }),
            semantic());
}

TEST_P(ConflictWaitPaths, StructuralDrain) {
  const uint64_t Id = txn::AbstractLockTable::nextContainerId();
  ParkedHolder Owner([&](ParkedHolder &P) {
    TxManager &Tx = TxManager::current();
    beginStamped(Tx);
    Tx.boostAcquireKey(Id, 7);
    P.park();
    EXPECT_TRUE(Tx.tryCommit());
  });
  const uint64_t FallbacksBefore =
      TxManager::current().stats().BoostStructuralFallbacks;
  // The gate claim succeeds; the foreign key lock never drains. No one is
  // ranked: passive aborts at once, the others wait the budget out and
  // abort; nothing counts as a wait.
  Counts Drain;
  Drain.AbortsOnConflict = 1;
  EXPECT_EQ(attackExpectingConflict([&](TxManager &Tx) {
              Tx.boostAcquireStructural(Id);
            }),
            Drain);
  EXPECT_EQ(TxManager::current().stats().BoostStructuralFallbacks -
                FallbacksBefore,
            1u);
  // Rollback released the claimed gate: a key under it is free again for
  // anyone but the parked holder's own key.
  TxManager &Tx = TxManager::current();
  Tx.begin();
  Tx.boostAcquireKey(Id, 8);
  EXPECT_EQ(Tx.boostLockCountForTesting(), 1u);
  EXPECT_TRUE(Tx.tryCommit());
}

TEST_P(ConflictWaitPaths, WordStmStripe) {
  wstm::WCell<int64_t> Cell(0);
  wstm::VersionedLock &Lock = wstm::LockTable::global().lockFor(&Cell);
  ParkedHolder Owner([&](ParkedHolder &P) {
    // A word-STM transaction holds stripes only inside its commit; the
    // holder takes the stripe with its own owner tag, as commit does.
    WTxManager &Tx = WTxManager::current();
    beginStamped(Tx);
    uint64_t Saved = 0;
    EXPECT_TRUE(Lock.tryLock(Saved, reinterpret_cast<uintptr_t>(&Tx)));
    P.park();
    Lock.unlockToVersion(Saved);
    EXPECT_TRUE(Tx.tryCommit());
  });
  WTxManager &Tx = WTxManager::current();
  Counts Before = sample(Tx.stats());
  beginStamped(Tx);
  Tx.write(Cell, int64_t{1});
  EXPECT_FALSE(Tx.tryCommit());
  EXPECT_FALSE(Tx.inTx());
  EXPECT_EQ(sample(Tx.stats()) - Before, ownership(1));
  EXPECT_EQ(Cell.load(), 0);
}

/// A commit whose stripe CAS loses a race to another locker finds the
/// stripe free again when it reloads: that is no conflict, so it retries
/// at once — no ConflictWait, no wait round, no abort. The rival here
/// locks and unlocks the stripe in a tight loop without changing its
/// version; under passive every stripe the attacker sees *locked* is an
/// immediate conflict abort, and only a lost race could count a wait.
TEST(ConflictWaitStripeRace, LostCasOnFreeStripeRetriesAtOnce) {
  ConfigGuard Guard;
  TxManager::config().ContentionPolicy = CmPolicy::Passive;
  wstm::WCell<int64_t> Cell(0);
  wstm::VersionedLock &Lock = wstm::LockTable::global().lockFor(&Cell);
  std::atomic<bool> Stop{false};
  std::atomic<bool> Started{false};
  std::thread Rival([&] {
    const uintptr_t Tag = reinterpret_cast<uintptr_t>(&WTxManager::current());
    Started.store(true, std::memory_order_release);
    while (!Stop.load(std::memory_order_relaxed)) {
      uint64_t Saved;
      if (Lock.tryLock(Saved, Tag))
        Lock.unlockToVersion(Saved);
    }
  });
  while (!Started.load(std::memory_order_acquire))
    std::this_thread::yield();

  WTxManager &Tx = WTxManager::current();
  const uint64_t WaitsBefore =
      txn::CmStats::instance().snapshot().ConflictWaits;
  int64_t Committed = 0;
  for (int I = 0; I < 20000; ++I) {
    Tx.begin();
    Tx.write(Cell, Committed + 1);
    if (Tx.tryCommit())
      ++Committed;
  }
  Stop.store(true, std::memory_order_relaxed);
  Rival.join();
  EXPECT_EQ(txn::CmStats::instance().snapshot().ConflictWaits - WaitsBefore,
            0u);
  EXPECT_EQ(Cell.load(), Committed);
}
