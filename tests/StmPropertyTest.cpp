//===- tests/StmPropertyTest.cpp - Parameterized STM properties ----------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property sweeps over the STM configuration space:
///
///   - money conservation under (threads × transaction size × filters);
///   - exact counter totals under every contention-management policy,
///     covering both the wait-out and abort-self contention paths;
///   - Field<T> round-trips for every supported payload type, including
///     undo-restore after aborts.
///
//===----------------------------------------------------------------------===//

#include "stm/Stm.h"

#include "support/Random.h"
#include "support/ThreadBarrier.h"

#include <gtest/gtest.h>

#include <ostream>
#include <thread>
#include <tuple>
#include <vector>

using namespace otm;
using namespace otm::stm;

namespace {

struct Account : TxObject {
  Field<int64_t> Balance;
};

struct ConfigGuard {
  ConfigGuard() : Saved(TxManager::config()) {}
  ~ConfigGuard() { TxManager::config() = Saved; }
  TxConfig Saved;
};

} // namespace

//===----------------------------------------------------------------------===
// Money conservation sweep
//===----------------------------------------------------------------------===

class TransferSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransferSweep,
    ::testing::Combine(::testing::Values(2, 4, 8),     // threads
                       ::testing::Values(2, 8, 24),    // accounts per tx
                       ::testing::Values(true, false)),// filters on/off
    [](const ::testing::TestParamInfo<std::tuple<int, int, bool>> &Info) {
      return "t" + std::to_string(std::get<0>(Info.param)) + "_span" +
             std::to_string(std::get<1>(Info.param)) +
             (std::get<2>(Info.param) ? "_filt" : "_nofilt");
    });

TEST_P(TransferSweep, TotalBalanceConserved) {
  auto [NumThreads, Span, Filters] = GetParam();
  ConfigGuard Guard;
  TxManager::config().FilterReads = Filters;
  TxManager::config().FilterUndo = Filters;

  constexpr int NumAccounts = 48;
  constexpr int TxPerThread = 400;
  std::vector<Account> Accounts(NumAccounts);
  for (Account &A : Accounts)
    A.Balance.store(100);

  ThreadBarrier Barrier(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T, Span = Span] {
      Xoshiro256 Rng(1234 + T);
      Barrier.arriveAndWait();
      for (int I = 0; I < TxPerThread; ++I) {
        // Rotate a random amount through `Span` accounts: every account in
        // the cycle gives to the next, so the total is conserved only if
        // the whole cycle commits atomically.
        std::size_t Start = Rng.nextBelow(NumAccounts);
        int64_t Amount = static_cast<int64_t>(Rng.nextBelow(20));
        Stm::atomic([&](TxManager &Tx) {
          int64_t Carry =
              Tx.read(&Accounts[Start], &Account::Balance);
          (void)Carry;
          for (int S = 0; S < Span; ++S) {
            Account &From = Accounts[(Start + S) % NumAccounts];
            Account &To = Accounts[(Start + S + 1) % NumAccounts];
            int64_t F = Tx.read(&From, &Account::Balance);
            int64_t G = Tx.read(&To, &Account::Balance);
            Tx.write(&From, &Account::Balance, F - Amount);
            Tx.write(&To, &Account::Balance, G + Amount);
          }
        });
      }
    });
  for (std::thread &T : Threads)
    T.join();

  int64_t Total = 0;
  for (Account &A : Accounts)
    Total += A.Balance.load();
  EXPECT_EQ(Total, NumAccounts * 100);
}

//===----------------------------------------------------------------------===
// Contention-path sweep: the policy sets how long an attacker waits out an
// owner. passive forces the abort-self path on every ownership conflict;
// backoff waits owners out for the budget; karma and greedy wait longer
// or yield on priority.
//===----------------------------------------------------------------------===

namespace otm {
namespace txn {
/// Prints a policy by name, so the sweep's cases read /passive etc.
void PrintTo(CmPolicy P, std::ostream *OS) { *OS << policyName(P); }
} // namespace txn
} // namespace otm

class SpinBudgetSweep : public ::testing::TestWithParam<txn::CmPolicy> {};

INSTANTIATE_TEST_SUITE_P(Sweep, SpinBudgetSweep,
                         ::testing::Values(txn::CmPolicy::Passive,
                                           txn::CmPolicy::Backoff,
                                           txn::CmPolicy::Karma,
                                           txn::CmPolicy::TimestampGreedy));

TEST_P(SpinBudgetSweep, CounterExactUnderConflicts) {
  ConfigGuard Guard;
  TxManager::config().ContentionPolicy = GetParam();

  Account Hot;
  constexpr int NumThreads = 4;
  constexpr int PerThread = 1500;
  ThreadBarrier Barrier(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      Barrier.arriveAndWait();
      for (int I = 0; I < PerThread; ++I)
        Stm::atomic([&](TxManager &Tx) {
          Tx.write(&Hot, &Account::Balance,
                   Tx.read(&Hot, &Account::Balance) + 1);
        });
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Hot.Balance.load(), NumThreads * PerThread);
}

//===----------------------------------------------------------------------===
// Field<T> payload round-trips, including undo restore
//===----------------------------------------------------------------------===

namespace {

template <typename T> void roundTripPayload(T First, T Second) {
  struct Holder : TxObject {
    Field<T> Payload;
  } H;
  H.Payload.store(First);

  // Committed write is visible.
  Stm::atomic([&](TxManager &Tx) {
    Tx.openForUpdate(&H);
    Tx.logUndo(&H.Payload);
    H.Payload.store(Second);
  });
  EXPECT_EQ(H.Payload.load(), Second);

  // Aborted write restores the exact bit pattern.
  Stm::atomic([&](TxManager &Tx) {
    Tx.openForUpdate(&H);
    Tx.logUndo(&H.Payload);
    H.Payload.store(First);
    Tx.userAbort();
  });
  EXPECT_EQ(H.Payload.load(), Second);
}

} // namespace

TEST(FieldPayloads, SignedExtremes) {
  roundTripPayload<int64_t>(INT64_MIN, INT64_MAX);
  roundTripPayload<int64_t>(-1, 0);
}

TEST(FieldPayloads, Narrow) {
  roundTripPayload<int8_t>(-128, 127);
  roundTripPayload<uint16_t>(0, 65535);
  roundTripPayload<int32_t>(INT32_MIN, INT32_MAX);
}

TEST(FieldPayloads, BoolAndChar) {
  roundTripPayload<bool>(false, true);
  roundTripPayload<char>('a', 'z');
}

TEST(FieldPayloads, Pointers) {
  int A = 1, B = 2;
  roundTripPayload<int *>(&A, &B);
  roundTripPayload<int *>(nullptr, &A);
}

TEST(FieldPayloads, Doubles) {
  roundTripPayload<double>(0.0, -3.25e300);
  roundTripPayload<double>(1e-300, 2.5);
}

//===----------------------------------------------------------------------===
// Deep nesting
//===----------------------------------------------------------------------===

TEST(StmNesting, DeepFlatteningCommitsOnce) {
  Account A;
  // Drain this thread's counters from earlier tests before opening the
  // measurement window (stats flush lazily per thread).
  TxManager::current().flushStats();
  Stm::resetGlobalStats();
  std::function<void(int)> Recurse = [&](int Depth) {
    Stm::atomic([&](TxManager &Tx) {
      Tx.write(&A, &Account::Balance,
               Tx.read(&A, &Account::Balance) + 1);
      if (Depth > 0)
        Recurse(Depth - 1);
    });
  };
  Recurse(20);
  TxManager::current().flushStats();
  EXPECT_EQ(A.Balance.load(), 21);
  EXPECT_EQ(Stm::globalStats().Commits, 1u)
      << "flattened nesting must commit exactly once";
}

TEST(StmNesting, AbortInDeepNestingRollsBackEverything) {
  Account A;
  A.Balance.store(7);
  std::function<void(int)> Recurse = [&](int Depth) {
    Stm::atomic([&](TxManager &Tx) {
      Tx.write(&A, &Account::Balance,
               Tx.read(&A, &Account::Balance) + 1);
      if (Depth > 0) {
        Recurse(Depth - 1);
        return;
      }
      Tx.userAbort(); // innermost level aborts the whole flat nest
    });
  };
  Recurse(10);
  EXPECT_EQ(A.Balance.load(), 7) << "all nested writes must roll back";
}
