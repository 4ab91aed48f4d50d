//===- tests/HtmTest.cpp - Hardware execution tier tests -----------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hybrid HTM/STM tier (DESIGN.md §3.12): the capability probe, the
/// OTM_HTM runtime kill switch, the three-rung ladder escalation
/// (hardware -> STM retry loop -> serial irrevocable), the serial-gate
/// suppression rule, nested subsumption inside hardware regions, the
/// attempt/commit/abort accounting, and a differential check that the
/// hardware path computes the same answers as the software path.
///
/// Unlike the other suites, this binary is registered WITHOUT the
/// OTM_HTM=0 environment pin, so it sees the machine's real capability.
/// Every hardware-dependent test skips itself when the runtime probe
/// reports no working RTM (or the platform has no RTM primitives): the
/// suite still links and passes everywhere, proving the same-surface stub
/// contract.
///
//===----------------------------------------------------------------------===//

#include "stm/Stm.h"
#include "wstm/WordStm.h"

#include "stm/TxGlobal.h"
#include "txn/CmStats.h"
#include "txn/Htm.h"
#include "txn/SerialGate.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace otm;
using namespace otm::stm;

namespace {

struct Counter : TxObject {
  Field<int64_t> Value;
};

struct ConfigGuard {
  ConfigGuard() : Saved(TxManager::config()) {}
  ~ConfigGuard() { TxManager::config() = Saved; }
  TxConfig Saved;
};

/// Saves and restores one environment variable across a test body.
struct EnvGuard {
  explicit EnvGuard(const char *Name) : Name(Name) {
    if (const char *V = std::getenv(Name)) {
      Had = true;
      Saved = V;
    }
  }
  ~EnvGuard() {
    if (Had)
      setenv(Name, Saved.c_str(), 1);
    else
      unsetenv(Name);
  }
  const char *Name;
  bool Had = false;
  std::string Saved;
};

void resetStats() {
  TxManager::current().flushStats();
  Stm::resetGlobalStats();
}

TxStats statsNow() {
  TxManager::current().flushStats();
  return Stm::globalStats();
}

bool hardwareAvailable() {
  return txn::htm::HtmRuntime::instance().available();
}

/// Spins until \p Pred holds; fails (returns false) after ~10 seconds.
template <typename PredType> bool spinUntil(PredType Pred) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!Pred()) {
    if (std::chrono::steady_clock::now() > Deadline)
      return false;
    std::this_thread::yield();
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Capability probe and kill switch
//===----------------------------------------------------------------------===//

TEST(HtmProbe, ReportsConsistentCapability) {
  const txn::htm::HtmRuntime &R = txn::htm::HtmRuntime::instance();
  // available() is the conjunction of the three gates, never more.
  if (R.available()) {
    EXPECT_TRUE(R.cpuidSupported());
    EXPECT_TRUE(R.probeCommitted());
    EXPECT_FALSE(R.envDisabled());
  }
  // A functional probe commit without CPUID advertising RTM is impossible
  // (the probe never runs xbegin unless CPUID said so).
  if (R.probeCommitted()) {
    EXPECT_TRUE(R.cpuidSupported());
  }
#if !OTM_HTM
  // No primitives (non-x86-64 or TSan): the stub must answer "no" on every
  // gate.
  EXPECT_FALSE(R.available());
  EXPECT_FALSE(R.cpuidSupported());
  EXPECT_FALSE(R.probeCommitted());
#endif
}

TEST(HtmProbe, RuntimeKillSwitchZeroesDefaultAttempts) {
  EnvGuard Htm("OTM_HTM"), Attempts("OTM_HTM_ATTEMPTS");
  setenv("OTM_HTM", "0", 1);
  setenv("OTM_HTM_ATTEMPTS", "5", 1);
  EXPECT_EQ(TxConfig::defaultHtmAttempts(), 0u); // kill switch wins
  setenv("OTM_HTM", "1", 1);
  EXPECT_EQ(TxConfig::defaultHtmAttempts(), 5u);
  unsetenv("OTM_HTM");
  EXPECT_EQ(TxConfig::defaultHtmAttempts(), 5u);
  unsetenv("OTM_HTM_ATTEMPTS");
  EXPECT_EQ(TxConfig::defaultHtmAttempts(), 8u);
}

TEST(HtmProbe, OnlyZeroOrOffDisablesTheTier) {
  // OTM_HTM is the tier's documented off switch. Values that read as "on"
  // (and an empty value) must leave it on, the same rule as OTM_SCHED.
  EnvGuard Htm("OTM_HTM"), Attempts("OTM_HTM_ATTEMPTS");
  unsetenv("OTM_HTM_ATTEMPTS");
  struct Case {
    const char *Value;
    bool Disables;
  };
  for (const Case &C : {Case{"0", true}, Case{"off", true}, Case{"1", false},
                        Case{"on", false}, Case{"", false}}) {
    EXPECT_EQ(txn::htm::envDisablesHtm(C.Value), C.Disables)
        << "OTM_HTM='" << C.Value << "'";
    setenv("OTM_HTM", C.Value, 1);
    EXPECT_EQ(TxConfig::defaultHtmAttempts(), C.Disables ? 0u : 8u)
        << "OTM_HTM='" << C.Value << "'";
  }
  EXPECT_FALSE(txn::htm::envDisablesHtm(nullptr)); // unset
}

TEST(TxConfigEnv, OnlyDecimalValuesOverrideTheDefaults) {
  // The numeric knobs keep their default unless the whole value is a
  // decimal number: "on", an empty value or a typo must not read as 0,
  // which turns the snapshot tier, the serial fallback or HTM off.
  EnvGuard Mv("OTM_MV_VERSIONS"), Budget("OTM_RETRY_BUDGET"), Htm("OTM_HTM"),
      Attempts("OTM_HTM_ATTEMPTS");
  unsetenv("OTM_HTM");
  struct Case {
    const char *Value; // null: unset
    int Parsed;        // -1: the default stands
  };
  for (const Case &C :
       {Case{"0", 0}, Case{"8", 8}, Case{"on", -1}, Case{"", -1},
        Case{nullptr, -1}, Case{"12x", -1}, Case{"4294967296", -1}}) {
    auto Want = [&](unsigned Default) {
      return C.Parsed < 0 ? Default : unsigned(C.Parsed);
    };
    const std::string Label =
        C.Value ? "'" + std::string(C.Value) + "'" : "unset";
    EXPECT_EQ(TxConfig::envCount(C.Value, 5), Want(5)) << Label;
    for (const char *Name :
         {"OTM_MV_VERSIONS", "OTM_RETRY_BUDGET", "OTM_HTM_ATTEMPTS"}) {
      if (C.Value)
        setenv(Name, C.Value, 1);
      else
        unsetenv(Name);
    }
    EXPECT_EQ(TxConfig::defaultMvVersions(), Want(8)) << Label;
    EXPECT_EQ(TxConfig::defaultSerialFallbackAfter(), Want(64)) << Label;
    EXPECT_EQ(TxConfig::defaultHtmAttempts(), Want(8)) << Label;
  }
}

//===----------------------------------------------------------------------===//
// Ladder behaviour
//===----------------------------------------------------------------------===//

TEST(HtmLadder, ForcedFallbackRunsSoftware) {
  ConfigGuard G;
  TxManager::config().HtmAttempts = 0;
  Counter C;
  resetStats();
  for (int I = 0; I < 10; ++I)
    Stm::atomic([&](TxManager &Tx) {
      Tx.write(&C, &Counter::Value, Tx.read(&C, &Counter::Value) + 1);
    });
  int64_t Got = -1;
  Stm::atomic([&](TxManager &Tx) { Got = Tx.read(&C, &Counter::Value); });
  EXPECT_EQ(Got, 10);
  TxStats S = statsNow();
  EXPECT_EQ(S.Commits, 11u);
  EXPECT_EQ(S.HtmAttempts, 0u); // budget 0: the hardware rung never runs
  EXPECT_EQ(S.HtmCommits, 0u);
}

TEST(HtmLadder, HardwareCommitsWhenAvailable) {
  if (!hardwareAvailable())
    GTEST_SKIP() << "no working RTM on this machine (or OTM_HTM off)";
  ConfigGuard G;
  TxManager::config().HtmAttempts = 100;
  Counter C;
  // Warm the lazy globals (lock tables, clocks, TLS) in software first so
  // hardware attempts do not abort on one-time initialization.
  Stm::atomic([&](TxManager &Tx) { Tx.write(&C, &Counter::Value, int64_t{0}); });
  resetStats();
  constexpr int Txns = 200;
  for (int I = 0; I < Txns; ++I)
    Stm::atomic([&](TxManager &Tx) {
      Tx.write(&C, &Counter::Value, Tx.read(&C, &Counter::Value) + 1);
    });
  int64_t Got = -1;
  Stm::atomic([&](TxManager &Tx) { Got = Tx.read(&C, &Counter::Value); });
  EXPECT_EQ(Got, Txns);
  TxStats S = statsNow();
  EXPECT_EQ(S.Commits, unsigned(Txns) + 1);
  // Uncontended single-thread counter bumps are the hardware tier's bread
  // and butter: the overwhelming majority must commit in hardware.
  EXPECT_GT(S.HtmCommits, 0u);
  EXPECT_GE(S.HtmAttempts, S.HtmCommits);
  EXPECT_EQ(S.Aborts, 0u); // no software aborts in a single-thread run
}

TEST(HtmLadder, EscalatesUnsupportedOpToStm) {
  ConfigGuard G;
  TxManager::config().HtmAttempts = 8;
  txn::CmStatsSnapshot Before = txn::CmStats::instance().snapshot();
  resetStats();
  Counter *Obj = nullptr;
  // allocInTx registers an abort-time deletion record, which the hardware
  // mode cannot express: the region must xabort(CodeUnsupported) and the
  // transaction must complete on the software rung, exactly once.
  Stm::atomic([&](TxManager &Tx) {
    Obj = Tx.allocInTx<Counter>();
    Tx.write(Obj, &Counter::Value, int64_t{42});
  });
  ASSERT_NE(Obj, nullptr);
  // Snapshot before the verification read: that read is hardware-eligible
  // and would otherwise fold its own HtmCommit into the assertion below.
  TxStats S = statsNow();
  txn::CmStatsSnapshot After = txn::CmStats::instance().snapshot();
  int64_t Got = -1;
  Stm::atomic([&](TxManager &Tx) { Got = Tx.read(Obj, &Counter::Value); });
  EXPECT_EQ(Got, 42);
  EXPECT_EQ(S.Commits, 1u);
  if (hardwareAvailable()) {
    // The first attempt entered hardware, hit the unsupported op, and fell
    // through; the software commit is the one that stuck.
    EXPECT_GE(After.HtmAbortsUnsupported - Before.HtmAbortsUnsupported, 1u);
    EXPECT_GE(After.HtmFallbacks - Before.HtmFallbacks, 1u);
    EXPECT_EQ(S.HtmCommits, 0u);
  } else {
    EXPECT_EQ(S.HtmAttempts, 0u);
  }
  delete Obj;
}

TEST(HtmLadder, SerialGateSuppressesHardware) {
  ConfigGuard G;
  TxManager::config().HtmAttempts = 8;
  txn::SerialGate &Gate = txn::SerialGate::instance();
  txn::SerialGate::Slot &Mine = Gate.slotForCurrentThread();
  Counter C;
  resetStats();
  uint64_t WaitsBefore = txn::CmStats::instance().snapshot().GateWaits;
  Gate.enterExclusive(Mine);
  std::thread Worker([&] {
    Stm::atomic([&](TxManager &Tx) {
      Tx.write(&C, &Counter::Value, Tx.read(&C, &Counter::Value) + 1);
    });
    TxManager::current().flushStats();
  });
  // The worker must reach the gate in software — its hardware rung sees
  // exclusiveActive() and bails without a single attempt.
  ASSERT_TRUE(spinUntil([&] {
    return txn::CmStats::instance().snapshot().GateWaits > WaitsBefore;
  }));
  Gate.exitExclusive();
  Worker.join();
  TxStats S = statsNow();
  EXPECT_EQ(S.Commits, 1u);
  EXPECT_EQ(S.HtmAttempts, 0u); // suppressed while the gate was held
  int64_t Got = -1;
  Stm::atomic([&](TxManager &Tx) { Got = Tx.read(&C, &Counter::Value); });
  EXPECT_EQ(Got, 1);
}

TEST(HtmLadder, NestedTransactionSubsumes) {
  ConfigGuard G;
  TxManager::config().HtmAttempts = 100;
  Counter C;
  Stm::atomic([&](TxManager &Tx) { Tx.write(&C, &Counter::Value, int64_t{0}); });
  resetStats();
  constexpr int Outers = 10;
  for (int I = 0; I < Outers; ++I)
    Stm::atomic([&](TxManager &Outer) {
      Outer.write(&C, &Counter::Value, Outer.read(&C, &Counter::Value) + 1);
      Stm::atomic([&](TxManager &Inner) {
        Inner.write(&C, &Counter::Value, Inner.read(&C, &Counter::Value) + 1);
      });
    });
  int64_t Got = -1;
  Stm::atomic([&](TxManager &Tx) { Got = Tx.read(&C, &Counter::Value); });
  EXPECT_EQ(Got, 2 * Outers);
  TxStats S = statsNow();
  EXPECT_EQ(S.Commits, unsigned(Outers) + 1);
  EXPECT_EQ(S.SubsumedTx, unsigned(Outers)); // inner flattened, both tiers
  if (hardwareAvailable()) {
    EXPECT_GT(S.HtmCommits, 0u);
  }
}

TEST(HtmLadder, UserAbortDoesNotRetryOnAnyTier) {
  ConfigGuard G;
  TxManager::config().HtmAttempts = 8;
  Counter C;
  Stm::atomic([&](TxManager &Tx) { Tx.write(&C, &Counter::Value, int64_t{7}); });
  resetStats();
  Stm::atomic([&](TxManager &Tx) {
    Tx.write(&C, &Counter::Value, int64_t{99});
    Tx.userAbort();
  });
  int64_t Got = -1;
  Stm::atomic([&](TxManager &Tx) { Got = Tx.read(&C, &Counter::Value); });
  EXPECT_EQ(Got, 7); // the write rolled back on whichever tier ran it
  TxStats S = statsNow();
  EXPECT_EQ(S.Starts, 2u); // the aborted txn + the verification read
  EXPECT_EQ(S.Commits, 1u);
  EXPECT_EQ(S.Aborts, 1u);
  EXPECT_EQ(S.AbortsByUser, 1u);
}

//===----------------------------------------------------------------------===//
// Word STM hardware path
//===----------------------------------------------------------------------===//

TEST(HtmWstm, HardwareAndSoftwareAgree) {
  ConfigGuard G;
  wstm::WCell<int64_t> Cell;
  wstm::WordStm::atomic(
      [&](wstm::WTxManager &Tx) { Tx.write(Cell, int64_t{0}); });
  for (unsigned Budget : {0u, 8u}) {
    TxManager::config().HtmAttempts = Budget;
    for (int I = 0; I < 50; ++I)
      wstm::WordStm::atomic([&](wstm::WTxManager &Tx) {
        Tx.write(Cell, Tx.read(Cell) + 1);
      });
  }
  int64_t Got = wstm::WordStm::atomic(
      [&](wstm::WTxManager &Tx) { return Tx.read(Cell); });
  EXPECT_EQ(Got, 100);
}

//===----------------------------------------------------------------------===//
// Differential: hardware on vs off, multithreaded
//===----------------------------------------------------------------------===//

TEST(HtmDifferential, HtmOnAndOffComputeIdenticalFinalState) {
  constexpr int Threads = 4;
  constexpr int TxnsPerThread = 250;
  constexpr int Objects = 8;
  uint64_t CommitTotals[2] = {0, 0};
  int64_t Sums[2] = {0, 0};
  for (int Mode = 0; Mode < 2; ++Mode) {
    ConfigGuard G;
    TxManager::config().HtmAttempts = Mode == 0 ? 8 : 0;
    std::vector<Counter> Objs(Objects);
    resetStats();
    std::vector<std::thread> Workers;
    for (int T = 0; T < Threads; ++T)
      Workers.emplace_back([&, T] {
        for (int I = 0; I < TxnsPerThread; ++I) {
          Counter &Obj = Objs[(T + I) % Objects];
          Stm::atomic([&](TxManager &Tx) {
            Tx.write(&Obj, &Counter::Value,
                     Tx.read(&Obj, &Counter::Value) + 1);
          });
        }
        TxManager::current().flushStats();
      });
    for (std::thread &W : Workers)
      W.join();
    int64_t Sum = 0;
    Stm::atomic([&](TxManager &Tx) {
      for (Counter &Obj : Objs)
        Sum += Tx.read(&Obj, &Counter::Value);
    });
    Sums[Mode] = Sum;
    CommitTotals[Mode] = statsNow().Commits;
  }
  // Same workload, same answers, same number of committed transactions —
  // the hardware tier changes the execution mechanism, not the semantics.
  EXPECT_EQ(Sums[0], int64_t(Threads) * TxnsPerThread);
  EXPECT_EQ(Sums[1], Sums[0]);
  EXPECT_EQ(CommitTotals[0], CommitTotals[1]);
}
