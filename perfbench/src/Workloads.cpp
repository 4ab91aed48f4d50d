//===- perfbench/src/Workloads.cpp - The benchmark's workloads ------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Why these four (perfbench/README.md has the full table):
//
//   kv-update    uniform 4-row transfers over 2^18 rows: the writer commit
//                path (history install, commit clock, epoch retirement,
//                pools) with no conflicts; the table is larger than L2.
//   read-mostly  Zipf snapshot readers beside live writers on 4096 rows: the
//                same MVCC layer seen from the reader side.
//   server-zipf  Zipf 8-key requests with declared footprints through the
//                admission scheduler: the txn layer does the work.
//   tmir-bank    the bank TMIR program, compiled and interpreted: the only
//                workload where tmir, passes and interp do the work.
//
// The library runs with its defaults: nothing here sets a TxConfig field,
// scheduler mode or environment knob.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "bench/TmirPrograms.h"
#include "interp/Interp.h"
#include "passes/Pipeline.h"
#include "stm/Stm.h"
#include "support/Random.h"
#include "tmir/Parser.h"
#include "txn/Fingerprint.h"

#include <atomic>
#include <cstring>
#include <optional>
#include <stdexcept>

using namespace otm;
using otm::stm::Field;
using otm::stm::Stm;
using otm::stm::TxManager;

namespace perfbench {
namespace {

struct Row : stm::TxObject {
  Field<int64_t> Value;
};

/// A table of pool-allocated rows, as an application would hold them.
class Table {
public:
  void build(std::size_t N, int64_t Initial) {
    Rows.clear();
    Rows.reserve(N);
    for (std::size_t I = 0; I < N; ++I) {
      Rows.push_back(std::make_unique<Row>());
      Rows.back()->Value.store(Initial);
    }
  }
  void clear() { Rows.clear(); }

  std::size_t size() const { return Rows.size(); }
  Row *operator[](std::size_t I) const { return Rows[I].get(); }

  /// Plain sum; only while no transaction runs.
  int64_t sum() const {
    int64_t S = 0;
    for (const auto &R : Rows)
      S += R->Value.load();
    return S;
  }

  void history(uint64_t &Versions, uint64_t &Objects) const {
    Versions = 0;
    for (const auto &R : Rows)
      Versions += R->historyDepthForTesting();
    Objects = Rows.size();
  }

  /// Empty when every row holds the configured number of versions.
  std::string historyProblem() const {
    std::size_t Want = TxManager::mvccEnabled()
                           ? TxManager::config().MvVersions
                           : 0;
    std::size_t Short = 0;
    for (const auto &R : Rows)
      Short += R->historyDepthForTesting() != Want;
    if (Short == 0)
      return {};
    return std::to_string(Short) + " of " + std::to_string(Rows.size()) +
           " rows do not hold " + std::to_string(Want) + " versions";
  }

private:
  std::vector<std::unique_ptr<Row>> Rows;
};

/// openForUpdate + logUndo + store: the decomposed write barrier pair the
/// paper's compiler emits, with the pair traced as one stm span.
inline void addTo(TxManager &Tx, Row *R, int64_t Delta, Tracer *T) {
  {
    SpanScope S(T, SpanName::OpenUpdate);
    Tx.openForUpdate(R);
    Tx.logUndo(&R->Value);
  }
  R->Value.store(R->Value.load() + Delta);
}

/// Per-thread stream seeds derived from the run seed.
uint64_t streamSeed(uint64_t Seed, unsigned Tid, unsigned Stream) {
  SplitMix64 SM(Seed * 0x9e3779b97f4a7c15ULL + Tid * 1000003ULL + Stream);
  return SM.next();
}

/// Fills every row's version chain: \p Passes sweeps, each a transfer over
/// every group of \p Group consecutive rows (the groups are split among
/// the workers, so no two transactions conflict). Sum-preserving.
void sweepHistory(Team &T, const Table &Tab, unsigned Group, unsigned Passes) {
  std::size_t Groups = Tab.size() / Group;
  unsigned N = T.size();
  T.run([&](unsigned Tid) {
    for (unsigned P = 0; P < Passes; ++P)
      for (std::size_t G = Tid; G < Groups; G += N)
        Stm::atomic([&](TxManager &Tx) {
          for (unsigned K = 0; K < Group; ++K)
            addTo(Tx, Tab[G * Group + K], K % 2 ? 1 : -1, nullptr);
        });
  });
}

/// Runs \p Ops ops per worker through \p W (set-up warm-up; untimed).
void warmUp(Team &T, Workload &W, uint64_t Ops) {
  T.run([&](unsigned Tid) {
    uint64_t Ignored = 0;
    for (uint64_t I = 0; I < Ops; ++I)
      W.op(Tid, nullptr, Ignored);
  });
}

//===----------------------------------------------------------------------===//
// kv-update
//===----------------------------------------------------------------------===//

class KvUpdate final : public Workload {
public:
  explicit KvUpdate(bool Tiny) : Rows(Tiny ? 4096 : 1u << 18) {}

  const char *name() const override { return "kv-update"; }
  unsigned threads() const override { return 2; }
  unsigned setups() const override { return 3; }
  unsigned traceStride() const override { return 16; }

  void setup(Team &T, uint64_t Seed) override {
    for (unsigned I = 0; I < threads(); ++I)
      Rng[I].emplace(streamSeed(Seed, I, 1));
    Tab.build(Rows, Initial);
    // Every row reaches its full chain depth deterministically; the random
    // warm-up then mixes which commits share a version record.
    sweepHistory(T, Tab, 4, TxManager::config().MvVersions);
    warmUp(T, *this, Rows / 4);
  }
  void teardown() override { Tab.clear(); }
  std::string steadyStateProblem() const override {
    return Tab.historyProblem();
  }

  bool op(unsigned Tid, Tracer *T, uint64_t &CallTicks) override {
    Xoshiro256 &R = *Rng[Tid];
    Row *Keys[4];
    for (Row *&K : Keys)
      K = Tab[R.nextBelow(Rows)];
    int64_t Amount = 1 + static_cast<int64_t>(R.nextBelow(100));
    uint64_t T0 = ticks();
    {
      SpanScope Op(T, SpanName::Atomic);
      Stm::atomic([&](TxManager &Tx) {
        SpanScope A(T, SpanName::Attempt);
        addTo(Tx, Keys[0], -Amount, T);
        addTo(Tx, Keys[1], Amount, T);
        addTo(Tx, Keys[2], -Amount, T);
        addTo(Tx, Keys[3], Amount, T);
      });
    }
    CallTicks = ticks() - T0;
    return true;
  }

  std::vector<std::string> check(Team &, uint64_t Ops,
                                 uint64_t Commits) override {
    std::vector<std::string> Problems;
    int64_t Want = Initial * static_cast<int64_t>(Rows);
    if (int64_t Sum = Tab.sum(); Sum != Want)
      Problems.push_back("table sum " + std::to_string(Sum) + " != " +
                         std::to_string(Want));
    if (Commits != Ops)
      Problems.push_back("commits " + std::to_string(Commits) +
                         " != ops " + std::to_string(Ops));
    return Problems;
  }

  void corrupt() override { Tab[0]->Value.store(Tab[0]->Value.load() + 1); }
  void history(uint64_t &Versions, uint64_t &Objects) const override {
    Tab.history(Versions, Objects);
  }

private:
  static constexpr int64_t Initial = 1000;
  const unsigned Rows;
  Table Tab;
  std::optional<Xoshiro256> Rng[2];
};

//===----------------------------------------------------------------------===//
// read-mostly
//===----------------------------------------------------------------------===//

class ReadMostly final : public Workload {
public:
  explicit ReadMostly(bool Tiny) : Tiny(Tiny) {}

  const char *name() const override { return "read-mostly"; }
  unsigned threads() const override { return 2; }
  unsigned setups() const override { return 5; }
  unsigned traceStride() const override { return 128; }

  void setup(Team &T, uint64_t Seed) override {
    for (unsigned I = 0; I < threads(); ++I) {
      Role[I].emplace(streamSeed(Seed, I, 1));
      Keys[I].emplace(Rows, ZipfSkew, streamSeed(Seed, I, 2));
    }
    Tab.build(Rows, Initial);
    sweepHistory(T, Tab, 2, TxManager::config().MvVersions);
    warmUp(T, *this, Tiny ? 2000 : 100000);
  }
  void teardown() override { Tab.clear(); }
  std::string steadyStateProblem() const override {
    return Tab.historyProblem();
  }

  bool op(unsigned Tid, Tracer *T, uint64_t &CallTicks) override {
    if (Role[Tid]->nextPercent(ReaderPercent)) {
      Row *Read[ReadsPerOp];
      for (Row *&K : Read)
        K = Tab[Keys[Tid]->next()];
      int64_t Sum = 0;
      uint64_t T0 = ticks();
      {
        SpanScope Op(T, SpanName::AtomicReadOnly);
        Stm::atomicReadOnly([&](TxManager &Tx) {
          SpanScope A(T, SpanName::Attempt);
          int64_t S = 0;
          for (Row *K : Read) {
            SpanScope R(T, SpanName::Read);
            S += Tx.read(K, &Row::Value);
          }
          Sum = S;
        });
      }
      CallTicks = ticks() - T0;
      Sink[Tid].Value += Sum;
      return true;
    }
    transfer(Tid, T, CallTicks);
    return true;
  }

  std::vector<std::string> check(Team &T, uint64_t, uint64_t) override {
    std::vector<std::string> Problems;
    const int64_t Want = Initial * static_cast<int64_t>(Rows);
    // Snapshot audit: worker 0 sums every row in read-only transactions
    // while worker 1 keeps transferring; every audit must see the invariant.
    std::atomic<bool> Done{false};
    std::vector<int64_t> Audits;
    T.run([&](unsigned Tid) {
      if (Tid == 0) {
        for (unsigned A = 0; A < NumAudits; ++A)
          Audits.push_back(Stm::atomicReadOnlyResult([&](TxManager &Tx) {
            int64_t S = 0;
            for (std::size_t I = 0; I < Tab.size(); ++I)
              S += Tx.read(Tab[I], &Row::Value);
            return S;
          }));
        Done.store(true);
      } else {
        uint64_t Ignored = 0;
        while (!Done.load(std::memory_order_relaxed))
          transfer(Tid, nullptr, Ignored);
      }
    });
    for (int64_t A : Audits)
      if (A != Want)
        Problems.push_back("snapshot audit sum " + std::to_string(A) +
                           " != " + std::to_string(Want));
    if (int64_t Sum = Tab.sum(); Sum != Want)
      Problems.push_back("table sum " + std::to_string(Sum) + " != " +
                         std::to_string(Want));
    return Problems;
  }

  void corrupt() override { Tab[0]->Value.store(Tab[0]->Value.load() + 1); }
  void history(uint64_t &Versions, uint64_t &Objects) const override {
    Tab.history(Versions, Objects);
  }

private:
  static constexpr unsigned Rows = 4096;
  static constexpr unsigned ReadsPerOp = 16;
  static constexpr unsigned ReaderPercent = 90;
  static constexpr unsigned NumAudits = 4;
  static constexpr double ZipfSkew = 0.99;
  static constexpr int64_t Initial = 1000;

  /// Two-row transfer: one writer op.
  void transfer(unsigned Tid, Tracer *T, uint64_t &CallTicks) {
    Row *A = Tab[Keys[Tid]->next()];
    Row *B = Tab[Keys[Tid]->next()];
    uint64_t T0 = ticks();
    {
      SpanScope Op(T, SpanName::Atomic);
      Stm::atomic([&](TxManager &Tx) {
        SpanScope S(T, SpanName::Attempt);
        addTo(Tx, A, -1, T);
        addTo(Tx, B, 1, T);
      });
    }
    CallTicks = ticks() - T0;
  }

  struct alignas(64) PaddedSink {
    int64_t Value = 0;
  };

  const bool Tiny;
  Table Tab;
  std::optional<Xoshiro256> Role[2];
  std::optional<ZipfGenerator> Keys[2];
  PaddedSink Sink[2]; // keeps the reader sums observable
};

//===----------------------------------------------------------------------===//
// server-zipf
//===----------------------------------------------------------------------===//

class ServerZipf final : public Workload {
public:
  explicit ServerZipf(bool Tiny) : Tiny(Tiny) {}

  const char *name() const override { return "server-zipf"; }
  unsigned threads() const override { return 3; }
  unsigned setups() const override { return 5; }
  unsigned traceStride() const override { return 8; }

  void setup(Team &T, uint64_t Seed) override {
    for (unsigned I = 0; I < threads(); ++I) {
      Flags[I].emplace(streamSeed(Seed, I, 1));
      Keys[I].emplace(Rows, ZipfSkew, streamSeed(Seed, I, 2));
      Writes[I].Value = 0;
    }
    Tab.build(Rows, 0);
    warmUp(T, *this, Tiny ? 1000 : 50000);
  }
  void teardown() override { Tab.clear(); }

  bool op(unsigned Tid, Tracer *T, uint64_t &CallTicks) override {
    // The request and its declared footprint are fixed before the call.
    Row *Key[KeysPerOp];
    bool Write[KeysPerOp];
    txn::TxSummary Declared;
    for (unsigned K = 0; K < KeysPerOp; ++K) {
      Key[K] = Tab[Keys[Tid]->next()];
      Write[K] = Flags[Tid]->nextPercent(WritePercent);
      uint64_t Addr = reinterpret_cast<uintptr_t>(Key[K]);
      if (Write[K])
        Declared.addWrite(Addr);
      else
        Declared.addRead(Addr);
    }
    int64_t Seen = 0;
    uint64_t T0 = ticks();
    {
      SpanScope Op(T, SpanName::AtomicScheduled);
      Stm::atomicScheduled(TableClass, Declared, [&](TxManager &Tx) {
        SpanScope A(T, SpanName::Attempt);
        int64_t S = 0;
        for (unsigned K = 0; K < KeysPerOp; ++K) {
          if (Write[K]) {
            addTo(Tx, Key[K], 1, T);
          } else {
            SpanScope R(T, SpanName::OpenRead);
            Tx.openForRead(Key[K]);
            S += Key[K]->Value.load();
          }
        }
        Seen = S;
      });
    }
    CallTicks = ticks() - T0;
    for (bool W : Write)
      Writes[Tid].Value += W;
    return Seen >= 0; // rows only ever grow
  }

  std::vector<std::string> check(Team &, uint64_t, uint64_t) override {
    int64_t Want = 0;
    for (unsigned I = 0; I < threads(); ++I)
      Want += Writes[I].Value;
    if (int64_t Sum = Tab.sum(); Sum != Want)
      return {"row sum " + std::to_string(Sum) + " != write flags " +
              std::to_string(Want)};
    return {};
  }

  void corrupt() override { Tab[0]->Value.store(Tab[0]->Value.load() + 1); }
  void history(uint64_t &Versions, uint64_t &Objects) const override {
    Tab.history(Versions, Objects);
  }

private:
  static constexpr unsigned Rows = 4096;
  static constexpr unsigned KeysPerOp = 8;
  static constexpr unsigned WritePercent = 50;
  static constexpr uint32_t TableClass = 1;
  static constexpr double ZipfSkew = 0.99;

  struct alignas(64) PaddedCount {
    int64_t Value = 0;
  };

  const bool Tiny;
  Table Tab;
  std::optional<Xoshiro256> Flags[3];
  std::optional<ZipfGenerator> Keys[3];
  PaddedCount Writes[3]; // write flags of every issued request
};

//===----------------------------------------------------------------------===//
// tmir-bank
//===----------------------------------------------------------------------===//

class TmirBank final : public Workload {
public:
  // main(n) runs n interpreted transactions. A few hundred keep an op well
  // under a millisecond, so a host preemption delays a small share of ops
  // and lat_p99_us stays repeatable.
  explicit TmirBank(bool Tiny) : Transfers(Tiny ? 40 : 400) {}

  const char *name() const override { return "tmir-bank"; }
  unsigned threads() const override { return 2; }
  unsigned setups() const override { return 5; }
  unsigned traceStride() const override { return 1; }

  void setup(Team &T, uint64_t) override {
    const char *Source = bankSource();
    uint64_t T0 = ticks();
    M = std::make_unique<tmir::Module>(tmir::parseModuleOrDie(Source));
    uint64_t T1 = ticks();
    std::vector<passes::PassReport> Reports =
        passes::lowerAndOptimize(*M, passes::OptConfig::all());
    uint64_t T2 = ticks();
    // One interpreter (decoded program + heap) per worker: each worker is
    // its heap's only mutator, so it can collect the objects of every run
    // it finished. A shared heap could never be collected during the run,
    // and its size would grow with the number of ops run.
    Interps.clear();
    Interps.push_back(std::make_unique<interp::Interpreter>(*M, interpOptions()));
    uint64_t T3 = ticks();
    while (Interps.size() < threads())
      Interps.push_back(
          std::make_unique<interp::Interpreter>(*M, interpOptions()));
    Times.Parse = T1 - T0;
    Times.Lower = T2 - T1;
    Times.Decode = T3 - T2;
    Times.OpensRemoved = 0;
    for (const passes::PassReport &R : Reports) {
      unsigned Before = R.Before.OpenRead + R.Before.OpenUpdate;
      unsigned After = R.After.OpenRead + R.After.OpenUpdate;
      Times.OpensRemoved += Before > After ? Before - After : 0;
    }

    // Reference result: the unoptimised build of the same program.
    tmir::Module Ref = tmir::parseModuleOrDie(Source);
    passes::lowerAndOptimize(Ref, passes::OptConfig::none());
    interp::Interpreter RefInterp(Ref, interpOptions());
    T.run([&](unsigned Tid) {
      if (Tid == 0) {
        interp::Interpreter::RunResult R = RefInterp.run("main", {Transfers});
        Expected = R.Trapped ? INT64_MIN : R.Value;
      }
    });
    // Enough runs that set-up time is tens of milliseconds, not a few that
    // thread wake-ups and host noise would dominate.
    warmUp(T, *this, WarmUpRuns);
  }
  void teardown() override {
    Interps.clear();
    M.reset();
  }

  bool op(unsigned Tid, Tracer *T, uint64_t &CallTicks) override {
    interp::Interpreter &I = *Interps[Tid];
    uint64_t T0 = ticks();
    interp::Interpreter::RunResult R;
    {
      SpanScope Op(T, SpanName::InterpRun);
      R = I.run("main", {Transfers});
    }
    CallTicks = ticks() - T0;
    I.collectGarbage();
    return !R.Trapped && R.Value == Expected;
  }

  std::vector<std::string> check(Team &, uint64_t, uint64_t) override {
    // main(n) alternates +3 and -1 into the second account.
    int64_t ClosedForm = (Transfers + 1) / 2 * 3 - Transfers / 2;
    if (Expected != ClosedForm)
      return {"reference main(" + std::to_string(Transfers) + ") = " +
              std::to_string(Expected) + ", closed form " +
              std::to_string(ClosedForm)};
    return {};
  }

  void corrupt() override { Expected += 1; }

  /// Every run's objects are collected once it returns: no history is
  /// reachable between ops.
  void history(uint64_t &Versions, uint64_t &Objects) const override {
    Versions = 0;
    Objects = 0;
  }

  InterpCounts interpCounts() const override {
    InterpCounts R;
    for (const auto &I : Interps) {
      interp::DynCounts &C = I->counts();
      R.Instrs += C.Instrs.load();
      R.Opens += C.OpenRead.load() + C.OpenUpdate.load();
      R.Undos += C.UndoField.load() + C.UndoElem.load();
      R.TxCommitted += C.TxCommitted.load();
      R.TxRetried += C.TxRetried.load();
    }
    return R;
  }
  PipelineTimes pipelineTimes() const override { return Times; }

private:
  static interp::Interpreter::Options interpOptions() {
    interp::Interpreter::Options O;
    O.Mode = interp::Interpreter::TxMode::ObjStm;
    return O;
  }

  static const char *bankSource() {
    unsigned Count = 0;
    const bench::TmirProgram *P = bench::tmirPrograms(Count);
    for (unsigned I = 0; I < Count; ++I)
      if (std::strcmp(P[I].Name, "bank") == 0)
        return P[I].Source;
    throw std::runtime_error("bank program missing from TmirPrograms.h");
  }

  static constexpr uint64_t WarmUpRuns = 160;

  const int64_t Transfers;
  std::unique_ptr<tmir::Module> M;
  std::vector<std::unique_ptr<interp::Interpreter>> Interps;
  int64_t Expected = 0;
  PipelineTimes Times;
};

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"kv-update", "read-mostly",
                                                 "server-zipf", "tmir-bank"};
  return Names;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name, bool Tiny) {
  if (Name == "kv-update")
    return std::make_unique<KvUpdate>(Tiny);
  if (Name == "read-mostly")
    return std::make_unique<ReadMostly>(Tiny);
  if (Name == "server-zipf")
    return std::make_unique<ServerZipf>(Tiny);
  if (Name == "tmir-bank")
    return std::make_unique<TmirBank>(Tiny);
  return nullptr;
}

} // namespace perfbench
