//===- bench/e1_seq_overhead.cpp - E1: single-thread STM overhead ---------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// E1 (paper analogue: the sequential-overhead figure). Single-threaded
// kernels over the transactional containers, executed under every
// synchronization configuration. The paper's headline: naive per-access
// barriers cost a multiple of sequential time; the optimized (one open per
// object) placement recovers most of it.
//
// Output: one row per kernel/config with ns/op and slowdown vs `seq`.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "containers/HashMap.h"
#include "containers/RBTree.h"
#include "containers/SkipList.h"
#include "containers/SortedList.h"
#include "interp/Interp.h"
#include "passes/Pipeline.h"
#include "support/Random.h"
#include "sync/HandOverHandList.h"
#include "tmir/Parser.h"
#include "tmir/Verifier.h"

#include <cstdio>
#include <string>

using namespace otm;
using namespace otm::bench;
using namespace otm::containers;

namespace {

const int ListOps = static_cast<int>(scaled(20000, 500));
const int MapOps = static_cast<int>(scaled(300000, 2000));
const int TreeOps = static_cast<int>(scaled(200000, 2000));
const int SkipOps = static_cast<int>(scaled(150000, 2000));

template <typename Policy> double kernelSortedList() {
  SortedList<Policy> List;
  for (int64_t K = 0; K < 200; K += 2)
    List.insert(K, K);
  Xoshiro256 Rng(11);
  return timeIt([&] {
    for (int I = 0; I < ListOps; ++I) {
      int64_t Key = static_cast<int64_t>(Rng.nextBelow(200));
      uint64_t Dice = Rng.nextBelow(100);
      if (Dice < 80) {
        List.contains(Key);
      } else if (Dice < 90) {
        List.insert(Key, Key);
      } else {
        List.erase(Key);
      }
    }
  }) / ListOps * 1e9;
}

double kernelHohList() {
  sync::HandOverHandList List;
  for (int64_t K = 0; K < 200; K += 2)
    List.insert(K, K);
  Xoshiro256 Rng(11);
  return timeIt([&] {
    for (int I = 0; I < ListOps; ++I) {
      int64_t Key = static_cast<int64_t>(Rng.nextBelow(200));
      uint64_t Dice = Rng.nextBelow(100);
      if (Dice < 80) {
        List.contains(Key);
      } else if (Dice < 90) {
        List.insert(Key, Key);
      } else {
        List.erase(Key);
      }
    }
  }) / ListOps * 1e9;
}

template <typename Policy> double kernelHashMap() {
  HashMap<Policy> Map(4096);
  for (int64_t K = 0; K < 4096; K += 2)
    Map.insert(K, K);
  Xoshiro256 Rng(22);
  return timeIt([&] {
    for (int I = 0; I < MapOps; ++I) {
      int64_t Key = static_cast<int64_t>(Rng.nextBelow(4096));
      uint64_t Dice = Rng.nextBelow(100);
      if (Dice < 80) {
        Map.contains(Key);
      } else if (Dice < 90) {
        Map.insert(Key, Key);
      } else {
        Map.erase(Key);
      }
    }
  }) / MapOps * 1e9;
}

template <typename Policy> double kernelRBTree() {
  RBTree<Policy> Tree;
  Xoshiro256 Seed(33);
  for (int I = 0; I < 8192; ++I)
    Tree.insert(static_cast<int64_t>(Seed.nextBelow(1 << 20)), I);
  Xoshiro256 Rng(44);
  return timeIt([&] {
    for (int I = 0; I < TreeOps; ++I) {
      int64_t Key = static_cast<int64_t>(Rng.nextBelow(1 << 20));
      uint64_t Dice = Rng.nextBelow(100);
      if (Dice < 80) {
        Tree.contains(Key);
      } else if (Dice < 90) {
        Tree.insert(Key, I);
      } else {
        Tree.erase(Key);
      }
    }
  }) / TreeOps * 1e9;
}

template <typename Policy> double kernelSkipList() {
  SkipList<Policy> List;
  Xoshiro256 Seed(55);
  for (int I = 0; I < 8192; ++I)
    List.insert(static_cast<int64_t>(Seed.nextBelow(1 << 20)), I);
  Xoshiro256 Rng(66);
  return timeIt([&] {
    for (int I = 0; I < SkipOps; ++I) {
      int64_t Key = static_cast<int64_t>(Rng.nextBelow(1 << 20));
      uint64_t Dice = Rng.nextBelow(100);
      if (Dice < 80) {
        List.contains(Key);
      } else if (Dice < 90) {
        List.insert(Key, I);
      } else {
        List.erase(Key);
      }
    }
  }) / SkipOps * 1e9;
}

// --- Interpreter dispatch floor -----------------------------------------
//
// The TMIR interpreter is the "compiled program" of experiments E5/E6/E8,
// so its dispatch cost is part of every measured barrier overhead. Two
// kernels pin it down:
//
//   interp-floor    straight-line arithmetic loop, no barriers — pure
//                   decode-execute cost per executed instruction, for both
//                   dispatch loops;
//   interp-counter  one-field atomic counter — the atomic-region overhead
//                   factor (atomic ns/op over ignore-atomic ns/op).
//
// Timing uses a benchmark-sized argument; the count columns re-run at a
// small fixed argument so the JSON rows stay deterministic for
// scripts/bench_diff.py regardless of host and smoke mode.

const char *const FloorSrc = R"(
func main(n: i64): i64 {
  var i: i64
  var acc: i64
entry:
  storelocal i, 0
  storelocal acc, 1
  br loop
loop:
  %i = loadlocal i
  %n = loadlocal n
  %done = cmpge %i, %n
  condbr %done, exit, body
body:
  %a = loadlocal acc
  %m = mul %a, 31
  %x = xor %m, %i
  %s = shr %x, 3
  %d = and %s, 1023
  %u = add %x, %d
  %v = sub %u, %i
  %w = or %v, 1
  storelocal acc, %w
  %i2 = add %i, 1
  storelocal i, %i2
  br loop
exit:
  %r = loadlocal acc
  ret %r
}
)";

const char *const CounterSrc = R"(
class Counter { val: i64 }

func main(n: i64): i64 {
  var i: i64
entry:
  %c = newobj Counter
  storelocal i, 0
  br loop
loop:
  %i = loadlocal i
  %n = loadlocal n
  %done = cmpge %i, %n
  condbr %done, exit, body
body:
  atomic_begin
  %v = getfield %c, Counter.val
  %v2 = add %v, 1
  setfield %c, Counter.val, %v2
  atomic_end
  %i2 = add %i, 1
  storelocal i, %i2
  br loop
exit:
  %r = getfield %c, Counter.val
  ret %r
}
)";

struct InterpRow {
  std::string Label;
  double NsPerOp = 0;      ///< timing (ns per instr for floor, per op else)
  uint64_t Instrs = 0;     ///< deterministic, from the fixed-arg run
  uint64_t Opens = 0;      ///< deterministic, from the fixed-arg run
  long long Result = 0;    ///< deterministic, from the fixed-arg run
};

InterpRow runInterp(const char *Src, std::string Label,
                    interp::Interpreter::TxMode Mode,
                    interp::Interpreter::Dispatch Loop,
                    const passes::OptConfig &Config, long long CountArg,
                    long long TimeArg, bool PerInstr) {
  using interp::Interpreter;
  auto MakeInterp = [&](tmir::Module &M) {
    tmir::verifyModuleOrDie(M);
    passes::lowerAndOptimize(M, Config);
    Interpreter::Options O;
    O.Mode = Mode;
    O.Loop = Loop;
    return Interpreter(M, O);
  };

  InterpRow Row;
  Row.Label = std::move(Label);
  {
    // Deterministic count columns at a fixed size.
    tmir::Module M = tmir::parseModuleOrDie(Src);
    Interpreter I = MakeInterp(M);
    Interpreter::RunResult R = I.run("main", {CountArg});
    if (R.Trapped) {
      std::fprintf(stderr, "e1: %s trapped: %s\n", Row.Label.c_str(),
                   R.Error.c_str());
      std::exit(1);
    }
    Row.Result = R.Value;
    Row.Instrs = I.counts().Instrs.load();
    Row.Opens = I.counts().OpenRead.load() + I.counts().OpenUpdate.load();
  }
  {
    // Timing at benchmark size.
    tmir::Module M = tmir::parseModuleOrDie(Src);
    Interpreter I = MakeInterp(M);
    double Seconds = timeIt([&] { I.run("main", {TimeArg}); });
    double Den = PerInstr ? double(I.counts().Instrs.load())
                          : double(TimeArg);
    Row.NsPerOp = Seconds / Den * 1e9;
  }
  return Row;
}

struct Row {
  const char *Kernel;
  double Seq, Coarse, Word, Naive, Opt;
};

template <template <typename> class KernelFor> Row runRow(const char *Name);

#define RUN_KERNEL(NAME, FN)                                                   \
  Row {                                                                        \
    NAME, FN<SeqPolicy>(), FN<CoarseLockPolicy>(), FN<WordStmPolicy>(),        \
        FN<ObjStmNaivePolicy>(), FN<ObjStmOptPolicy>()                         \
  }

void printRow(const Row &R) {
  auto Rel = [&](double V) { return V / R.Seq; };
  std::printf("%-12s %9.1f %9.1f(%4.1fx) %9.1f(%4.1fx) %9.1f(%4.1fx) "
              "%9.1f(%4.1fx)\n",
              R.Kernel, R.Seq, R.Coarse, Rel(R.Coarse), R.Word, Rel(R.Word),
              R.Naive, Rel(R.Naive), R.Opt, Rel(R.Opt));
}

} // namespace

int main() {
  // E12 owns the hardware A/B; pinning the HTM budget to zero keeps this
  // binary's gated counts identical across RTM and no-RTM machines.
  otm::stm::TxManager::config().HtmAttempts = 0;
  BenchReport Report("e1_seq_overhead", "E1");
  auto emitRow = [&](const Row &R) {
    printRow(R);
    const char *Configs[] = {"seq", "coarse-lock", "word-stm",
                             "obj-stm-naive", "obj-stm-opt"};
    double NsPerOp[] = {R.Seq, R.Coarse, R.Word, R.Naive, R.Opt};
    for (int I = 0; I < 5; ++I) {
      obs::JsonValue Run = obs::JsonValue::object();
      Run.set("label", std::string(R.Kernel) + "/" + Configs[I]);
      Run.set("ns_per_op", NsPerOp[I]);
      Report.addRun(std::move(Run));
    }
  };
  std::printf("E1: single-thread overhead, ns/op (slowdown vs seq)\n");
  std::printf("workloads: 80%% lookup / 10%% insert / 10%% erase\n");
  printHeaderRule();
  std::printf("%-12s %9s %16s %16s %16s %16s\n", "kernel", "seq",
              "coarse-lock", "word-stm", "obj-stm-naive", "obj-stm-opt");
  printHeaderRule();
  emitRow(RUN_KERNEL("sorted-list", kernelSortedList));
  std::printf("%-12s %9.1f   (hand-over-hand lock-coupling baseline)\n",
              "  hoh-list", kernelHohList());
  emitRow(RUN_KERNEL("hashmap", kernelHashMap));
  emitRow(RUN_KERNEL("rbtree", kernelRBTree));
  emitRow(RUN_KERNEL("skiplist", kernelSkipList));
  printHeaderRule();
  std::printf("expected shape: naive >> opt > coarse ~ seq; opt recovers "
              "most of the naive overhead\n");

  using interp::Interpreter;
  using passes::OptConfig;
  const long long FloorCountArg = 10000, FloorTimeArg = scaled(2000000, 20000);
  const long long CtrCountArg = 2000, CtrTimeArg = scaled(300000, 5000);
  InterpRow InterpRows[] = {
      runInterp(FloorSrc, "interp-floor/threaded",
                Interpreter::TxMode::IgnoreAtomic,
                Interpreter::Dispatch::Threaded, OptConfig::none(),
                FloorCountArg, FloorTimeArg, /*PerInstr=*/true),
      runInterp(FloorSrc, "interp-floor/switch",
                Interpreter::TxMode::IgnoreAtomic,
                Interpreter::Dispatch::Switch, OptConfig::none(),
                FloorCountArg, FloorTimeArg, /*PerInstr=*/true),
      runInterp(CounterSrc, "interp-counter/ignore-atomic",
                Interpreter::TxMode::IgnoreAtomic,
                Interpreter::Dispatch::Threaded, OptConfig::none(),
                CtrCountArg, CtrTimeArg, /*PerInstr=*/false),
      runInterp(CounterSrc, "interp-counter/obj-stm-naive",
                Interpreter::TxMode::ObjStm, Interpreter::Dispatch::Threaded,
                OptConfig::none(), CtrCountArg, CtrTimeArg,
                /*PerInstr=*/false),
      runInterp(CounterSrc, "interp-counter/obj-stm-opt",
                Interpreter::TxMode::ObjStm, Interpreter::Dispatch::Threaded,
                OptConfig::all(), CtrCountArg, CtrTimeArg,
                /*PerInstr=*/false),
  };

  std::printf("\nTMIR interpreter dispatch floor (floor rows: ns/instr; "
              "counter rows: ns/op)\n");
  printHeaderRule();
  for (const InterpRow &R : InterpRows) {
    std::printf("%-28s %9.2f\n", R.Label.c_str(), R.NsPerOp);
    obs::JsonValue Run = obs::JsonValue::object();
    Run.set("label", R.Label);
    Run.set("ns_per_op", R.NsPerOp);
    Run.set("instrs", R.Instrs);
    Run.set("opens", R.Opens);
    Run.set("result", int64_t(R.Result));
    Report.addRun(std::move(Run));
  }
  std::printf("atomic-region overhead factor (obj-stm-naive / "
              "ignore-atomic): %.2fx; optimized: %.2fx\n",
              InterpRows[3].NsPerOp / InterpRows[2].NsPerOp,
              InterpRows[4].NsPerOp / InterpRows[2].NsPerOp);
  Report.write();
  return 0;
}
