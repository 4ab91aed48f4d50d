//===- bench/e0_barrier_micro.cpp - barrier cost microbenchmarks ----------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Google-benchmark microbenchmarks of the individual STM primitives that
// every figure above is built from: the open barriers, undo logging, the
// runtime hash filter, commit costs for read-only vs writer transactions,
// and the word-STM read barrier for comparison.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "stm/HashFilter.h"
#include "stm/LogEntries.h"
#include "stm/Stm.h"
#include "support/ChunkedVector.h"
#include "support/TxPool.h"
#include "wstm/WordStm.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

using namespace otm;
using namespace otm::stm;
using namespace otm::wstm;

namespace {

struct Cell : TxObject {
  Field<int64_t> Value;
};

void BM_ReadOnlyTx(benchmark::State &State) {
  Cell C;
  for (auto _ : State) {
    int64_t V = 0;
    Stm::atomic([&](TxManager &Tx) { V = Tx.read(&C, &Cell::Value); });
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_ReadOnlyTx);

void BM_WriterTx(benchmark::State &State) {
  Cell C;
  for (auto _ : State)
    Stm::atomic([&](TxManager &Tx) {
      Tx.write(&C, &Cell::Value, int64_t{1});
    });
}
BENCHMARK(BM_WriterTx)->Threads(1)->Threads(2);

void BM_OpenForRead(benchmark::State &State) {
  // Cost of the read barrier inside an already-running transaction,
  // including the filter hit for repeats.
  std::vector<std::unique_ptr<Cell>> Cells;
  for (int I = 0; I < 64; ++I)
    Cells.push_back(std::make_unique<Cell>());
  for (auto _ : State) {
    Stm::atomic([&](TxManager &Tx) {
      for (auto &C : Cells)
        Tx.openForRead(C.get());
    });
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_OpenForRead);

void BM_OpenForUpdate(benchmark::State &State) {
  std::vector<std::unique_ptr<Cell>> Cells;
  for (int I = 0; I < 64; ++I)
    Cells.push_back(std::make_unique<Cell>());
  for (auto _ : State) {
    Stm::atomic([&](TxManager &Tx) {
      for (auto &C : Cells)
        Tx.openForUpdate(C.get());
    });
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_OpenForUpdate);

void BM_LogUndoFiltered(benchmark::State &State) {
  Cell C;
  for (auto _ : State) {
    Stm::atomic([&](TxManager &Tx) {
      Tx.openForUpdate(&C);
      for (int I = 0; I < 64; ++I) {
        Tx.logUndo(&C.Value);
        C.Value.store(I);
      }
    });
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_LogUndoFiltered);

void BM_WordStmRead(benchmark::State &State) {
  WCell<int64_t> Cells[64];
  for (auto _ : State) {
    WordStm::atomic([&](WTxManager &Tx) {
      int64_t Sum = 0;
      for (WCell<int64_t> &C : Cells)
        Sum += Tx.read(C);
      benchmark::DoNotOptimize(Sum);
    });
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_WordStmRead);

void BM_HashFilterInsert(benchmark::State &State) {
  HashFilter Filter;
  uintptr_t Key = 0x1000;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Filter.insert(Key));
    Key += 64;
    if ((Key & 0xffff) == 0)
      Filter.clear();
  }
}
BENCHMARK(BM_HashFilterInsert);

void BM_LogAppend(benchmark::State &State) {
  // The pointer-bump append/clear cycle of the log container itself: the
  // unit cost under every enlistment (read log shown; all logs share it).
  ChunkedVector<ReadEntry> Log;
  Cell C;
  for (auto _ : State) {
    for (int I = 0; I < 64; ++I)
      Log.emplaceBack(&C, WordValue{0});
    benchmark::DoNotOptimize(Log.size());
    Log.clear();
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_LogAppend);

void BM_ValidateScan(benchmark::State &State) {
  // Commit-time read-set validation: chunk-wise walk of a 256-entry read
  // log with one dependent STM-word load per entry (prefetched one ahead).
  std::vector<std::unique_ptr<Cell>> Cells;
  for (int I = 0; I < 256; ++I)
    Cells.push_back(std::make_unique<Cell>());
  TxManager &Tx = TxManager::current();
  Tx.begin();
  for (auto &C : Cells)
    Tx.openForRead(C.get());
  for (auto _ : State)
    benchmark::DoNotOptimize(Tx.validate());
  Tx.tryCommit();
  State.SetItemsProcessed(State.iterations() * 256);
}
BENCHMARK(BM_ValidateScan);

void BM_AllocAbortChurn(benchmark::State &State) {
  // Abort-heavy allocation churn: every attempt allocates one object and
  // aborts, so the object round-trips allocInTx -> epoch retirement ->
  // TxPool free list instead of malloc/free.
  for (auto _ : State) {
    Stm::atomic([&](TxManager &Tx) {
      Cell *C = Tx.allocInTx<Cell>();
      benchmark::DoNotOptimize(C);
      Tx.userAbort();
    });
  }
}
BENCHMARK(BM_AllocAbortChurn);

void BM_TxPoolAllocFree(benchmark::State &State) {
  // The pool fast path by itself: same-thread allocate/deallocate pair
  // (free-list pop + push) for a transactional-object-sized block.
  for (auto _ : State) {
    void *P = support::TxPool::allocate(sizeof(Cell));
    benchmark::DoNotOptimize(P);
    support::TxPool::deallocate(P);
  }
}
BENCHMARK(BM_TxPoolAllocFree);

void BM_UncontendedRawLoad(benchmark::State &State) {
  // The floor every barrier is compared against.
  Cell C;
  for (auto _ : State)
    benchmark::DoNotOptimize(C.Value.load());
}
BENCHMARK(BM_UncontendedRawLoad);

/// Console output as usual, plus every run captured into the BENCH_E0.json
/// document (ns/op per primitive is the paper's Table-barrier-cost data).
class JsonCaptureReporter : public benchmark::ConsoleReporter {
public:
  explicit JsonCaptureReporter(bench::BenchReport &Report) : Report(Report) {}

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs) {
      if (R.error_occurred)
        continue;
      obs::JsonValue J = obs::JsonValue::object();
      J.set("label", R.benchmark_name());
      J.set("real_time_ns", R.GetAdjustedRealTime());
      J.set("cpu_time_ns", R.GetAdjustedCPUTime());
      J.set("iterations", static_cast<uint64_t>(R.iterations));
      Report.addRun(std::move(J));
    }
    ConsoleReporter::ReportRuns(Runs);
  }

private:
  bench::BenchReport &Report;
};

} // namespace

int main(int argc, char **argv) {
  // E12 owns the hardware A/B; pinning the HTM budget to zero keeps this
  // binary's gated counts identical across RTM and no-RTM machines.
  otm::stm::TxManager::config().HtmAttempts = 0;
  std::vector<char *> Args(argv, argv + argc);
  char MinTime[] = "--benchmark_min_time=0.01";
  if (bench::smokeMode())
    Args.push_back(MinTime);
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  // No latency sampling: E0 measures the barrier fast path itself, so the
  // per-transaction TSC reads that sampling adds must stay out of the loop.
  bench::BenchReport Report("e0_barrier_micro", "E0",
                            /*SampleLatencies=*/false);
  JsonCaptureReporter Reporter(Report);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  Report.write();
  benchmark::Shutdown();
  return 0;
}
