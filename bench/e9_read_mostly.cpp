//===- bench/e9_read_mostly.cpp - E9: snapshot readers vs validate --------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// E9 (MVCC A/B): read-mostly workloads over a Zipf-skewed object pool,
// comparing the two read-only commit disciplines side by side:
//
//   - mode=validate: read-only transactions run through the ordinary
//     optimistic path (invisible reads enlisted in the read log, full
//     validate scan at commit, aborts on conflict with writers);
//   - mode=snapshot: the same transactions run through Stm::atomicReadOnly
//     and resolve against the multi-version chains at their begin stamp —
//     no read log, no validate scan, no aborts (DESIGN.md section 3.9).
//
// The grid sweeps thread count and reader fraction. Writer transactions
// (identical in both modes) read-modify-write two objects, keeping the
// version chains churning under the readers. Reported per cell: commit
// counts split by role, snapshot-path traffic, and the mean whole-
// transaction cost per role in TSC cycles (the headline number: snapshot
// readers shed the O(read-set) validate scan).
//
// Determinism: role choice and key choice come from fixed per-thread
// seeds, so commits/reader_tx/writer_tx/snapshot_commits are exact run to
// run. Abort, refresh, and wait counts depend on interleaving and are
// emitted under nd_-prefixed keys, which the bench_diff count gate skips.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "obs/Tsc.h"
#include "stm/Stm.h"
#include "support/Random.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace otm;
using namespace otm::bench;
using namespace otm::stm;

namespace {

const int TxPerThread = static_cast<int>(scaled(20000, 400));
constexpr unsigned PoolSize = 4096;
constexpr unsigned ReadsPerTx = 16;

struct Item : TxObject {
  Field<int64_t> Value;
};

struct CellResult {
  uint64_t ReaderTx = 0;
  uint64_t WriterTx = 0;
  uint64_t ReaderCycles = 0;
  uint64_t WriterCycles = 0;
  int64_t ReadSink = 0; ///< keeps the reader loads observable
};

/// One grid cell: \p NumThreads threads, \p ReaderPercent of transactions
/// read-only, run in snapshot mode when \p Snapshot (else the validate
/// path). The object pool is rebuilt per cell so chain depths start equal.
void runCell(unsigned NumThreads, unsigned ReaderPercent, bool Snapshot,
             BenchReport &Report) {
  std::vector<std::unique_ptr<Item>> Pool;
  Pool.reserve(PoolSize);
  for (unsigned I = 0; I < PoolSize; ++I)
    Pool.push_back(std::make_unique<Item>());

  std::vector<CellResult> PerThread(NumThreads);
  StatsCapture Capture;
  double Seconds = runThreads(NumThreads, [&](unsigned T) {
    // Separate generators for role and keys: the role stream (and with it
    // reader_tx/writer_tx) stays deterministic regardless of how many key
    // draws each role makes.
    Xoshiro256 Role(9100 + T);
    KeyDist Keys = KeyDist::zipf(PoolSize, 9200 + T);
    CellResult &R = PerThread[T];
    int64_t Sink = 0;
    for (int I = 0; I < TxPerThread; ++I) {
      bool Reader = Role.nextPercent(ReaderPercent);
      uint64_t T0 = obs::readTsc();
      if (Reader) {
        auto Body = [&](TxManager &Tx) {
          int64_t Sum = 0;
          for (unsigned N = 0; N < ReadsPerTx; ++N)
            Sum += Tx.read(Pool[Keys.next()].get(), &Item::Value);
          Sink += Sum;
        };
        if (Snapshot)
          Stm::atomicReadOnly(Body);
        else
          Stm::atomic(Body);
        R.ReaderCycles += obs::readTsc() - T0;
        ++R.ReaderTx;
      } else {
        Item *A = Pool[Keys.next()].get();
        Item *B = Pool[Keys.next()].get();
        Stm::atomic([&](TxManager &Tx) {
          Tx.openForUpdate(A);
          Tx.openForUpdate(B);
          int64_t V = A->Value.load();
          Tx.logUndo(&A->Value);
          A->Value.store(V + 1);
          Tx.logUndo(&B->Value);
          B->Value.store(B->Value.load() + 1);
        });
        R.WriterCycles += obs::readTsc() - T0;
        ++R.WriterTx;
      }
    }
    R.ReadSink = Sink;
  });

  stm::TxStats S = Capture.finish();
  CellResult Total;
  for (const CellResult &R : PerThread) {
    Total.ReaderTx += R.ReaderTx;
    Total.WriterTx += R.WriterTx;
    Total.ReaderCycles += R.ReaderCycles;
    Total.WriterCycles += R.WriterCycles;
    Total.ReadSink += R.ReadSink;
  }
  const uint64_t TotalTx = uint64_t(NumThreads) * uint64_t(TxPerThread);
  double Ktps = double(TotalTx) / Seconds / 1e3;
  double ReaderCost =
      Total.ReaderTx ? double(Total.ReaderCycles) / double(Total.ReaderTx) : 0;
  double WriterCost =
      Total.WriterTx ? double(Total.WriterCycles) / double(Total.WriterTx) : 0;
  const char *Mode = Snapshot ? "snapshot" : "validate";
  std::printf("%-9s %7u %8u%% %10.1f %11llu %11llu %12llu %9llu %12.0f\n",
              Mode, NumThreads, ReaderPercent, Ktps,
              static_cast<unsigned long long>(Total.ReaderTx),
              static_cast<unsigned long long>(Total.WriterTx),
              static_cast<unsigned long long>(S.SnapshotCommits),
              static_cast<unsigned long long>(S.Aborts), ReaderCost);

  obs::JsonValue Run = obs::JsonValue::object();
  Run.set("label", "mode=" + std::string(Mode) +
                       "/threads=" + std::to_string(NumThreads) +
                       "/readers=" + std::to_string(ReaderPercent) + "%");
  Run.set("mode", Mode);
  Run.set("threads", uint64_t(NumThreads));
  Run.set("reader_percent", uint64_t(ReaderPercent));
  // Deterministic counts (fixed seeds; retried attempts commit exactly once).
  Run.set("commits", S.Commits);
  Run.set("reader_tx", Total.ReaderTx);
  Run.set("writer_tx", Total.WriterTx);
  Run.set("snapshot_commits", S.SnapshotCommits);
  // Timing (skipped by the count gate via the _cycles/_per_sec suffixes).
  Run.set("ktx_per_sec", Ktps);
  Run.set("reader_tx_cycles", ReaderCost);
  Run.set("writer_tx_cycles", WriterCost);
  // Interleaving-dependent counts (nd_ prefix: skipped by the count gate).
  Run.set("nd_read_sink", static_cast<uint64_t>(Total.ReadSink));
  Run.set("nd_aborts", S.Aborts);
  Run.set("nd_aborts_on_conflict", S.AbortsOnConflict);
  Run.set("nd_aborts_on_validation", S.AbortsOnValidation);
  Run.set("nd_snapshot_refreshes", S.SnapshotRefreshes);
  Run.set("nd_snapshot_waits", S.SnapshotWaits);
  Run.set("nd_snapshot_reads_from_chain", S.SnapshotReadsFromChain);
  Report.addRun(std::move(Run));
}

} // namespace

int main() {
  // E12 owns the hardware A/B; pinning the HTM budget to zero keeps this
  // binary's gated counts identical across RTM and no-RTM machines.
  otm::stm::TxManager::config().HtmAttempts = 0;
  BenchReport Report("e9_read_mostly", "E9");
  std::printf("E9: read-mostly Zipf workload, snapshot vs validate read-only "
              "commits (pool=%u, %u reads/tx, skew=%.2f)\n",
              PoolSize, ReadsPerTx, BenchZipfSkew);
  if (TxManager::config().MvVersions == 0)
    std::printf("NOTE: OTM_MV_VERSIONS=0 — mode=snapshot falls back to "
                "the validate path (snapshot_commits stays 0)\n");
  printHeaderRule();
  std::printf("%-9s %7s %9s %10s %11s %11s %12s %9s %12s\n", "mode", "threads",
              "readers", "Ktx/s", "reader_tx", "writer_tx", "snap_commits",
              "aborts", "rd_cyc/tx");
  printHeaderRule();
  for (unsigned Threads : {1u, 2u, 4u, 8u})
    for (unsigned ReaderPercent : {50u, 90u, 99u})
      for (bool Snapshot : {false, true})
        runCell(Threads, ReaderPercent, Snapshot, Report);
  printHeaderRule();
  std::printf("expected shape: snapshot rows commit every reader with zero "
              "aborts (snap_commits == reader_tx) and their per-transaction "
              "cost stays flat as threads rise, while validate readers pay "
              "the O(read-set) commit scan plus conflict aborts against the "
              "writers.\n");
  Report.write();
  return 0;
}
