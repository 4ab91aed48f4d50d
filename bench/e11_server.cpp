//===- bench/e11_server.cpp - E11: server-shaped open-loop workload -------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// E11 (admission-scheduler A/B): the repo's standing "production traffic"
// gate. Requests are server-shaped — Zipf-popular keys over a table of
// transactional rows, a configurable read/write mix and transaction size —
// and arrive OPEN-LOOP: each thread follows an absolute-deadline schedule
// (deadline_i = start + (i+1)*period) instead of issuing back-to-back, so
// end-to-end latency includes the queueing backlog a saturated server
// accumulates; a closed loop would hide exactly the delay this experiment
// exists to measure. Reported per cell: p50/p99/p999/max end-to-end latency
// (completion minus deadline, ns) and goodput (committed requests/s).
//
// Four arms per thread count, one knob apart:
//
//   spec      pure speculation (scheduler mode off) — the baseline;
//   sched     admission always on, footprints DECLARED up front;
//   adaptive  admission armed per class by measured abort rates;
//   sampled   admission on, footprints SAMPLED from a first speculative
//             attempt (no caller knowledge).
//
// The offered load is identical across arms at a given thread count:
// OTM_E11_RATE=<req/s> fixes it absolutely, and by default a closed-loop
// calibration run (spec mode) measures the service rate and offers 90% of
// it — near saturation, where turning aborts into queueing pays or fails
// visibly. On a single-core host one request in ten yields mid-transaction
// (the E7 overlap emulation); all randomness is drawn OUTSIDE the
// transaction bodies so retries replay the same request and every cell
// commits exactly threads*requests transactions (the count gate relies on
// this — latency/rate fields and nd_ counters carry everything
// interleaving-dependent).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "stm/Stm.h"
#include "support/Random.h"
#include "txn/AdmissionScheduler.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace otm;
using namespace otm::bench;
using namespace otm::stm;

namespace {

constexpr unsigned Rows = 4096;    // server table size (Zipf keyspace)
constexpr unsigned TxSize = 8;     // keys touched per request
constexpr unsigned WritePct = 50;  // per-key probability of read-modify-write
constexpr uint32_t TableClass = 11; // the one admission class of this bench

const int RequestsPerThread = static_cast<int>(scaled(3000, 60));
const int CalibrateRequests = static_cast<int>(scaled(1000, 40));

struct Row : TxObject {
  Field<int64_t> Value;
};

using Table = std::vector<std::unique_ptr<Row>>;

enum class Arm { Spec, Sched, Adaptive, Sampled };

const char *armName(Arm A) {
  switch (A) {
  case Arm::Spec:
    return "spec";
  case Arm::Sched:
    return "sched";
  case Arm::Adaptive:
    return "adaptive";
  case Arm::Sampled:
    return "sampled";
  }
  return "?";
}

/// One pre-drawn request: keys, per-key write flags, and the overlap-yield
/// flag — everything random decided before the transaction starts, so a
/// retried body replays the identical request.
struct Request {
  uint32_t Keys[TxSize];
  bool Writes[TxSize];
  bool Yield;
};

Request drawRequest(Xoshiro256 &Role, KeyDist &Keys) {
  Request R;
  for (unsigned K = 0; K < TxSize; ++K) {
    R.Keys[K] = static_cast<uint32_t>(Keys.next());
    R.Writes[K] = Role.nextPercent(WritePct);
  }
  R.Yield = Role.nextPercent(10);
  return R;
}

/// Executes one request transactionally under the given arm.
void serveRequest(Arm A, Table &T, const Request &R, int64_t &Sink) {
  auto Body = [&](TxManager &Tx) {
    int64_t Sum = 0;
    for (unsigned K = 0; K < TxSize; ++K) {
      Row *Obj = T[R.Keys[K]].get();
      if (R.Writes[K]) {
        Tx.openForUpdate(Obj);
        Tx.logUndo(&Obj->Value);
        Obj->Value.store(Obj->Value.load() + 1);
      } else {
        Tx.openForRead(Obj);
        Sum += Obj->Value.load();
      }
    }
    if (R.Yield)
      std::this_thread::yield();
    Sink += Sum;
  };
  switch (A) {
  case Arm::Spec:
    Stm::atomic(Body);
    break;
  case Arm::Sched:
  case Arm::Adaptive: {
    // Declared footprint: a server request handler knows its keys up
    // front. Same key convention as the sampled path (row addresses).
    txn::TxSummary S;
    for (unsigned K = 0; K < TxSize; ++K) {
      uint64_t Addr = reinterpret_cast<uintptr_t>(T[R.Keys[K]].get());
      if (R.Writes[K])
        S.addWrite(Addr);
      else
        S.addRead(Addr);
    }
    Stm::atomicScheduled(TableClass, S, Body);
    break;
  }
  case Arm::Sampled:
    Stm::atomicScheduled(TableClass, Body);
    break;
  }
}

void setArmMode(Arm A) {
  auto &Sched = txn::AdmissionScheduler::instance();
  Sched.resetForTesting();
  switch (A) {
  case Arm::Spec:
    Sched.setMode(txn::SchedMode::Off);
    break;
  case Arm::Sched:
  case Arm::Sampled:
    Sched.setMode(txn::SchedMode::On);
    break;
  case Arm::Adaptive:
    Sched.setMode(txn::SchedMode::Adaptive);
    break;
  }
}

/// Closed-loop service-rate probe (spec mode): how fast can \p NumThreads
/// drain requests back-to-back? The open-loop cells offer 90% of this.
double calibrateRate(Table &T, unsigned NumThreads) {
  setArmMode(Arm::Spec);
  StatsCapture Capture;
  std::vector<int64_t> Sink(NumThreads, 0);
  double Seconds = runThreads(NumThreads, [&](unsigned Tid) {
    Xoshiro256 Role(11100 + Tid);
    KeyDist Keys = KeyDist::zipf(Rows, 11200 + Tid);
    for (int I = 0; I < CalibrateRequests; ++I) {
      Request R = drawRequest(Role, Keys);
      serveRequest(Arm::Spec, T, R, Sink[Tid]);
    }
  });
  Capture.finish();
  return NumThreads * static_cast<double>(CalibrateRequests) / Seconds;
}

/// One open-loop cell: \p NumThreads threads, one arm, offered aggregate
/// load \p RatePerSec.
void runCell(Arm A, unsigned NumThreads, double RatePerSec,
             BenchReport &Report) {
  using Clock = std::chrono::steady_clock;
  Table T;
  T.reserve(Rows);
  for (unsigned I = 0; I < Rows; ++I)
    T.push_back(std::make_unique<Row>());

  setArmMode(A);
  auto PeriodNs = std::chrono::nanoseconds(static_cast<uint64_t>(
      1e9 * static_cast<double>(NumThreads) / RatePerSec));
  txn::SchedStatsSnapshot SchedBefore =
      txn::AdmissionScheduler::instance().stats();

  std::vector<obs::Histogram> Lat(NumThreads);
  std::vector<int64_t> Sink(NumThreads, 0);
  StatsCapture Capture;
  double Seconds = runThreads(NumThreads, [&](unsigned Tid) {
    Xoshiro256 Role(11100 + Tid);
    KeyDist Keys = KeyDist::zipf(Rows, 11200 + Tid);
    obs::Histogram &H = Lat[Tid];
    Clock::time_point Start = Clock::now();
    for (int I = 0; I < RequestsPerThread; ++I) {
      // Open loop: the request exists at its deadline whether or not the
      // server is ready; running late means the backlog charges every
      // subsequent request's latency.
      Clock::time_point Deadline = Start + (I + 1) * PeriodNs;
      std::this_thread::sleep_until(Deadline); // no-op when already late
      Request R = drawRequest(Role, Keys);
      serveRequest(A, T, R, Sink[Tid]);
      H.record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               Deadline)
              .count()));
    }
  });
  stm::TxStats S = Capture.finish();
  txn::SchedStatsSnapshot SchedAfter =
      txn::AdmissionScheduler::instance().stats();

  obs::Histogram All;
  for (const obs::Histogram &H : Lat)
    All.merge(H);
  uint64_t Ops = NumThreads * static_cast<uint64_t>(RequestsPerThread);
  double Goodput = static_cast<double>(S.Commits) / Seconds;
  double AbortPct = S.Starts ? 100.0 * static_cast<double>(S.Aborts) /
                                   static_cast<double>(S.Starts)
                             : 0.0;
  std::printf("%-8s %7u %9.0f %10.1f %9.2f%% %10.0f %10.0f %11.0f %10.0f\n",
              armName(A), NumThreads, RatePerSec, Goodput / 1e3, AbortPct,
              All.percentile(50.0), All.percentile(99.0),
              All.percentile(99.9), static_cast<double>(All.max()));

  obs::JsonValue Run = makeRun("arm=" + std::string(armName(A)) +
                                   "/threads=" + std::to_string(NumThreads),
                               Seconds, Ops);
  Run.set("arm", armName(A));
  Run.set("threads", NumThreads);
  Run.set("commits", S.Commits); // == ops: every request commits exactly once
  Run.set("goodput_per_sec", Goodput);
  Run.set("arrival_rate_per_sec", RatePerSec);
  Run.set("nd_aborts", S.Aborts);
  Run.set("abort_percent", AbortPct);
  Run.set("p50_latency_ns", All.percentile(50.0));
  Run.set("p99_latency_ns", All.percentile(99.0));
  Run.set("p999_latency_ns", All.percentile(99.9));
  Run.set("max_latency_ns", static_cast<double>(All.max()));
  // Scheduler decisions for THIS cell (the global counters survive the
  // StatsCapture reset, so delta around the cell).
  Run.set("nd_sched_admitted", SchedAfter.AdmittedImmediate -
                                   SchedBefore.AdmittedImmediate);
  Run.set("nd_sched_queued", SchedAfter.Queued - SchedBefore.Queued);
  Run.set("nd_sched_overflows",
          SchedAfter.QueueOverflows - SchedBefore.QueueOverflows);
  Run.set("nd_sched_timeouts",
          SchedAfter.TimeoutBypasses - SchedBefore.TimeoutBypasses);
  Run.set("nd_sched_bypassed", SchedAfter.Bypassed - SchedBefore.Bypassed);
  Run.set("nd_sched_gate_flips_on",
          SchedAfter.GateFlipsOn - SchedBefore.GateFlipsOn);
  Run.set("nd_sched_max_queue_depth", SchedAfter.MaxQueueDepth);
  Run.set("sched_queue_wait_us",
          SchedAfter.QueueWaitMicros - SchedBefore.QueueWaitMicros);
  Report.addRun(std::move(Run));
}

} // namespace

int main() {
  // E12 owns the hardware A/B; pinning the HTM budget to zero keeps this
  // binary's gated counts identical across RTM and no-RTM machines.
  otm::stm::TxManager::config().HtmAttempts = 0;
  BenchReport Report("e11_server", "E11");
  std::printf("E11: open-loop server workload (rows=%u, %u keys/tx, %u%% "
              "writes/key, zipf skew=%.2f, %d req/thread)\n",
              Rows, TxSize, WritePct, BenchZipfSkew, RequestsPerThread);
  double RateOverride = 0.0;
  if (const char *E = std::getenv("OTM_E11_RATE"))
    RateOverride = std::atof(E);
  printHeaderRule();
  std::printf("%-8s %7s %9s %10s %10s %10s %10s %11s %10s\n", "arm",
              "threads", "offered", "Kgood/s", "abort%", "p50ns", "p99ns",
              "p999ns", "maxns");
  printHeaderRule();
  for (unsigned NumThreads : {2u, 8u}) {
    // One offered load per thread count, shared by all four arms: either
    // the OTM_E11_RATE override or 90% of the measured closed-loop service
    // rate (near saturation — where the scheduling-vs-speculation tradeoff
    // actually bites).
    double Rate = RateOverride;
    if (Rate <= 0.0) {
      Table Cal;
      Cal.reserve(Rows);
      for (unsigned I = 0; I < Rows; ++I)
        Cal.push_back(std::make_unique<Row>());
      Rate = 0.9 * calibrateRate(Cal, NumThreads);
    }
    for (Arm A : {Arm::Spec, Arm::Sched, Arm::Adaptive, Arm::Sampled})
      runCell(A, NumThreads, Rate, Report);
  }
  // Leave the process-wide mode as the environment configured it.
  txn::AdmissionScheduler::instance().resetForTesting();
  printHeaderRule();
  std::printf("expected shape: at saturation the spec arm burns its headroom "
              "on aborted speculation — the backlog grows and the latency "
              "tail stretches. Admission (declared or sampled) trades those "
              "aborts for bounded queueing: fewer aborts, higher goodput, "
              "and a shorter p99/p999. The adaptive arm starts off and "
              "should converge onto the same win once the abort storm arms "
              "its gate.\n");
  Report.write();
  return 0;
}
