//===- perfbench/src/main.cpp - Steady-state benchmark entry point --------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. An untraced run reports the
// end-to-end metrics; a traced run (--trace 1) reports the per-layer ones.
// Usage (perfbench/run.py builds this binary and forwards its arguments):
//
//   otm_perfbench --workload kv-update --seed 7 --seconds 10 --trace 0
//                 [--tiny] [--corrupt] [--trace-out FILE]
//
// --tiny shrinks the inputs for the smoke tests; --corrupt damages the data
// after timing so the correctness check must fail (exit code 1).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Workloads.h"

#include "obs/Json.h"
#include "stm/Stm.h"
#include "txn/AdmissionScheduler.h"
#include "txn/CmStats.h"
#include "txn/ContentionManager.h"
#include "txn/Htm.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace perfbench;
using otm::obs::JsonValue;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false;
  bool Corrupt = false;
  std::string TraceOut;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "otm_perfbench: %s\nusage: otm_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--tiny] [--corrupt] "
               "[--trace-out FILE]\n",
               Why);
  std::exit(2);
}

Options parseOptions(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Value();
    else if (A == "--seed")
      O.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(Value().c_str());
    else if (A == "--trace")
      O.Trace = Value() != "0";
    else if (A == "--tiny")
      O.Tiny = true;
    else if (A == "--corrupt")
      O.Corrupt = true;
    else if (A == "--trace-out")
      O.TraceOut = Value();
    else
      usage(("unknown argument " + A).c_str());
  }
  if (O.Seconds <= 0)
    usage("--seconds must be positive");
  return O;
}

//===----------------------------------------------------------------------===//
// Host block
//===----------------------------------------------------------------------===//

std::string cpuModel() {
  unsigned Regs[12] = {};
  unsigned Max = __get_cpuid_max(0x80000000u, nullptr);
  if (Max < 0x80000004u)
    return "unknown";
  for (unsigned L = 0; L < 3; ++L)
    __get_cpuid(0x80000002u + L, &Regs[L * 4], &Regs[L * 4 + 1],
                &Regs[L * 4 + 2], &Regs[L * 4 + 3]);
  char Brand[49] = {};
  std::memcpy(Brand, Regs, 48);
  std::string S(Brand);
  std::size_t B = S.find_first_not_of(' ');
  return B == std::string::npos ? "unknown" : S.substr(B);
}

const char *schedModeName(otm::txn::SchedMode M) {
  switch (M) {
  case otm::txn::SchedMode::Off:
    return "off";
  case otm::txn::SchedMode::On:
    return "on";
  case otm::txn::SchedMode::Adaptive:
    return "adaptive";
  }
  return "?";
}

/// Where the numbers came from: host, build and the library's defaults.
JsonValue hostBlock() {
  using namespace otm;
  const txn::htm::HtmRuntime &Htm = txn::htm::HtmRuntime::instance();
  const stm::TxConfig &C = stm::Stm::config();
  JsonValue H = JsonValue::object();
  H.set("nproc", std::thread::hardware_concurrency());
  H.set("cpu_model", cpuModel());
  H.set("rtm_cpuid", Htm.cpuidSupported());
  H.set("rtm_probe_committed", Htm.probeCommitted());
  H.set("htm_available", Htm.available());
  H.set("build_type", PERFBENCH_BUILD_TYPE);
  JsonValue Switches = JsonValue::object();
  Switches.set("OTM_MVCC", OTM_MVCC);
  Switches.set("OTM_BOOST", OTM_BOOST);
  Switches.set("OTM_SCHED", OTM_SCHED);
  Switches.set("OTM_HTM", OTM_HTM);
  H.set("compile_switches", std::move(Switches));
  JsonValue Defaults = JsonValue::object();
  Defaults.set("mv_versions", C.MvVersions);
  Defaults.set("sched_mode",
               schedModeName(txn::AdmissionScheduler::instance().mode()));
  Defaults.set("cm_policy", txn::policyName(C.ContentionPolicy));
  Defaults.set("retry_budget", C.SerialFallbackAfter);
  Defaults.set("htm_attempts", C.HtmAttempts);
  H.set("runtime_defaults", std::move(Defaults));
  return H;
}

//===----------------------------------------------------------------------===//
// Timed phase
//===----------------------------------------------------------------------===//

/// One worker's counts for one timing window. Only that worker writes it.
struct WindowCounts {
  uint64_t Ops = 0; ///< ops that completed in the window and passed
  LatencyHistogram Lat;
};

struct alignas(64) WorkerSlot {
  explicit WorkerSlot(std::size_t Windows) : Win(Windows) {}
  std::vector<WindowCounts> Win;
  uint64_t Ops = 0;
  uint64_t Failed = 0;
};

struct PhaseResult {
  uint64_t Ops = 0;
  uint64_t Failed = 0;
  double Seconds = 0;
  std::vector<double> WindowSeconds; ///< measured length of each window
  std::vector<uint64_t> WindowOps;   ///< passed ops, all workers
  std::vector<LatencyHistogram> WindowLat;

  double windowRate(std::size_t I) const {
    return WindowSeconds[I] > 0 ? double(WindowOps[I]) / WindowSeconds[I]
                                : 0.0;
  }
};

/// Timing windows last about a second; short runs still get four.
constexpr double TargetWindowSeconds = 1.0;
constexpr unsigned MinWindows = 4;

/// Spans an op may open; an op only starts traced when they all fit.
constexpr std::size_t MaxSpansPerOp = 64;
constexpr std::size_t SpansPerThread = std::size_t(1) << 21;

/// Runs the closed loop on every worker for \p Seconds. Each worker issues
/// its next op only after the previous one returned. Counts and latencies
/// are kept per timing window in memory allocated here, before timing.
PhaseResult runPhase(Team &T, Workload &W, double Seconds,
                     std::vector<std::unique_ptr<Tracer>> *Tracers) {
  const unsigned NumWindows = std::max(
      MinWindows, static_cast<unsigned>(Seconds / TargetWindowSeconds + 0.5));
  const double WindowLen = Seconds / NumWindows;
  std::vector<std::unique_ptr<WorkerSlot>> Slots;
  for (unsigned I = 0; I < T.size(); ++I)
    Slots.push_back(std::make_unique<WorkerSlot>(NumWindows));
  std::atomic<unsigned> Window{0};
  std::atomic<bool> Stop{false};
  const unsigned Stride = W.traceStride();

  using Clock = std::chrono::steady_clock;
  Clock::time_point Begin = Clock::now();
  T.start([&](unsigned Tid) {
    WorkerSlot &S = *Slots[Tid];
    Tracer *Tr = Tracers ? (*Tracers)[Tid].get() : nullptr;
    uint64_t N = 0;
    while (!Stop.load(std::memory_order_relaxed)) {
      Tracer *OpTr = nullptr;
      if (Tr && N % Stride == 0 && Tr->hasRoom(MaxSpansPerOp)) {
        Tr->beginOp();
        OpTr = Tr;
      }
      uint64_t Call = 0;
      bool Ok = false;
      try {
        Ok = W.op(Tid, OpTr, Call);
      } catch (...) {
        Ok = false; // the transaction rolled back and the op did not commit
      }
      WindowCounts &C = S.Win[Window.load(std::memory_order_relaxed)];
      C.Lat.record(Call);
      C.Ops += Ok;
      S.Failed += !Ok;
      ++N;
    }
    S.Ops = N;
  });

  PhaseResult R;
  Clock::time_point Prev = Begin;
  for (unsigned K = 1; K <= NumWindows; ++K) {
    std::this_thread::sleep_until(
        Begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(K * WindowLen)));
    Clock::time_point Now = Clock::now();
    R.WindowSeconds.push_back(std::chrono::duration<double>(Now - Prev).count());
    Prev = Now;
    if (K < NumWindows)
      Window.store(K, std::memory_order_relaxed);
  }
  Stop.store(true);
  R.Seconds = std::chrono::duration<double>(Prev - Begin).count();
  T.wait();
  R.WindowOps.assign(NumWindows, 0);
  R.WindowLat.resize(NumWindows);
  for (const auto &S : Slots) {
    R.Ops += S->Ops;
    R.Failed += S->Failed;
    for (unsigned K = 0; K < NumWindows; ++K) {
      R.WindowOps[K] += S->Win[K].Ops;
      R.WindowLat[K].merge(S->Win[K].Lat);
    }
  }
  return R;
}

/// The timed phase without host-noise bursts: the windows whose rates form
/// the middle half (a quarter of the windows is dropped at each end).
struct SteadyState {
  double Rate = 0; ///< passed ops per second over the kept windows
  LatencyHistogram Lat;
  std::size_t Windows = 0;
};

SteadyState steadyState(const PhaseResult &R) {
  std::vector<std::size_t> Order(R.WindowOps.size());
  for (std::size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](std::size_t A, std::size_t B) {
    return R.windowRate(A) < R.windowRate(B);
  });
  SteadyState S;
  const std::size_t Drop = Order.size() / 4;
  uint64_t Ops = 0;
  double Secs = 0;
  for (std::size_t I = Drop; I < Order.size() - Drop; ++I) {
    Ops += R.WindowOps[Order[I]];
    Secs += R.WindowSeconds[Order[I]];
    S.Lat.merge(R.WindowLat[Order[I]]);
    ++S.Windows;
  }
  S.Rate = Secs > 0 ? double(Ops) / Secs : 0.0;
  return S;
}

/// Rate change from the first third of the windows to the last, in percent.
double driftPct(const PhaseResult &R) {
  std::size_t N = R.WindowOps.size(), Third = N / 3;
  if (Third == 0)
    return 0.0;
  double First = 0, Last = 0;
  for (std::size_t I = 0; I < Third; ++I) {
    First += R.windowRate(I);
    Last += R.windowRate(N - 1 - I);
  }
  return First > 0 ? 100.0 * (Last / First - 1.0) : 0.0;
}

//===----------------------------------------------------------------------===//
// Span analysis
//===----------------------------------------------------------------------===//

/// Per-layer distributions derived from the traced ops, in ticks.
struct SpanStats {
  LatencyHistogram Commit;     ///< end of committing body -> entry return
  LatencyHistogram Attempt;    ///< every body execution
  LatencyHistogram Enter;      ///< entry call -> first body entry
  LatencyHistogram Retry;      ///< first body entry -> committing body entry
  LatencyHistogram TxnSelf;    ///< entry span minus its attempt spans
  LatencyHistogram OpenUpdate, Read, OpenRead;
  uint64_t InterpRunTicks = 0;
  uint64_t InterpRuns = 0;
  uint64_t Dropped = 0;
};

SpanStats analyzeSpans(const std::vector<std::unique_ptr<Tracer>> &Tracers) {
  SpanStats St;
  for (const auto &TrPtr : Tracers) {
    const Tracer &Tr = *TrPtr;
    St.Dropped += Tr.dropped();
    std::size_t I = 0;
    while (I < Tr.size()) {
      // One op: a root span and every span after it up to the next root.
      const Span &Root = Tr[I];
      std::size_t End = I + 1;
      while (End < Tr.size() && Tr[End].ParentBack != 0)
        ++End;
      // A full buffer can only have cut the last op short.
      bool Complete = End < Tr.size() || Tr.dropped() == 0;
      if (Root.Name == SpanName::InterpRun) {
        St.InterpRunTicks += Root.Dur;
        ++St.InterpRuns;
      } else if (Complete) {
        const Span *First = nullptr, *LastA = nullptr;
        uint64_t AttemptSum = 0;
        for (std::size_t J = I + 1; J < End; ++J) {
          const Span &S = Tr[J];
          switch (S.Name) {
          case SpanName::Attempt:
            if (J - S.ParentBack == I) {
              First = First ? First : &S;
              LastA = &S;
              AttemptSum += S.Dur;
              St.Attempt.record(S.Dur);
            }
            break;
          case SpanName::OpenUpdate:
            St.OpenUpdate.record(S.Dur);
            break;
          case SpanName::Read:
            St.Read.record(S.Dur);
            break;
          case SpanName::OpenRead:
            St.OpenRead.record(S.Dur);
            break;
          default:
            break;
          }
        }
        if (First) {
          uint64_t RootEnd = Root.Start + Root.Dur;
          uint64_t LastEnd = LastA->Start + LastA->Dur;
          St.Enter.record(First->Start - Root.Start);
          St.Retry.record(LastA->Start - First->Start);
          St.Commit.record(RootEnd > LastEnd ? RootEnd - LastEnd : 0);
          St.TxnSelf.record(Root.Dur > AttemptSum ? Root.Dur - AttemptSum : 0);
        }
      }
      I = End;
    }
  }
  return St;
}

/// Chrome trace_event JSON of the first spans of each thread.
void writeChromeTrace(const std::string &Path,
                      const std::vector<std::unique_ptr<Tracer>> &Tracers,
                      double TicksPerNs) {
  constexpr std::size_t MaxSpansWritten = 20000;
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    return;
  }
  uint64_t Base = UINT64_MAX;
  for (const auto &Tr : Tracers)
    if (Tr->size())
      Base = std::min(Base, (*Tr)[0].Start);
  Out << "{\"traceEvents\":[";
  bool FirstEvent = true;
  for (std::size_t T = 0; T < Tracers.size(); ++T) {
    const Tracer &Tr = *Tracers[T];
    for (std::size_t I = 0; I < std::min(Tr.size(), MaxSpansWritten); ++I) {
      const Span &S = Tr[I];
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,"
                    "\"parent\":%lld}}",
                    FirstEvent ? "" : ",", spanName(S.Name), T,
                    double(S.Start - Base) / TicksPerNs / 1e3,
                    double(S.Dur) / TicksPerNs / 1e3, S.Op,
                    S.ParentBack ? static_cast<long long>(I - S.ParentBack)
                                 : -1LL);
      Out << Buf;
      FirstEvent = false;
    }
  }
  Out << "]}\n";
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

class Metrics {
public:
  void add(const std::string &Name, double Value, const char *Unit) {
    JsonValue M = JsonValue::object();
    M.set("value", Value);
    M.set("unit", Unit);
    Obj.set(Name, std::move(M));
    std::fprintf(stderr, "  %-36s %16.4f %s\n", Name.c_str(), Value, Unit);
  }
  JsonValue take() { return std::move(Obj); }

private:
  JsonValue Obj = JsonValue::object();
};

double perK(uint64_t N, uint64_t Ops) {
  return Ops ? 1000.0 * double(N) / double(Ops) : 0.0;
}
double ratio(uint64_t N, uint64_t D) { return D ? double(N) / double(D) : 0.0; }

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

} // namespace

int main(int Argc, char **Argv) {
  using namespace otm;
  Options Opt = parseOptions(Argc, Argv);
  std::unique_ptr<Workload> W = makeWorkload(Opt.Workload, Opt.Tiny);
  if (!W)
    usage(("unknown workload '" + Opt.Workload + "'").c_str());

  JsonValue Host = JsonValue::object();
  Host.set("host", hostBlock());
  std::printf("%s\n", Host.dump().c_str());
  std::fflush(stdout);

  Team T(W->threads());
  TickRate Rate;

  // Set-up (build + warm-up to steady state), several times: setup_s is
  // the median, and the last set-up's state is the one timed.
  std::vector<double> SetupSeconds;
  std::vector<double> ParseTicks, LowerTicks, DecodeTicks;
  PipelineTimes Pipe;
  for (unsigned S = 0; S < W->setups(); ++S) {
    if (S)
      W->teardown();
    auto B = std::chrono::steady_clock::now();
    W->setup(T, Opt.Seed);
    SetupSeconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - B)
            .count());
    Pipe = W->pipelineTimes();
    ParseTicks.push_back(double(Pipe.Parse));
    LowerTicks.push_back(double(Pipe.Lower));
    DecodeTicks.push_back(double(Pipe.Decode));
  }
  std::vector<std::string> Problems;
  if (std::string P = W->steadyStateProblem(); !P.empty())
    Problems.push_back("not at steady state before timing: " + P);

  stm::TxStats S0 = stm::Stm::globalStats();
  txn::CmStatsSnapshot Cm0 = txn::CmStats::instance().snapshot();
  txn::SchedStatsSnapshot Sch0 = txn::AdmissionScheduler::instance().stats();
  InterpCounts I0 = W->interpCounts();

  std::vector<std::unique_ptr<Tracer>> Tracers;
  PhaseResult Main, Traced;
  if (Opt.Trace) {
    for (unsigned I = 0; I < T.size(); ++I)
      Tracers.push_back(std::make_unique<Tracer>(SpansPerThread));
    Main = runPhase(T, *W, Opt.Seconds / 2, nullptr);
    Traced = runPhase(T, *W, Opt.Seconds / 2, &Tracers);
  } else {
    Main = runPhase(T, *W, Opt.Seconds, nullptr);
  }
  const double TicksPerNs = Rate.ticksPerNs();

  stm::TxStats S1 = stm::Stm::globalStats();
  txn::CmStatsSnapshot Cm1 = txn::CmStats::instance().snapshot();
  txn::SchedStatsSnapshot Sch1 = txn::AdmissionScheduler::instance().stats();
  InterpCounts I1 = W->interpCounts();
  uint64_t Versions = 0, Objects = 0;
  W->history(Versions, Objects);

  const uint64_t Attempted = Main.Ops + Traced.Ops;
  uint64_t Failed = Main.Failed + Traced.Failed;
  const uint64_t Commits = S1.Commits - S0.Commits;

  if (Opt.Corrupt)
    W->corrupt();
  for (std::string &P : W->check(T, Attempted, Commits))
    Problems.push_back(std::move(P));
  if (Failed)
    Problems.push_back(std::to_string(Failed) + " ops failed their check");
  // A whole-table check cannot name the ops it caught: count them all.
  if (!Problems.empty())
    Failed = Attempted;
  const bool Correct = Problems.empty();

  std::fprintf(stderr, "perfbench %s seed=%llu threads=%u: %llu ops in %.2f s\n",
               W->name(), static_cast<unsigned long long>(Opt.Seed),
               W->threads(), static_cast<unsigned long long>(Attempted),
               Main.Seconds + Traced.Seconds);
  for (const std::string &P : Problems)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", P.c_str());

  Metrics M;
  const double NsPerTick = 1.0 / TicksPerNs;
  const SteadyState Steady = steadyState(Main);
  std::fprintf(stderr, "  steady state: %zu of %zu windows, %llu latency "
                       "samples; drift %.2f%%\n",
               Steady.Windows, Main.WindowOps.size(),
               static_cast<unsigned long long>(Steady.Lat.count()),
               driftPct(Main));
  if (!Opt.Trace) {
    M.add("setup_s", median(SetupSeconds), "s");
    M.add("ops_per_s", Steady.Rate, "1/s");
    M.add("lat_p50_us", Steady.Lat.percentile(50) * NsPerTick / 1e3, "us");
    M.add("lat_p99_us", Steady.Lat.percentile(99) * NsPerTick / 1e3, "us");
    M.add("rss_peak_mb", peakRssMb(), "MB");
  } else {
    SpanStats Sp = analyzeSpans(Tracers);
    if (!Opt.TraceOut.empty())
      writeChromeTrace(Opt.TraceOut, Tracers, TicksPerNs);
    auto Ns = [&](const LatencyHistogram &H, double P) {
      return H.percentile(P) * NsPerTick;
    };
    const uint64_t Ops = Attempted;
    const stm::TxStats &A = S1, &B = S0;
    auto D = [&](uint64_t stm::TxStats::*F) { return A.*F - B.*F; };
    const uint64_t Starts = D(&stm::TxStats::Starts);

    M.add("stm.commit_ns.p50", Ns(Sp.Commit, 50), "ns");
    M.add("stm.commit_ns.p99", Ns(Sp.Commit, 99), "ns");
    M.add("stm.attempt_ns.p50", Ns(Sp.Attempt, 50), "ns");
    M.add("stm.open_update_ns.p50", Ns(Sp.OpenUpdate, 50), "ns");
    M.add("stm.read_ns.p50", Ns(Sp.Read, 50), "ns");
    M.add("stm.open_read_ns.p50", Ns(Sp.OpenRead, 50), "ns");
    M.add("stm.snapshot_chain_read_frac",
          ratio(D(&stm::TxStats::SnapshotReadsFromChain),
                D(&stm::TxStats::SnapshotReads)),
          "frac");
    M.add("stm.snapshot_refreshes_per_kop",
          perK(D(&stm::TxStats::SnapshotRefreshes), Ops), "1/kop");
    M.add("stm.snapshot_waits_per_kop",
          perK(D(&stm::TxStats::SnapshotWaits), Ops), "1/kop");
    M.add("stm.attempts_per_commit", ratio(Starts, Commits), "1/commit");
    M.add("stm.aborts_conflict_per_kop",
          perK(D(&stm::TxStats::AbortsOnConflict), Ops), "1/kop");
    M.add("stm.aborts_validation_per_kop",
          perK(D(&stm::TxStats::AbortsOnValidation), Ops), "1/kop");
    M.add("stm.versions_installed_per_commit",
          ratio(D(&stm::TxStats::MvVersionsInstalled), Commits), "1/commit");
    M.add("stm.versions_live", double(Versions), "count");
    M.add("stm.chain_depth_mean", ratio(Versions, Objects), "count");
    M.add("gc.versions_retired_per_commit",
          ratio(D(&stm::TxStats::MvVersionsRetired), Commits), "1/commit");
    M.add("gc.retires_per_commit", ratio(D(&stm::TxStats::Retires), Commits),
          "1/commit");

    M.add("txn.enter_ns.p50", Ns(Sp.Enter, 50), "ns");
    M.add("txn.enter_ns.p99", Ns(Sp.Enter, 99), "ns");
    M.add("txn.retry_ns.p99", Ns(Sp.Retry, 99), "ns");
    M.add("txn.self_ns.p50", Ns(Sp.TxnSelf, 50), "ns");
    const uint64_t Tickets = Sch1.Releases - Sch0.Releases;
    M.add("txn.sched_queued_frac", ratio(Sch1.Queued - Sch0.Queued, Tickets),
          "frac");
    M.add("txn.sched_queue_wait_us",
          ratio(Sch1.QueueWaitMicros - Sch0.QueueWaitMicros, Ops), "us");
    M.add("txn.sched_bypassed_per_kop", perK(Sch1.Bypassed - Sch0.Bypassed, Ops),
          "1/kop");
    M.add("txn.cm_waits_per_kop",
          perK(Cm1.ConflictWaits - Cm0.ConflictWaits, Ops), "1/kop");
    M.add("txn.serial_fallbacks_per_kop",
          perK(Cm1.FallbackEntries - Cm0.FallbackEntries, Ops), "1/kop");
    M.add("txn.htm_commit_frac", ratio(D(&stm::TxStats::HtmCommits), Commits),
          "frac");

    const uint64_t Instrs = I1.Instrs - I0.Instrs;
    const uint64_t ITx = I1.TxCommitted - I0.TxCommitted;
    const double InstrsPerRun = ratio(Instrs, Ops);
    M.add("interp.ns_per_instr",
          Sp.InterpRuns && InstrsPerRun > 0
              ? double(Sp.InterpRunTicks) * NsPerTick /
                    (double(Sp.InterpRuns) * InstrsPerRun)
              : 0.0,
          "ns");
    M.add("interp.instrs_per_tx", ratio(Instrs, ITx), "count");
    M.add("interp.opens_per_tx", ratio(I1.Opens - I0.Opens, ITx), "count");
    M.add("interp.undo_per_tx", ratio(I1.Undos - I0.Undos, ITx), "count");
    M.add("interp.retries_per_kop", perK(I1.TxRetried - I0.TxRetried, Ops),
          "1/kop");
    M.add("interp.decode_ms", median(DecodeTicks) * NsPerTick / 1e6, "ms");
    M.add("passes.pipeline_ms", median(LowerTicks) * NsPerTick / 1e6, "ms");
    M.add("passes.opens_removed", double(Pipe.OpensRemoved), "count");
    M.add("tmir.parse_ms", median(ParseTicks) * NsPerTick / 1e6, "ms");

    const double TracedRate = steadyState(Traced).Rate;
    M.add("trace.overhead_pct",
          Steady.Rate > 0 ? 100.0 * (Steady.Rate - TracedRate) / Steady.Rate
                          : 0.0,
          "%");
    M.add("bench.drift_pct", driftPct(Main), "%");
    if (Sp.Dropped)
      std::fprintf(stderr, "perfbench: span buffer full, %llu spans dropped\n",
                   static_cast<unsigned long long>(Sp.Dropped));
  }

  JsonValue Result = JsonValue::object();
  Result.set("correct", Correct);
  Result.set("attempted", Attempted);
  Result.set("failed", Failed);
  Result.set("metrics", M.take());
  std::printf("%s\n", Result.dump().c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
