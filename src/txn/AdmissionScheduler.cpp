//===- txn/AdmissionScheduler.cpp - Conflict-avoiding admission -----------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "txn/AdmissionScheduler.h"

#include "obs/Telemetry.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace otm {
namespace txn {

SchedMode schedModeFromEnv(const char *E) {
  if (!E)
    return SchedMode::Adaptive;
  if (!std::strcmp(E, "0") || !std::strcmp(E, "off"))
    return SchedMode::Off;
  if (!std::strcmp(E, "1") || !std::strcmp(E, "on"))
    return SchedMode::On;
  return SchedMode::Adaptive;
}

namespace {

void maxRelaxed(std::atomic<uint64_t> &Slot, uint64_t V) {
  uint64_t Cur = Slot.load(std::memory_order_relaxed);
  while (V > Cur &&
         !Slot.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
    ;
}

} // namespace

AdmissionScheduler &AdmissionScheduler::instance() {
  static AdmissionScheduler S;
  return S;
}

AdmissionScheduler::AdmissionScheduler() {
  Mode.store(schedModeFromEnv(std::getenv("OTM_SCHED")),
             std::memory_order_relaxed);
}

int32_t AdmissionScheduler::tryInstall(Shard &Sh, uint32_t ClassId,
                                       const TxSummary &S) {
  if (Sh.ActiveCount >= SlotsPerShard)
    return -1;
  int32_t Free = -1;
  for (unsigned I = 0; I < SlotsPerShard; ++I) {
    InFlight &F = Sh.Slots[I];
    if (!F.Active) {
      if (Free < 0)
        Free = static_cast<int32_t>(I);
      continue;
    }
    // Summaries are only comparable within one class (one key convention);
    // cross-class pairs pass freely and their conflicts stay speculative.
    if (F.ClassId == ClassId && !S.compat(F.S))
      return -1;
  }
  if (Free < 0)
    return -1;
  InFlight &F = Sh.Slots[Free];
  F.S = S;
  F.ClassId = ClassId;
  F.Active = true;
  ++Sh.ActiveCount;
  return Free;
}

void AdmissionScheduler::drainQueueLocked(Shard &Sh) {
  // Strict FIFO: only ever grant the head, so a wide transaction behind a
  // stream of narrow compatible ones cannot starve.
  while (!Sh.Queue.empty()) {
    Waiter *W = Sh.Queue.front();
    int32_t Slot = tryInstall(Sh, W->ClassId, *W->S);
    if (Slot < 0)
      break;
    W->GrantedSlot = Slot;
    W->GrantSeq = ++Sh.Grants;
    Sh.Queue.pop_front();
  }
}

AdmissionScheduler::Ticket AdmissionScheduler::admit(uint32_t ClassId,
                                                     const TxSummary &S) {
  Ticket T;
  T.ClassId = ClassId;
  T.Shard = ClassId & (NumShards - 1);
  if (!admissionActive(ClassId) || S.empty()) {
    Bypassed.fetch_add(1, std::memory_order_relaxed);
    return T;
  }

  Shard &Sh = Shards[T.Shard];
  std::unique_lock<std::mutex> Lock(Sh.M);
  if (Sh.Queue.empty()) {
    int32_t Slot = tryInstall(Sh, ClassId, S);
    if (Slot >= 0) {
      T.Slot = Slot;
      T.GrantSeq = ++Sh.Grants;
      AdmittedImmediate.fetch_add(1, std::memory_order_relaxed);
      return T;
    }
  }
  if (Sh.Queue.size() >= QueueCap) {
    // Queue full: the backlog is already absorbing as much latency as we
    // allow it to — let speculation (and the CM ladder below) absorb the
    // rest of the burst rather than growing an unbounded convoy.
    QueueOverflows.fetch_add(1, std::memory_order_relaxed);
    return T;
  }

  Waiter W;
  W.S = &S;
  W.ClassId = ClassId;
  Sh.Queue.push_back(&W);
  Queued.fetch_add(1, std::memory_order_relaxed);
  maxRelaxed(MaxQueueDepth, Sh.Queue.size());

  auto WaitStart = std::chrono::steady_clock::now();
  bool Granted = Sh.CV.wait_for(Lock, WaitBudget,
                                [&] { return W.GrantedSlot >= 0; });
  auto Waited = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - WaitStart);
  QueueWaitMicros.fetch_add(static_cast<uint64_t>(Waited.count()),
                            std::memory_order_relaxed);
  T.Waited = true;
  if (!Granted) {
    // Outwaited the budget: a liveness backstop, not a scheduling decision.
    // Remove ourselves (release() may have granted us between the timeout
    // and reacquiring the lock — re-check before bailing).
    if (W.GrantedSlot >= 0) {
      T.Slot = W.GrantedSlot;
      T.GrantSeq = W.GrantSeq;
      return T;
    }
    auto It = std::find(Sh.Queue.begin(), Sh.Queue.end(), &W);
    if (It != Sh.Queue.end())
      Sh.Queue.erase(It);
    TimeoutBypasses.fetch_add(1, std::memory_order_relaxed);
    // Our removal may unblock the strict-FIFO head behind us.
    drainQueueLocked(Sh);
    if (Sh.ActiveCount > 0 || !Sh.Queue.empty())
      Sh.CV.notify_all();
    return T;
  }
  T.Slot = W.GrantedSlot;
  T.GrantSeq = W.GrantSeq;
  return T;
}

void AdmissionScheduler::release(Ticket &T, uint64_t AbortedAttempts) {
  Releases.fetch_add(1, std::memory_order_relaxed);
  AbortsReported.fetch_add(AbortedAttempts, std::memory_order_relaxed);
  recordRelease(T.ClassId, AbortedAttempts);
  if (T.Slot < 0)
    return;
  Shard &Sh = Shards[T.Shard];
  {
    std::lock_guard<std::mutex> Lock(Sh.M);
    InFlight &F = Sh.Slots[T.Slot];
    F.Active = false;
    F.S.clear();
    --Sh.ActiveCount;
    drainQueueLocked(Sh);
  }
  // Unconditional: waiters granted by the drain are no longer in the queue
  // and must be woken to observe their GrantedSlot.
  Sh.CV.notify_all();
  T.Slot = -1;
}

void AdmissionScheduler::recordRelease(uint32_t ClassId,
                                       uint64_t AbortedAttempts) {
  ClassGate &G = Gates[ClassId % NumClasses];
  G.WindowAborts.fetch_add(AbortedAttempts, std::memory_order_relaxed);
  uint64_t R = G.WindowReleases.fetch_add(1, std::memory_order_relaxed) + 1;
  if (R < GateWindow)
    return;
  // One releaser wins the window close; racing losers fold their feedback
  // into the next window (the exchange keeps the rate denominator honest).
  uint64_t Expected = R;
  if (!G.WindowReleases.compare_exchange_strong(Expected, 0,
                                                std::memory_order_relaxed))
    return;
  recomputeGate(G, G.WindowAborts.exchange(0, std::memory_order_relaxed));
}

void AdmissionScheduler::recomputeGate(ClassGate &G, uint64_t WindowAborts) {
  double Rate =
      static_cast<double>(WindowAborts) / static_cast<double>(GateWindow);
  bool On = G.On.load(std::memory_order_relaxed);
  if (!On && Rate >= GateOnRate) {
    G.On.store(true, std::memory_order_relaxed);
    GateFlipsOn.fetch_add(1, std::memory_order_relaxed);
    GatesOn.fetch_add(1, std::memory_order_relaxed);
  } else if (On && Rate <= GateOffRate) {
    G.On.store(false, std::memory_order_relaxed);
    GateFlipsOff.fetch_add(1, std::memory_order_relaxed);
    GatesOn.fetch_sub(1, std::memory_order_relaxed);
  }
}

SchedStatsSnapshot AdmissionScheduler::stats() const {
  SchedStatsSnapshot S;
#define OTM_X(Name, Key) S.Name = Name.load(std::memory_order_relaxed);
  OTM_SCHED_COUNTERS(OTM_X)
#undef OTM_X
  return S;
}

void AdmissionScheduler::resetForTesting() {
  for (Shard &Sh : Shards) {
    std::lock_guard<std::mutex> Lock(Sh.M);
    for (InFlight &F : Sh.Slots) {
      F.Active = false;
      F.S.clear();
      F.ClassId = 0;
    }
    Sh.ActiveCount = 0;
    Sh.Queue.clear();
  }
  for (ClassGate &G : Gates) {
    G.On.store(false, std::memory_order_relaxed);
    G.WindowReleases.store(0, std::memory_order_relaxed);
    G.WindowAborts.store(0, std::memory_order_relaxed);
  }
#define OTM_X(Name, Key) Name.store(0, std::memory_order_relaxed);
  OTM_SCHED_COUNTERS(OTM_X)
#undef OTM_X
}

obs::JsonValue schedStatsToJson() {
  SchedStatsSnapshot S = AdmissionScheduler::instance().stats();
  const char *ModeName = "off";
  switch (AdmissionScheduler::instance().mode()) {
  case SchedMode::Off:
    ModeName = "off";
    break;
  case SchedMode::On:
    ModeName = "on";
    break;
  case SchedMode::Adaptive:
    ModeName = "adaptive";
    break;
  }
  obs::JsonValue V = obs::JsonValue::object();
  V.set("enabled", true); // schema key; the tier is always built
  V.set("mode", ModeName);
#define OTM_X(Name, Key) V.set(Key, S.Name);
  OTM_SCHED_COUNTERS(OTM_X)
#undef OTM_X
  return V;
}

namespace {
/// Registers the scheduler as a telemetry source at static-init time, the
/// same idiom TxManager.cpp uses for the stm/mvcc/boost sources.
struct SchedTelemetrySource {
  SchedTelemetrySource() {
    obs::Telemetry::instance().registerSource("sched",
                                              [] { return schedStatsToJson(); });
  }
} RegisterSchedSource;
} // namespace

} // namespace txn
} // namespace otm
