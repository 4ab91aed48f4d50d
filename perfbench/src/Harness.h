//===- perfbench/src/Harness.h - Closed-loop benchmark harness -*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload shares: a TSC clock, a fixed-memory
/// log-linear latency histogram, per-thread span buffers for the traced
/// run, and a team of persistent worker threads that runs one job at a
/// time (set-up, warm-up and the timed closed loop reuse the same threads,
/// so their per-thread STM pools and epoch slots carry over).
///
//===----------------------------------------------------------------------===//

#ifndef OTM_PERFBENCH_HARNESS_H
#define OTM_PERFBENCH_HARNESS_H

#include "obs/Tsc.h"

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// Invariant TSC ticks; converted to nanoseconds with the ratio measured
/// over the run itself (see TickRate).
inline uint64_t ticks() { return otm::obs::readTsc(); }

/// Ticks per nanosecond, measured against steady_clock between construction
/// and the call to ticksPerNs(). Long intervals give a precise ratio.
class TickRate {
public:
  TickRate()
      : Tsc0(ticks()), Wall0(std::chrono::steady_clock::now()) {}

  double ticksPerNs() const {
    uint64_t Tsc1 = ticks();
    double Ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - Wall0)
                    .count();
    return Ns > 0 && Tsc1 > Tsc0 ? double(Tsc1 - Tsc0) / Ns : 1.0;
  }

private:
  uint64_t Tsc0;
  std::chrono::steady_clock::time_point Wall0;
};

/// Log-linear histogram: 64 linear sub-buckets per power of two, so every
/// bucket is at most 1/64 (1.6%) of its lower bound wide. Fixed ~30 KB of
/// memory, allocated with its owner before timing starts. Values below 64
/// are exact.
class LatencyHistogram {
public:
  static constexpr unsigned SubBits = 6;
  static constexpr unsigned SubCount = 1u << SubBits;
  static constexpr unsigned NumBuckets = (64 - SubBits + 1) * SubCount;

  void record(uint64_t V) {
    ++Buckets[index(V)];
    ++Count;
  }

  void merge(const LatencyHistogram &O) {
    for (unsigned I = 0; I < NumBuckets; ++I)
      Buckets[I] += O.Buckets[I];
    Count += O.Count;
  }

  uint64_t count() const { return Count; }

  /// The \p P-th percentile (0 < P <= 100), interpolated linearly by rank
  /// inside its bucket. 0 when empty.
  double percentile(double P) const {
    if (Count == 0)
      return 0.0;
    double Rank = P / 100.0 * double(Count);
    uint64_t Cum = 0;
    for (unsigned I = 0; I < NumBuckets; ++I) {
      uint64_t N = Buckets[I];
      if (N == 0)
        continue;
      if (double(Cum + N) >= Rank) {
        double Lo = 0, Width = 0;
        bounds(I, Lo, Width);
        if (I < SubCount) // exact bucket
          return Lo;
        double Into = (Rank - double(Cum)) / double(N);
        return Lo + Width * (Into < 0 ? 0 : Into);
      }
      Cum += N;
    }
    return 0.0;
  }

private:
  static unsigned index(uint64_t V) {
    if (V < SubCount)
      return static_cast<unsigned>(V);
    unsigned Shift = (63u - static_cast<unsigned>(__builtin_clzll(V))) - SubBits;
    return ((Shift + 1) << SubBits) +
           static_cast<unsigned>((V >> Shift) - SubCount);
  }

  static void bounds(unsigned I, double &Lo, double &Width) {
    if (I < SubCount) {
      Lo = I;
      Width = 1;
      return;
    }
    unsigned Shift = (I >> SubBits) - 1;
    uint64_t Mantissa = I & (SubCount - 1);
    Lo = double((SubCount + Mantissa) << Shift);
    Width = double(uint64_t(1) << Shift);
  }

  std::array<uint64_t, NumBuckets> Buckets{};
  uint64_t Count = 0;
};

/// Span names recorded by the traced run. Each is a call into one layer,
/// taken by the benchmark's own code around that call.
enum class SpanName : uint16_t {
  Atomic,          ///< txn: Stm::atomic, entry call to return
  AtomicReadOnly,  ///< txn: Stm::atomicReadOnly
  AtomicScheduled, ///< txn: Stm::atomicScheduled
  Attempt,         ///< stm: one execution of the transaction body
  OpenUpdate,      ///< stm: one openForUpdate + logUndo pair
  Read,            ///< stm: one Tx.read on the snapshot path
  OpenRead,        ///< stm: one openForRead + field load
  InterpRun,       ///< interp: Interpreter::run
};

const char *spanName(SpanName N);

struct Span {
  uint64_t Start = 0;
  uint32_t Dur = 0;        ///< ticks, saturating
  uint32_t Op = 0;         ///< per-thread op id shared by the op's spans
  SpanName Name = SpanName::Atomic;
  uint16_t ParentBack = 0; ///< index distance back to the parent; 0 = root
};

/// One thread's spans, in open order (a parent precedes its children).
/// The storage is allocated and touched at construction, before timing.
class Tracer {
public:
  explicit Tracer(std::size_t Capacity) : Spans(Capacity) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// True when \p N more spans fit.
  bool hasRoom(std::size_t N) const { return Size + N <= Spans.size(); }

  /// Starts a new op: the next span opened at top level is its root.
  void beginOp() { ++OpId; }

  /// Opens a span under the current one. When the buffer is full the span
  /// is dropped (and counted): only the op in flight can be cut short.
  uint32_t open(SpanName Name) {
    if (Size == Spans.size()) {
      ++Dropped;
      return NoSpan;
    }
    uint32_t I = static_cast<uint32_t>(Size++);
    Span &S = Spans[I];
    S.Name = Name;
    S.Op = OpId;
    S.ParentBack = Current == NoSpan ? 0 : static_cast<uint16_t>(I - Current);
    S.Start = ticks();
    Current = I;
    return I;
  }

  /// Ends span \p I; spans close in LIFO order, so its parent is current.
  void close(uint32_t I) {
    if (I == NoSpan)
      return;
    Span &S = Spans[I];
    uint64_t D = ticks() - S.Start;
    S.Dur = D > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(D);
    Current = S.ParentBack == 0 ? NoSpan : I - S.ParentBack;
  }

  std::size_t size() const { return Size; }
  uint64_t dropped() const { return Dropped; }
  const Span &operator[](std::size_t I) const { return Spans[I]; }

  static constexpr uint32_t NoSpan = UINT32_MAX;

private:

  std::vector<Span> Spans;
  std::size_t Size = 0;
  uint64_t Dropped = 0;
  uint32_t OpId = 0;
  uint32_t Current = NoSpan;
};

/// RAII span: a no-op when \p T is null (the op is not traced). Closes on
/// unwinding too, so an attempt aborted by AbortTx still ends its span.
class SpanScope {
public:
  SpanScope(Tracer *T, SpanName Name)
      : T(T), I(T ? T->open(Name) : Tracer::NoSpan) {}
  ~SpanScope() {
    if (T)
      T->close(I);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer *T;
  uint32_t I;
};

/// Persistent worker threads that run one job at a time. Each job ends with
/// the worker flushing its STM statistics, so Stm::globalStats() is exact
/// whenever the team is idle.
class Team {
public:
  explicit Team(unsigned N);
  ~Team();
  Team(const Team &) = delete;
  Team &operator=(const Team &) = delete;

  unsigned size() const { return static_cast<unsigned>(Threads.size()); }

  /// Starts \p Job(threadIndex) on every worker and returns immediately.
  void start(std::function<void(unsigned)> Job);
  /// Waits for the current job; rethrows the first exception a worker threw.
  void wait();
  void run(std::function<void(unsigned)> Job) {
    start(std::move(Job));
    wait();
  }

private:
  void loop(unsigned Tid);

  std::mutex M; // guards everything below except Threads
  std::condition_variable WorkCv, DoneCv;
  std::function<void(unsigned)> Job;
  uint64_t Generation = 0;
  unsigned Pending = 0;
  bool Quit = false;
  std::exception_ptr Failure;
  std::vector<std::thread> Threads; // last: started after the state above
};

} // namespace perfbench

#endif // OTM_PERFBENCH_HARNESS_H
