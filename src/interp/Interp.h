//===- interp/Interp.h - TMIR interpreter over the STM ---------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes TMIR against the real STM runtime. The interpreter plays the
/// role of the compiled program in the paper's evaluation: lowered modules
/// run their barrier instructions through stm::TxManager, so the dynamic
/// barrier counts, abort rates and log sizes it reports are those of real
/// transactions (experiments E1, E5, E8).
///
/// Execution pipeline: at construction the module is decoded once into a
/// dense, pre-resolved bytecode (interp/Decoder.h) specialized for the
/// configured TxMode, then executed by one of two loops over the same
/// decoded stream:
///
///   - a computed-goto direct-threaded loop (default on GCC/Clang; build
///     with -DOTM_INTERP_THREADED=0 or set Options::Dispatch /
///     OTM_INTERP_DISPATCH=switch to opt out), and
///   - a portable switch loop, which doubles as the differential oracle
///     for the threaded one.
///
/// Transaction modes:
///   - IgnoreAtomic — region markers are no-ops (sequential baseline);
///   - GlobalLock   — each region runs under one global recursive mutex
///                    (the coarse-lock baseline);
///   - ObjStm       — regions are real STM transactions with retry: at
///                    AtomicBegin the slots the decoder proved live across
///                    the region are snapshotted; a conflict or failed
///                    commit rolls the STM back and resumes from the
///                    snapshot.
///
/// Multiple threads may call run() concurrently (each gets its own frame
/// stack); the GC trigger must stay disabled in that case (see Heap).
///
//===----------------------------------------------------------------------===//

#ifndef OTM_INTERP_INTERP_H
#define OTM_INTERP_INTERP_H

#include "interp/Bytecode.h"
#include "interp/Heap.h"
#include "tmir/IR.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace otm {
namespace interp {

/// Dynamic operation counters (process-wide, relaxed atomics). The
/// execution engine counts into a plain per-run Delta and folds it in here
/// once per run() — the atomics are off the per-instruction path.
struct DynCounts {
  std::atomic<uint64_t> Instrs{0};
  std::atomic<uint64_t> OpenRead{0};
  std::atomic<uint64_t> OpenUpdate{0};
  std::atomic<uint64_t> UndoField{0};
  std::atomic<uint64_t> UndoElem{0};
  std::atomic<uint64_t> FieldReads{0};
  std::atomic<uint64_t> FieldWrites{0};
  std::atomic<uint64_t> Calls{0};
  std::atomic<uint64_t> TxStarted{0};
  std::atomic<uint64_t> TxCommitted{0};
  std::atomic<uint64_t> TxRetried{0};

  /// Plain per-run accumulator; one lives on each run()'s stack.
  struct Delta {
    uint64_t Instrs = 0;
    uint64_t OpenRead = 0;
    uint64_t OpenUpdate = 0;
    uint64_t UndoField = 0;
    uint64_t UndoElem = 0;
    uint64_t FieldReads = 0;
    uint64_t FieldWrites = 0;
    uint64_t Calls = 0;
    uint64_t TxStarted = 0;
    uint64_t TxCommitted = 0;
    uint64_t TxRetried = 0;
  };

  void add(const Delta &D) {
    Instrs.fetch_add(D.Instrs, std::memory_order_relaxed);
    OpenRead.fetch_add(D.OpenRead, std::memory_order_relaxed);
    OpenUpdate.fetch_add(D.OpenUpdate, std::memory_order_relaxed);
    UndoField.fetch_add(D.UndoField, std::memory_order_relaxed);
    UndoElem.fetch_add(D.UndoElem, std::memory_order_relaxed);
    FieldReads.fetch_add(D.FieldReads, std::memory_order_relaxed);
    FieldWrites.fetch_add(D.FieldWrites, std::memory_order_relaxed);
    Calls.fetch_add(D.Calls, std::memory_order_relaxed);
    TxStarted.fetch_add(D.TxStarted, std::memory_order_relaxed);
    TxCommitted.fetch_add(D.TxCommitted, std::memory_order_relaxed);
    TxRetried.fetch_add(D.TxRetried, std::memory_order_relaxed);
  }

  /// Zeroes every counter. Requires quiescence: no run() may be live on
  /// any thread, or its end-of-run flush races the reset and the totals
  /// are garbage (asserted via the live-run count below). The stores are
  /// relaxed — reset is not a synchronization point.
  void reset() {
    assert(ActiveRuns.load(std::memory_order_relaxed) == 0 &&
           "DynCounts::reset() while a run() is live");
    for (std::atomic<uint64_t> *C :
         {&Instrs, &OpenRead, &OpenUpdate, &UndoField, &UndoElem,
          &FieldReads, &FieldWrites, &Calls, &TxStarted, &TxCommitted,
          &TxRetried})
      C->store(0, std::memory_order_relaxed);
  }

  /// Number of run() activations currently executing (quiescence check).
  std::atomic<uint32_t> ActiveRuns{0};
};

class Interpreter {
public:
  enum class TxMode { IgnoreAtomic, GlobalLock, ObjStm };

  /// Which execution loop run() uses. Auto resolves to the threaded loop
  /// when compiled in (honouring the OTM_INTERP_DISPATCH=threaded|switch
  /// environment override), else the switch loop.
  enum class Dispatch { Auto, Threaded, Switch };

  struct Options {
    TxMode Mode = TxMode::ObjStm;
    Dispatch Loop = Dispatch::Auto;
    /// Auto-collect when this many allocations accumulate (0 = never).
    /// Only legal for single-threaded runs.
    uint64_t GcEveryNAllocs = 0;
    /// Validate the running transaction every N instructions to bound
    /// zombie execution (0 = never).
    uint64_t ValidateEveryNInstrs = 1024;
    /// Capture `print` output instead of writing to stdout.
    bool CapturePrints = true;
    /// Testing hook: force this many rollback-and-retry cycles on every
    /// top-level atomic region before letting it commit. Deterministic,
    /// so differential tests can exercise the snapshot/restore path.
    uint32_t ForceRetries = 0;
  };

  struct RunResult {
    bool Trapped = false;
    std::string Error;
    int64_t Value = 0;
  };

  Interpreter(tmir::Module &M, Options Opts);

  /// Runs function \p Name with i64/reference arguments (refs as bits).
  RunResult run(const std::string &Name, const std::vector<int64_t> &Args);

  Heap &heap() { return TheHeap; }
  DynCounts &counts() { return Counts; }
  const std::vector<int64_t> &printedValues() const { return Printed; }
  void clearPrinted() { Printed.clear(); }

  /// True when the computed-goto loop was compiled in.
  static bool threadedDispatchAvailable();
  /// The loop this interpreter actually runs (after Auto resolution).
  bool usesThreadedDispatch() const { return UseThreaded; }

  /// Allocates an object/array usable as a run() argument (setup phases).
  /// An unknown class name is a fatal error in every build mode.
  HeapObject *makeObject(const std::string &ClassName);
  HeapObject *makeArray(std::size_t Length);

  /// Runs a collection now, using the current thread's frames and the
  /// current transaction's logs as roots. Single-mutator only.
  void collectGarbage();

  /// One interpreter activation record; public so the thread-local frame
  /// registry (GC roots) can refer to it.
  struct Frame;

private:
  int64_t execFunction(const DecodedFunction &DF, const int64_t *Args,
                       std::size_t NumArgs, DynCounts::Delta &D);
  int64_t execSwitchLoop(Frame &Fr, uint32_t Pc, DynCounts::Delta &D,
                         uint64_t ValidateReload);
  int64_t execThreadedLoop(Frame &Fr, uint32_t Pc, DynCounts::Delta &D,
                           uint64_t ValidateReload);
  /// Restores the owning frame's snapshot after a rolled-back attempt and
  /// sequences the retry; returns the pc to resume at (the atomic_begin).
  uint32_t failedAttemptResume(Frame &Fr, DynCounts::Delta &D);

  tmir::Module &M;
  Options Opts;
  DecodedModule DM;
  bool UseThreaded = false;
  Heap TheHeap;
  DynCounts Counts;
  std::vector<int64_t> Printed; // guarded by PrintMutex
  std::mutex PrintMutex;
};

} // namespace interp
} // namespace otm

#endif // OTM_INTERP_INTERP_H
