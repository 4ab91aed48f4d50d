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
///   - a computed-goto direct-threaded loop (the default), and
///   - a switch loop (Options::Loop = Dispatch::Switch), which serves as
///     the differential oracle for the threaded one.
///
/// Transaction modes:
///   - IgnoreAtomic — region markers are no-ops (sequential baseline);
///   - GlobalLock   — each region runs under one global recursive mutex
///                    (the coarse-lock baseline);
///   - ObjStm       — a top-level region is one stm::Stm::atomic call, so
///                    it takes the same retry ladder as every other
///                    transaction (hardware, software retry, serial
///                    fallback). The slots the decoder proved live across
///                    the region are snapshotted at atomic_begin; each
///                    attempt restores them and runs the region's code up
///                    to its atomic_end, and the executor commits, retries
///                    or rolls back. Regions reached inside a running
///                    transaction (through calls) flatten into it.
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

/// X(Name) per dynamic operation counter: the inventory exists once, so
/// the atomics, Delta, add() and reset() cannot desync.
#define OTM_INTERP_DYN_COUNTERS(X)                                             \
  X(Instrs)                                                                    \
  X(OpenRead)                                                                  \
  X(OpenUpdate)                                                                \
  X(UndoField)                                                                 \
  X(UndoElem)                                                                  \
  X(FieldReads)                                                                \
  X(FieldWrites)                                                               \
  X(Calls)                                                                     \
  X(TxStarted)                                                                 \
  X(TxCommitted)                                                               \
  X(TxRetried)

/// Dynamic operation counters (process-wide, relaxed atomics). The
/// execution engine counts into a plain per-run Delta and folds it in here
/// once per run() — the atomics are off the per-instruction path.
struct DynCounts {
#define OTM_X(Name) std::atomic<uint64_t> Name{0};
  OTM_INTERP_DYN_COUNTERS(OTM_X)
#undef OTM_X

  /// Plain per-run accumulator; one lives on each run()'s stack.
  struct Delta {
#define OTM_X(Name) uint64_t Name = 0;
    OTM_INTERP_DYN_COUNTERS(OTM_X)
#undef OTM_X
  };

  void add(const Delta &D) {
#define OTM_X(Name) Name.fetch_add(D.Name, std::memory_order_relaxed);
    OTM_INTERP_DYN_COUNTERS(OTM_X)
#undef OTM_X
  }

  /// Zeroes every counter. Requires quiescence: no run() may be live on
  /// any thread, or its end-of-run flush races the reset and the totals
  /// are garbage (asserted via the live-run count below). The stores are
  /// relaxed — reset is not a synchronization point.
  void reset() {
    assert(ActiveRuns.load(std::memory_order_relaxed) == 0 &&
           "DynCounts::reset() while a run() is live");
#define OTM_X(Name) Name.store(0, std::memory_order_relaxed);
    OTM_INTERP_DYN_COUNTERS(OTM_X)
#undef OTM_X
  }

  /// Number of run() activations currently executing (quiescence check).
  std::atomic<uint32_t> ActiveRuns{0};
};

class Interpreter {
public:
  enum class TxMode { IgnoreAtomic, GlobalLock, ObjStm };

  /// Which execution loop run() uses.
  enum class Dispatch { Threaded, Switch };

  struct Options {
    TxMode Mode = TxMode::ObjStm;
    Dispatch Loop = Dispatch::Threaded;
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
  /// Runs the top-level atomic region that begins at instruction \p
  /// BeginPc of \p Fr as one stm::Stm::atomic call; returns the pc of the
  /// atomic_end that closed it.
  uint32_t runAtomicRegion(Frame &Fr, uint32_t BeginPc, DynCounts::Delta &D,
                           uint64_t ValidateReload);
  /// Runs \p Fr from \p Pc on the configured loop. Returns the value of
  /// the function's ret or, inside runAtomicRegion, the pc of the region's
  /// atomic_end.
  int64_t execLoop(Frame &Fr, uint32_t Pc, DynCounts::Delta &D,
                   uint64_t ValidateReload);
  int64_t execSwitchLoop(Frame &Fr, uint32_t Pc, DynCounts::Delta &D,
                         uint64_t ValidateReload);
  int64_t execThreadedLoop(Frame &Fr, uint32_t Pc, DynCounts::Delta &D,
                           uint64_t ValidateReload);

  tmir::Module &M;
  Options Opts;
  DecodedModule DM;
  Heap TheHeap;
  DynCounts Counts;
  std::vector<int64_t> Printed; // guarded by PrintMutex
  std::mutex PrintMutex;
};

} // namespace interp
} // namespace otm

#endif // OTM_INTERP_INTERP_H
