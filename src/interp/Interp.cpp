//===- interp/Interp.cpp - TMIR interpreter over the STM -------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Execution engine over the decoded bytecode (Bytecode.h / Decoder.h). The
// per-instruction work the old tree-walker repeated — operand kind
// switches, TxMode tests, field-index lookups — happens once at decode; at
// run time each handler is a few loads/stores on the frame's slot file.
//
// Two loops execute the same DInstr stream: a computed-goto direct-
// threaded loop (GNU computed goto, which every supported compiler has)
// and a switch loop. Both are generated from InterpDispatch.inc so
// their semantics cannot drift; tests/InterpDifferentialTest.cpp runs
// every benchmark program through both and compares results, prints and
// dynamic counts.
//
// Under ObjStm a top-level atomic_begin hands its region to
// runAtomicRegion, which makes one stm::Stm::atomic call. The call's body
// restores the region's live-slot snapshot on a retry and runs a nested
// loop from the instruction after atomic_begin; the loop returns at the
// region's atomic_end, and the executor commits, retries, escalates to
// serial mode or, on a trap, rolls back and lets the trap unwind. Aborts
// (AbortTx) unwind through interpreted callee frames to that call.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "interp/Decoder.h"
#include "obs/TraceRing.h"
#include "stm/Stm.h"
#include "support/Compiler.h"
#include "tmir/Verifier.h"
#include "txn/Htm.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

using namespace otm;
using namespace otm::interp;
using namespace otm::tmir;

// The decoder maps these blocks between the two opcode enums by offset;
// pin the anchors of each contiguous run it relies on.
static_assert(static_cast<unsigned>(Opcode::CmpGe) -
                      static_cast<unsigned>(Opcode::Add) ==
                  static_cast<unsigned>(DOp::CmpGe) -
                      static_cast<unsigned>(DOp::Add),
              "arith/compare blocks of Opcode and DOp must stay parallel");
// The threaded loop's label table lists DOp values in declaration order;
// pin the anchors so a reordering shows up as a compile error, not a
// misdispatch.
static_assert(static_cast<unsigned>(DOp::Mov) == 0 &&
                  static_cast<unsigned>(DOp::CmpGe) == 16 &&
                  static_cast<unsigned>(DOp::Call) == 24 &&
                  static_cast<unsigned>(DOp::AtomicBeginStm) == 29 &&
                  static_cast<unsigned>(DOp::OpenReadCnt) == 35 &&
                  static_cast<unsigned>(DOp::Ret) == 41 && NumDOps == 42,
              "DOp order changed: update the Labels table in "
              "InterpDispatch.inc to match");

namespace {

/// Internal trap signal; converted to RunResult at the run() boundary.
struct TrapError {
  std::string Msg;
};

[[noreturn]] void trap(const std::string &Msg) { throw TrapError{Msg}; }

std::recursive_mutex &globalTxMutex() {
  static std::recursive_mutex M;
  return M;
}

thread_local int GlobalLockDepth = 0;

/// Frame address of the outermost run() on this thread; 0 outside run().
thread_local uintptr_t RunEntryFrame = 0;

/// Native stack an interpreted call chain may use below its run() entry.
/// Interpreted recursion is native recursion, and a frame count cannot
/// bound it: frame sizes change with the build (sanitizer redzones make
/// each one about three times larger). 2 MiB is about 3000 levels in a
/// release build and leaves three quarters of a default 8 MiB thread stack
/// for the caller above run() and for throwing the trap.
constexpr uintptr_t MaxNativeStackBytes = uintptr_t{2} << 20;

uintptr_t frameAddress() {
  return reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
}

} // namespace

struct Interpreter::Frame {
  const DecodedFunction *DF = nullptr;
  /// Unified slot file: [registers | locals | constants].
  std::vector<int64_t> Slots;
  /// True while this frame runs a top-level atomic region. The retry
  /// snapshot holds the values of the region's live-slot window (slot
  /// indices Pool[SnapPoolOff .. SnapPoolOff+SnapCount) of the decoded
  /// function); the collector marks them as roots.
  bool HasSnapshot = false;
  uint32_t SnapPoolOff = 0;
  uint32_t SnapCount = 0;
  std::vector<int64_t> SnapVals;
};

namespace {

/// Per-thread stack of live frames (GC roots for the current thread).
thread_local std::vector<Interpreter::Frame *> TlFrames;

} // namespace

namespace otm {
namespace interp {

class FrameScope {
public:
  explicit FrameScope(Interpreter::Frame &Fr) { TlFrames.push_back(&Fr); }
  ~FrameScope() { TlFrames.pop_back(); }
};

} // namespace interp
} // namespace otm

Interpreter::Interpreter(Module &M, Options Opts) : M(M), Opts(Opts) {
  verifyModuleOrDie(M); // fills RegTypes, required for decode + GC scanning
  DM = decodeModule(M, Opts.Mode);
}

HeapObject *Interpreter::makeObject(const std::string &ClassName) {
  int Id = M.classIndex(ClassName);
  if (Id < 0) {
    std::fprintf(stderr, "otm: makeObject: the module has no class '%s'\n",
                 ClassName.c_str());
    std::abort();
  }
  return TheHeap.allocObject(&M.Classes[Id]);
}

HeapObject *Interpreter::makeArray(std::size_t Length) {
  return TheHeap.allocArray(Length);
}

void Interpreter::collectGarbage() {
  stm::TxManager &Tx = stm::TxManager::current();
  // Sweeping frees memory, which a hardware abort cannot undo: run the
  // attempt in software instead (the rule TxManager::recordAlloc follows).
  if (OTM_UNLIKELY(Tx.inHtmMode()))
    txn::htm::abortWith<txn::htm::CodeUnsupported>();
  obs::TraceRing *Ring = obs::TraceRing::forCurrentThread();
  OTM_TRACE_EVENT(Ring, obs::EventKind::GcBegin, 0);
  TheHeap.collect([&](auto Mark) {
    for (Frame *Fr : TlFrames) {
      const DecodedFunction &DF = *Fr->DF;
      // Every reference-typed register/local slot of a live frame is a
      // root — including currently-dead ones, which may hold pointers from
      // earlier in the frame. Keeping those alive is what makes the
      // narrowed retry snapshots safe: a restored dead slot can never
      // resurrect a swept object.
      for (uint32_t Sl = 0; Sl < DF.ConstBase; ++Sl)
        if (DF.RefSlot[Sl] && Fr->Slots[Sl])
          Mark(HeapObject::fromBits(Fr->Slots[Sl]));
      if (Fr->HasSnapshot) {
        const uint32_t *Window = DF.Pool.data() + Fr->SnapPoolOff;
        for (uint32_t K = 0; K < Fr->SnapCount; ++K)
          if (DF.RefSlot[Window[K]] && Fr->SnapVals[K])
            Mark(HeapObject::fromBits(Fr->SnapVals[K]));
      }
    }
    if (Tx.inTx()) {
      // The paper's GC/STM integration: compact the logs while they are
      // being treated as roots.
      auto [ReadsDropped, UndosDropped] = Tx.compactLogsForGc();
      TheHeap.stats().ReadEntriesDropped += ReadsDropped;
      TheHeap.stats().UndoEntriesDropped += UndosDropped;
      Tx.forEachEnlistedObject([&](stm::TxObject *Obj) {
        Mark(static_cast<HeapObject *>(Obj));
      });
    }
  });
  OTM_TRACE_EVENT(Ring, obs::EventKind::GcEnd, 0);
}

Interpreter::RunResult Interpreter::run(const std::string &Name,
                                        const std::vector<int64_t> &Args) {
  RunResult Result;
  Function *F = M.functionByName(Name);
  if (!F) {
    Result.Trapped = true;
    Result.Error = "no such function: " + Name;
    return Result;
  }
  if (Args.size() != F->NumParams) {
    Result.Trapped = true;
    Result.Error = "argument count mismatch calling " + Name;
    return Result;
  }
  const DecodedFunction *DF = nullptr;
  for (std::size_t Idx = 0; Idx < M.Functions.size(); ++Idx)
    if (M.Functions[Idx].get() == F) {
      DF = &DM.Funcs[Idx];
      break;
    }
  assert(DF && "function present in module but not in decoded module");

  Counts.ActiveRuns.fetch_add(1, std::memory_order_relaxed);
  // The outermost run() on this thread anchors the native stack budget.
  struct EntryFrameScope {
    bool Outermost = RunEntryFrame == 0;
    EntryFrameScope() {
      if (Outermost)
        RunEntryFrame = frameAddress();
    }
    ~EntryFrameScope() {
      if (Outermost)
        RunEntryFrame = 0;
    }
  } EntryFrame;
  DynCounts::Delta D;
  try {
    Result.Value = execFunction(*DF, Args.data(), Args.size(), D);
  } catch (const TrapError &T) {
    Result.Trapped = true;
    Result.Error = T.Msg;
    // Stm::atomic rolled back an interrupted region; release the global
    // lock a GlobalLock region held.
    while (GlobalLockDepth > 0) {
      globalTxMutex().unlock();
      --GlobalLockDepth;
    }
  }
  // One flush of the per-run counters into the process-wide atomics.
  Counts.add(D);
  Counts.ActiveRuns.fetch_sub(1, std::memory_order_relaxed);
  return Result;
}

int64_t Interpreter::execFunction(const DecodedFunction &DF,
                                  const int64_t *Args, std::size_t NumArgs,
                                  DynCounts::Delta &D) {
  // The stack grows down from run()'s frame.
  if (OTM_UNLIKELY(RunEntryFrame - frameAddress() > MaxNativeStackBytes))
    trap("native stack depth limit exceeded in " + DF.Src->Name);

  Frame Fr;
  Fr.DF = &DF;
  Fr.Slots.assign(DF.NumSlots, 0);
  std::copy(DF.Consts.begin(), DF.Consts.end(),
            Fr.Slots.begin() + DF.ConstBase);
  for (std::size_t A = 0; A < NumArgs; ++A)
    Fr.Slots[DF.LocalBase + A] = Args[A];
  FrameScope Scope(Fr);

  const uint64_t Reload =
      Opts.Mode == TxMode::ObjStm && Opts.ValidateEveryNInstrs
          ? Opts.ValidateEveryNInstrs
          : ~uint64_t(0);
  return execLoop(Fr, 0, D, Reload);
}

uint32_t Interpreter::runAtomicRegion(Frame &Fr, uint32_t BeginPc,
                                      DynCounts::Delta &D,
                                      uint64_t ValidateReload) {
  // Snapshot the slots live across the region (the decoder's window) so
  // that every retry starts from the values the first attempt saw.
  const DecodedFunction &DF = *Fr.DF;
  const DInstr &Begin = DF.Code[BeginPc];
  const uint32_t *Window = DF.Pool.data() + Begin.A;
  Fr.SnapPoolOff = Begin.A;
  Fr.SnapCount = Begin.B;
  Fr.SnapVals.resize(Begin.B);
  for (uint32_t K = 0; K < Begin.B; ++K)
    Fr.SnapVals[K] = Fr.Slots[Window[K]];
  Fr.HasSnapshot = true;
  uint32_t Attempts = 0;
  uint32_t EndPc = 0;
  stm::Stm::atomic([&](stm::TxManager &) {
    if (Attempts++ != 0) {
      for (uint32_t K = 0; K < Begin.B; ++K)
        Fr.Slots[Window[K]] = Fr.SnapVals[K];
      ++D.Instrs; // a retry re-executes the atomic_begin
      ++D.TxRetried;
    }
    ++D.TxStarted;
    EndPc = static_cast<uint32_t>(execLoop(Fr, BeginPc + 1, D, ValidateReload));
    // Testing hook: abort the attempt as if a conflict had been seen.
    if (OTM_UNLIKELY(Attempts <= Opts.ForceRetries))
      throw stm::AbortTx{stm::AbortTx::Cause::Conflict};
  });
  Fr.HasSnapshot = false;
  ++D.TxCommitted;
  return EndPc;
}

int64_t Interpreter::execLoop(Frame &Fr, uint32_t Pc, DynCounts::Delta &D,
                              uint64_t ValidateReload) {
  return Opts.Loop == Dispatch::Threaded
             ? execThreadedLoop(Fr, Pc, D, ValidateReload)
             : execSwitchLoop(Fr, Pc, D, ValidateReload);
}

int64_t Interpreter::execSwitchLoop(Frame &Fr, uint32_t Pc,
                                    DynCounts::Delta &D,
                                    uint64_t ValidateReload) {
#define OTM_LOOP_THREADED 0
#include "interp/InterpDispatch.inc"
#undef OTM_LOOP_THREADED
}

int64_t Interpreter::execThreadedLoop(Frame &Fr, uint32_t Pc,
                                      DynCounts::Delta &D,
                                      uint64_t ValidateReload) {
#define OTM_LOOP_THREADED 1
#include "interp/InterpDispatch.inc"
#undef OTM_LOOP_THREADED
}
