//===- perfbench/src/Workloads.h - The benchmark's workloads ---*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four closed-loop workloads. Each one owns its inputs, draws every
/// random choice from the run seed outside transaction bodies (a retried
/// body replays the same op), and checks its own outputs.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_PERFBENCH_WORKLOADS_H
#define OTM_PERFBENCH_WORKLOADS_H

#include "Harness.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Interpreter counters over an interval (zero for the row workloads).
struct InterpCounts {
  uint64_t Instrs = 0;
  uint64_t Opens = 0;
  uint64_t Undos = 0;
  uint64_t TxCommitted = 0;
  uint64_t TxRetried = 0;
};

/// Set-up spans of the TMIR pipeline, in ticks (zero for row workloads).
struct PipelineTimes {
  uint64_t Parse = 0;
  uint64_t Lower = 0;
  uint64_t Decode = 0;
  unsigned OpensRemoved = 0;
};

class Workload {
public:
  virtual ~Workload() = default;

  virtual const char *name() const = 0;
  virtual unsigned threads() const = 0;
  /// Set-ups per run; setup_s is their median.
  virtual unsigned setups() const = 0;
  /// The traced run records every traceStride()-th op of each thread.
  virtual unsigned traceStride() const = 0;

  /// Builds the inputs from \p Seed and warms up to steady state. Runs
  /// transactions only on \p T's workers. Repeatable: each call after
  /// teardown() rebuilds the same state.
  virtual void setup(Team &T, uint64_t Seed) = 0;
  virtual void teardown() = 0;

  /// Empty when timing may start; otherwise what is not yet steady.
  virtual std::string steadyStateProblem() const { return {}; }

  /// One closed-loop op on worker \p Tid. Stores the entry call's duration
  /// (call into the library's entry point to its return) in \p CallTicks;
  /// returns false when the op's own result check failed.
  virtual bool op(unsigned Tid, Tracer *T, uint64_t &CallTicks) = 0;

  /// Post-run checks (the team is idle; may run jobs on it). \p Ops and
  /// \p Commits cover the timed phase. Returns one line per failed check.
  virtual std::vector<std::string> check(Team &T, uint64_t Ops,
                                         uint64_t Commits) = 0;

  /// Test hook: damage the workload's data so check() must fail.
  virtual void corrupt() = 0;

  /// Version-chain nodes reachable from the workload's objects, and the
  /// number of objects they hang from.
  virtual void history(uint64_t &Versions, uint64_t &Objects) const = 0;

  virtual InterpCounts interpCounts() const { return {}; }
  virtual PipelineTimes pipelineTimes() const { return {}; }
};

/// Names in run order; "tiny" sizes serve the smoke tests.
const std::vector<std::string> &workloadNames();
std::unique_ptr<Workload> makeWorkload(const std::string &Name, bool Tiny);

} // namespace perfbench

#endif // OTM_PERFBENCH_WORKLOADS_H
