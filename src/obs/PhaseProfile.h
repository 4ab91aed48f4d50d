//===- obs/PhaseProfile.h - Transaction phase cycle accounting -*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase-level TSC accounting for the transaction lifecycle. Each phase is
/// one of the places a transaction's cycles can go once it has entered the
/// runtime: commit-time read-set validation, the commit-lock acquisition
/// (word STM), write-back/publication, waiting on a conflicting owner, and
/// the contention manager's inter-attempt backoff.
///
/// Recording is sampling-gated exactly like the commit-latency histograms:
/// a PhaseScope costs one well-predicted branch when obs::samplingEnabled()
/// is off and two TSC reads plus one histogram record when it is on. Each
/// sample is one phase *episode* (one validation scan, one backoff pause),
/// so the per-phase histogram's sum() is the total cycles the phase
/// consumed and its count() is how often it ran — the per-phase breakdown
/// every bench reports, and the percentile source for p50/p99/p999 commit
/// latency.
///
/// The open barriers are not a phase: even a disabled PhaseScope re-tests
/// the sampling byte, and one extra predicted branch is measurable (E0:
/// +5-12%) inside a read barrier that is itself only a few ns. E0's barrier
/// rows and perfbench's open spans time the barriers instead.
///
/// CmWait times the object STM's waits on an owned object; the word STM's
/// stripe-lock waits are part of its CommitLock phase.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_OBS_PHASEPROFILE_H
#define OTM_OBS_PHASEPROFILE_H

#include "obs/Histogram.h"
#include "obs/Tsc.h"
#include "support/Compiler.h"

namespace otm {
namespace obs {

/// Where a transaction's runtime cycles went. Keep in sync with
/// phaseName() and the OTM_TXSTAT_HISTOGRAMS Phase* entries.
enum class Phase : uint8_t {
  Validate = 0, ///< commit-time (and periodic) read-set validation
  CommitLock,   ///< word-STM commit lock acquisition (incl. its waits)
  WriteBack,    ///< publication: version release (obj) / redo apply (word)
  CmWait,       ///< spinning on a conflicting owner before abort/continue
  Backoff,      ///< contention manager's inter-attempt pause
};

inline constexpr unsigned NumPhases = 5;

inline const char *phaseName(Phase P) {
  switch (P) {
  case Phase::Validate:
    return "validate";
  case Phase::CommitLock:
    return "commit_lock";
  case Phase::WriteBack:
    return "write_back";
  case Phase::CmWait:
    return "cm_wait";
  case Phase::Backoff:
    return "backoff";
  }
  return "?";
}

/// RAII episode timer: records (end - start) TSC ticks into \p Hist when
/// \p On (\p Hist may be null when \p On is false). The enable flag is
/// the caller's per-attempt sampling cache (the same byte TxObs::onBegin
/// loads), so the disabled path re-tests a hot struct member and never
/// reads the TSC.
class PhaseScope {
public:
  OTM_ALWAYS_INLINE PhaseScope(bool On, Histogram *Hist) {
    if (OTM_UNLIKELY(On)) {
      H = Hist;
      T0 = readTsc();
    }
  }
  OTM_ALWAYS_INLINE ~PhaseScope() {
    if (OTM_UNLIKELY(H != nullptr))
      H->record(readTsc() - T0);
  }
  PhaseScope(const PhaseScope &) = delete;
  PhaseScope &operator=(const PhaseScope &) = delete;

private:
  Histogram *H = nullptr;
  uint64_t T0 = 0;
};

} // namespace obs
} // namespace otm

#endif // OTM_OBS_PHASEPROFILE_H
