//===- stm/TxConfig.h - Runtime configuration of the STM -------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime knobs of the STM. The benchmarks flip these to isolate the
/// contribution of each mechanism (e.g. runtime log filtering on/off is the
/// E5 axis). Configuration is sampled when a transaction begins.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_STM_TXCONFIG_H
#define OTM_STM_TXCONFIG_H

#include "support/Compiler.h"
#include "txn/ContentionManager.h"
#include "txn/Htm.h"

#include <charconv>
#include <cstdlib>
#include <cstring>

namespace otm {
namespace stm {

struct TxConfig {
  /// Filter duplicate read-log enlistments with a per-transaction hash set.
  bool FilterReads = true;

  /// Filter duplicate undo-log entries with a per-transaction hash set.
  bool FilterUndo = true;

  /// Spin iterations on an open-for-update / open-for-read ownership
  /// conflict before aborting the attacker.
  unsigned ConflictSpins = 128;

  /// Contention-management policy consulted at ownership conflicts and
  /// between retry attempts (both STMs and the interpreter). Defaults to
  /// the OTM_CM environment variable (passive|backoff|karma|greedy),
  /// falling back to backoff — the pre-txn-layer behaviour.
  txn::CmPolicy ContentionPolicy = txn::policyFromEnv(txn::CmPolicy::Backoff);

  /// Retry budget: after this many aborted attempts of one transaction,
  /// the next attempt escalates to serial-irrevocable mode (all other
  /// transactions drain and stall until it finishes). 0 disables the
  /// fallback. Defaults to the OTM_RETRY_BUDGET environment variable.
  unsigned SerialFallbackAfter = defaultSerialFallbackAfter();

  /// Committed versions kept per object for snapshot readers (chain depth
  /// K). 0 is the MVCC tier's one off switch: writers install no history,
  /// and read-only transactions go back to the validate-scan path.
  /// Defaults to the OTM_MV_VERSIONS environment variable. Set once at
  /// startup: toggling while snapshot readers are in flight only costs
  /// them refresh restarts, but it wastes the chains already built.
  unsigned MvVersions = defaultMvVersions();

  /// Hardware (RTM) attempts tried before the software retry ladder — the
  /// top rung of the three-tier escalation (DESIGN.md §3.12). 0 sends every
  /// transaction straight to the STM. The default honors the OTM_HTM=0
  /// (or off) runtime kill switch and OTM_HTM_ATTEMPTS=<n>; the knob is
  /// inert where the platform has no RTM primitives (non-x86-64, TSan) or
  /// the runtime capability probe found no working RTM on this machine.
  unsigned HtmAttempts = defaultHtmAttempts();

  /// Parses a numeric environment value (null when unset): \p Default
  /// unless the whole value is a decimal number that fits an unsigned. A
  /// typo such as "on", "" or "12x" must not read as 0, which turns the
  /// knob's tier off. Out of line: the parse runs once per process, and
  /// every config() caller inlines TxConfig's constructor.
  OTM_NOINLINE static unsigned envCount(const char *E, unsigned Default) {
    if (!E)
      return Default;
    const char *End = E + std::strlen(E);
    unsigned V = 0;
    auto [Ptr, Ec] = std::from_chars(E, End, V);
    return Ec == std::errc() && Ptr == End ? V : Default;
  }

  static unsigned defaultSerialFallbackAfter() {
    return envCount(std::getenv("OTM_RETRY_BUDGET"), 64);
  }

  static unsigned defaultMvVersions() {
    return envCount(std::getenv("OTM_MV_VERSIONS"), 8);
  }

  static unsigned defaultHtmAttempts() {
    if (txn::htm::envDisablesHtm(std::getenv("OTM_HTM")))
      return 0; // kill switch: OTM_HTM=0 forces the software ladder
    return envCount(std::getenv("OTM_HTM_ATTEMPTS"), 8);
  }
};

} // namespace stm
} // namespace otm

#endif // OTM_STM_TXCONFIG_H
