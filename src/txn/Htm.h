//===- txn/Htm.h - Intel RTM intrinsics, probe, and runtime ----*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hardware tier of the three-level execution ladder (DESIGN.md §3.12):
/// raw RTM begin/end/abort primitives, the abort-status decoding shared by
/// the retry layer's attribution counters, and the process-wide HtmRuntime
/// capability probe.
///
/// The primitives are emitted as raw opcodes (`xbegin`, `xend`,
/// `xabort imm8`) so no `-mrtm` toolchain flag or `<immintrin.h>` target
/// pragma is needed; the instructions only ever execute after the runtime
/// probe *committed* a hardware transaction on this machine, so CPUs
/// without TSX (or with RTM_ALWAYS_ABORT microcode) never reach them.
///
/// On any non-x86_64 target, and in any ThreadSanitizer build (TSan cannot
/// see into a speculative region, so instrumented builds must run the
/// software tier), this header is a same-surface stub whose probe reports
/// "unavailable" and whose begin() routes every caller straight to the STM.
/// Everything above it compiles unchanged. On x86_64 the runtime off switch
/// is OTM_HTM=0 (see envDisablesHtm).
///
//===----------------------------------------------------------------------===//

#ifndef OTM_TXN_HTM_H
#define OTM_TXN_HTM_H

#include "support/Compiler.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

/// 1 exactly where the primitives can exist. Off under TSan: an `_xbegin`
/// region is invisible to the race detector, so instrumented builds must
/// exercise the software path they can actually check.
#if defined(__x86_64__) && !OTM_TSAN
#define OTM_HTM 1
#else
#define OTM_HTM 0
#endif

namespace otm {
namespace txn {
namespace htm {

/// EAX after a successful `xbegin` (the Intel _XBEGIN_STARTED value).
inline constexpr unsigned Started = ~0u;

/// Abort-status bits (Intel SDM vol. 1, RTM status register).
inline constexpr unsigned StatusExplicit = 1u << 0; ///< xabort executed
inline constexpr unsigned StatusRetry = 1u << 1;    ///< retry may succeed
inline constexpr unsigned StatusConflict = 1u << 2; ///< coherence conflict
inline constexpr unsigned StatusCapacity = 1u << 3; ///< buffer overflow

/// `xabort` immediates: how the software inside a hardware region tells the
/// retry layer *why* it bailed (bits 31:24 of the abort status).
inline constexpr uint8_t CodeSerial = 0x01;      ///< serial gate held
inline constexpr uint8_t CodeUnsupported = 0x02; ///< op cannot run in hw
inline constexpr uint8_t CodeUser = 0x03;        ///< Tx.userAbort()
inline constexpr uint8_t CodeException = 0x04;   ///< user exception thrown
inline constexpr uint8_t CodeLocked = 0x05;      ///< software owner seen

inline constexpr uint8_t abortCode(unsigned Status) {
  return static_cast<uint8_t>((Status >> 24) & 0xffu);
}

/// Parses an OTM_HTM environment value (null when unset). Only "0" and
/// "off" turn the tier off; unset, empty or any other value leaves it on,
/// the same rule as OTM_SCHED. TxConfig::defaultHtmAttempts and HtmRuntime
/// both read the variable through this one parse.
inline bool envDisablesHtm(const char *E) {
  return E && (!std::strcmp(E, "0") || !std::strcmp(E, "off"));
}

#if OTM_HTM

/// Starts a hardware transaction. Returns Started on entry into the
/// speculative region; on abort, execution resumes *here* with the abort
/// status in the return value (registers and memory rolled back).
OTM_ALWAYS_INLINE unsigned begin() {
  unsigned Status = Started;
  asm volatile(".byte 0xc7,0xf8; .long 0" : "+a"(Status) : : "memory");
  return Status;
}

/// Commits the current hardware transaction, publishing every speculative
/// store atomically.
OTM_ALWAYS_INLINE void end() {
  asm volatile(".byte 0x0f,0x01,0xd5" ::: "memory");
}

/// Aborts the current hardware transaction with \p Code in the status. Must
/// only execute inside a speculative region (xbegin succeeded); outside one
/// the instruction is a no-op, which the trailing trap turns loud.
template <uint8_t Code> [[noreturn]] OTM_ALWAYS_INLINE void abortWith() {
  asm volatile(".byte 0xc6,0xf8,%c0" : : "i"(Code) : "memory");
  OTM_UNREACHABLE("xabort executed outside a hardware transaction");
}

#else // !OTM_HTM — same-surface stub

/// Stub begin(): reports a capacity abort without the retry bit, which is
/// the "will never fit, go to software" answer — callers that ignore the
/// runtime probe still route to the STM tier.
OTM_ALWAYS_INLINE unsigned begin() { return StatusCapacity; }
OTM_ALWAYS_INLINE void end() {}
template <uint8_t Code> [[noreturn]] OTM_ALWAYS_INLINE void abortWith() {
  OTM_UNREACHABLE("htm::abortWith reached without RTM primitives");
}

#endif // OTM_HTM

/// Process-wide RTM capability, decided once at first use.
///
/// Three gates compose into available():
///   1. CPUID leaf 7 advertises RTM (bit EBX[11]),
///   2. a *functional* probe committed an empty hardware transaction —
///      CPUID alone is a lie on RTM_ALWAYS_ABORT parts and under some
///      hypervisors, so the only trustworthy signal is a real commit,
///   3. the OTM_HTM environment kill switch is not set (envDisablesHtm;
///      the same variable also zeroes TxConfig::HtmAttempts, and checking
///      here too makes the switch total even for code that sets attempts
///      programmatically).
///
/// The probe never runs `xbegin` unless CPUID said RTM exists, so no-TSX
/// hosts execute only CPUID — the #UD trap is unreachable.
class HtmRuntime {
public:
  static HtmRuntime &instance() {
    static HtmRuntime R;
    return R;
  }

  /// CPUID leaf 7 advertised RTM.
  bool cpuidSupported() const { return CpuidRtm; }
  /// The functional probe committed a hardware transaction.
  bool probeCommitted() const { return Functional; }
  /// The OTM_HTM environment kill switch is set (0 or off).
  bool envDisabled() const { return EnvOff; }
  /// All gates passed: the executor may issue hardware attempts.
  bool available() const { return Avail; }

private:
  HtmRuntime() {
    EnvOff = envDisablesHtm(std::getenv("OTM_HTM"));
#if OTM_HTM
    CpuidRtm = cpuidHasRtm();
    if (CpuidRtm && !EnvOff)
      Functional = probeRtm();
    Avail = CpuidRtm && Functional && !EnvOff;
#endif
  }

#if OTM_HTM
  static bool cpuidHasRtm() {
    unsigned Eax = 0, Ebx = 0, Ecx = 0, Edx = 0;
    asm volatile("cpuid" : "+a"(Eax), "=b"(Ebx), "+c"(Ecx), "=d"(Edx));
    if (Eax < 7)
      return false; // leaf 7 does not exist
    Eax = 7;
    Ecx = 0;
    asm volatile("cpuid" : "+a"(Eax), "=b"(Ebx), "+c"(Ecx), "=d"(Edx));
    return (Ebx >> 11) & 1;
  }

  /// Tries a handful of empty transactions; success is one real commit.
  /// Empty regions abort only on interrupts, so a working implementation
  /// commits on the first or second try; sixteen misses means the
  /// hardware lies (RTM_ALWAYS_ABORT) and the tier stays off.
  static bool probeRtm() {
    for (int I = 0; I < 16; ++I) {
      unsigned S = begin();
      if (S == Started) {
        end();
        return true;
      }
    }
    return false;
  }
#endif

  bool CpuidRtm = false;
  bool Functional = false;
  bool EnvOff = false;
  bool Avail = false;
};

} // namespace htm
} // namespace txn
} // namespace otm

#endif // OTM_TXN_HTM_H
