//===- txn/CmStats.h - Contention-management statistics --------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide counters for the decisions the contention-management layer
/// makes: conflict waits, priority aborts, inter-attempt pauses, serial
/// fallback entries/commits, gate stalls. All of them sit on slow paths
/// (a conflict or an abort has already happened), so relaxed global atomics
/// are fine — no per-thread buffering needed.
///
/// Same X-macro discipline as stm::TxStats: the field inventory exists
/// exactly once, so snapshot/reset/serialize cannot desync.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_TXN_CMSTATS_H
#define OTM_TXN_CMSTATS_H

#include "obs/Json.h"

#include <atomic>
#include <cstdint>

namespace otm {
namespace txn {

/// X(Name) per counter.
#define OTM_CMSTAT_COUNTERS(X)                                                 \
  X(ConflictWaits)    /* conflicts where the policy chose to wait */           \
  X(PriorityAborts)   /* attacker yielded because it lost arbitration */       \
  X(AttemptPauses)    /* inter-attempt pauses the policy performed */          \
  X(FallbackEntries)  /* escalations into serial-irrevocable mode */           \
  X(FallbackCommits)  /* transactions that finished while serial */            \
  X(GateWaits)        /* attempts that stalled behind a serial owner */        \
  X(SemanticWaits)    /* abstract-lock conflicts the policy chose to wait on */\
  X(SemanticPriorityAborts) /* abstract-lock conflicts lost on priority */     \
  X(HtmAbortsExplicit)    /* hw aborts via xabort (all codes) */               \
  X(HtmAbortsSerial)      /* ... code: serial gate held by a writer */         \
  X(HtmAbortsLocked)      /* ... code: object/stripe owned by software */      \
  X(HtmAbortsUnsupported) /* ... code: op cannot run speculatively */          \
  X(HtmAbortsUser)        /* ... code: Tx.userAbort inside hardware */         \
  X(HtmAbortsException)   /* ... code: user exception inside hardware */       \
  X(HtmAbortsConflict)    /* hw aborts: cache-coherence conflict */            \
  X(HtmAbortsCapacity)    /* hw aborts: speculation buffer overflow */         \
  X(HtmAbortsOther)       /* hw aborts: interrupt/fault/unclassified */        \
  X(HtmFallbacks)         /* transactions that left hardware for the STM */

/// Plain snapshot block.
struct CmStatsSnapshot {
#define OTM_X(Name) uint64_t Name = 0;
  OTM_CMSTAT_COUNTERS(OTM_X)
#undef OTM_X

  /// Visits (const char *Name, uint64_t Value) per counter.
  template <typename FnType> void forEachCounter(FnType Fn) const {
#define OTM_X(Name) Fn(#Name, Name);
    OTM_CMSTAT_COUNTERS(OTM_X)
#undef OTM_X
  }
};

/// The process-wide aggregate.
class CmStats {
public:
  static CmStats &instance() {
    static CmStats S;
    return S;
  }

#define OTM_X(Name)                                                            \
  void bump##Name(uint64_t N = 1) {                                            \
    Name.fetch_add(N, std::memory_order_relaxed);                              \
  }
  OTM_CMSTAT_COUNTERS(OTM_X)
#undef OTM_X

  CmStatsSnapshot snapshot() const {
    CmStatsSnapshot S;
#define OTM_X(Name) S.Name = Name.load(std::memory_order_relaxed);
    OTM_CMSTAT_COUNTERS(OTM_X)
#undef OTM_X
    return S;
  }

  void reset() {
#define OTM_X(Name) Name.store(0, std::memory_order_relaxed);
    OTM_CMSTAT_COUNTERS(OTM_X)
#undef OTM_X
  }

private:
#define OTM_X(Name) std::atomic<uint64_t> Name{0};
  OTM_CMSTAT_COUNTERS(OTM_X)
#undef OTM_X
};

/// {counters: {...}} for the BENCH_E*.json "txn_cm" section.
inline obs::JsonValue cmStatsToJson(const CmStatsSnapshot &S) {
  obs::JsonValue V = obs::JsonValue::object();
  obs::JsonValue Counters = obs::JsonValue::object();
  S.forEachCounter(
      [&](const char *Name, uint64_t Value) { Counters.set(Name, Value); });
  V.set("counters", std::move(Counters));
  return V;
}

} // namespace txn
} // namespace otm

#endif // OTM_TXN_CMSTATS_H
