//===- stm/Mvcc.h - Multi-version support for snapshot readers -*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-version tier of the object STM: a global commit clock plus a
/// short per-object chain of committed *pre-images*, which is what lets
/// read-only transactions commit off a consistent snapshot with no read
/// log, no validate scan, and no possibility of abort (DESIGN.md §3.9).
///
/// Layout. One MvRecord is shared by all objects a commit wrote: it carries
/// the commit's stamp and the commit's entire undo log (address, old bits)
/// — the values the commit *overwrote*. Each written object gets one MvNode
/// prepended to its chain, pointing at the shared record; a snapshot reader
/// that finds the in-place value too new walks its object's chain
/// newest-to-oldest and reconstructs the field as of its begin stamp from
/// the pre-images.
///
/// A commit's nodes live inside its record, in one pool block:
/// [MvRecord | NumFields x MvField | NumObjects x MvNode]. Chains are
/// truncated to TxConfig.MvVersions nodes at install time; a cut node only
/// drops its record's ChainRefs, and the record — nodes included — is
/// retired through the existing epoch reclaimer once, when its last node is
/// cut. A cut node's memory therefore lives until its record retires, at an
/// epoch no earlier than the cut, so a reader paused mid-walk keeps
/// everything it can reach alive via its pin.
///
/// Truncation is O(1). Each node also carries a writer-only Newer back
/// link, and the object keeps a writer-only tail word: the chain's oldest
/// node with the chain depth tagged into its low bits (see makeTail). A
/// full chain drops its tail and promotes Tail->Newer without walking the
/// Older links; the walk survives only to resync a chain whose tag no
/// longer fits (MvVersions changed at runtime, or K > MaxTaggedDepth).
/// Snapshot readers never touch Newer or the tail word.
///
/// The whole tier compiles out under -DOTM_MVCC=0: TxObject loses the
/// chain-head and tail words, the snapshot read path disappears, and
/// writer commits go back to per-object version increments.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_STM_MVCC_H
#define OTM_STM_MVCC_H

#include "support/Compiler.h"

#include <atomic>
#include <cstdint>

/// Compile-time kill switch for the multi-version tier (CI builds with
/// -DOTM_MVCC=0 to prove the legacy validate-scan path stands alone).
#ifndef OTM_MVCC
#define OTM_MVCC 1
#endif

namespace otm {
namespace stm {
namespace mv {

/// One overwritten (address, old bits) pair — the same information the undo
/// log holds, frozen at commit instead of discarded.
struct MvField {
  void *Addr;
  uint64_t Bits;
};

struct MvNode;

/// One committed write-back, shared by every object the commit touched.
/// Fields are stored in undo-log order, so within one record the *first*
/// match for an address is the oldest pre-image (the value as of the
/// commit's own begin) — exactly what a reader below this stamp needs.
/// The commit's chain nodes follow the fields in the same block.
/// Trivially destructible: retirement frees the raw block.
struct MvRecord {
  uint64_t NewStamp;               ///< commit stamp this record installed
  std::atomic<uint32_t> ChainRefs; ///< embedded nodes still on a chain
  uint32_t NumFields;

  MvField *fields() { return reinterpret_cast<MvField *>(this + 1); }
  const MvField *fields() const {
    return reinterpret_cast<const MvField *>(this + 1);
  }
  MvNode *nodes() { return reinterpret_cast<MvNode *>(fields() + NumFields); }
};

/// One link in an object's version chain (newest first), embedded in its
/// commit's record. PrevStamp is the stamp the object carried *before* this
/// commit, so a walker knows when the remaining history is at or below its
/// snapshot without dereferencing the older node. Newer points the other
/// way (null at the head); only the update owner of the object reads or
/// writes it.
struct MvNode {
  MvRecord *Rec;
  std::atomic<MvNode *> Older;
  uint64_t PrevStamp;
  MvNode *Newer;
};
// Pool payloads are 16-byte aligned; with every part of the block a
// multiple of 16 bytes, each embedded node leaves the tail tag bits free.
static_assert(sizeof(MvRecord) % 16 == 0 && sizeof(MvField) % 16 == 0 &&
                  sizeof(MvNode) % 16 == 0,
              "embedded MvNodes must stay 16-byte aligned");

/// Tail word encoding: the chain's oldest node, with the chain depth in the
/// low bits (embedded nodes are 16-byte aligned, so they are free). 0 means
/// untagged: the depth is unknown and the next install walks the chain.
constexpr uintptr_t TailDepthMask = 15;
constexpr unsigned MaxTaggedDepth = TailDepthMask;

inline uintptr_t makeTail(MvNode *Tail, unsigned Depth) {
  return reinterpret_cast<uintptr_t>(Tail) | Depth;
}
inline MvNode *tailNode(uintptr_t Tag) {
  return reinterpret_cast<MvNode *>(Tag & ~TailDepthMask);
}
inline unsigned tailDepth(uintptr_t Tag) {
  return static_cast<unsigned>(Tag & TailDepthMask);
}

/// The global commit clock, a read-mostly word (DESIGN.md §3.9). The word
/// is `(Part << 1) | ObservedBit`; a stamp is `(Part << SeqBits) | Seq`.
/// A snapshot reader sets ObservedBit and reads everything stamped in parts
/// up to the current one. A writer stamps from the current part, one above
/// the largest version it overwrote, and moves the clock to the next part
/// only when a reader has observed the current one or the part's sequence
/// space is spent. Writers with no snapshot reader around never write it.
///
/// The clock still owns its CacheLine: each advance and each observation
/// would otherwise evict the words every transaction reads (the config,
/// the sampling switch, the epoch domain's pointer) from every other core.
using CommitClockLine = support::CacheAligned<std::atomic<uint64_t>>;
static_assert(alignof(CommitClockLine) == support::CacheLine &&
                  sizeof(CommitClockLine) == support::CacheLine,
              "the commit clock must own its cache line");

inline std::atomic<uint64_t> &commitClock() {
  constinit static CommitClockLine Clock{0};
  return Clock.Value;
}

constexpr uint64_t ObservedBit = 1;
/// Sequence bits per part: one object takes up to 2^SeqBits commits in a
/// part before a writer must advance the clock (versions are 63-bit, so
/// the remaining 47 bits of part never run out).
constexpr unsigned SeqBits = 16;
constexpr uint64_t SeqMask = (uint64_t{1} << SeqBits) - 1;

inline uint64_t clockPart(uint64_t Clock) { return Clock >> 1; }
inline uint64_t stampPart(uint64_t Stamp) { return Stamp >> SeqBits; }

/// Reader side: marks the current part observed and returns the snapshot
/// stamp, the largest stamp the part can hold. The seq_cst CAS (or the
/// load of a bit another reader set) is the reader's half of the Dekker
/// handshake; its object-word loads follow it.
inline uint64_t observeClock() {
  std::atomic<uint64_t> &Clock = commitClock();
  uint64_t C = Clock.load(std::memory_order_seq_cst);
  while (!(C & ObservedBit) &&
         !Clock.compare_exchange_weak(C, C | ObservedBit,
                                      std::memory_order_seq_cst))
    ;
  return (clockPart(C) << SeqBits) | SeqMask;
}

/// Writer side: the stamp for a commit that holds ownership of every object
/// it wrote, whose largest overwritten version is \p MaxPrev. Runs before
/// read-set validation (the loads here are the writer's half of the
/// handshake, after its ownership CASes). Sets \p Advanced when this call
/// moved the clock to the next part.
///
/// The needed part comes from the first clock load only: one past an
/// observed part (or past a part whose sequence space MaxPrev used up),
/// the current part otherwise. A later observation of a part this writer
/// already reached does not push it further, so the part stays monotone in
/// the order writers load the clock. MaxPrev's part never exceeds the
/// clock's: whoever published it had moved the clock there first.
inline uint64_t writerStamp(uint64_t MaxPrev, bool &Advanced) {
  std::atomic<uint64_t> &Clock = commitClock();
  uint64_t C = Clock.load(std::memory_order_seq_cst);
  const uint64_t Part = clockPart(C);
  const uint64_t Need =
      (C & ObservedBit) || stampPart(MaxPrev + 1) > Part ? Part + 1 : Part;
  Advanced = false;
  while (clockPart(C) < Need) {
    if (Clock.compare_exchange_weak(C, Need << 1, std::memory_order_seq_cst)) {
      Advanced = true;
      break;
    }
  }
  const uint64_t First = Need << SeqBits;
  return MaxPrev + 1 > First ? MaxPrev + 1 : First;
}

/// The hardware rung's stamp, taken inside its speculative region: always
/// advances the clock, so the stamp sits above every published one and no
/// per-object maximum is needed. An advance is always correct; the region
/// makes the load and the CAS one atomic step with the stores it stamps.
inline uint64_t advanceClock() {
  std::atomic<uint64_t> &Clock = commitClock();
  uint64_t C = Clock.load(std::memory_order_seq_cst);
  while (!Clock.compare_exchange_weak(C, (clockPart(C) + 1) << 1,
                                      std::memory_order_seq_cst))
    ;
  return (clockPart(C) + 1) << SeqBits;
}

} // namespace mv
} // namespace stm
} // namespace otm

#endif // OTM_STM_MVCC_H
