//===- txn/Fingerprint.h - Read/write-set Bloom summaries ------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-width Bloom-filter summaries of transaction read/write sets, the
/// currency of the admission scheduler (DESIGN.md §3.11). A summary is what
/// a transaction *declares* (server request handlers know their keys up
/// front) or what gets *sampled* from a first speculative attempt (the
/// per-transaction HashFilter already holds the read set; the update log
/// holds the write set — see HashFilter::appendFingerprint and
/// TxManager::sampleSummary).
///
/// The conservative direction matters and is one-sided by construction:
/// any key present in two real sets is hashed to the *same* k bit
/// positions in both filters, so the bitwise AND of the filters is nonzero
/// whenever the real intersection is nonempty. Hence
///
///   disjoint(A, B) == true   =>   the real sets are disjoint (provable),
///   disjoint(A, B) == false  =>   maybe-conflict (false conflicts allowed).
///
/// A false conflict only costs queueing where speculation might have won;
/// a false "compatible" can never happen, so admission decisions never
/// admit a provably conflicting pair (SchedulerTest pins this property).
///
//===----------------------------------------------------------------------===//

#ifndef OTM_TXN_FINGERPRINT_H
#define OTM_TXN_FINGERPRINT_H

#include <cstdint>

namespace otm {
namespace txn {

/// A 256-bit Bloom filter over 64-bit keys, k = 2 probes per key. 256 bits
/// keeps a summary at four words (half a cache line for the pair of them),
/// and with typical transaction footprints of 8-32 keys the false-conflict
/// probability stays in the low percents — cheap next to one abort.
struct RwFingerprint {
  static constexpr unsigned Words = 4;
  static constexpr unsigned BitsTotal = Words * 64;

  uint64_t Bits[Words] = {};

  /// Hashes \p Key into the filter. Keys may be any 64-bit convention
  /// (object addresses for sampled summaries, container-key hashes for
  /// declared ones) — intersecting summaries is only meaningful when both
  /// sides used the same convention, which the scheduler's per-class
  /// partitioning guarantees.
  void insert(uint64_t Key) {
    uint64_t H = mix(Key);
    setBit(static_cast<unsigned>(H) & (BitsTotal - 1));
    setBit(static_cast<unsigned>(H >> 32) & (BitsTotal - 1));
  }

  void clear() {
    for (uint64_t &W : Bits)
      W = 0;
  }

  bool empty() const {
    uint64_t Acc = 0;
    for (uint64_t W : Bits)
      Acc |= W;
    return Acc == 0;
  }

  /// Union of the two key sets (Bloom OR) — the `merge` half of the
  /// compat/merge pair: a merged summary stands in for both transactions.
  void merge(const RwFingerprint &O) {
    for (unsigned I = 0; I < Words; ++I)
      Bits[I] |= O.Bits[I];
  }

  /// True when the summarized key sets are *provably* disjoint. A real
  /// shared key sets the same two bits in both filters, so a zero AND is
  /// proof of disjointness; a nonzero AND may be bit aliasing (false
  /// conflict — allowed).
  static bool disjoint(const RwFingerprint &A, const RwFingerprint &B) {
    uint64_t Acc = 0;
    for (unsigned I = 0; I < Words; ++I)
      Acc |= A.Bits[I] & B.Bits[I];
    return Acc == 0;
  }

  /// SplitMix64 finalizer: full-avalanche so both 32-bit probe halves are
  /// independently well distributed even for sequential or strided keys
  /// (pool indices, slab pointers).
  static uint64_t mix(uint64_t Key) {
    uint64_t Z = Key + 0x9e3779b97f4a7c15ULL;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

private:
  void setBit(unsigned Index) { Bits[Index >> 6] |= uint64_t{1} << (Index & 63); }
};

/// One transaction's footprint: the read set and the write set, summarized
/// separately so reader/reader concurrency survives the compression.
struct TxSummary {
  RwFingerprint Reads;
  RwFingerprint Writes;

  void clear() {
    Reads.clear();
    Writes.clear();
  }

  bool empty() const { return Reads.empty() && Writes.empty(); }

  void addRead(uint64_t Key) { Reads.insert(Key); }
  void addWrite(uint64_t Key) { Writes.insert(Key); }

  /// Serializability-compatible: no write/write, write/read, or read/write
  /// overlap between the two transactions. Read/read overlap is fine —
  /// that is the whole point of keeping the two filters separate. False
  /// conflicts allowed, false compatibilities impossible (see file header).
  bool compat(const TxSummary &O) const {
    return RwFingerprint::disjoint(Writes, O.Writes) &&
           RwFingerprint::disjoint(Writes, O.Reads) &&
           RwFingerprint::disjoint(Reads, O.Writes);
  }

  /// Union of footprints; valid for any pair, but only meaningful as a
  /// combined in-flight summary when compat() held (the snippet exemplar's
  /// merge-of-compatible-transactions rule).
  void merge(const TxSummary &O) {
    Reads.merge(O.Reads);
    Writes.merge(O.Writes);
  }
};

} // namespace txn
} // namespace otm

#endif // OTM_TXN_FINGERPRINT_H
