//===- obs/AbortSites.h - Abort attribution & conflict graph ---*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lock-free abort attribution with two views of the same events:
///
///   - a per-address table: which object (object STM) or lock stripe (word
///     STM) the aborted transaction tripped over, split by cause, with the
///     site id of the last owning transaction;
///
///   - a (victim-site x owner-site) edge table: which transaction *sites*
///     fight, independent of the addresses they fight over. A site id is
///     the per-thread id each transaction manager draws once
///     (TxObs::attachThread -> nextSiteId), so an edge says which thread's
///     transactions aborted which other thread's, not which code. E3/E7
///     thereby answer "who aborts whom" besides "how many aborts".
///
/// Recording happens only on abort paths — already the slow path — so both
/// tables use plain open addressing with relaxed atomics and drop (counting
/// the drops) when full rather than resizing. Occupancy and drop counts are
/// exported so saturation is visible, never silent.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_OBS_ABORTSITES_H
#define OTM_OBS_ABORTSITES_H

#include "obs/Json.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace otm {
namespace obs {

/// Abort causes the attribution tables distinguish.
enum class AbortCause : uint16_t { Conflict = 0, Validation = 1 };

class AbortSites {
public:
  static AbortSites &instance();

  /// Lock-free; safe from any thread. \p OwnerSite is the site id of the
  /// transaction that owned the address (0 when unknown, e.g. the owner
  /// released between the conflict and the read); \p VictimSite is the
  /// aborting transaction's own site id (0 keeps the edge table out of it,
  /// for callers that only want address attribution).
  void record(const void *Addr, AbortCause Cause, uint32_t OwnerSite,
              uint32_t VictimSite = 0);

  struct Site {
    uintptr_t Addr = 0;
    uint64_t Conflicts = 0;
    uint64_t Validations = 0;
    uint32_t LastOwnerSite = 0;
    uint64_t total() const { return Conflicts + Validations; }
  };

  /// One conflict-graph edge: \p Victim aborted because \p Owner held what
  /// it needed (Owner == 0 collects the unknown-owner aborts per victim).
  struct Edge {
    uint32_t Victim = 0;
    uint32_t Owner = 0;
    uint64_t Conflicts = 0;
    uint64_t Validations = 0;
    uint64_t total() const { return Conflicts + Validations; }
  };

  /// The \p K most-aborted addresses, most contended first.
  std::vector<Site> topK(std::size_t K) const;

  /// The \p K heaviest conflict edges, heaviest first.
  std::vector<Edge> topEdges(std::size_t K) const;

  /// Aborts not attributed because the address table was full.
  uint64_t dropped() const { return Dropped.load(std::memory_order_relaxed); }
  /// Aborts whose (victim, owner) edge was dropped because the edge table
  /// was full.
  uint64_t edgesDropped() const {
    return EdgesDropped.load(std::memory_order_relaxed);
  }

  /// Occupied slots, for saturation reporting next to dropped().
  std::size_t siteOccupancy() const;
  std::size_t edgeOccupancy() const;
  static constexpr std::size_t siteCapacity() { return NumSlots; }
  static constexpr std::size_t edgeCapacity() { return NumEdgeSlots; }

  void reset();

  /// [{addr, conflicts, validations, last_owner_site}, ...] for the top-K.
  JsonValue toJson(std::size_t K) const;

  /// [{victim_site, owner_site, conflicts, validations}, ...] for the
  /// heaviest \p K edges.
  JsonValue edgesToJson(std::size_t K) const;

  /// The conflict graph as a DOT digraph (nodes are transaction sites,
  /// edge weight = abort count), ready for `dot -Tsvg`.
  std::string dotGraph(std::size_t K = 64) const;

private:
  AbortSites() = default;

  static constexpr std::size_t NumSlots = 1024; // power of two
  static constexpr std::size_t MaxProbe = 16;
  static constexpr std::size_t NumEdgeSlots = 512; // power of two
  static constexpr std::size_t MaxEdgeProbe = 16;

  struct Slot {
    std::atomic<uintptr_t> Addr{0};
    std::atomic<uint64_t> Conflicts{0};
    std::atomic<uint64_t> Validations{0};
    std::atomic<uint32_t> LastOwner{0};
  };

  /// Edge slots key on (victim << 32) | owner; victim site ids are 1-based
  /// so a zero key always means "empty".
  struct EdgeSlot {
    std::atomic<uint64_t> Key{0};
    std::atomic<uint64_t> Conflicts{0};
    std::atomic<uint64_t> Validations{0};
  };

  void recordEdge(uint32_t VictimSite, uint32_t OwnerSite, AbortCause Cause);

  Slot Slots[NumSlots];
  EdgeSlot EdgeSlots[NumEdgeSlots];
  std::atomic<uint64_t> Dropped{0};
  std::atomic<uint64_t> EdgesDropped{0};
};

} // namespace obs
} // namespace otm

#endif // OTM_OBS_ABORTSITES_H
