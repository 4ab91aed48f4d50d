//===- txn/AbstractLockTable.h - Striped abstract (semantic) locks -*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lock table behind transactional boosting (DESIGN.md §3.10): a striped
/// hash of (container-id, key) -> owning transaction. A boosted container
/// operation acquires the abstract lock for its key at operation start and
/// holds it until the transaction commits or aborts, so two transactions
/// conflict exactly when their *operations* don't commute — not when they
/// happen to touch shared structure (bucket heads, tree spines).
///
/// The table provides only the primitives (single CAS attempts, release,
/// occupancy); the wait/abort protocol lives in stm::TxManager, where a
/// semantic conflict is arbitrated by the same pluggable ContentionManagers
/// that handle structural ownership conflicts. Slot owners are identified by
/// their txn::CmTxState so this layer never needs to know about TxManager.
///
/// Each container also maps to a *gate* that arbitrates between semantic
/// operations and whole-container structural ones (sumValues-style
/// traversals, and any future resize/rebalance that can't express a per-key
/// inverse). The handshake is Dekker-shaped, hence the seq_cst notes:
///
///   semantic:   ActiveSemantic++  ;  if (Structural owned) back off
///   structural: CAS Structural    ;  wait until ActiveSemantic drains
///
/// A semantic holder keeps its ActiveSemantic contribution until the lock is
/// released at commit/abort — after its undo handlers ran — so a structural
/// operation admitted by the drain can never observe half-undone state.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_TXN_ABSTRACTLOCKTABLE_H
#define OTM_TXN_ABSTRACTLOCKTABLE_H

#include "txn/ContentionManager.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

/// Always 1: the boosting tier is always built. Kept only because the
/// perfbench host block prints it; no library code reads it.
#define OTM_BOOST 1

namespace otm {
namespace txn {

class AbstractLockTable {
public:
  /// Striping: 16K key slots shared by every container, 1K container gates.
  /// Collisions are conservative (a false semantic conflict waits or
  /// aborts; it never admits a real one).
  static constexpr std::size_t NumSlots = std::size_t(1) << 14;
  static constexpr std::size_t NumGates = std::size_t(1) << 10;

  struct Slot {
    std::atomic<CmTxState *> Owner{nullptr};
  };

  struct Gate {
    /// Transaction holding the whole container (structural fallback).
    std::atomic<CmTxState *> Structural{nullptr};
    /// Abstract key locks currently held under this gate. Incremented by
    /// the acquirer *before* its slot CAS (see the handshake above) and
    /// decremented either on back-out or when the lock is released.
    std::atomic<uint32_t> ActiveSemantic{0};
  };

  /// One held lock in a transaction's release log.
  struct LockRef {
    Slot *S = nullptr;
    Gate *G = nullptr;
    bool Structural = false;
  };

  enum class Acquire : uint8_t { Acquired, AlreadyHeld, Busy };

  /// Lazy singleton: the half-MB of slots is only instantiated when a
  /// boosted container actually runs.
  static AbstractLockTable &instance() {
    static AbstractLockTable Table;
    return Table;
  }

  /// Container identity for the hash. Monotonic, never recycled: a stale id
  /// can only cause a false conflict, never alias a live lock incorrectly.
  static uint64_t nextContainerId() {
    static std::atomic<uint64_t> Next{1};
    return Next.fetch_add(1, std::memory_order_relaxed);
  }

  Slot &slotFor(uint64_t ContainerId, uint64_t Key) {
    return Slots[mix(ContainerId * 0x9e3779b97f4a7c15ULL + Key) &
                 (NumSlots - 1)];
  }

  Gate &gateFor(uint64_t ContainerId) {
    return Gates[mix(ContainerId) & (NumGates - 1)];
  }

  /// Single CAS attempt on a key slot. On Busy, \p OwnerOut carries the
  /// current holder for contention-manager arbitration. The caller must
  /// already hold an ActiveSemantic claim on the slot's gate; an Acquired
  /// result transfers that claim to the lock (released in release()).
  Acquire tryAcquire(Slot &S, CmTxState *Self, CmTxState *&OwnerOut) {
    CmTxState *Expected = nullptr;
    if (S.Owner.compare_exchange_strong(Expected, Self,
                                        std::memory_order_seq_cst,
                                        std::memory_order_acquire)) {
      Held.fetch_add(1, std::memory_order_relaxed);
      return Acquire::Acquired;
    }
    if (Expected == Self)
      return Acquire::AlreadyHeld;
    OwnerOut = Expected;
    return Acquire::Busy;
  }

  /// Single CAS attempt on a gate's structural side. Claiming the gate does
  /// NOT yet exclude semantic holders — the caller must drain
  /// ActiveSemantic down to its own contribution before touching structure.
  bool tryClaimStructural(Gate &G, CmTxState *Self, CmTxState *&OwnerOut) {
    CmTxState *Expected = nullptr;
    if (G.Structural.compare_exchange_strong(Expected, Self,
                                             std::memory_order_seq_cst,
                                             std::memory_order_acquire)) {
      Held.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    OwnerOut = Expected;
    return false;
  }

  void release(const LockRef &R, CmTxState *Self) {
    (void)Self;
    if (R.Structural) {
      assert(R.G->Structural.load(std::memory_order_relaxed) == Self &&
             "releasing a structural gate we don't hold");
      R.G->Structural.store(nullptr, std::memory_order_release);
    } else {
      assert(R.S->Owner.load(std::memory_order_relaxed) == Self &&
             "releasing an abstract lock we don't hold");
      R.S->Owner.store(nullptr, std::memory_order_release);
      R.G->ActiveSemantic.fetch_sub(1, std::memory_order_release);
    }
    Held.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Occupancy gauge for telemetry (key locks + structural gates held).
  uint64_t heldCount() const { return Held.load(std::memory_order_relaxed); }
  static constexpr std::size_t capacity() { return NumSlots; }

private:
  AbstractLockTable()
      : Slots(new Slot[NumSlots]), Gates(new Gate[NumGates]) {}

  /// 64-bit finalizer (murmur3-style) so sequential keys spread over slots.
  static uint64_t mix(uint64_t X) {
    X ^= X >> 33;
    X *= 0xff51afd7ed558ccdULL;
    X ^= X >> 33;
    X *= 0xc4ceb9fe1a85ec53ULL;
    X ^= X >> 33;
    return X;
  }

  std::unique_ptr<Slot[]> Slots;
  std::unique_ptr<Gate[]> Gates;
  std::atomic<uint64_t> Held{0};
};

} // namespace txn
} // namespace otm

#endif // OTM_TXN_ABSTRACTLOCKTABLE_H
