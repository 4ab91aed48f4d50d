//===- stm/LogEntries.h - Per-transaction log entry types ------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry types of the four per-transaction logs of the decomposed STM:
///
///   - read-object log: (object, STM word seen at OpenForRead), validated
///     at commit;
///   - update log: (object, previous version word, owner); the object's STM
///     word points at this entry while owned, so entries live in a
///     ChunkedVector and never move;
///   - undo log: (address, old bits, restore thunk), replayed backwards on
///     abort;
///   - alloc log: objects allocated inside the transaction, destroyed if it
///     aborts (and the basis of the compiler's alloc-elision optimization);
///     plus deferred frees that take effect only on commit.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_STM_LOGENTRIES_H
#define OTM_STM_LOGENTRIES_H

#include "stm/StmWord.h"

#include <atomic>
#include <cstdint>

namespace otm {
namespace stm {

class TxManager;
class TxObject;

/// One optimistic read enlistment.
struct ReadEntry {
  TxObject *Obj = nullptr;
  WordValue Seen = 0;
};

/// One exclusive update enlistment. The owned object's STM word encodes a
/// tagged pointer to this entry.
///
/// Owner is read cross-thread: an attacker that loaded a stale STM word may
/// dereference this entry after the owner released it and its slot was
/// recycled by the owner's next transaction (slots live in a leaked
/// ChunkedVector precisely so the dereference stays mapped). The stale value
/// is benign — arbitration against the wrong manager just delays the abort —
/// but the access must be atomic to be defined; relaxed ordering keeps it an
/// ordinary load/store, mirroring Field<T>. Obj and PrevWord are only ever
/// read by the owning thread (validateEntry checks Owner == this first).
///
/// This is also why the type keeps an assignment operator: ChunkedVector
/// reuses previously-published slots *by assignment* (its reuse-by-assign
/// mode for trivially destructible types), so re-initializing Owner stays a
/// relaxed atomic store rather than a plain placement-new write that a
/// stale reader could race with. Fresh, never-published slots are
/// placement-new constructed, which is safe because their address has not
/// yet escaped this thread.
struct UpdateEntry {
  TxObject *Obj = nullptr;
  WordValue PrevWord = 0;
  std::atomic<TxManager *> Owner{nullptr};

  UpdateEntry() = default;
  UpdateEntry(TxObject *O, WordValue Prev, TxManager *Own)
      : Obj(O), PrevWord(Prev), Owner(Own) {}
  UpdateEntry(const UpdateEntry &E)
      : Obj(E.Obj), PrevWord(E.PrevWord), Owner(E.owner()) {}
  UpdateEntry &operator=(const UpdateEntry &E) {
    Obj = E.Obj;
    PrevWord = E.PrevWord;
    Owner.store(E.owner(), std::memory_order_relaxed);
    return *this;
  }

  TxManager *owner() const { return Owner.load(std::memory_order_relaxed); }
};

/// One overwritten location. Restore is a type-aware thunk so that undo
/// replay performs a correctly typed (relaxed atomic) store.
struct UndoEntry {
  void *Addr = nullptr;
  uint64_t Bits = 0;
  void (*Restore)(void *Addr, uint64_t Bits) = nullptr;
};

/// One object allocated inside the transaction (freed on abort), or — when
/// FreeOnCommit is true — an object the transaction logically deleted
/// (retired to the epoch reclaimer on commit, kept on abort). Raw is the
/// most-derived pointer matching Destroy's expectation; an allocation's
/// Size bytes from Raw are the object an abort skips in undo replay.
struct AllocEntry {
  TxObject *Obj = nullptr;
  void *Raw = nullptr;
  void (*Destroy)(void *Raw) = nullptr;
  bool FreeOnCommit = false;
  uint32_t Size = 0; ///< sits in FreeOnCommit's padding
};
static_assert(sizeof(AllocEntry) == 4 * sizeof(void *),
              "AllocEntry::Size must fit in the padding");

/// One deferred commit/abort handler of the boosting tier (DESIGN.md §3.10).
/// Payload is a TxPool-allocated closure; Invoke runs it, Dispose destroys
/// it and returns the block to the pool. Exactly one of the commit/abort
/// logs runs its entries; the other log only disposes them.
struct DeferredAction {
  void (*Invoke)(void *Payload) = nullptr;
  void (*Dispose)(void *Payload) = nullptr;
  void *Payload = nullptr;
};

} // namespace stm
} // namespace otm

#endif // OTM_STM_LOGENTRIES_H
