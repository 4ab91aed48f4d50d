//===- stm/TxObject.h - Base class of transactional objects ----*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TxObject is the base class of every object managed by the direct-update
/// STM. Its first word is the STM word, which is all the runtime needs for
/// both optimistic read versioning and eager update locking (see
/// stm/StmWord.h for the encoding). The MVCC tier (stm/Mvcc.h) adds two
/// more: the version-chain head, which snapshot readers follow, and a
/// writer-only tail word that makes chain truncation O(1). Both compile
/// out under -DOTM_MVCC=0.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_STM_TXOBJECT_H
#define OTM_STM_TXOBJECT_H

#include "stm/Mvcc.h"
#include "stm/StmWord.h"
#include "support/TxPool.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

namespace otm {
namespace stm {

class TxManager;

/// Base class for transactional objects (the STM word, plus the two MVCC
/// chain words when that tier is compiled in).
///
/// Heap allocation is routed through the per-thread transaction pool
/// (support/TxPool.h): every `new`/`delete` of a TxObject-derived type —
/// allocInTx, container node creation, retireOnCommit's deferred deleters —
/// recycles size-classed blocks in O(1) instead of round-tripping malloc.
/// Deletion through the epoch reclaimer may run on a foreign thread; the
/// pool's block headers route such frees back to the owning pool safely.
class TxObject {
public:
  TxObject() : Word(makeVersion(0)) {}
  TxObject(const TxObject &) = delete;
  TxObject &operator=(const TxObject &) = delete;
#if OTM_MVCC
  /// Version-chain teardown. By the time an object is destroyed (always
  /// after an epoch grace period when it was shared) no snapshot reader can
  /// reach its chain head anymore. Each node lives inside its commit's
  /// record, which other objects' chains may share, so teardown only drops
  /// one record reference per node; a record (with all its nodes) is
  /// epoch-retired when its last reference drops.
  ~TxObject() {
    if (Hist.load(std::memory_order_relaxed))
      releaseHistory();
  }
#endif

  static void *operator new(std::size_t Size) {
    return support::TxPool::allocate(Size);
  }
  static void operator delete(void *P) noexcept {
    if (P)
      support::TxPool::deallocate(P);
  }
  static void operator delete(void *P, std::size_t) noexcept {
    if (P)
      support::TxPool::deallocate(P);
  }
  /// Over-aligned derived types bypass the pool (its blocks are 16-aligned).
  static void *operator new(std::size_t Size, std::align_val_t Align) {
    return ::operator new(Size, Align);
  }
  static void operator delete(void *P, std::align_val_t Align) noexcept {
    ::operator delete(P, Align);
  }
  /// Class-scope operator new hides the global placement forms; restore them.
  static void *operator new(std::size_t, void *Place) noexcept { return Place; }
  static void operator delete(void *, void *) noexcept {}
  /// Arrays of transactional objects are rare; keep them off the pool.
  static void *operator new[](std::size_t Size) { return ::operator new(Size); }
  static void operator delete[](void *P) noexcept { ::operator delete(P); }

  /// Current version; asserts the object is not open for update. Intended
  /// for tests and statistics, not for synchronization decisions.
  uint64_t versionForTesting() const {
    return versionOf(Word.load(std::memory_order_acquire));
  }

  /// True if some transaction currently owns this object for update.
  bool isOpenForUpdate() const {
    return isOwned(Word.load(std::memory_order_acquire));
  }

  /// Length of this object's version chain (0 when the MVCC tier is
  /// compiled out or no versioned commit has touched the object yet).
  /// Testing only: racy against concurrent committers.
  std::size_t historyDepthForTesting() const {
#if OTM_MVCC
    std::size_t N = 0;
    for (const mv::MvNode *Node = Hist.load(std::memory_order_acquire); Node;
         Node = Node->Older.load(std::memory_order_acquire))
      ++N;
    return N;
#else
    return 0;
#endif
  }

private:
  friend class TxManager;
  std::atomic<WordValue> Word;
#if OTM_MVCC
  /// Head of the committed-version chain (newest first). Mutated only by
  /// the transaction holding update ownership of this object; read
  /// concurrently by snapshot readers.
  std::atomic<mv::MvNode *> Hist{nullptr};
  /// Oldest chain node tagged with the chain depth (mv::makeTail), or 0
  /// when untagged. Read and written only under update ownership (the STM
  /// word's acquire/release orders successive owners) and at destruction;
  /// snapshot readers never look at it.
  uintptr_t HistTail = 0;

  /// Out of line (TxManager.cpp): releases the chain at destruction.
  void releaseHistory() noexcept;
#endif
};

} // namespace stm
} // namespace otm

#endif // OTM_STM_TXOBJECT_H
