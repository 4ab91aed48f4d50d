//===- support/TxPool.h - Per-thread transactional object pool -*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-thread size-class pool allocator for transactional objects.
///
/// Abort-heavy workloads churn objects: every aborted attempt's allocInTx
/// objects are retired through the epoch reclaimer and a fresh attempt
/// allocates replacements, which round-trips malloc once per object per
/// retry. TxPool turns that round trip into an O(1) free-list pop/push.
///
/// Layout: each block is [16-byte header | payload]. The header names the
/// owning pool and the block's size class, so deallocate() works from any
/// thread — epoch-retirement deleters run on whichever thread triggers a
/// collect(). Frees by the owning thread push onto a plain per-class free
/// list; frees by other threads push onto a lock-free Treiber stack that
/// the owner drains wholesale (exchange, so there is no ABA window) when
/// its local list runs dry. Blocks larger than the biggest size class fall
/// through to ::operator new with a null-owner header.
///
/// Pools are per-thread and intentionally leaked, exactly like TxManager:
/// a deleter deferred by the epoch reclaimer may run after the allocating
/// thread has exited, and must still find the header's owner pool mapped.
/// Slabs therefore live for the process lifetime and blocks recycle
/// forever; this mirrors the paper's reliance on a GC'd heap, where
/// transactional allocation is a bump pointer in the nursery.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_SUPPORT_TXPOOL_H
#define OTM_SUPPORT_TXPOOL_H

#include "support/Compiler.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>

namespace otm {
namespace support {

class TxPool {
public:
  /// Allocates \p Size bytes from the calling thread's pool (created
  /// lazily). The returned block is at least 16-byte aligned.
  static void *allocate(std::size_t Size) {
    unsigned Class = classFor(Size);
    if (OTM_UNLIKELY(Class >= NumClasses))
      return fallbackAlloc(Size);
    return threadPool().allocateClass(Class);
  }

  /// Returns \p Payload (from allocate()) to its owning pool; callable
  /// from any thread.
  static void deallocate(void *Payload) {
    Header *H = headerOf(Payload);
    TxPool *Owner = H->Owner;
    if (OTM_UNLIKELY(Owner == nullptr)) {
      ::operator delete(static_cast<void *>(H));
      return;
    }
    FreeBlock *B = static_cast<FreeBlock *>(Payload);
    if (OTM_LIKELY(Owner == tlsPool())) {
      ClassState &CS = Owner->Classes[H->ClassIdx];
      B->Next = CS.Local;
      CS.Local = B;
      ++Owner->Stats.LocalFrees;
      return;
    }
    Owner->remoteFree(H->ClassIdx, B);
  }

  /// Pool traffic counters (testing/diagnostics only; never part of the
  /// reproducible BENCH count tables — reuse depends on epoch timing).
  struct PoolStats {
    uint64_t FreeListHits = 0; ///< served from the local free list
    uint64_t RemoteDrains = 0; ///< local list dry, remote stack had blocks
    uint64_t SlabRefills = 0;  ///< carved a fresh slab
    uint64_t LocalFrees = 0;
  };
  PoolStats &statsForTesting() { return Stats; }
  /// Frees pushed at this pool by other threads (atomic: foreign writers).
  uint64_t remoteFreesForTesting() const {
    return RemoteFreeCount.load(std::memory_order_relaxed);
  }

  /// The calling thread's pool (created lazily, leaked at thread exit).
  static TxPool &threadPool() {
    TxPool *&P = tlsPool();
    if (OTM_UNLIKELY(P == nullptr))
      P = new TxPool();
    return *P;
  }

  /// Payload size of size class \p Class.
  static constexpr std::size_t classSize(unsigned Class) {
    return MinClassSize << Class;
  }

  static constexpr unsigned numClasses() { return NumClasses; }

  /// Smallest class index whose payload fits \p Size; NumClasses if the
  /// request is oversize.
  static unsigned classFor(std::size_t Size) {
    if (Size <= MinClassSize)
      return 0;
    unsigned Bits = 64 - static_cast<unsigned>(
                             __builtin_clzll(static_cast<uint64_t>(Size - 1)));
    return Bits - MinClassBits;
  }

private:
  static constexpr unsigned MinClassBits = 5; // 32-byte minimum payload
  static constexpr std::size_t MinClassSize = std::size_t{1} << MinClassBits;
  static constexpr unsigned NumClasses = 6; // 32..1024 bytes
  static constexpr std::size_t SlabBlocks = 64;

  struct Header {
    TxPool *Owner;     ///< null => ::operator new fallback block
    uint64_t ClassIdx; ///< valid when Owner != null
  };
  static_assert(sizeof(Header) == 16, "payloads must stay 16-aligned");

  struct FreeBlock {
    FreeBlock *Next;
  };

  struct ClassState {
    FreeBlock *Local = nullptr;              ///< owner-thread free list
    std::atomic<FreeBlock *> Remote{nullptr}; ///< cross-thread free stack
  };

  TxPool() = default;

  static Header *headerOf(void *Payload) {
    return reinterpret_cast<Header *>(static_cast<char *>(Payload) -
                                      sizeof(Header));
  }

  static TxPool *&tlsPool() {
    static thread_local TxPool *P = nullptr;
    return P;
  }

  static void *fallbackAlloc(std::size_t Size) {
    void *Raw = ::operator new(sizeof(Header) + Size);
    Header *H = static_cast<Header *>(Raw);
    H->Owner = nullptr;
    H->ClassIdx = 0;
    return H + 1;
  }

  void *allocateClass(unsigned Class) {
    ClassState &CS = Classes[Class];
    FreeBlock *B = CS.Local;
    if (OTM_LIKELY(B != nullptr)) {
      CS.Local = B->Next;
      ++Stats.FreeListHits;
      return B;
    }
    return refill(Class);
  }

  OTM_NOINLINE void *refill(unsigned Class) {
    ClassState &CS = Classes[Class];
    // Drain the remote-free stack wholesale; acquire pairs with the
    // releasing pushes so the freeing threads' final writes (destructors)
    // happen-before this thread reconstructs over the payloads.
    if (FreeBlock *R = CS.Remote.exchange(nullptr, std::memory_order_acquire)) {
      CS.Local = R->Next;
      ++Stats.RemoteDrains;
      return R;
    }
    // Carve a fresh slab. Headers are written once here and never change:
    // free-list linkage lives in the payload bytes.
    std::size_t BlockSize = sizeof(Header) + classSize(Class);
    char *Slab = static_cast<char *>(::operator new(BlockSize * SlabBlocks));
    FreeBlock *ListHead = nullptr;
    for (std::size_t I = SlabBlocks; I-- > 1;) {
      Header *H = reinterpret_cast<Header *>(Slab + I * BlockSize);
      H->Owner = this;
      H->ClassIdx = Class;
      FreeBlock *B = reinterpret_cast<FreeBlock *>(H + 1);
      B->Next = ListHead;
      ListHead = B;
    }
    CS.Local = ListHead;
    ++Stats.SlabRefills;
    Header *H = reinterpret_cast<Header *>(Slab);
    H->Owner = this;
    H->ClassIdx = Class;
    return H + 1;
  }

  void remoteFree(uint64_t Class, FreeBlock *B) {
    ClassState &CS = Classes[Class];
    FreeBlock *Head = CS.Remote.load(std::memory_order_relaxed);
    do {
      B->Next = Head;
    } while (!CS.Remote.compare_exchange_weak(
        Head, B, std::memory_order_release, std::memory_order_relaxed));
    RemoteFreeCount.fetch_add(1, std::memory_order_relaxed);
  }

  ClassState Classes[NumClasses];
  PoolStats Stats;
  std::atomic<uint64_t> RemoteFreeCount{0};
};

} // namespace support
} // namespace otm

#endif // OTM_SUPPORT_TXPOOL_H
