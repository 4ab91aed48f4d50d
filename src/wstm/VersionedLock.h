//===- wstm/VersionedLock.h - Striped versioned write locks ----*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Versioned write locks for the word-based STM baseline. Each lock word
/// holds either `version << 1` (unlocked) or `owner | 1` (locked). A global
/// striped table maps memory addresses to locks, which is the defining
/// difference from the paper's object-based STM: metadata lives *beside*
/// the heap in a hash-indexed table rather than inside each object, so
/// every word-sized access pays its own barrier.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_WSTM_VERSIONEDLOCK_H
#define OTM_WSTM_VERSIONEDLOCK_H

#include <atomic>
#include <cstdint>

namespace otm {
namespace wstm {

class VersionedLock {
public:
  /// Lock word snapshot helpers.
  static bool isLocked(uint64_t W) { return (W & 1) != 0; }
  static uint64_t versionOf(uint64_t W) { return W >> 1; }

  uint64_t load() const { return Word.load(std::memory_order_acquire); }

  /// Attempts to lock; on success returns true and stores the pre-lock
  /// version in \p SavedVersion.
  bool tryLock(uint64_t &SavedVersion, uintptr_t OwnerTag) {
    uint64_t W = Word.load(std::memory_order_acquire);
    if (isLocked(W))
      return false;
    if (!Word.compare_exchange_strong(W, OwnerTag | 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire))
      return false;
    SavedVersion = versionOf(W);
    return true;
  }

  /// Releases the lock, publishing \p NewVersion.
  void unlockToVersion(uint64_t NewVersion) {
    Word.store(NewVersion << 1, std::memory_order_release);
  }

private:
  std::atomic<uint64_t> Word{0};
};

/// Global striped lock table (2^16 stripes by default). Addresses of
/// distinct cells may alias to the same stripe; the STM handles that like
/// any other conflict (false sharing of metadata, a known cost of
/// word-based designs that E2 quantifies).
class LockTable {
public:
  static constexpr std::size_t Log2Stripes = 16;
  static constexpr std::size_t NumStripes = std::size_t(1) << Log2Stripes;

  static LockTable &global() {
    static LockTable *T = new LockTable();
    return *T;
  }

  VersionedLock &lockFor(const void *Addr) {
    uint64_t H = reinterpret_cast<uintptr_t>(Addr);
    H ^= H >> 33;
    H *= 0xff51afd7ed558ccdULL;
    H ^= H >> 29;
    return Locks[H & (NumStripes - 1)];
  }

private:
  LockTable() = default;
  VersionedLock Locks[NumStripes];
};

} // namespace wstm
} // namespace otm

#endif // OTM_WSTM_VERSIONEDLOCK_H
