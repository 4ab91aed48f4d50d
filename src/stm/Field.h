//===- stm/Field.h - Race-tolerant transactional field ---------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Field<T> wraps a data field of a transactional object.
///
/// A direct-update STM writes object fields in place before commit, so a
/// doomed reader can race with a writer; the race is benign (validation
/// catches the reader) but would be undefined behaviour on plain fields.
/// Field<T> performs all accesses with relaxed atomics, which compiles to
/// ordinary loads and stores on x86 while keeping the program well defined.
///
/// Pointer-typed fields are the exception: they store with release and load
/// with acquire. An object built by allocInTx and linked in through an
/// in-place pointer store is published by that store alone (no STM word
/// orders its construction), so a concurrent reader that follows the
/// pointer needs the store to carry the happens-before edge. On x86 both
/// orders compile to the same plain moves as relaxed.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_STM_FIELD_H
#define OTM_STM_FIELD_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace otm {
namespace stm {

template <typename T> class Field {
  static_assert(std::is_trivially_copyable_v<T>,
                "transactional fields must be trivially copyable");
  static_assert(sizeof(T) <= sizeof(uint64_t),
                "transactional fields are at most 8 bytes; use TxArray or a "
                "separate object for larger state");

public:
  Field() : Value(T{}) {}
  explicit Field(T V) : Value(V) {}
  Field(const Field &) = delete;
  Field &operator=(const Field &) = delete;

  /// Reads the field. The caller must have opened the owning object for
  /// read or update (or otherwise know the access is safe).
  T load() const { return Value.load(LoadOrder); }

  /// Writes the field. The caller must have opened the owning object for
  /// update and logged the old value with TxManager::logUndo.
  void store(T V) { Value.store(V, StoreOrder); }

  /// Bit pattern of the current value, padded to 64 bits (undo logging).
  uint64_t bitsForUndo() const {
    T V = load();
    uint64_t Bits = 0;
    std::memcpy(&Bits, &V, sizeof(T));
    return Bits;
  }

  /// Restores a value captured by bitsForUndo (undo replay).
  void restoreFromBits(uint64_t Bits) {
    T V;
    std::memcpy(&V, &Bits, sizeof(T));
    store(V);
  }

private:
  static constexpr std::memory_order LoadOrder =
      std::is_pointer_v<T> ? std::memory_order_acquire
                           : std::memory_order_relaxed;
  static constexpr std::memory_order StoreOrder =
      std::is_pointer_v<T> ? std::memory_order_release
                           : std::memory_order_relaxed;

  std::atomic<T> Value;
};

} // namespace stm
} // namespace otm

#endif // OTM_STM_FIELD_H
