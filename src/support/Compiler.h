//===- support/Compiler.h - Compiler portability helpers -------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small compiler portability macros used across the otm libraries.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_SUPPORT_COMPILER_H
#define OTM_SUPPORT_COMPILER_H

#include <cstddef>
#include <cstdio>
#include <cstdlib>

#if defined(__GNUC__) || defined(__clang__)
#define OTM_LIKELY(x) __builtin_expect(!!(x), 1)
#define OTM_UNLIKELY(x) __builtin_expect(!!(x), 0)
#define OTM_NOINLINE __attribute__((noinline))
#define OTM_ALWAYS_INLINE inline __attribute__((always_inline))
/// Read-prefetch with high temporal locality (validation scans issue this
/// one entry ahead so the next STM word is in cache when compared).
#define OTM_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#else
#define OTM_LIKELY(x) (x)
#define OTM_UNLIKELY(x) (x)
#define OTM_NOINLINE
#define OTM_ALWAYS_INLINE inline
#define OTM_PREFETCH(addr) ((void)0)
#endif

/// True under ThreadSanitizer. TSan does not model standalone
/// atomic_thread_fence, so fence-synchronized fast paths keep a
/// sequentially-consistent-atomic twin for instrumented builds.
#if defined(__SANITIZE_THREAD__)
#define OTM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OTM_TSAN 1
#endif
#endif
#ifndef OTM_TSAN
#define OTM_TSAN 0
#endif

namespace otm {

/// Marks a point in the program that is provably unreachable; aborts with a
/// message in all build modes (the STM must never silently corrupt state).
[[noreturn]] inline void unreachable(const char *Msg, const char *File,
                                     int Line) {
  std::fprintf(stderr, "otm: unreachable executed: %s (%s:%d)\n", Msg, File,
               Line);
  std::abort();
}

namespace support {

/// The unit of false-sharing isolation: two 64-byte lines, because the
/// adjacent-line prefetcher fetches a line's pair partner along with it.
/// Layout rule: a process-wide word that one thread writes on every
/// transaction, or that every thread read-modify-writes, owns a
/// CacheLine-aligned, CacheLine-sized block (DESIGN.md §3.4).
inline constexpr std::size_t CacheLine = 128;

/// One value alone in its CacheLine block. The alignment alone rounds the
/// size up to a whole block (no padding member), so a `constinit static`
/// of it is constant-initialised and its accessor has no guard check.
template <typename T> struct alignas(CacheLine) CacheAligned {
  T Value;
};

} // namespace support
} // namespace otm

#define OTM_UNREACHABLE(Msg) ::otm::unreachable(Msg, __FILE__, __LINE__)

#endif // OTM_SUPPORT_COMPILER_H
