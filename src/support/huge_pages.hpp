// Transparent huge pages for the library's large O(n) arrays.
//
// The host kernel's cursors hop at random through arrays of 64-256 MiB
// at the benchmark's 2^24 size. On 4 KiB pages nearly every hop also
// misses the TLB; a 2 MiB page covers 512 times as much memory per
// entry. Where the kernel's THP mode is `madvise`, a process gets 2 MiB
// pages only for memory it advises, so the library advises its own large
// buffers, and nothing else: no machine setting changes, and with THP
// `never` the advice is simply ignored.
//
// `reserve_huge` grows a vector in three steps: drop the old buffer,
// reserve fresh capacity, and advise the 2 MiB-aligned interior of that
// still-untouched capacity. The caller's own `assign`/`resize` is then
// the first touch, so the kernel faults the interior in as 2 MiB pages.
// Its callers are the buffers the hot path grows per size: the Workspace
// scratch arrays (Workspace::fit / fit_uninit), the answer Engine::run
// assigns, and the list arrays list_from_order fills.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lr90 {

/// Buffers smaller than this stay on base pages. 16 MiB covers every
/// per-vertex array of a 2^24 run (the smallest, `next` and the 4-byte
/// sublist tags, are 64 MiB) and leaves the 2^20 out-of-core lists (8 MiB
/// arrays), the 2^18 snapshots and the 2^15 served lists alone: an 8 MiB
/// threshold slowed the out-of-core rank in 5 of 7 measured pairs.
inline constexpr std::size_t kHugeAdviseBytes = std::size_t{16} << 20;

/// The huge (PMD) page size advice is aligned to.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Ensures `v` can hold `n` elements without reallocating. When it must
/// grow, the old buffer is dropped first (its contents are not kept), and
/// a new capacity of at least kHugeAdviseBytes has its 2 MiB-aligned
/// interior advised MADV_HUGEPAGE before anything touches it. A no-op
/// when the capacity already suffices.
template <class T>
void reserve_huge(std::vector<T>& v, std::size_t n) {
  if (v.capacity() >= n) return;
  std::vector<T>().swap(v);
  v.reserve(n);
#ifdef MADV_HUGEPAGE
  if (n * sizeof(T) < kHugeAdviseBytes) return;
  constexpr std::uintptr_t kMask = ~std::uintptr_t{kHugePageBytes - 1};
  const auto begin = reinterpret_cast<std::uintptr_t>(v.data());
  const std::uintptr_t lo = (begin + kHugePageBytes - 1) & kMask;
  const std::uintptr_t hi = (begin + v.capacity() * sizeof(T)) & kMask;
  // Advice, not a requirement: a kernel without THP refuses it, and the
  // buffer works the same on base pages.
  if (hi > lo)
    (void)::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#endif
}

}  // namespace lr90
