// Reusable per-engine scratch memory.
//
// The host execution path needs a handful of O(n) and O(k) scratch arrays
// (per-vertex sublist tags, picks/heads/sums/tails).
// Allocating them per call dominates the cost of ranking short lists and
// fragments the heap under batched traffic, so an Engine owns one Workspace
// and every run re-fits the same buffers: capacity only ever grows, and a
// warmed-up workspace serves steady-state traffic with zero allocations.
//
// Two hot-path refinements live here as well:
//
//  * huge pages -- a fit that must grow a buffer of 16 MiB or more
//    reserves it through reserve_huge (support/huge_pages.hpp), which
//    advises the fresh capacity MADV_HUGEPAGE before the fill touches it.
//    At 2^24 vertices that is the slab, the tags and (when verifying) the
//    serial reference, so the cursors' random hops walk 2 MiB pages
//    instead of missing the TLB on nearly every 4 KiB one. Smaller
//    buffers stay on base pages.
//  * the packed slab -- the host kernels' single-gather representation
//    (lists/encode.hpp hot_pack): one 64-bit word per vertex fusing link,
//    value lane, and sublist-tail flag. Every packing run builds its own,
//    one O(n) pass, and its phase 1 overwrites each word with what phase 3
//    needs, so a slab never outlives its run.
//
// The counters make reuse observable: `allocations()` increments whenever a
// fit must grow a buffer, `reuse_hits()` whenever existing capacity was
// enough, `packed_builds()` whenever a run builds the packed slab. Tests
// assert that a batch of same-shaped requests stops allocating after the
// first one.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "lists/encode.hpp"
#include "lists/linked_list.hpp"
#include "support/huge_pages.hpp"
#include "support/rng.hpp"

namespace lr90 {

/// Reusable per-engine scratch memory: capacity only grows, so a warmed-up
/// workspace serves steady-state traffic with zero allocations. Not
/// thread-safe -- each Engine (and each EngineServer worker) owns one.
class Workspace {
 public:
  // -- scratch buffers (backends wire these directly) --------------------
  /// By vertex: the sublist-tail flag in the top bit (boundary choice),
  /// then phase 1's sublist id in the low bits (list-array runs).
  std::vector<std::uint32_t> tag;
  std::vector<index_t> heads;             ///< sublist head vertices
  std::vector<index_t> tails;             ///< sublist tail vertices
  std::vector<index_t> picks;             ///< boundary vertices, ascending
  std::vector<value_t> sums;              ///< per-sublist inclusive sums
  std::vector<value_t> headscan;          ///< per-sublist exclusive scan
  std::vector<value_t> verify;            ///< serial reference (verify_output)
  std::vector<packed_t> packed;           ///< hot-path single-gather slab
  LinkedList scratch_list;                ///< mutable copy of an input list

  /// RNG used for boundary picks; reseeded per run from the engine options
  /// so results do not depend on what ran before.
  Rng rng{kDefaultSeed};

  Workspace() = default;
  /// Workspaces move with their Engine (buffers transfer, counters copy).
  Workspace(Workspace&& other) noexcept
      : tag(std::move(other.tag)),
        heads(std::move(other.heads)),
        tails(std::move(other.tails)),
        picks(std::move(other.picks)),
        sums(std::move(other.sums)),
        headscan(std::move(other.headscan)),
        verify(std::move(other.verify)),
        packed(std::move(other.packed)),
        scratch_list(std::move(other.scratch_list)),
        rng(other.rng),
        allocations_(other.allocations()),
        reuse_hits_(other.reuse_hits()),
        packed_builds_(other.packed_builds()) {}
  /// Move-assignment counterpart of the move constructor.
  Workspace& operator=(Workspace&& other) noexcept {
    tag = std::move(other.tag);
    heads = std::move(other.heads);
    tails = std::move(other.tails);
    picks = std::move(other.picks);
    sums = std::move(other.sums);
    headscan = std::move(other.headscan);
    verify = std::move(other.verify);
    packed = std::move(other.packed);
    scratch_list = std::move(other.scratch_list);
    rng = other.rng;
    allocations_.store(other.allocations(), std::memory_order_relaxed);
    reuse_hits_.store(other.reuse_hits(), std::memory_order_relaxed);
    packed_builds_.store(other.packed_builds(), std::memory_order_relaxed);
    return *this;
  }

  /// Buffer-growth events: a fit() that had to (re)allocate. The counters
  /// are atomic so a serving layer's telemetry can read them while the
  /// owning worker runs (the buffers themselves remain single-threaded).
  std::uint64_t allocations() const {
    return allocations_.load(std::memory_order_relaxed);
  }
  /// Fits served entirely from existing capacity.
  std::uint64_t reuse_hits() const {
    return reuse_hits_.load(std::memory_order_relaxed);
  }
  /// Times a run built the packed hot-path slab: once per packing run.
  std::uint64_t packed_builds() const {
    return packed_builds_.load(std::memory_order_relaxed);
  }

  /// Zeroes all counters (buffers and their capacity are untouched), so a
  /// serving layer's stats reset can restart the allocation bookkeeping
  /// from a warmed state. Call at a quiescent point: concurrent fits on
  /// the owning thread may be lost from the new tallies.
  void reset_counters() {
    allocations_.store(0, std::memory_order_relaxed);
    reuse_hits_.store(0, std::memory_order_relaxed);
    packed_builds_.store(0, std::memory_order_relaxed);
  }

  /// Sizes `v` to n elements, all set to `init`, reusing capacity. A
  /// growth reserves through reserve_huge, so the fill is the first touch
  /// of a large buffer's advised capacity.
  template <class T>
  std::vector<T>& fit(std::vector<T>& v, std::size_t n, T init) {
    note(v.capacity() >= n);
    reserve_huge(v, n);
    v.assign(n, init);
    return v;
  }

  /// Sizes `v` to n elements without keeping old content (the new
  /// elements are value-initialized). Grows like fit().
  template <class T>
  std::vector<T>& fit_uninit(std::vector<T>& v, std::size_t n) {
    note(v.capacity() >= n);
    reserve_huge(v, n);
    v.clear();
    v.resize(n);
    return v;
  }

  /// Counts one packed-slab build (the host kernel calls it per build).
  void note_packed_build() {
    packed_builds_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Copies `src` into the scratch list, reusing its capacity. Algorithms
  /// that mutate their input (the simulated Reid-Miller path) run on this
  /// copy so the caller's list stays const without a per-call allocation.
  LinkedList& fit_list(const LinkedList& src) {
    note(scratch_list.next.capacity() >= src.next.size() &&
         scratch_list.value.capacity() >= src.value.size());
    scratch_list.next = src.next;
    scratch_list.value = src.value;
    scratch_list.head = src.head;
    scratch_list.tail = src.tail;
    return scratch_list;
  }

  /// Copies `src`'s structure with every value forced to one (list ranking
  /// as a scan of all-ones), reusing capacity.
  LinkedList& fit_ones(const LinkedList& src) {
    note(scratch_list.next.capacity() >= src.next.size() &&
         scratch_list.value.capacity() >= src.next.size());
    scratch_list.next = src.next;
    scratch_list.value.assign(src.next.size(), 1);
    scratch_list.head = src.head;
    scratch_list.tail = src.tail;
    return scratch_list;
  }

  /// Releases all held memory (counters are kept).
  void release() {
    tag = {};
    heads = {};
    tails = {};
    picks = {};
    sums = {};
    headscan = {};
    verify = {};
    packed = {};
    scratch_list = {};
  }

 private:
  void note(bool fits) {
    if (fits) {
      reuse_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      allocations_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::atomic<std::uint64_t> allocations_{0};
  std::atomic<std::uint64_t> reuse_hits_{0};
  std::atomic<std::uint64_t> packed_builds_{0};
};

}  // namespace lr90
