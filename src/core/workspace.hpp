// Reusable per-engine scratch memory.
//
// The host execution path needs a handful of O(n) and O(k) scratch arrays
// (the record slab, picks/heads/sums/tails), and a sharded run adds its
// O(n + m) second-level arrays. Allocating them per call dominates the
// cost of ranking short lists and fragments the heap under batched
// traffic, so an Engine owns one Workspace and every run re-fits the same
// buffers: capacity only ever grows, and a warmed-up workspace serves
// steady-state traffic with zero allocations.
//
// Two hot-path refinements live here as well:
//
//  * huge pages -- a fit that must grow a buffer of 16 MiB or more
//    reserves it through reserve_huge (support/huge_pages.hpp), which
//    advises the fresh capacity MADV_HUGEPAGE before the fill touches it.
//    At 2^24 vertices that is the slab, the answer and (when verifying)
//    the serial reference, so the cursors' random hops walk 2 MiB pages
//    instead of missing the TLB on nearly every 4 KiB one. Smaller
//    buffers stay on base pages.
//  * the record slab -- the host kernel's single-gather representation
//    (lists/encode.hpp hot_pack): one record per vertex, one 64-bit word
//    for a rank and two for a scan. Every sublist run builds its own, one
//    O(n) pass that writes every word, and its phase 1 overwrites each
//    record with what phase 3 needs, so a slab never outlives its run.
//    slab() therefore never fills: it grows when it must and otherwise
//    hands back the old words as they are.
//
// The counters make reuse observable: `allocations()` increments whenever a
// fit must grow a buffer, `reuse_hits()` whenever existing capacity was
// enough, `packed_builds()` whenever a run builds the slab. Tests assert
// that a batch of same-shaped requests stops allocating after the first
// one.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "lists/encode.hpp"
#include "lists/linked_list.hpp"
#include "support/huge_pages.hpp"
#include "support/rng.hpp"

namespace lr90 {

/// A relaxed atomic tally that copies by value, so a Workspace moves with
/// its Engine by the default operations. Atomic so a serving layer's
/// telemetry can read it while the owning worker runs.
class Tally {
 public:
  Tally() = default;
  Tally(const Tally& o) noexcept : n_(o.get()) {}
  Tally& operator=(const Tally& o) noexcept {
    n_.store(o.get(), std::memory_order_relaxed);
    return *this;
  }
  std::uint64_t get() const { return n_.load(std::memory_order_relaxed); }
  void add() { n_.fetch_add(1, std::memory_order_relaxed); }
  void reset() { n_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> n_{0};
};

/// Reusable per-engine scratch memory: capacity only grows, so a warmed-up
/// workspace serves steady-state traffic with zero allocations. Not
/// thread-safe -- each Engine (and each EngineServer worker) owns one.
class Workspace {
 public:
  // -- scratch buffers (backends wire these directly) --------------------
  std::vector<index_t> heads;             ///< sublist head vertices
  std::vector<index_t> tails;             ///< sublist tail vertices
  std::vector<index_t> picks;             ///< boundary vertices, ascending
  std::vector<value_t> sums;              ///< per-sublist inclusive sums
  std::vector<value_t> headscan;          ///< per-sublist exclusive scan
  std::vector<value_t> verify;            ///< serial reference (verify_output)
  /// The record slab (see slab()); shard pass A builds each shard's in it.
  std::vector<packed_t> packed;
  LinkedList scratch_list;                ///< mutable copy of an input list

  // -- a sharded run's second level (shard/sharded.cpp) ------------------
  /// By vertex: the segment it heads (ShardedList::build), then the
  /// segment pass A walked it in.
  std::vector<index_t> seg_of;
  std::vector<index_t> seg_heads;  ///< segment head vertices, shard by shard
  /// One node per segment: link = the segment its exit heads, value = the
  /// segment's total.
  LinkedList reduced;
  std::vector<value_t> seg_pref;   ///< per-segment exclusive prefix

  /// RNG used for boundary picks; reseeded per run from the engine options
  /// so results do not depend on what ran before.
  Rng rng{kDefaultSeed};

  Workspace() = default;
  /// Workspaces move with their Engine (buffers transfer, counters copy)
  /// and are never copied: a copy would duplicate every O(n) buffer.
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Buffer-growth events: a fit() that had to (re)allocate.
  std::uint64_t allocations() const { return allocations_.get(); }
  /// Fits served entirely from existing capacity.
  std::uint64_t reuse_hits() const { return reuse_hits_.get(); }
  /// Record-slab builds: one per sublist run, and one per shard a sharded
  /// run's pass A walks.
  std::uint64_t packed_builds() const { return packed_builds_.get(); }

  /// Zeroes all counters (buffers and their capacity are untouched), so a
  /// serving layer's stats reset can restart the allocation bookkeeping
  /// from a warmed state. Call at a quiescent point: concurrent fits on
  /// the owning thread may be lost from the new tallies.
  void reset_counters() {
    allocations_.reset();
    reuse_hits_.reset();
    packed_builds_.reset();
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

  /// Sizes `v` to n elements without writing the ones it keeps: only
  /// elements past the old size are value-initialized, and a growth past
  /// the capacity drops the old content (reserve_huge). For buffers whose
  /// callers write every element before they read it.
  template <class T>
  std::vector<T>& fit_uninit(std::vector<T>& v, std::size_t n) {
    note(v.capacity() >= n);
    reserve_huge(v, n);
    v.resize(n);
    return v;
  }

  /// The record slab with room for `words` words, counted as one build.
  /// It grows when it must and otherwise keeps its size and its words as
  /// they are: the caller writes every word it will read, so no run pays
  /// a fill, and a rank after a scan does not shrink the slab a later
  /// scan would refill.
  packed_t* slab(std::size_t words) {
    fit_uninit(packed, std::max(packed.size(), words));
    packed_builds_.add();
    return packed.data();
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

 private:
  void note(bool fits) { (fits ? reuse_hits_ : allocations_).add(); }

  Tally allocations_;
  Tally reuse_hits_;
  Tally packed_builds_;
};

}  // namespace lr90
