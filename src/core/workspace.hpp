// Reusable per-engine scratch memory.
//
// The host execution path needs a handful of O(n) and O(k) scratch arrays
// (sublist boundary bitmap, heads/sums/tails, the head-ownership table).
// Allocating them per call dominates the cost of ranking short lists and
// fragments the heap under batched traffic, so an Engine owns one Workspace
// and every run re-fits the same buffers: capacity only ever grows, and a
// warmed-up workspace serves steady-state traffic with zero allocations.
//
// Three hot-path refinements live here as well:
//
//  * huge pages -- a fit that must grow a buffer of 16 MiB or more
//    reserves it through reserve_huge (support/huge_pages.hpp), which
//    advises the fresh capacity MADV_HUGEPAGE before the fill touches it.
//    At 2^24 vertices that is the slab, the bitmap and (when verifying)
//    the serial reference, so the cursors' random hops walk 2 MiB pages
//    instead of missing the TLB on nearly every 4 KiB one. Smaller
//    buffers stay on base pages.
//  * the packed slab -- the host kernels' single-gather representation
//    (lists/encode.hpp hot_pack): one 64-bit word per vertex fusing link,
//    value lane, and sublist-tail flag. Every packing run builds its own,
//    one O(n) pass; only an installed shared slab (the serving layer's
//    per-snapshot cache, see PackedSlab) skips the build.
//  * the epoch-stamped head-ownership table -- phase 2 needs owner_of_head
//    only at the k sublist heads, so refilling an O(n) array per run was
//    pure waste; a per-run epoch stamp makes stale entries invisible and
//    the per-run cost O(k).
//
// The counters make reuse observable: `allocations()` increments whenever a
// fit must grow a buffer, `reuse_hits()` whenever existing capacity was
// enough, `packed_builds()` whenever a run builds the packed slab. Tests
// assert that a batch of same-shaped requests stops allocating after the
// first one.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "lists/encode.hpp"
#include "lists/linked_list.hpp"
#include "support/huge_pages.hpp"
#include "support/rng.hpp"

namespace lr90 {

/// An immutable, shareable copy of the packed hot-path artifacts: the
/// single-gather slab (lists/encode.hpp hot_pack words) plus the sublist
/// heads it was decomposed under. Exported from a Workspace after a build
/// (export_packed_slab) and installed into any Workspace before a run
/// (install_shared_slab), it lets a serving layer cache the dominant fixed
/// cost of the packed path -- the O(n) slab build -- across requests and
/// across workers. Holders share it by shared_ptr-to-const; the struct is
/// never mutated after export.
struct PackedSlab {
  std::vector<index_t> heads;   ///< sublist head vertices (decomposition)
  std::vector<packed_t> words;  ///< hot_pack word per vertex
  std::size_t n = 0;            ///< list length the slab was built from
  bool ones = false;            ///< value lane forced to 1 (ranking)

  /// Approximate resident footprint, for byte-budget cache accounting.
  std::size_t bytes() const {
    return heads.capacity() * sizeof(index_t) +
           words.capacity() * sizeof(packed_t) + sizeof(*this);
  }
};

/// Reusable per-engine scratch memory: capacity only grows, so a warmed-up
/// workspace serves steady-state traffic with zero allocations. Not
/// thread-safe -- each Engine (and each EngineServer worker) owns one.
class Workspace {
 public:
  // -- scratch buffers (backends wire these directly) --------------------
  std::vector<std::uint8_t> is_tail;      ///< by vertex: sublist tail flag
  std::vector<index_t> heads;             ///< sublist head vertices
  std::vector<index_t> tails;             ///< sublist tail vertices
  std::vector<index_t> picks;             ///< chosen boundary vertices
  std::vector<index_t> owner_of_head;     ///< by vertex: owning sublist id
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
      : is_tail(std::move(other.is_tail)),
        heads(std::move(other.heads)),
        tails(std::move(other.tails)),
        picks(std::move(other.picks)),
        owner_of_head(std::move(other.owner_of_head)),
        sums(std::move(other.sums)),
        headscan(std::move(other.headscan)),
        verify(std::move(other.verify)),
        packed(std::move(other.packed)),
        scratch_list(std::move(other.scratch_list)),
        rng(other.rng),
        shared_slab_(std::move(other.shared_slab_)),
        owner_stamp_(std::move(other.owner_stamp_)),
        owner_epoch_(other.owner_epoch_),
        allocations_(other.allocations()),
        reuse_hits_(other.reuse_hits()),
        packed_builds_(other.packed_builds()) {}
  /// Move-assignment counterpart of the move constructor.
  Workspace& operator=(Workspace&& other) noexcept {
    is_tail = std::move(other.is_tail);
    heads = std::move(other.heads);
    tails = std::move(other.tails);
    picks = std::move(other.picks);
    owner_of_head = std::move(other.owner_of_head);
    sums = std::move(other.sums);
    headscan = std::move(other.headscan);
    verify = std::move(other.verify);
    packed = std::move(other.packed);
    scratch_list = std::move(other.scratch_list);
    rng = other.rng;
    shared_slab_ = std::move(other.shared_slab_);
    owner_stamp_ = std::move(other.owner_stamp_);
    owner_epoch_ = other.owner_epoch_;
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
  /// Times a run built the packed hot-path slab: every packing run that
  /// did not ride an installed shared slab.
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

  // -- epoch-stamped head-ownership table --------------------------------

  /// Opens a fresh owner_of_head generation over `n` vertices: O(1) after
  /// the table first grows to n (the epoch bump invalidates every old
  /// entry), where a full refill would be O(n) per run.
  void owner_begin(std::size_t n) {
    note(owner_of_head.capacity() >= n && owner_stamp_.capacity() >= n);
    if (owner_of_head.size() < n) owner_of_head.resize(n);
    if (owner_stamp_.size() < n) owner_stamp_.resize(n, 0);
    if (++owner_epoch_ == 0) {  // wrapped: stamps from 2^32 runs ago could
      std::fill(owner_stamp_.begin(), owner_stamp_.end(), 0u);  // collide
      owner_epoch_ = 1;
    }
  }
  /// Records vertex `v` as the head of sublist `j` in the open generation.
  void owner_set(index_t v, index_t j) {
    owner_of_head[v] = j;
    owner_stamp_[v] = owner_epoch_;
  }
  /// The sublist owning head `v`, or kNoVertex if not set this generation.
  index_t owner_get(index_t v) const {
    return owner_stamp_[v] == owner_epoch_ ? owner_of_head[v] : kNoVertex;
  }

  /// Counts one packed-slab build (the host kernel calls it per build).
  void note_packed_build() {
    packed_builds_.fetch_add(1, std::memory_order_relaxed);
  }

  // -- shared (cross-request) slab -------------------------------------

  /// Installs an externally cached slab for the next run (null clears).
  /// The hot path uses it -- skipping boundary choice and the slab build
  /// entirely -- when its (n, ones, head count) match the run's plan;
  /// a mismatch falls back to the normal build. The caller (the serving
  /// layer) guarantees the slab outlives the run and matches the list
  /// being ranked: slabs must only ever be keyed on immutable snapshots.
  void install_shared_slab(std::shared_ptr<const PackedSlab> slab) {
    shared_slab_ = std::move(slab);
  }
  /// The installed shared slab, or null. Read by the hot path per run.
  const PackedSlab* shared_slab() const { return shared_slab_.get(); }
  /// Copies the packed slab + heads out as an immutable PackedSlab for a
  /// cross-request cache. Only meaningful right after an unsharded run
  /// that built its slab (RunStats::host_packed set, host_packed_cached
  /// and shard_count clear): after any other run, `packed` and `heads`
  /// may describe another list. Copies -- rather than moves -- so the
  /// workspace keeps its warmed capacity and steady state stays
  /// allocation-free.
  std::shared_ptr<const PackedSlab> export_packed_slab(bool ones) const {
    auto slab = std::make_shared<PackedSlab>();
    slab->heads = heads;
    slab->words = packed;
    slab->n = packed.size();
    slab->ones = ones;
    return slab;
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
    is_tail = {};
    heads = {};
    tails = {};
    picks = {};
    owner_of_head = {};
    sums = {};
    headscan = {};
    verify = {};
    packed = {};
    scratch_list = {};
    shared_slab_ = nullptr;
    owner_stamp_ = {};
    owner_epoch_ = 0;
  }

 private:
  void note(bool fits) {
    if (fits) {
      reuse_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      allocations_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::shared_ptr<const PackedSlab> shared_slab_;  ///< cross-request slab
  std::vector<std::uint32_t> owner_stamp_;  ///< owner_of_head generations
  std::uint32_t owner_epoch_ = 0;           ///< current generation
  std::atomic<std::uint64_t> allocations_{0};
  std::atomic<std::uint64_t> reuse_hits_{0};
  std::atomic<std::uint64_t> packed_builds_{0};
};

}  // namespace lr90
