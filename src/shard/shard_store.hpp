// ShardedList -- the list split into P contiguous index-range shards.
//
// The decomposition is the paper's sublist reduction applied one level up:
// a *segment* is a maximal run of list-order-consecutive vertices whose
// ids fall in the same shard, so every segment lives wholly inside one
// shard and the segments form a reduced list (one node per segment) whose
// scan resolves all cross-shard cursors. Vertex t = next[v] heads a
// segment exactly when v and t land in different shards (plus the global
// head). Discovery streams each shard's slice of next[] in parallel,
// marking those targets in a dense 4 B/vertex segment-id array, counts
// each shard's marks, then numbers and collects them in id order. Both
// O(n + m) arrays live in the run's Workspace, so a warm one allocates
// none.
//
// Every shard is read straight from the resident list: a shard is a
// slice of its next[] and value[] arrays, and no shard is copied.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/workspace.hpp"
#include "lists/linked_list.hpp"

namespace lr90::shard {

/// Hard cap on shards per run (per-shard bookkeeping is O(P); 4096 shards
/// of 2^30 vertices outruns the 32-bit index space many times over).
inline constexpr unsigned kMaxShards = 4096;

/// The sharded representation of one list: P contiguous id-range shards
/// plus the discovered segment structure (see file comment). Its O(n + m)
/// arrays are views of the Workspace build() was given (Workspace::seg_of
/// and seg_heads), valid until that Workspace refits them.
struct ShardedList {
  std::size_t n = 0;        ///< full list length
  unsigned shards = 1;      ///< P
  std::size_t width = 1;    ///< ceil(n / P); shard p covers [p*width, ...)
  /// The segment head vertices (global ids), shard by shard, each shard's
  /// in id order: segment s is headed by heads[s].
  std::span<const index_t> heads;
  /// P + 1 entries: shard p heads segments [seg_base[p], seg_base[p + 1]);
  /// segment ids are dense in [0, segments).
  std::vector<std::size_t> seg_base;
  /// By vertex (n entries): after build(), the id of the segment it
  /// heads, or kNoVertex when it heads none, which resolves a segment's
  /// exit by one lookup. After sharded_scan's pass A it names every
  /// vertex's segment (heads keep their ids); a vertex no segment reaches
  /// keeps kNoVertex.
  std::span<index_t> seg_of;
  std::size_t segments = 0;  ///< total segment count (reduced-list length)

  /// The shard owning global vertex `v`.
  unsigned shard_of(index_t v) const {
    return static_cast<unsigned>(v / width);
  }
  /// The global id range [begin, end) of shard `p` (possibly empty for
  /// trailing shards when width * P overshoots n).
  std::pair<std::size_t, std::size_t> range(unsigned p) const {
    const std::size_t b = std::min(n, static_cast<std::size_t>(p) * width);
    return {b, std::min(n, b + width)};
  }
  /// The segment heads of shard `p`, in id order.
  std::span<const index_t> heads_of(unsigned p) const {
    return heads.subspan(seg_base[p], seg_base[p + 1] - seg_base[p]);
  }

  /// Splits `list` into `shards` (clamped to [1, min(n, kMaxShards)]) and
  /// discovers the segment structure into `ws`'s seg_of and seg_heads
  /// over `threads` workers. `list` must be valid (the Engine validates
  /// upstream); n == 0 yields an empty structure.
  static ShardedList build(const LinkedList& list, unsigned shards,
                           unsigned threads, Workspace& ws);
};

/// What perfbench/out_of_core.cpp reads of a run's shard residency.
/// Every field reads 0: pass A reads each shard from the resident list,
/// so nothing is loaded, spilled or prefetched. Kept because the
/// benchmark still reads them.
struct StoreStats {
  std::uint64_t loads = 0;          ///< always 0
  std::uint64_t spills = 0;         ///< always 0
  std::uint64_t prefetch_hits = 0;  ///< always 0
};

}  // namespace lr90::shard
