// ShardedList -- the list split into P contiguous index-range shards --
// and ShardStore, the residency manager that serves per-shard views either
// straight out of RAM or, when a byte budget is set, from spilled
// ShardFiles.
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
// The store's out-of-core tier follows the Gigablast RdbCache/RdbMerge
// shape: shard files written once per run at streaming bandwidth into the
// run's own directory and mmapped one shard at a time. The ranking visits
// each shard once, so acquire maps and checksums the shard on the
// caller's thread and release unmaps it: at most one shard is mapped.
// The files and their directory go when the store does.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/workspace.hpp"
#include "lists/linked_list.hpp"
#include "shard/shard_file.hpp"

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

/// A resident shard: the next/value subranges of global vertices
/// [begin, end). next[i] is the GLOBAL successor of vertex begin + i (the
/// raw source subrange; no id translation).
struct ShardView {
  const index_t* next = nullptr;
  const value_t* value = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Vertices in the view.
  std::size_t size() const { return end - begin; }
};

/// Residency and I/O counters for one store lifetime.
struct StoreStats {
  std::uint64_t loads = 0;          ///< shard file loads (mmap/open)
  std::uint64_t spills = 0;         ///< mapped shards unmapped on release
  /// Always 0: every load happens in acquire, none ahead of it. Kept
  /// because perfbench/out_of_core.cpp still reads it.
  std::uint64_t prefetch_hits = 0;
  std::uint64_t spill_bytes = 0;    ///< bytes written to shard files
  bool spilled = false;             ///< the out-of-core tier was active
  std::uint64_t corrupt_slabs = 0;  ///< loads failing the size or checksum
  std::uint64_t degraded = 0;       ///< shards downgraded to resident serving
  std::uint64_t write_errors = 0;   ///< shard-file writes that failed
};

/// Serves per-shard views of one list for the duration of one sharded run.
///
/// RAM mode: views alias the source arrays; zero copy, zero I/O. Spill
/// mode (ShardExec::byte_budget > 0): prepare() writes every shard to
/// a ShardFile in the run's own directory `dir`; acquire(p) maps shard
/// p's file and serves its view, and release() unmaps it.
///
/// Thread model: one orchestrator thread calls prepare/acquire/release,
/// and it alone touches the map, the counters and the written flags.
/// prepare's workers each write one shard's file and its own outcome
/// slot, and are joined before it returns. The view returned by
/// acquire(p) stays valid until release(p), which comes before the next
/// acquire.
class ShardStore {
 public:
  ShardStore() = default;
  ShardStore(const ShardStore&) = delete;             ///< not copyable
  ShardStore& operator=(const ShardStore&) = delete;  ///< not copyable
  /// Unmaps the acquired shard, if any, and removes the spill files and
  /// their directory.
  ~ShardStore();

  /// Binds the store to `list` split per `sharded`. `spill` false selects
  /// RAM mode; true selects the spill tier: every shard file is written
  /// afresh under `dir` (the run's own directory, created if needed; must
  /// be non-empty) over `threads` workers.
  ///
  /// Failure model: a shard whose spill write fails (ENOSPC, EIO) is put
  /// in DEGRADED mode -- served straight from the always-resident source
  /// arrays, counted in StoreStats::write_errors and degraded.
  void prepare(const LinkedList& list, const ShardedList& sharded,
               bool spill, const std::string& dir, unsigned threads);

  /// Returns shard `p`'s view, valid until release(p). On the spill tier
  /// this opens, maps and verifies shard p's file on the caller's thread.
  ///
  /// Failure model: a shard whose file cannot be opened, mapped or
  /// verified is served at once from the resident source arrays, counted
  /// in degraded (and in corrupt_slabs when its size or checksum is
  /// wrong). The view is never null.
  ShardView acquire(unsigned p);

  /// Unmaps shard `p` on the spill tier (counted in StoreStats::spills).
  void release(unsigned p);

  /// Counters so far.
  StoreStats stats() const { return stats_; }

 private:
  bool write_shard(unsigned p) const;  ///< writes p's file from list_
  ShardView resident_view(unsigned p) const;  ///< degraded/RAM-mode view

  const LinkedList* list_ = nullptr;
  const ShardedList* sharded_ = nullptr;
  std::string dir_;
  bool spill_ = false;
  /// Per shard: its file was written. A shard whose write failed is
  /// never loaded; it is served from the source arrays.
  std::vector<char> written_;
  ShardMap current_;  ///< the acquired shard's mapping
  StoreStats stats_;
};

}  // namespace lr90::shard
