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
// marking those targets in a dense 4 B/vertex segment-id array, then
// numbers each shard's marked slice in id order.
//
// The store's out-of-core tier follows the Gigablast RdbCache/RdbMerge
// shape: shard files written once per run at streaming bandwidth into the
// run's own directory and mmapped one shard at a time, while one future
// maps and checksums the next shard as the current one is being ranked.
// The ranking visits each shard once, in ascending order, so depth-1
// lookahead is the whole win, and a released shard is unmapped at once:
// at most the acquired shard and the loading next one are mapped. The
// files and their directory go when the store does.
#pragma once

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "lists/linked_list.hpp"
#include "shard/shard_file.hpp"

namespace lr90::shard {

/// Hard cap on shards per run (per-shard bookkeeping is O(P); 4096 shards
/// of 2^30 vertices outruns the 32-bit index space many times over).
inline constexpr unsigned kMaxShards = 4096;

/// The sharded representation of one list: P contiguous id-range shards
/// plus the discovered segment structure (see file comment). Holds
/// O(segments) head lists plus the 4 B/vertex segment-id array `seg_of`,
/// so O(n) in all.
struct ShardedList {
  std::size_t n = 0;        ///< full list length
  unsigned shards = 1;      ///< P
  std::size_t width = 1;    ///< ceil(n / P); shard p covers [p*width, ...)
  /// Per shard: the segment head vertices (global ids) in id order.
  std::vector<std::vector<index_t>> heads_of;
  /// Per shard: the id of its first segment (prefix sums of heads_of
  /// sizes); segment ids are dense in [0, segments).
  std::vector<std::size_t> seg_base;
  /// By vertex (n entries): after build(), the id of the segment it
  /// heads, or kNoVertex when it heads none, which resolves a segment's
  /// exit by one lookup. After sharded_scan's pass A it names every
  /// vertex's segment (heads keep their ids); a vertex no segment reaches
  /// keeps kNoVertex.
  std::vector<index_t> seg_of;
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

  /// Splits `list` into `shards` (clamped to [1, min(n, kMaxShards)]) and
  /// discovers the segment structure, filling `seg_of` over `threads`
  /// workers. `list` must be valid (the Engine validates upstream); n == 0
  /// yields an empty structure.
  static ShardedList build(const LinkedList& list, unsigned shards,
                           unsigned threads = 1);
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
  std::uint64_t prefetch_hits = 0;  ///< loads the lookahead future served
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
/// a ShardFile in the run's own directory `dir` and starts loading shard
/// 0; acquire(p) serves the mapped view of shard p and starts loading
/// shard p + 1, and release() unmaps it.
///
/// Thread model: one orchestrator thread calls prepare/acquire/release,
/// and it alone touches the counters and the written flags. prepare's
/// workers each write one shard's file and its own outcome slot, and are
/// joined before it returns; after that the only concurrency is the one
/// pending load, which owns copies of what it reads and hands its map
/// over through its future. Shards are acquired in ascending order, each
/// once, and the view returned by acquire(p) stays valid until
/// release(p).
class ShardStore {
 public:
  ShardStore() = default;
  ShardStore(const ShardStore&) = delete;             ///< not copyable
  ShardStore& operator=(const ShardStore&) = delete;  ///< not copyable
  /// Waits for a pending load, unmaps everything, and removes the spill
  /// files and their directory.
  ~ShardStore();

  /// Binds the store to `list` split per `sharded`. `spill` false selects
  /// RAM mode; true selects the spill tier: every shard file is written
  /// afresh under `dir` (the run's own directory, created if needed; must
  /// be non-empty) over `threads` workers, and shard 0 starts loading.
  ///
  /// Failure model: a shard whose spill write fails (ENOSPC, EIO) is put
  /// in DEGRADED mode -- served straight from the always-resident source
  /// arrays, counted in StoreStats::write_errors and degraded.
  void prepare(const LinkedList& list, const ShardedList& sharded,
               bool spill, const std::string& dir, unsigned threads);

  /// Returns shard `p`'s view, valid until release(p); `p` is the shard
  /// after the last one acquired (0 first). On the spill tier this waits
  /// for the pending load of p, then starts loading shard p + 1.
  ///
  /// Failure model: a shard whose file cannot be opened, mapped or
  /// verified is served at once from the resident source arrays, counted
  /// in degraded (and in corrupt_slabs when its size or checksum is
  /// wrong). The view is never null.
  ShardView acquire(unsigned p);

  /// Unmaps shard `p` on the spill tier (counted in StoreStats::spills):
  /// each shard is acquired once per run.
  void release(unsigned p);

  /// Counters so far.
  StoreStats stats() const { return stats_; }

 private:
  bool write_shard(unsigned p) const;  ///< writes p's file from list_
  /// Starts loading shard `p` into pending_, unless it is past the last
  /// shard or its write failed.
  void start_load(unsigned p);
  ShardView resident_view(unsigned p) const;  ///< degraded/RAM-mode view

  const LinkedList* list_ = nullptr;
  const ShardedList* sharded_ = nullptr;
  std::string dir_;
  bool spill_ = false;
  /// Per shard: its file was written. A shard whose write failed is
  /// never loaded; it is served from the source arrays.
  std::vector<char> written_;
  std::future<ShardMap> pending_;  ///< the next shard's load, if started
  ShardMap current_;               ///< the acquired shard's mapping
  StoreStats stats_;
};

}  // namespace lr90::shard
