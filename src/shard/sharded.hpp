// The sharded list-rank/scan executor: the paper's sublist reduction
// applied one level up (ROADMAP "Sharded + out-of-core list ranking").
//
// A run splits the list into P contiguous id-range shards (ShardedList),
// then makes three passes, the host kernel's phases one level up:
//
//   pass A  per shard, ascending: build the shard's record slab (the host
//           kernel's, with shard-local links) from the shard's slice of
//           the list's next[] and value[], and walk every segment headed
//           in the shard with the (threads x W) cursor driver. At every
//           vertex it leaves its exclusive prefix within its segment (in
//           the answer) and its segment id (in ShardedList::seg_of); each
//           segment's finish writes its node of the reduced list: its
//           operator total, and a link to the segment its exit vertex
//           heads, read from seg_of, where ShardedList::build wrote every
//           head's id. Only one shard's slab exists at a time, and each
//           shard is walked once.
//   pass B  the second-level Reid-Miller pass: an exclusive scan of the
//           reduced list, on the plan analysis/tuner plan_host gives its
//           length, yields every segment's global prefix. Runs in RAM:
//           the reduced list is O(segments), which is thousands on an
//           id-local list but ~(P-1)/P n on a random one.
//   pass C  one pass over the answer in array order, acquiring no shard:
//           out[v] = op(prefix of seg_of[v], out[v]). Associativity makes
//           this bit-exact vs the serial oracle (the same algebra the
//           in-core phases rely on).
//
// All of a run's O(n + m) scratch -- the segment ids and heads, the
// reduced list, the prefixes and the shard slab, which pass B's own slab
// reuses -- lives in the Workspace the caller passes, so a warm one
// serves a sharded run without a large allocation.
//
// The list stays resident and every pass reads it in place: no shard is
// copied, written to disk or mapped. A byte budget only picks the shard
// count (Planner::decide).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/engine.hpp"
#include "core/workspace.hpp"
#include "lists/linked_list.hpp"
#include "lists/ops.hpp"
#include "shard/shard_store.hpp"

namespace lr90::shard {

/// The fully resolved execution shape of one sharded run (the Engine's
/// Planner fills it from its Decision + EngineOptions::shard; tests and
/// benches construct it directly).
struct ShardExec {
  unsigned shards = 1;      ///< P (clamped to [1, min(n, kMaxShards)])
  unsigned threads = 1;     ///< worker threads inside each pass
  /// Cursors in flight per worker in pass A's walk of each shard (clamped
  /// to [1, host_exec::kMaxInterleave]).
  unsigned interleave = 8;
  /// Accepted for source compatibility and otherwise ignored: the shard
  /// count is `shards`, and every shard is read from the resident list
  /// (perfbench/out_of_core.cpp still assigns it).
  std::size_t byte_budget = 0;
  /// Accepted for source compatibility and otherwise ignored: no run
  /// writes a file, so nothing is created here (perfbench/out_of_core.cpp
  /// still assigns it).
  std::string spill_dir;
  /// Accepted for source compatibility and otherwise ignored: no run
  /// writes a file (perfbench/out_of_core.cpp still assigns it).
  bool keep_files = false;
};

/// What one sharded run did, for RunStats and the bench.
struct ShardRunStats {
  unsigned shards = 0;         ///< P the run actually used
  std::uint64_t segments = 0;  ///< reduced-list length (cross-shard cursors)
  unsigned interleave = 0;     ///< cursors per worker pass A ran
  StoreStats store;            ///< always zero (see StoreStats)
};

/// Exclusive rank (rank == true) or `op`-scan of `list` into `out`
/// (sized n), sharded per `exec`. Deterministic and bit-exact vs the
/// serial oracle for every registered operator. `ws` supplies all of the
/// run's O(n + m) scratch. Returns kInvalidInput on a list with no
/// self-loop tail (before any shard is built) or structurally broken
/// cross-shard links, and kResourceExhausted when the scratch cannot be
/// allocated.
Status sharded_scan(const LinkedList& list, bool rank, ScanOp op,
                    const ShardExec& exec, Workspace& ws,
                    std::span<value_t> out, ShardRunStats& stats);

}  // namespace lr90::shard
