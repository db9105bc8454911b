// The sharded list-rank/scan executor: the paper's sublist reduction
// applied one level up (ROADMAP "Sharded + out-of-core list ranking").
//
// A run splits the list into P contiguous id-range shards (ShardedList),
// then makes three passes, the host kernel's phases one level up:
//
//   pass A  per shard, ascending: walk every segment headed in the shard
//           with the (threads x W) cursor driver -- over a shard-local
//           hot-word slab when the shard's values fit the 32-bit lane,
//           over the shard's own arrays otherwise -- producing the
//           segment's operator total and its exit vertex, and leaving at
//           every vertex its exclusive prefix within its segment (in the
//           answer) and its segment id (in ShardedList::seg_of). Only ONE
//           shard need be resident at a time, and each is walked once.
//   pass B  the second-level Reid-Miller pass: the segments form a reduced
//           list (node s = segment s, value = its total, link = the
//           segment its exit vertex heads, read from seg_of, where heads
//           keep their own ids); an exclusive scan of it, on the plan
//           analysis/tuner plan_host gives its length, yields every
//           segment's global prefix. Runs in RAM: the reduced list is
//           O(segments), which is thousands on an id-local list but
//           ~(P-1)/P n on a random one.
//   pass C  one pass over the answer in array order, acquiring no shard:
//           out[v] = op(prefix of seg_of[v], out[v]). Associativity makes
//           this bit-exact vs the serial oracle (the same algebra the
//           in-core phases rely on).
//
// Residency during pass A is the ShardStore's job: all-in-RAM views when
// no byte budget is set, spilled ShardFiles mapped one at a time with an
// async prefetch of the next when one is (the out-of-core tier). A run
// that spills writes its shard files into a directory no other run uses
// and removes it when it ends.
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
  /// Shard-byte budget: > 0 turns the spill tier on, 0 = all-in-RAM. The
  /// Planner sizes the shards so that about two fit it; whatever its
  /// value, the store maps only the acquired shard and the prefetched
  /// next one.
  std::size_t byte_budget = 0;
  /// The run's own spill directory: its shard files are written there
  /// and removed, with the directory, when the run ends, so no two runs
  /// may share one. "" = fresh_spill_dir("") per run. Ignored when
  /// byte_budget == 0.
  std::string spill_dir;
  /// Accepted for source compatibility and otherwise ignored: every run
  /// removes its spill files when it ends.
  bool keep_files = false;
};

/// What one sharded run did, for RunStats and the bench.
struct ShardRunStats {
  unsigned shards = 0;         ///< P the run actually used
  std::uint64_t segments = 0;  ///< reduced-list length (cross-shard cursors)
  unsigned interleave = 0;     ///< cursors per worker pass A ran
  /// Pass A walked every shard's hot-word slab (false as soon as one shard
  /// walked its arrays: a two-lane operator or a value past the lane).
  bool packed = false;
  StoreStats store;            ///< residency / spill / prefetch counters
};

/// A spill directory no other run uses: "<root>/lr90-shards-<pid>-<seq>",
/// unique per process and call; "" = the system temp dir as the root.
std::string fresh_spill_dir(const std::string& root);

/// Exclusive rank (rank == true) or `op`-scan of `list` into `out`
/// (sized n), sharded per `exec`. Deterministic and bit-exact vs the
/// serial oracle for every registered operator. `ws` supplies the
/// second-level pass's scratch. Returns kInvalidInput on a list with no
/// self-loop tail (before any shard is built) or structurally broken
/// cross-shard links, and kResourceExhausted when the scratch cannot be
/// allocated. A spill write that fails or a slab that cannot be loaded
/// degrades its shard to the resident source, counted in `stats.store`.
Status sharded_scan(const LinkedList& list, bool rank, ScanOp op,
                    const ShardExec& exec, Workspace& ws,
                    std::span<value_t> out, ShardRunStats& stats);

}  // namespace lr90::shard
