// shard::sharded_scan: an adapter that ranks or scans the whole resident
// list with the host sublist kernel (core/host_exec.hpp rank_into /
// scan_into), the one way the host ranks or scans a list. With the list
// resident, a second reduction level over id-range shards only repeats
// the kernel's own: the kernel's random sublist heads are the rulers of
// external list ranking (Sibeyn, "From parallel to external list
// ranking", 1997), and its array-order phase 3 is Helman and JaJa's
// one-level SMP scheme (ALENEX 1999).
//
// Kept only because perfbench/out_of_core.cpp names it. The benchmark
// reads these names, each of which is ignored or always 0; a change to
// the benchmark that drops its reads of them deletes them here:
//   * EngineOptions::shard -- ShardOptions::shards and byte_budget are
//     ignored: no run is split;
//   * Planner::Decision::shard_count -- always 0;
//   * shard::ShardExec -- shards, byte_budget, spill_dir and keep_files
//     are ignored; threads and interleave are honoured as pins;
//   * shard::ShardRunStats and StoreStats -- segments and every
//     StoreStats field are always 0;
//   * shard::sharded_scan itself.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/engine.hpp"
#include "core/workspace.hpp"
#include "lists/linked_list.hpp"
#include "lists/ops.hpp"

namespace lr90::shard {

/// What perfbench/out_of_core.cpp reads of a run's shard residency: every
/// field is always 0, since nothing is loaded, spilled or prefetched.
struct StoreStats {
  std::uint64_t loads = 0;          ///< always 0
  std::uint64_t spills = 0;         ///< always 0
  std::uint64_t prefetch_hits = 0;  ///< always 0
};

/// The execution pins of one sharded_scan call.
struct ShardExec {
  unsigned shards = 1;  ///< ignored: the kernel ranks the list whole
  /// Worker-thread cap of the kernel's plan (analysis/tuner.hpp
  /// plan_host; 0 = the machine's count).
  unsigned threads = 1;
  /// Cursors in flight per worker (W) of the kernel's plan; 0 lets
  /// plan_host pick by the list's footprint.
  unsigned interleave = 8;
  std::size_t byte_budget = 0;  ///< ignored: nothing is budgeted
  std::string spill_dir;        ///< ignored: no run writes a file
  bool keep_files = false;      ///< ignored: no run writes a file
};

/// What one sharded_scan call ran.
struct ShardRunStats {
  unsigned shards = 0;         ///< 1 after a run that answered, else 0
  std::uint64_t segments = 0;  ///< always 0
  /// W the kernel ran: 1 on the serial walk, 0 on an empty list.
  unsigned interleave = 0;
  StoreStats store;            ///< always 0
};

/// Exclusive rank (rank == true) or `op`-scan of `list` into `out`
/// (sized n) by the host sublist kernel, pinned per `exec` and forced
/// onto the sublist path wherever the list is long enough for one.
/// Bit-exact vs the serial oracle for every registered operator, and
/// deterministic: `ws.rng` is reseeded from kDefaultSeed, as Engine::run
/// reseeds it. `ws` supplies all of the run's scratch. Returns
/// kInvalidInput when the walk from the head meets no self-loop tail,
/// and kOk on an empty list.
Status sharded_scan(const LinkedList& list, bool rank, ScanOp op,
                    const ShardExec& exec, Workspace& ws,
                    std::span<value_t> out, ShardRunStats& stats);

}  // namespace lr90::shard
