#include "shard/sharded.hpp"

#include "analysis/tuner.hpp"
#include "core/host_exec.hpp"
#include "support/rng.hpp"

namespace lr90::shard {

Status sharded_scan(const LinkedList& list, bool rank, ScanOp op,
                    const ShardExec& exec, Workspace& ws,
                    std::span<value_t> out, ShardRunStats& stats) {
  stats = ShardRunStats{};
  ws.rng = Rng(kDefaultSeed);
  const host_exec::HostPlan plan =
      plan_host(list.size(), rank ? ScanOp::kPlus : op,
                {.threads = exec.threads,
                 .interleave = exec.interleave,
                 .force_sublists = true});
  host_exec::ExecInfo info;
  if (rank) {
    info = host_exec::rank_into(list, plan, ws, out);
  } else {
    with_scan_op(op, [&](auto typed) {
      info = host_exec::scan_into(list, typed, plan, ws, out);
    });
  }
  if (info.no_tail)
    return Status::invalid(
        "sharded scan: the walk from the head meets no self-loop tail");
  stats.shards = 1;
  stats.interleave = info.interleave;
  return Status::success();
}

}  // namespace lr90::shard
