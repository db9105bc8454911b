#include "shard/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <new>
#include <utility>

#include "analysis/tuner.hpp"
#include "core/host_exec.hpp"
#include "support/faultpoint.hpp"

namespace lr90::shard {

namespace {

// The allocation edge of a sharded run: the O(n + m) scratch it fits in
// its Workspace (segment ids and heads, the reduced list, the prefixes,
// the shard slab). Firing here simulates std::bad_alloc without
// depending on the allocator.
fault::FaultSite f_scratch_alloc{"shard.scratch.alloc",
                                 "reduced-list scratch allocation fails"};

/// What pass A reports besides the reduced list it fills.
struct ReduceOutcome {
  std::atomic<index_t> tail_seg{kNoVertex};  ///< the global tail's segment
  std::atomic<bool> dangling{false};  ///< an exit heads no segment
};

/// Pass A over shard `p`: builds the shard's record slab in ws.slab() from
/// its slice of list.next / list.value (shard-local links; a link that
/// leaves the shard, or the global tail's self-loop, is flagged as a
/// tail) and walks every segment headed in the shard with the cursor
/// driver (host_exec::interleave_sublists; vertices are shard-local,
/// heads in ws.heads). At each vertex the step leaves what pass C needs:
/// the vertex's exclusive prefix within its segment in out[v], whose line
/// the cursor write-prefetched a hop ahead, and its segment id in
/// seg_of[v] (a head rewrites its own id). Each segment's finish writes
/// its node of the reduced list in ws.reduced: its total, and its link --
/// the segment its exit vertex heads, whose id ShardedList::build wrote
/// into seg_of (an exit lies in another shard, and no other shard is
/// walked meanwhile), or itself at the global tail.
template <ListOp Op, bool kOnes>
void pass_reduce(const LinkedList& list, const ShardedList& sharded,
                 unsigned p, const ShardExec& exec, Workspace& ws, Op op,
                 value_t* out, ReduceOutcome& outcome) {
  const std::span<const index_t> heads = sharded.heads_of(p);
  const std::size_t k = heads.size();
  const auto [b, e] = sharded.range(p);
  const auto begin = static_cast<index_t>(b);
  const auto len = static_cast<index_t>(e - b);
  const std::size_t seg_base = sharded.seg_base[p];
  index_t* seg_of = sharded.seg_of.data();
  ws.fit_uninit(ws.heads, k);
  for (std::size_t j = 0; j < k; ++j) ws.heads[j] = heads[j] - begin;
  const index_t* next = list.next.data() + begin;
  const packed_t* words = host_exec::build_slab<kOnes>(
      e - b, list.value.data() + begin, exec.threads, ws, [=](std::size_t i) {
        const index_t local = next[i] - begin;  // unsigned: wraps outside
        return std::pair{local == i || local >= len, local};
      });
  value_t* o = out + begin;
  index_t* sg = seg_of + begin;
  index_t* link = ws.reduced.next.data();
  value_t* total = ws.reduced.value.data();
  const auto step = [op, o, sg, seg_base](index_t j, index_t v, value_t x,
                                          value_t& acc) {
    o[v] = acc;
    sg[v] = static_cast<index_t>(seg_base + j);
    acc = op(acc, x);
  };
  const auto finish = [&](index_t j, index_t tv, value_t acc) {
    const auto g = static_cast<index_t>(seg_base + j);
    total[g] = acc;
    const index_t exit = next[tv];
    if (exit == begin + tv) {
      link[g] = g;
      outcome.tail_seg.store(g, std::memory_order_relaxed);
      return;
    }
    link[g] = seg_of[exit];
    if (link[g] == kNoVertex)
      outcome.dangling.store(true, std::memory_order_relaxed);
  };
  const auto ahead = [o](index_t v) { host_exec::prefetch_rw(&o[v]); };
  host_exec::interleave_sublists(
      host_exec::SlabHops<kOnes>{words}, ws.heads.data(), k, exec.threads,
      exec.interleave, [](std::size_t) { return Op::identity(); }, step,
      finish, ahead);
}

template <ListOp Op, bool kOnes>
Status run_sharded(const LinkedList& list, const ShardedList& sharded,
                   const ShardExec& exec, Op op,
                   const host_exec::HostPlan& reduced_plan, Workspace& ws,
                   std::span<value_t> out, ShardRunStats& stats) {
  const std::size_t m = sharded.segments;
  LinkedList& reduced = ws.reduced;
  ws.fit_uninit(reduced.next, m);
  ws.fit_uninit(reduced.value, m);
  ReduceOutcome outcome;

  // Pass A: the reduced list, plus every vertex's segment and local
  // prefix, one shard at a time, each read from its slice of the list.
  for (unsigned p = 0; p < sharded.shards; ++p)
    if (!sharded.heads_of(p).empty())
      pass_reduce<Op, kOnes>(list, sharded, p, exec, ws, op, out.data(),
                             outcome);
  if (outcome.dangling.load(std::memory_order_relaxed))
    return Status::invalid(
        "sharded scan: dangling cross-shard link (malformed list)");
  const index_t* seg_of = sharded.seg_of.data();
  if (seg_of[list.head] == kNoVertex)
    return Status::invalid("sharded scan: list head owns no segment");
  reduced.head = seg_of[list.head];
  reduced.tail = outcome.tail_seg.load(std::memory_order_relaxed);

  // Pass B: the second-level Reid-Miller pass over the reduced list (one
  // node per segment), run by the host kernel on `reduced_plan`. O(m), all
  // in RAM; its slab reuses the buffer pass A's shard slabs used.
  ws.fit_uninit(ws.seg_pref, m);
  if (host_exec::scan_into<Op, false>(reduced, op, reduced_plan, ws,
                                      ws.seg_pref)
          .no_tail)
    return Status::invalid("sharded scan: the reduced list has no tail");

  // Pass C: one pass in array order, out[v] = op(seg_pref[seg_of[v]],
  // out[v]). Every read and write streams and no slab is built; only
  // the O(m) prefixes are gathered. A vertex no segment reached keeps
  // kNoVertex and is skipped.
  const value_t* pref = ws.seg_pref.data();
  value_t* o = out.data();
  host_exec::for_each_range(
      exec.threads, list.size(), [&](std::size_t b, std::size_t e) {
        for (std::size_t v = b; v < e; ++v) {
          const index_t s = seg_of[v];
          if (s != kNoVertex) o[v] = op(pref[s], o[v]);
        }
      });
  stats.shards = sharded.shards;
  stats.segments = m;
  stats.interleave =
      std::clamp(exec.interleave, 1u, host_exec::kMaxInterleave);
  return Status::success();
}

}  // namespace

Status sharded_scan(const LinkedList& list, bool rank, ScanOp op,
                    const ShardExec& exec, Workspace& ws,
                    std::span<value_t> out, ShardRunStats& stats) {
  stats = ShardRunStats{};
  const std::size_t n = list.size();
  if (n == 0) return Status::success();
  // Pass A walks each segment to a shard exit or the self-loop, so a list
  // without one could spin inside a shard: refuse it first, as scan_into
  // does (O(1) when the list's cached tail holds).
  if (list.find_tail() == kNoVertex)
    return Status::invalid("sharded scan: the list has no self-loop tail");
  ShardedList sharded =
      ShardedList::build(list, exec.shards, exec.threads, ws);
  // Pass B's shape: the one host planning path, sized for the reduced
  // list at the shard passes' pinned threads and W.
  const host_exec::HostPlan reduced_plan =
      plan_host(sharded.segments, rank ? ScanOp::kPlus : op,
                {.threads = exec.threads, .interleave = exec.interleave});
  Status st;
  try {
    if (f_scratch_alloc.fire()) throw std::bad_alloc{};
    if (rank) {
      st = run_sharded<OpPlus, true>(list, sharded, exec, OpPlus{},
                                     reduced_plan, ws, out, stats);
    } else {
      st = with_scan_op(op, [&](auto typed) {
        return run_sharded<decltype(typed), false>(
            list, sharded, exec, typed, reduced_plan, ws, out, stats);
      });
    }
  } catch (const std::bad_alloc&) {
    // The O(m) scratch (or a shard's slab) did not fit: a typed answer,
    // not a crash -- the caller can retry smaller or shed load.
    st = Status::resource_exhausted(
        "sharded scan: scratch allocation failed");
  }
  return st;
}

}  // namespace lr90::shard
