#include "shard/sharded.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <vector>

#include <new>

#include "analysis/tuner.hpp"
#include "core/host_exec.hpp"
#include "lists/encode.hpp"
#include "support/faultpoint.hpp"

namespace lr90::shard {

namespace {

// The allocation edge of a sharded run: the O(m) reduced-list scratch
// (totals, exits, prefixes) plus the per-shard packed slab. Firing here
// simulates std::bad_alloc without depending on the allocator.
fault::FaultSite f_scratch_alloc{"shard.scratch.alloc",
                                 "reduced-list scratch allocation fails"};

/// Builds the shard-LOCAL hot slab for `view`: word i carries the
/// sublist-tail flag (the successor leaves the shard, or is the global
/// tail), the LOCAL link (tails self-link), and the 32-bit value lane.
/// Parallel over `threads` index blocks. Returns false -- slab contents
/// unspecified -- when any value misses the signed 32-bit lane (the shard
/// then walks its own arrays; per-shard fallback, never wrong).
template <bool kOnes>
bool build_shard_slab(const ShardView& view, unsigned threads,
                      std::vector<packed_t>& words) {
  const std::size_t len = view.size();
  words.resize(len);
  const std::size_t blocks = std::max<std::size_t>(1, threads);
  std::atomic<bool> ok{true};
  host_exec::claim_blocks(threads, blocks, [&](std::size_t blk) {
    const auto [lo, hi] = host_exec::block_range(len, blocks, blk);
    bool fits = true;
    for (std::size_t i = lo; i < hi; ++i) {
      const index_t gn = view.next[i];
      const auto gv = static_cast<index_t>(view.begin + i);
      const bool tail = gn == gv || gn < view.begin || gn >= view.end;
      const index_t link = tail ? static_cast<index_t>(i) : gn - static_cast<index_t>(view.begin);
      const value_t val = kOnes ? value_t{1} : view.value[i];
      fits = fits && (kOnes || hot_value_fits(val));
      words[i] = hot_pack(tail, link,
                          static_cast<std::uint32_t>(
                              static_cast<std::uint64_t>(val)));
    }
    if (!fits) ok.store(false, std::memory_order_relaxed);
  });
  return ok.load(std::memory_order_relaxed);
}

/// Hop source over a shard's own arrays (shard-local indices): the
/// shard's range test is the tail flag -- the successor leaves the shard,
/// or the vertex is the global tail -- exactly what the slab encodes.
template <bool kOnes>
struct ShardHops {
  const index_t* next;   ///< global successor ids, by local index
  const value_t* value;  ///< by local index
  index_t begin;         ///< first global id of the shard
  index_t end;           ///< one past its last global id
  host_exec::Hop operator()(index_t i) const {
    const index_t gn = next[i];
    const bool tail = gn == begin + i || gn < begin || gn >= end;
    return {tail, gn - begin, kOnes ? value_t{1} : value[i]};
  }
  void prefetch(index_t i) const {
    host_exec::prefetch_ro(&next[i]);
    if constexpr (!kOnes) host_exec::prefetch_ro(&value[i]);
  }
};

/// Per-run scratch of pass A (sized to the widest shard once, reused
/// across shards).
struct ShardScratch {
  std::vector<packed_t> words;   ///< shard-local hot slab
  std::vector<index_t> lheads;   ///< shard-local segment head indices
};

/// Pass A over one shard: walks every segment headed in it with the
/// cursor driver (host_exec::interleave_sublists; vertices are
/// shard-local), over the shard's hot-word slab when its values fit the
/// 32-bit lane and over its own arrays otherwise. At each vertex the step
/// leaves what pass C needs: the vertex's exclusive prefix within its
/// segment in out[v], whose line the cursor write-prefetched a hop ahead,
/// and its segment id in seg_of[v] (a head rewrites its own id). Each
/// segment's finish records its operator total and exit vertex. Returns
/// whether the slab served the shard.
template <ListOp Op, bool kOnes>
bool pass_reduce(const ShardView& view, const std::vector<index_t>& heads,
                 std::size_t seg_base, const ShardExec& exec,
                 ShardScratch& scratch, Op op, index_t* seg_of, value_t* out,
                 std::vector<value_t>& totals, std::vector<index_t>& exits) {
  const std::size_t k = heads.size();
  const auto begin = static_cast<index_t>(view.begin);
  scratch.lheads.resize(k);
  for (std::size_t j = 0; j < k; ++j) scratch.lheads[j] = heads[j] - begin;
  value_t* o = out + begin;
  index_t* sg = seg_of + begin;
  const auto init = [](std::size_t) { return Op::identity(); };
  const auto step = [op, o, sg, seg_base](index_t j, index_t v, value_t x,
                                          value_t& acc) {
    o[v] = acc;
    sg[v] = static_cast<index_t>(seg_base + j);
    acc = op(acc, x);
  };
  const auto finish = [&](index_t j, index_t tv, value_t acc) {
    const std::size_t g = seg_base + j;
    totals[g] = acc;
    const index_t gn = view.next[tv];
    exits[g] = gn == begin + tv ? kNoVertex : gn;
  };
  const auto ahead = [o](index_t v) { host_exec::prefetch_rw(&o[v]); };
  bool slab = false;
  if constexpr (kOnes || kOpLane32<Op>)
    slab = view.size() <= kHotMaxVertices &&
           build_shard_slab<kOnes>(view, exec.threads, scratch.words);
  if (slab) {
    host_exec::interleave_sublists(
        host_exec::SlabHops{scratch.words.data()}, scratch.lheads.data(), k,
        exec.threads, exec.interleave, init, step, finish, ahead);
  } else {
    host_exec::interleave_sublists(
        ShardHops<kOnes>{view.next, view.value, begin,
                         static_cast<index_t>(view.end)},
        scratch.lheads.data(), k, exec.threads, exec.interleave, init, step,
        finish, ahead);
  }
  return slab;
}

template <ListOp Op, bool kOnes>
Status run_sharded(const LinkedList& list, ShardedList& sharded,
                   const ShardExec& exec, Op op,
                   const host_exec::HostPlan& reduced_plan, Workspace& ws,
                   std::span<value_t> out, ShardStore& store,
                   ShardRunStats& stats) {
  const std::size_t m = sharded.segments;
  std::vector<value_t> totals(m);
  std::vector<index_t> exits(m);
  ShardScratch scratch;
  bool packed = true;  // every shard walked its slab
  index_t* seg_of = sharded.seg_of.data();
  value_t* o = out.data();

  // Pass A: per-shard segment totals + exits, plus every vertex's segment
  // and local prefix, one resident shard at a time. Every shard is
  // acquired in order, a headless (empty) one included, so a spilling run
  // loads and spills each shard once.
  for (unsigned p = 0; p < sharded.shards; ++p) {
    const ShardView view = store.acquire(p);
    if (!sharded.heads_of[p].empty())
      packed &= pass_reduce<Op, kOnes>(view, sharded.heads_of[p],
                                       sharded.seg_base[p], exec, scratch,
                                       op, seg_of, o, totals, exits);
    store.release(p);
  }

  // Pass B: the second-level Reid-Miller pass over the reduced list (one
  // node per segment), run by the host kernel on `reduced_plan`. O(m), all
  // in RAM. Each segment links to the one its exit vertex heads: one
  // seg_of lookup (a head's id survives pass A), over parallel index
  // blocks.
  LinkedList reduced;
  reduced.next.resize(m);
  reduced.value = std::move(totals);
  const std::size_t blocks = std::max(1u, exec.threads);
  std::atomic<index_t> tail_seg{kNoVertex};
  std::atomic<bool> dangling{false};
  host_exec::claim_blocks(exec.threads, blocks, [&](std::size_t b) {
    const auto [lo, hi] = host_exec::block_range(m, blocks, b);
    bool linked = true;
    for (std::size_t s = lo; s < hi; ++s) {
      if (exits[s] == kNoVertex) {
        reduced.next[s] = static_cast<index_t>(s);  // global tail's segment
        tail_seg.store(static_cast<index_t>(s), std::memory_order_relaxed);
        continue;
      }
      const index_t t = seg_of[exits[s]];
      linked = linked && t != kNoVertex;
      reduced.next[s] = t;
    }
    if (!linked) dangling.store(true, std::memory_order_relaxed);
  });
  if (dangling.load(std::memory_order_relaxed))
    return Status::invalid(
        "sharded scan: dangling cross-shard link (malformed list)");
  reduced.tail = tail_seg.load(std::memory_order_relaxed);
  if (seg_of[list.head] == kNoVertex)
    return Status::invalid("sharded scan: list head owns no segment");
  reduced.head = seg_of[list.head];
  std::vector<value_t> seg_pref(m);
  if (host_exec::scan_into<Op, false>(reduced, op, reduced_plan, ws, seg_pref)
          .no_tail)
    return Status::invalid("sharded scan: the reduced list has no tail");

  // Pass C: one pass in array order, out[v] = op(seg_pref[seg_of[v]],
  // out[v]). Every read and write streams and no shard is acquired; only
  // the O(m) prefixes are gathered. A vertex no segment reached keeps
  // kNoVertex and is skipped.
  const value_t* pref = seg_pref.data();
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
  stats.packed = packed;
  return Status::success();
}

}  // namespace

std::string fresh_spill_dir(const std::string& root) {
  static std::atomic<std::uint64_t> seq{0};
  const auto pid = static_cast<unsigned long>(::getpid());
  std::string base = root;
  if (base.empty()) {
    std::error_code ec;
    base = std::filesystem::temp_directory_path(ec).string();
    if (base.empty()) base = ".";
  }
  return base + "/lr90-shards-" + std::to_string(pid) + "-" +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

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
  ShardedList sharded = ShardedList::build(list, exec.shards, exec.threads);
  ShardStore store;
  const bool spill = exec.byte_budget > 0;
  const std::string dir = spill && exec.spill_dir.empty()
                              ? fresh_spill_dir("")
                              : exec.spill_dir;
  store.prepare(list, sharded, spill, dir, exec.threads);
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
                                     reduced_plan, ws, out, store, stats);
    } else {
      st = with_scan_op(op, [&](auto typed) {
        return run_sharded<decltype(typed), false>(
            list, sharded, exec, typed, reduced_plan, ws, out, store, stats);
      });
    }
  } catch (const std::bad_alloc&) {
    // The O(m) scratch (or a per-shard slab) did not fit: a typed answer,
    // not a crash -- the caller can retry smaller or shed load.
    st = Status::resource_exhausted(
        "sharded scan: scratch allocation failed");
  }
  stats.store = store.stats();
  return st;
}

}  // namespace lr90::shard
