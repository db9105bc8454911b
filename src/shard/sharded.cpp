#include "shard/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <vector>

#include <new>

#include "analysis/tuner.hpp"
#include "core/host_exec.hpp"
#include "lists/encode.hpp"
#include "support/faultpoint.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace lr90::shard {

namespace {

// The allocation edge of a sharded run: the O(m) reduced-list scratch
// (totals, exits, prefixes) plus the per-shard packed slab. Firing here
// simulates std::bad_alloc without depending on the allocator.
fault::FaultSite f_scratch_alloc{"shard.scratch.alloc",
                                 "reduced-list scratch allocation fails"};

/// A fresh per-run spill directory under the system temp dir, unique per
/// process + run (ephemeral: removed by the ShardStore when the run ends).
std::string ephemeral_spill_dir() {
  static std::atomic<std::uint64_t> seq{0};
  unsigned long pid = 0;
#if defined(__unix__) || defined(__APPLE__)
  pid = static_cast<unsigned long>(::getpid());
#endif
  std::error_code ec;
  const std::string base = std::filesystem::temp_directory_path(ec).string();
  return (base.empty() ? std::string{"."} : base) + "/lr90-shards-" +
         std::to_string(pid) + "-" +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

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

/// Per-run scratch shared by passes A and C (sized to the widest shard
/// once, reused across shards).
struct ShardScratch {
  std::vector<packed_t> words;   ///< shard-local hot slab
  std::vector<index_t> lheads;   ///< shard-local segment head indices
};

/// Walks every segment headed in one shard with the cursor driver (see
/// host_exec::interleave_sublists for init/step/finish/ahead; vertices
/// are shard-local). Returns whether the shard's hot-word slab served it.
template <ListOp Op, bool kOnes, class Init, class Step, class Finish,
          class Ahead>
bool walk_shard(const ShardView& view, const std::vector<index_t>& heads,
                const ShardExec& exec, ShardScratch& scratch, Init init,
                Step step, Finish finish, Ahead ahead) {
  const std::size_t k = heads.size();
  scratch.lheads.resize(k);
  for (std::size_t j = 0; j < k; ++j)
    scratch.lheads[j] = heads[j] - static_cast<index_t>(view.begin);
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
        ShardHops<kOnes>{view.next, view.value,
                         static_cast<index_t>(view.begin),
                         static_cast<index_t>(view.end)},
        scratch.lheads.data(), k, exec.threads, exec.interleave, init, step,
        finish, ahead);
  }
  return slab;
}

/// Pass A over one shard: every segment's operator total and exit vertex.
template <ListOp Op, bool kOnes>
bool pass_totals(const ShardView& view, const std::vector<index_t>& heads,
                 std::size_t seg_base, const ShardExec& exec,
                 ShardScratch& scratch, Op op, std::vector<value_t>& totals,
                 std::vector<index_t>& exits) {
  return walk_shard<Op, kOnes>(
      view, heads, exec, scratch, [](std::size_t) { return Op::identity(); },
      [op](index_t, index_t, value_t x, value_t& acc) { acc = op(acc, x); },
      [&](index_t j, index_t tv, value_t acc) {
        const std::size_t g = seg_base + j;
        totals[g] = acc;
        const index_t gn = view.next[tv];
        exits[g] =
            gn == static_cast<index_t>(view.begin + tv) ? kNoVertex : gn;
      },
      host_exec::NoAhead{});
}

/// Pass C over one shard: re-walk each segment with the accumulator seeded
/// at its global prefix, writing the final exclusive scan (write-
/// prefetching each output slot a hop ahead, as the kernel's phase 1
/// does).
template <ListOp Op, bool kOnes>
bool pass_expand(const ShardView& view, const std::vector<index_t>& heads,
                 std::size_t seg_base, const ShardExec& exec,
                 ShardScratch& scratch, Op op,
                 const std::vector<value_t>& seg_pref,
                 std::span<value_t> out) {
  value_t* o = out.data() + view.begin;
  return walk_shard<Op, kOnes>(
      view, heads, exec, scratch,
      [&](std::size_t j) { return seg_pref[seg_base + j]; },
      [op, o](index_t, index_t v, value_t x, value_t& acc) {
        o[v] = acc;
        acc = op(acc, x);
      },
      [](index_t, index_t, value_t) {},
      [o](index_t v) { host_exec::prefetch_rw(&o[v]); });
}

template <ListOp Op, bool kOnes>
Status run_sharded(const LinkedList& list, const ShardedList& sharded,
                   const ShardExec& exec, Op op,
                   const host_exec::HostPlan& reduced_plan, Workspace& ws,
                   std::span<value_t> out, ShardStore& store,
                   ShardRunStats& stats) {
  const std::size_t m = sharded.segments;
  std::vector<value_t> totals(m);
  std::vector<index_t> exits(m);
  ShardScratch scratch;
  bool packed = true;  // every shard pass walked its slab

  // Pass A: per-shard segment totals + exits, one resident shard at a time.
  for (unsigned p = 0; p < sharded.shards; ++p) {
    if (sharded.heads_of[p].empty()) continue;
    const ShardView view = store.acquire(p);
    if (view.next == nullptr)
      return store.last_error() == StoreError::kCorrupt
                 ? Status::corrupt_slab(
                       "sharded scan: unrecoverable slab (pass A)")
                 : Status::resource_exhausted(
                       "sharded scan: shard load failed (pass A)");
    packed &= pass_totals<Op, kOnes>(view, sharded.heads_of[p],
                                     sharded.seg_base[p], exec, scratch, op,
                                     totals, exits);
    store.release(p);
  }

  // Pass B: the second-level Reid-Miller pass over the reduced list (one
  // node per segment), run by the host kernel on `reduced_plan`. O(m), all
  // in RAM. Each segment links to the one its exit vertex heads: one
  // seg_of lookup, over parallel index blocks.
  LinkedList reduced;
  reduced.next.resize(m);
  reduced.value = std::move(totals);
  const index_t* seg_of = sharded.seg_of.data();
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

  // Pass C: per-shard expansion from the segment prefixes.
  for (unsigned p = 0; p < sharded.shards; ++p) {
    if (sharded.heads_of[p].empty()) continue;
    const ShardView view = store.acquire(p);
    if (view.next == nullptr)
      return store.last_error() == StoreError::kCorrupt
                 ? Status::corrupt_slab(
                       "sharded scan: unrecoverable slab (pass C)")
                 : Status::resource_exhausted(
                       "sharded scan: shard load failed (pass C)");
    packed &= pass_expand<Op, kOnes>(view, sharded.heads_of[p],
                                     sharded.seg_base[p], exec, scratch, op,
                                     seg_pref, out);
    store.release(p);
  }
  stats.shards = sharded.shards;
  stats.segments = m;
  stats.interleave =
      std::clamp(exec.interleave, 1u, host_exec::kMaxInterleave);
  stats.packed = packed;
  return Status::success();
}

}  // namespace

Status sharded_scan(const LinkedList& list, bool rank, ScanOp op,
                    const ShardExec& exec, Workspace& ws,
                    std::span<value_t> out, ShardRunStats& stats) {
  stats = ShardRunStats{};
  const std::size_t n = list.size();
  if (n == 0) return Status::success();
  const ShardedList sharded =
      ShardedList::build(list, exec.shards, exec.threads);
  ShardStore store;
  const bool spill = exec.byte_budget > 0;
  const std::string dir =
      spill ? (exec.spill_dir.empty() ? ephemeral_spill_dir() : exec.spill_dir)
            : std::string{};
  if (!store.prepare(list, sharded, exec.byte_budget, dir, exec.prefetch,
                     exec.keep_files, exec.threads, exec.degrade)) {
    stats.store = store.stats();
    return store.last_error() == StoreError::kIo
               ? Status::resource_exhausted(
                     "sharded scan: spill write failed under " + dir)
               : Status::unavailable(
                     "sharded scan: spill directory unusable: " + dir);
  }
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
