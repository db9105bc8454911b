// The host execution kernel: Reid-Miller's three-phase sublist scan on real
// hardware (OpenMP threads when available), generic over the operator and
// allocation-free given a warmed-up Workspace. lr90::Engine's HostBackend
// runs it; the shard layer (shard/sharded.cpp) reuses its cursor driver.
//
// Same structure as the paper's algorithm, non-destructively: sublist
// boundaries live in a bitmap instead of planted self-loops, so the input
// list stays shared read-only across threads.
//
// One traversal kernel serves phases 1 and 3 for every operator:
// interleave_sublists, the modern-CPU analog of the paper's VL=64 vector
// gathers. Each worker advances W independent sublist cursors round-robin
// with a software prefetch on every next hop (prefetcht0, so the line is
// in L1 when the cursor comes back to it; in phase 3 also a write
// prefetch of the output slot the next step stores to): instead of
// stalling a full memory round-trip per element, the core overlaps W
// dependent-load chains, as the C90 overlapped 64 lanes of a vector
// gather. Cursors that finish their sublist refill from a shared claim
// counter; the last sublists drain with shrinking parallelism, which is
// why the Planner sizes the sublist count by the paper's Eq. 5 trade-off
// (analysis/tuner.hpp host_sublists) rather than by the thread count.
//
// The driver is generic over a hop source that yields (tail flag, link,
// value) per vertex. There are two, and the kernel picks one from the
// operator and the value fit (KernelTier names what ran):
//
//  * SlabHops (KernelTier::kPackedCursors) -- the single-gather slab
//    (lists/encode.hpp hot_pack: link + value lane + sublist-tail flag in
//    one 64-bit word), built once per run unless the serving layer
//    installed a shared one: ONE random load per element. Serves ranks
//    and the plus/min/max/xor scans whose values fit the 32-bit lane.
//  * ListHops (KernelTier::kListArrays) -- the list's own next/value
//    arrays plus the per-run is_tail bitmap: three loads per element, all
//    at the same index, and no slab to build. Serves seg-sum/affine/
//    max-plus and any value that misses the lane.
//
// Every phase scales across worker threads (the paper's Section 5
// multiprocessor dimension, Fig. 11): the slab build splits into
// per-thread ranges, phases 1 and 3 feed each worker its own W-cursor set
// from the shared claim counter, and phase 2's reduced-list scan runs as
// a blocked two-pass prefix over operator-splittable prefixes once the
// sublist count is large enough to pay for it. Workers come from OpenMP
// when the build has it and plain std::thread otherwise, so OpenMP-less
// builds (and the TSan job) exercise the same parallel kernels.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "core/kernel_tier.hpp"
#include "core/workspace.hpp"
#include "lists/encode.hpp"
#include "lists/linked_list.hpp"
#include "lists/ops.hpp"
#include "support/rng.hpp"

#if defined(LISTRANK90_HAVE_OPENMP)
#include <omp.h>
#endif

namespace lr90::host_exec {

/// Execution shape chosen by the Planner.
struct HostPlan {
  /// Worker threads to use (already resolved; >= 1).
  unsigned threads = 1;
  /// Total sublist count target; < 2 selects the serial walk.
  std::size_t sublists = 0;
  /// Cursors in flight per worker in phases 1 and 3 (clamped to
  /// [1, kMaxInterleave]).
  unsigned interleave = 1;
};

/// What one scan_into/rank_into call actually executed, for RunResult
/// stats and benches (cursors-in-flight and thread-scaling reporting).
struct ExecInfo {
  /// Cursors in flight per worker: W on the sublist kernel, 1 on the
  /// serial walk, 0 when nothing ran (empty list).
  unsigned interleave = 0;
  /// Worker threads the run used: the plan's count on the sublist path, 1
  /// on the serial walk, 0 when nothing ran (empty list).
  unsigned threads = 0;
  bool packed = false;        ///< the single-gather slab path ran
  bool packed_cached = false; ///< ...on the installed shared slab
  bool phase2_parallel = false;  ///< phase 2 ran the blocked parallel scan
  std::size_t sublists = 0;   ///< sublists used (0 = serial walk)
  /// The hop source that ran: kPackedCursors over the slab, kListArrays
  /// over the list arrays and on the serial walk, kAuto when nothing ran
  /// (empty list).
  KernelTier tier = KernelTier::kAuto;

  // Per-phase wall clock, for parallel-efficiency reporting (zero on the
  // serial walk, which has no phases). build_ns covers boundary choice,
  // head collection, and the slab build; it is zero on a shared slab.
  double build_ns = 0.0;   ///< boundaries + heads + packed-slab build
  double phase1_ns = 0.0;  ///< per-sublist inclusive scans
  double phase2_ns = 0.0;  ///< reduced-list scan over sublist sums
  double phase3_ns = 0.0;  ///< per-sublist expansion

  /// Share of the phase wall clock spent in the multi-worker phases
  /// (build + 1 + 3, plus 2 when it ran blocked): the Amdahl fraction a
  /// bench divides by to judge thread scaling. 0 when nothing was timed.
  double parallel_frac() const {
    const double par =
        build_ns + phase1_ns + phase3_ns + (phase2_parallel ? phase2_ns : 0.0);
    const double total = build_ns + phase1_ns + phase2_ns + phase3_ns;
    return total > 0.0 ? par / total : 0.0;
  }
};

/// Hard cap on cursors per worker (stack-resident cursor state).
inline constexpr unsigned kMaxInterleave = 64;

/// Hard cap on worker threads per run (per-thread scratch such as the
/// phase-2 block sums is sized by this).
inline constexpr unsigned kMaxThreads = 256;

/// Smallest sublist count phase 2 parallelizes its reduced-list scan at;
/// below it the serial scan wins on fork/join overhead alone.
inline constexpr std::size_t kPhase2MinParallelSublists = 64;

/// Worker threads actually available for `requested` (0 = library default:
/// the OpenMP thread count, or the hardware thread count on OpenMP-less
/// builds, whose kernels fan out over std::thread instead).
inline unsigned effective_threads(unsigned requested) {
  if (requested > 0) return std::min(requested, kMaxThreads);
#if defined(LISTRANK90_HAVE_OPENMP)
  const auto omp = static_cast<unsigned>(std::max(1, omp_get_max_threads()));
  return std::min(omp, kMaxThreads);
#else
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? std::min(hw, kMaxThreads) : 1;
#endif
}

/// Runs fn() concurrently on `threads` workers and waits for all of them:
/// the one worker-orchestration primitive every parallel kernel here
/// uses. OpenMP supplies the (pooled, cheap) team when the build has it;
/// plain std::thread otherwise -- the same code runs parallel in
/// OpenMP-less builds, which is also what lets the TSan job see the real
/// kernels. OpenMP may deliver a smaller team than requested, so workers
/// must divide their work dynamically (the kernels here claim fixed
/// blocks from an atomic counter) rather than by worker id.
template <class Fn>
void run_workers(unsigned threads, Fn&& fn) {
  threads = std::clamp(threads, 1u, kMaxThreads);
  if (threads == 1) {
    fn();
    return;
  }
#if defined(LISTRANK90_HAVE_OPENMP)
#pragma omp parallel num_threads(threads)
  fn();
#else
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back([&fn] { fn(); });
  fn();
  for (std::thread& th : pool) th.join();
#endif
}

/// The b-th of `blocks` contiguous balanced ranges over `count` items
/// (empty ranges when b >= count are fine). Workers claim block ids from
/// a shared atomic, so coverage is exact for any actual team size.
inline std::pair<std::size_t, std::size_t> block_range(std::size_t count,
                                                       std::size_t blocks,
                                                       std::size_t b) {
  const std::size_t base = count / blocks;
  const std::size_t extra = count % blocks;
  const std::size_t begin = b * base + std::min(b, extra);
  return {begin, begin + base + (b < extra ? 1 : 0)};
}

/// Fans block ids [0, count) out to `threads` workers through a shared
/// claim counter and calls body(block) for each: the one claim
/// discipline every parallel kernel here uses (exact coverage whatever
/// team size run_workers actually delivers).
template <class Body>
void claim_blocks(unsigned threads, std::size_t count, Body&& body) {
  std::atomic<std::size_t> next{0};
  run_workers(threads, [&] {
    for (std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
         b < count; b = next.fetch_add(1, std::memory_order_relaxed))
      body(b);
  });
}

/// Read-prefetch of the cache line holding `addr` into every cache level
/// (no-op when the compiler has no intrinsic). The cursor driver issues
/// one per cursor per element, which is what keeps W load chains in
/// flight. Locality 3 (prefetcht0 on x86): the cursor reads the line W
/// hops later, so it must arrive in L1. It was the fastest of the four
/// hints on one thread at n = 2^20 on a 4-core Xeon; the non-temporal one
/// (locality 0) read ~1.5x slower at W = 1 and 1.4-2.0x at W = 8.
inline void prefetch_ro(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

/// Write-prefetch of the cache line holding `addr` (prefetchw on x86):
/// phase 3 issues one for the output slot each cursor stores to next, so
/// the random store finds its line owned instead of stalling the cursor
/// on a read-for-ownership miss.
inline void prefetch_rw(void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/1, /*locality=*/3);
#else
  (void)addr;
#endif
}

/// Serial walk fallback, used when parallelism cannot pay off.
template <ListOp Op>
void serial_scan_into(const LinkedList& list, std::span<value_t> out,
                      Op op = {}) {
  value_t acc = Op::identity();
  for_each_in_order(list, [&](index_t v, std::size_t) {
    out[v] = acc;
    acc = op(acc, list.value[v]);
  });
}

/// Chooses `count` distinct sublist boundary vertices (plus the global
/// tail) into ws.is_tail / ws.picks. Rejection sampling against the bitmap
/// needs no per-call set: the pick density is at most 1/2, so the expected
/// number of retries per pick is below one.
inline void choose_boundaries(const LinkedList& list, std::size_t count,
                              Workspace& ws, index_t global_tail) {
  const std::size_t n = list.size();
  ws.fit(ws.is_tail, n, std::uint8_t{0});
  ws.fit_uninit(ws.picks, count);
  ws.picks.clear();  // keep capacity, refill below
  ws.is_tail[global_tail] = 1;
  while (ws.picks.size() < count) {
    const auto r = static_cast<index_t>(ws.rng.uniform(n));
    if (ws.is_tail[r]) continue;  // duplicate or the global tail: redraw
    ws.is_tail[r] = 1;
    ws.picks.push_back(r);
  }
}

/// Builds the single-gather slab into ws.packed from the list and the
/// per-run boundary bitmap (ws.is_tail must already be chosen): word v =
/// hot_pack(is_tail[v], next[v], value lane). One O(n) pass, split into
/// per-thread index ranges (hot_pack_range) claimed from an atomic
/// counter. `kOnes` forces every value lane to 1 (ranking) and cannot
/// fail; otherwise returns false -- slab contents unspecified -- if any
/// value does not round-trip through the signed 32-bit lane. Each
/// successful build counts in Workspace::packed_builds.
template <bool kOnes, ListOp Op>
bool build_packed(const LinkedList& list, Op, unsigned threads,
                  Workspace& ws) {
  static_assert(kOnes || kOpLane32<Op>,
                "64-bit-value operators walk the list arrays");
  const std::size_t n = list.size();
  ws.fit_uninit(ws.packed, n);
  const index_t* next = list.next.data();
  const value_t* val = kOnes ? nullptr : list.value.data();
  const std::uint8_t* tail = ws.is_tail.data();
  packed_t* out = ws.packed.data();
  const std::size_t blocks = std::max<std::size_t>(1, threads);
  std::atomic<bool> ok{true};
  claim_blocks(threads, blocks, [&](std::size_t b) {
    const auto [begin, end] = block_range(n, blocks, b);
    if (!hot_pack_range(next, val, tail, out, begin, end))
      ok.store(false, std::memory_order_relaxed);
  });
  if (!ok.load(std::memory_order_relaxed)) return false;
  ws.note_packed_build();
  return true;
}

/// One step of a cursor: whether `v` ends its sublist, its successor, and
/// its value.
struct Hop {
  bool tail;
  index_t link;
  value_t value;
};

/// Hop source over the single-gather slab: one 64-bit load per element.
struct SlabHops {
  const packed_t* words;
  Hop operator()(index_t v) const {
    const packed_t w = words[v];
    return {hot_tail(w), hot_link(w), hot_value(w)};
  }
  void prefetch(index_t v) const { prefetch_ro(&words[v]); }
};

/// Hop source over the list's own arrays plus the per-run boundary bitmap;
/// `kOnes` substitutes the constant 1 for every value (ranking).
template <bool kOnes>
struct ListHops {
  const index_t* next;
  const value_t* value;
  const std::uint8_t* is_tail;
  Hop operator()(index_t v) const {
    return {is_tail[v] != 0, next[v], kOnes ? value_t{1} : value[v]};
  }
  void prefetch(index_t v) const {
    prefetch_ro(&next[v]);
    if constexpr (!kOnes) prefetch_ro(&value[v]);
    prefetch_ro(&is_tail[v]);
  }
};

/// The driver's default `ahead` hook: the step touches nothing beyond
/// what the hop source prefetches.
struct NoAhead {
  void operator()(index_t) const {}
};

/// The phase-1/3 traversal kernel: walks all `k` sublists over `threads`
/// workers, each keeping up to `W` cursors in flight. Per element: one
/// hop from `hops` (see SlabHops / ListHops), a prefetch of the next hop
/// plus `ahead(next vertex)`, then `step(vertex, value, acc)`; at a
/// sublist tail, `finish(sublist, tail_vertex, acc)` runs and the cursor
/// refills from the shared claim counter (perfect load balance; the final
/// < W sublists drain with shrinking parallelism, which is why the
/// Planner sizes k by host_sublists). `init(sublist)` seeds the
/// accumulator. `ahead` lets a phase prefetch what its step will write
/// at the vertex a cursor moves to (phase 3's output slot).
template <class Hops, class AccInit, class Step, class Finish,
          class Ahead = NoAhead>
void interleave_sublists(const Hops& hops, const index_t* heads,
                         std::size_t k, unsigned threads, unsigned W,
                         AccInit init, Step step, Finish finish,
                         Ahead ahead = {}) {
  W = std::clamp(W, 1u, kMaxInterleave);
  std::atomic<std::size_t> next_claim{0};
  auto worker = [&]() {
    struct Cursor {
      index_t v;    ///< current vertex
      index_t j;    ///< owning sublist
      value_t acc;  ///< running combine
    };
    Cursor cur[kMaxInterleave];
    std::size_t active = 0;
    const auto fetch = [&](index_t v) {
      hops.prefetch(v);
      ahead(v);
    };
    auto claim = [&]() -> bool {
      const std::size_t j =
          next_claim.fetch_add(1, std::memory_order_relaxed);
      if (j >= k) return false;
      cur[active] = Cursor{heads[j], static_cast<index_t>(j), init(j)};
      fetch(heads[j]);
      ++active;
      return true;
    };
    for (unsigned i = 0; i < W && claim(); ++i) {
    }
    while (active > 0) {
      for (std::size_t i = 0; i < active;) {
        Cursor& c = cur[i];
        const Hop h = hops(c.v);
        if (!h.tail) fetch(h.link);
        step(c.v, h.value, c.acc);
        if (!h.tail) {
          c.v = h.link;
          ++i;
          continue;
        }
        finish(c.j, c.v, c.acc);
        const std::size_t j =
            next_claim.fetch_add(1, std::memory_order_relaxed);
        if (j < k) {
          c = Cursor{heads[j], static_cast<index_t>(j), init(j)};
          fetch(heads[j]);
          ++i;
        } else {
          --active;  // drain: rerun index i with the swapped-in cursor
          cur[i] = cur[active];
        }
      }
    }
  };
  run_workers(threads, worker);
}

/// Exclusive list scan into `out` (sized n) per the plan, reusing `ws`.
/// Preconditions: `list` is a valid LinkedList, out.size() == list.size().
/// `kOnes` treats every value as 1 regardless of list.value (ranking);
/// only rank_into sets it.
template <ListOp Op, bool kOnes = false>
ExecInfo scan_into(const LinkedList& list, Op op, const HostPlan& plan,
                   Workspace& ws, std::span<value_t> out) {
  ExecInfo info;
  const std::size_t n = list.size();
  if (n == 0) return info;
  info.interleave = 1;
  info.threads = 1;
  info.tier = KernelTier::kListArrays;
  const std::size_t want = std::min(plan.sublists, n / 2);
  if (want < 2) {
    if constexpr (kOnes) {
      for_each_in_order(list, [&](index_t v, std::size_t pos) {
        out[v] = static_cast<value_t>(pos);
      });
    } else {
      serial_scan_into(list, out, op);
    }
    return info;
  }

  // The hop source: the slab when the operator's values can live in the
  // 32-bit lane and every link fits 31 bits (the build below re-checks
  // each value), the list arrays otherwise.
  constexpr bool kLane = kOnes || kOpLane32<Op>;
  bool slab = kLane && n <= kHotMaxVertices;
  const unsigned threads = std::max(1u, plan.threads);
  const unsigned W = std::clamp(plan.interleave, 1u, kMaxInterleave);
  // A shared (cross-request) slab, installed by the serving layer for
  // immutable snapshot lists, replaces both boundary choice and the slab
  // build outright when its shape matches this run's plan. The RNG is
  // then left undrawn -- answers are exact under any sublist
  // decomposition.
  const PackedSlab* ext = nullptr;
  if (slab) {
    const PackedSlab* s = ws.shared_slab();
    if (s && s->n == n && s->ones == kOnes && s->heads.size() == want &&
        !s->words.empty())
      ext = s;
  }
  using Clock = std::chrono::steady_clock;
  const auto since_ns = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
  };
  const auto t_build = Clock::now();
  if (!ext) {
    choose_boundaries(list, want - 1, ws, list.find_tail());
    // Sublist heads: the whole-list head plus each pick's successor. A
    // pick whose successor is itself a tail yields a single-vertex
    // sublist.
    ws.fit_uninit(ws.heads, want);
    ws.heads.clear();
    ws.heads.push_back(list.head);
    for (const index_t r : ws.picks) ws.heads.push_back(list.next[r]);
    // A value that misses the lane leaves the list arrays to walk.
    if constexpr (kLane) {
      if (slab) slab = build_packed<kOnes>(list, op, threads, ws);
    }
  }
  // Resolved after the build section: ws.heads/ws.packed may have
  // reallocated during it.
  const packed_t* words = ext ? ext->words.data() : ws.packed.data();
  const index_t* heads = ext ? ext->heads.data() : ws.heads.data();
  const std::size_t k = ext ? ext->heads.size() : ws.heads.size();
  info.build_ns = ext ? 0.0 : since_ns(t_build);

  // Phases 1 and 3 run the one cursor driver over whichever hop source
  // this run has.
  const auto traverse = [&](auto init, auto step, auto finish, auto ahead) {
    if constexpr (kLane) {
      if (slab) {
        interleave_sublists(SlabHops{words}, heads, k, threads, W, init, step,
                            finish, ahead);
        return;
      }
    }
    interleave_sublists(
        ListHops<kOnes>{list.next.data(), list.value.data(),
                        ws.is_tail.data()},
        heads, k, threads, W, init, step, finish, ahead);
  };

  // Phase 1: per-sublist inclusive sums; record each sublist's tail.
  const auto t_phase1 = Clock::now();
  ws.fit(ws.sums, k, Op::identity());
  ws.fit(ws.tails, k, kNoVertex);
  traverse([](std::size_t) { return Op::identity(); },
           [&](index_t, value_t x, value_t& acc) { acc = op(acc, x); },
           [&](index_t j, index_t v, value_t acc) {
             ws.sums[j] = acc;
             ws.tails[j] = v;
           },
           NoAhead{});
  info.phase1_ns = since_ns(t_phase1);

  // Phase 2: order the sublists by chaining tail -> successor head (a
  // serial O(k) pointer-chase; the head-ownership table is
  // epoch-stamped, so no O(n) refill), then exclusive-scan their sums in
  // that order. Large sublist counts scan blocked across the workers:
  // contiguous prefixes of the order reduce in parallel, a serial pass
  // turns the block sums into block offsets, and the workers expand
  // their blocks -- combine order is preserved throughout, so
  // associativity alone (no commutativity) keeps the non-commutative
  // operators bit-exact.
  const auto t_phase2 = Clock::now();
  ws.owner_begin(n);
  for (std::size_t j = 0; j < k; ++j)
    ws.owner_set(heads[j], static_cast<index_t>(j));
  ws.fit_uninit(ws.order, k);
  ws.order.clear();
  {
    std::size_t j = 0;  // the first sublist starts at the list head
    for (std::size_t seen = 0; seen < k; ++seen) {
      ws.order.push_back(static_cast<index_t>(j));
      const index_t t = ws.tails[j];
      const index_t nt = list.next[t];
      if (nt == t) break;  // the global tail ends the chain
      const index_t owner = ws.owner_get(nt);
      if (owner == kNoVertex) break;  // defensive: malformed snapshot
      j = owner;
    }
  }
  // Sublists a malformed snapshot left out of the chain keep identity.
  ws.fit(ws.headscan, k, Op::identity());
  const std::size_t ordered = ws.order.size();
  if (threads > 1 && ordered >= kPhase2MinParallelSublists) {
    info.phase2_parallel = true;
    const std::size_t blocks = threads;
    ws.fit(ws.block_sums, blocks, Op::identity());
    claim_blocks(threads, blocks, [&](std::size_t b) {
      const auto [begin, end] = block_range(ordered, blocks, b);
      value_t acc = Op::identity();
      for (std::size_t i = begin; i < end; ++i)
        acc = op(acc, ws.sums[ws.order[i]]);
      ws.block_sums[b] = acc;
    });
    value_t acc = Op::identity();  // block sums -> exclusive block offsets
    for (std::size_t b = 0; b < blocks; ++b) {
      const value_t sum = ws.block_sums[b];
      ws.block_sums[b] = acc;
      acc = op(acc, sum);
    }
    claim_blocks(threads, blocks, [&](std::size_t b) {
      const auto [begin, end] = block_range(ordered, blocks, b);
      value_t acc = ws.block_sums[b];
      for (std::size_t i = begin; i < end; ++i) {
        const index_t j = ws.order[i];
        ws.headscan[j] = acc;
        acc = op(acc, ws.sums[j]);
      }
    });
  } else {
    value_t acc = Op::identity();
    for (std::size_t i = 0; i < ordered; ++i) {
      const index_t j = ws.order[i];
      ws.headscan[j] = acc;
      acc = op(acc, ws.sums[j]);
    }
  }
  info.phase2_ns = since_ns(t_phase2);

  // Phase 3: expand each sublist from its head's scan value. Every hop
  // stores to a random output slot, so the cursor write-prefetches that
  // slot alongside its next hop.
  const auto t_phase3 = Clock::now();
  value_t* o = out.data();
  traverse([&](std::size_t j) { return ws.headscan[j]; },
           [&](index_t v, value_t x, value_t& acc) {
             o[v] = acc;
             acc = op(acc, x);
           },
           [](index_t, index_t, value_t) {},
           [o](index_t v) { prefetch_rw(&o[v]); });
  info.phase3_ns = since_ns(t_phase3);

  info.interleave = W;
  info.threads = threads;
  info.packed = slab;
  info.packed_cached = ext != nullptr;
  info.sublists = k;
  info.tier = slab ? KernelTier::kPackedCursors : KernelTier::kListArrays;
  return info;
}

/// Exclusive list rank into `out`: the all-ones scan without ever
/// materializing a ones copy -- the slab's value lane is the constant 1,
/// the list-array hops substitute it inline, and the serial walk writes
/// positions directly. Correct for any plan.
inline ExecInfo rank_into(const LinkedList& list, const HostPlan& plan,
                          Workspace& ws, std::span<value_t> out) {
  return scan_into<OpPlus, /*kOnes=*/true>(list, OpPlus{}, plan, ws, out);
}

}  // namespace lr90::host_exec
