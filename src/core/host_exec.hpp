// The host execution kernel: Reid-Miller's sublist scan on real hardware
// (OpenMP threads when available), generic over the operator and
// allocation-free given a warmed-up Workspace. lr90::Engine's HostBackend
// runs it; the shard layer (shard/sharded.cpp) reuses its cursor driver.
//
// Same structure as the paper's algorithm, non-destructively: sublist
// boundaries live in a per-run tag array (and the slab's tail bits)
// instead of planted self-loops, so the input list stays shared
// read-only across threads.
//
// One traversal kernel serves phase 1 for every operator:
// interleave_sublists, the modern-CPU analog of the paper's VL=64 vector
// gathers. Each worker advances W independent sublist cursors round-robin
// with a software prefetch on every next hop (prefetcht0, so the line is
// in L1 when the cursor comes back to it; also a write prefetch of the
// output slot the next step stores to): instead of stalling a full memory
// round-trip per element, the core overlaps W dependent-load chains, as
// the C90 overlapped 64 lanes of a vector gather. Cursors that finish
// their sublist refill from their worker's claimed range, and a worker
// refills that range from a shared counter by guided self-scheduling:
// each trip takes max(1, remaining / (2 T W)) sublists, so a run of
// ~1-vertex sublists (the shard passes' segments) pays a fraction of a
// contended claim per sublist. The last claims are single sublists, and
// they drain with shrinking parallelism, which is why the Planner sizes
// the sublist count by the paper's Eq. 5 trade-off (analysis/tuner.hpp
// host_sublists) rather than by the thread count.
//
// Phase 3 departs from the paper. The C90's cacheless vector gathers made
// a second walk of every sublist cheap; here it would be a second pointer
// chase with a random store per hop. Instead, as in Helman and JaJa's SMP
// list ranking (ALENEX 1999), phase 1 records at every vertex its sublist
// id and its exclusive prefix within the sublist, in cache lines the hop
// has already loaded, and phase 3 is one pass in array order:
// out[v] = op(headscan[sublist(v)], prefix(v)).
//
// The driver is generic over a hop source that yields (tail flag, link,
// value) per vertex. There are two, and the kernel picks one from the
// operator and the value fit (KernelTier names what ran):
//
//  * SlabHops (KernelTier::kPackedCursors) -- the single-gather slab
//    (lists/encode.hpp hot_pack: link + value lane + sublist-tail flag in
//    one 64-bit word), built once per run: ONE random load per element.
//    Serves ranks and the plus/min/max/xor scans whose values fit the
//    32-bit lane. Phase 1 overwrites each word it has read with the
//    vertex's sublist id (a rank adds its local count), so a slab serves
//    one run.
//  * ListHops (KernelTier::kListArrays) -- the list's own next/value
//    arrays plus the per-run 4-byte tag (tail flag in its top bit, then
//    phase 1's sublist id): three loads per element, all at the same
//    index, and no slab to build. Serves seg-sum/affine/max-plus and any
//    value that misses the lane.
//
// The slab build and phases 1 and 3 scale across worker threads (the
// paper's Section 5 multiprocessor dimension, Fig. 11): the build and
// phase 3 split into per-thread index ranges, and phase 1 feeds each
// worker its own W-cursor set from the shared guided claim counter.
// Phase 2 is serial: it chains the k sublists in list order, tail ->
// successor sublist. The picks are sorted and sublist i + 1 starts at the
// successor of the i-th pick, so each link is one binary search of the
// picks for the tail: O(k) memory that stays in cache, with no per-vertex
// table. The plan (threads, m, W) comes from analysis/tuner.hpp
// plan_host. Workers come from OpenMP when the build has it and plain
// std::thread otherwise, so OpenMP-less builds (and the TSan job)
// exercise the same parallel kernels.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "baselines/serial_walk.hpp"
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

/// Execution shape of one run, from analysis/tuner.hpp plan_host (the
/// Planner's and the shard layer's one host planning path).
struct HostPlan {
  /// Worker threads to use (already resolved; >= 1).
  unsigned threads = 1;
  /// Total sublist count target; < 2 selects the serial walk.
  std::size_t sublists = 0;
  /// Cursors in flight per worker in phase 1 (clamped to
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
  /// The walk from the head meets no self-loop tail (a malformed list):
  /// the run stopped without an answer.
  bool no_tail = false;
  std::size_t sublists = 0;   ///< sublists used (0 = serial walk)
  /// The hop source that ran: kPackedCursors over the slab, kListArrays
  /// over the list arrays and on the serial walk, kAuto when nothing ran
  /// (empty list).
  KernelTier tier = KernelTier::kAuto;

  // Per-phase wall clock, for parallel-efficiency reporting (zero on the
  // serial walk, which has no phases). build_ns covers boundary choice,
  // head collection, and the slab build.
  double build_ns = 0.0;   ///< boundaries + heads + packed-slab build
  double phase1_ns = 0.0;  ///< per-sublist inclusive scans
  double phase2_ns = 0.0;  ///< reduced-list scan over sublist sums
  double phase3_ns = 0.0;  ///< the array-order pass finishing every vertex

  /// Share of the phase wall clock spent in the multi-worker phases
  /// (build + 1 + 3; phase 2 is serial): the Amdahl fraction a bench
  /// divides by to judge thread scaling. 0 when nothing was timed.
  double parallel_frac() const {
    const double par = build_ns + phase1_ns + phase3_ns;
    const double total = par + phase2_ns;
    return total > 0.0 ? par / total : 0.0;
  }
};

/// Hard cap on cursors per worker (stack-resident cursor state).
inline constexpr unsigned kMaxInterleave = 64;

/// Hard cap on worker threads per run.
inline constexpr unsigned kMaxThreads = 256;

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
/// claim counter and calls body(block) for each: the claim discipline of
/// every fixed-block kernel here (exact coverage whatever team size
/// run_workers actually delivers; the cursor driver claims guided ranges).
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
/// phase 1 applies it to the output slot each cursor stores to next, so
/// the random store finds its line owned instead of stalling the cursor
/// on a read-for-ownership miss.
inline void prefetch_rw(void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/1, /*locality=*/3);
#else
  (void)addr;
#endif
}

/// Calls body(begin, end) once for each of `threads` contiguous balanced
/// ranges of [0, n), spread over `threads` workers: the array-order
/// passes (the slab build and phase 3).
template <class Body>
void for_each_range(unsigned threads, std::size_t n, Body&& body) {
  const std::size_t blocks = std::max(1u, threads);
  claim_blocks(threads, blocks, [&](std::size_t b) {
    const auto [begin, end] = block_range(n, blocks, b);
    body(begin, end);
  });
}

/// The top bit of a per-run tag (Workspace::tag): the vertex ends its
/// sublist. Phase 1 sets it at every vertex it passes, beside the
/// vertex's sublist id in the low bits.
inline constexpr std::uint32_t kTagTail = 0x80000000u;

/// Draws `count` distinct sublist boundary vertices, none of them the
/// global tail, into ws.picks and sorts them: phase 2 finds a sublist's
/// successor by searching them. `flag(v)` marks v as a sublist tail and
/// returns false if it already was one. The global tail is flagged
/// first, and a draw that hits a flagged vertex is redrawn: rejection
/// sampling against the flags the run needs anyway, with no per-call
/// set. The pick density is at most 1/2, so the expected number of
/// retries per pick is below one.
template <class Flag>
void draw_boundaries(std::size_t n, std::size_t count, Workspace& ws,
                     index_t global_tail, Flag flag) {
  ws.fit_uninit(ws.picks, count);
  ws.picks.clear();  // keep capacity, refill below
  flag(global_tail);
  while (ws.picks.size() < count) {
    const auto r = static_cast<index_t>(ws.rng.uniform(n));
    if (flag(r)) ws.picks.push_back(r);
  }
  std::sort(ws.picks.begin(), ws.picks.end());
}

/// The boundaries of a list-array run: refits ws.tag to zero and flags
/// the global tail and `count` picks with kTagTail.
inline void choose_boundaries(const LinkedList& list, std::size_t count,
                              Workspace& ws, index_t global_tail) {
  ws.fit(ws.tag, list.size(), std::uint32_t{0});
  std::uint32_t* tag = ws.tag.data();
  draw_boundaries(list.size(), count, ws, global_tail, [tag](index_t v) {
    if (tag[v] != 0) return false;
    tag[v] = kTagTail;
    return true;
  });
}

/// The boundaries of a slab run: flags the global tail and `count` picks
/// in the tail bits of the slab build_packed has just built. From the
/// same RNG state it draws the same picks as choose_boundaries, and the
/// run touches no per-vertex array besides the slab.
inline void choose_slab_boundaries(std::size_t count, Workspace& ws,
                                   index_t global_tail) {
  packed_t* words = ws.packed.data();
  draw_boundaries(ws.packed.size(), count, ws, global_tail,
                  [words](index_t v) {
                    if (hot_tail(words[v])) return false;
                    words[v] |= kHotTailBit;
                    return true;
                  });
}

/// Builds the single-gather slab into ws.packed from the list, with no
/// sublist tail flagged yet (choose_slab_boundaries flags them): word v =
/// hot_pack(false, next[v], value lane). One O(n) pass, split into
/// per-thread index ranges (hot_pack_range). `kOnes` forces every value
/// lane to 1 (ranking) and cannot fail; otherwise returns false -- slab
/// contents unspecified -- if any value does not round-trip through the
/// signed 32-bit lane. Each successful build counts in
/// Workspace::packed_builds.
template <bool kOnes, ListOp Op>
bool build_packed(const LinkedList& list, Op, unsigned threads,
                  Workspace& ws) {
  static_assert(kOnes || kOpLane32<Op>,
                "64-bit-value operators walk the list arrays");
  const std::size_t n = list.size();
  ws.fit_uninit(ws.packed, n);
  const index_t* next = list.next.data();
  const value_t* val = kOnes ? nullptr : list.value.data();
  packed_t* out = ws.packed.data();
  std::atomic<bool> ok{true};
  for_each_range(threads, n, [&](std::size_t begin, std::size_t end) {
    if (!hot_pack_range(next, val, out, begin, end))
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

/// Hop source over the list's own arrays plus the per-run tags; `kOnes`
/// substitutes the constant 1 for every value (ranking).
template <bool kOnes>
struct ListHops {
  const index_t* next;
  const value_t* value;
  const std::uint32_t* tag;
  Hop operator()(index_t v) const {
    return {(tag[v] & kTagTail) != 0, next[v],
            kOnes ? value_t{1} : value[v]};
  }
  void prefetch(index_t v) const {
    prefetch_ro(&next[v]);
    if constexpr (!kOnes) prefetch_ro(&value[v]);
    prefetch_ro(&tag[v]);
  }
};

/// The driver's default `ahead` hook: the step touches nothing beyond
/// what the hop source prefetches.
struct NoAhead {
  void operator()(index_t) const {}
};

/// The sublist traversal kernel: walks all `k` sublists over `threads`
/// workers, each keeping up to `W` cursors in flight. Per element: one
/// hop from `hops` (see SlabHops / ListHops), a prefetch of the next hop
/// plus `ahead(next vertex)`, then `step(sublist, vertex, value, acc)`;
/// at a sublist tail, `finish(sublist, tail_vertex, acc)` runs and the
/// cursor refills with the worker's next claimed sublist. `init(sublist)`
/// seeds the accumulator. The step runs after the vertex's hop is read,
/// so it may overwrite what the hop source holds for that vertex. `ahead`
/// lets a phase prefetch what its step will write at the vertex a cursor
/// moves to (phase 1's output slot).
///
/// Claims are guided self-scheduling: a worker whose own range is empty
/// takes max(1, remaining / (2 T W)) sublists from the shared counter in
/// one CAS. Short sublists (the shard passes' ~1-vertex segments) then
/// cost a fraction of a contended claim each, while the last claims are
/// still single sublists: the final < W sublists drain with shrinking
/// parallelism, which is why the Planner sizes k by host_sublists.
template <class Hops, class AccInit, class Step, class Finish,
          class Ahead = NoAhead>
void interleave_sublists(const Hops& hops, const index_t* heads,
                         std::size_t k, unsigned threads, unsigned W,
                         AccInit init, Step step, Finish finish,
                         Ahead ahead = {}) {
  W = std::clamp(W, 1u, kMaxInterleave);
  const std::size_t split =
      2 * std::size_t{std::clamp(threads, 1u, kMaxThreads)} * W;
  std::atomic<std::size_t> next_claim{0};
  auto worker = [&]() {
    struct Cursor {
      index_t v;    ///< current vertex
      index_t j;    ///< owning sublist
      value_t acc;  ///< running combine
    };
    Cursor cur[kMaxInterleave];
    std::size_t active = 0;
    std::size_t own = 0, own_end = 0;  // claimed, not yet started
    const auto fetch = [&](index_t v) {
      hops.prefetch(v);
      ahead(v);
    };
    // The worker's next sublist, from its own range or else one guided
    // trip to the shared counter; k once every sublist is claimed.
    const auto claim = [&]() -> std::size_t {
      if (own < own_end) return own++;
      std::size_t at = next_claim.load(std::memory_order_relaxed);
      std::size_t take = 0;
      do {
        if (at >= k) return k;
        take = std::max<std::size_t>(1, (k - at) / split);
      } while (!next_claim.compare_exchange_weak(at, at + take,
                                                 std::memory_order_relaxed));
      own = at + 1;
      own_end = at + take;
      return at;
    };
    const auto start = [&](Cursor& c, std::size_t j) {
      c = Cursor{heads[j], static_cast<index_t>(j), init(j)};
      fetch(heads[j]);
    };
    while (active < W) {
      const std::size_t j = claim();
      if (j >= k) break;
      start(cur[active++], j);
    }
    while (active > 0) {
      for (std::size_t i = 0; i < active;) {
        Cursor& c = cur[i];
        const Hop h = hops(c.v);
        if (!h.tail) fetch(h.link);
        step(c.j, c.v, h.value, c.acc);
        if (!h.tail) {
          c.v = h.link;
          ++i;
          continue;
        }
        finish(c.j, c.v, c.acc);
        const std::size_t j = claim();
        if (j < k) {
          start(c, j);
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
/// Preconditions: `list` is a LinkedList whose arrays agree in size and
/// whose links stay in range, out.size() == list.size(). A list whose
/// walk from the head meets no self-loop tail is refused (ExecInfo::
/// no_tail) before any boundary is marked; a vertex no sublist head
/// reaches gets an unspecified answer. `kOnes` treats every value as 1
/// regardless of list.value (ranking); only rank_into sets it.
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
      info.no_tail = !serial_rank_host(list, out);
    } else {
      info.no_tail = !serial_scan_host(list, out, op);
    }
    return info;
  }
  const index_t global_tail = list.find_tail();
  if (global_tail == kNoVertex) {
    info.no_tail = true;
    return info;
  }

  // The hop source: the slab when the operator's values can live in the
  // 32-bit lane and every link fits 31 bits (the build below re-checks
  // each value), the list arrays otherwise.
  constexpr bool kLane = kOnes || kOpLane32<Op>;
  bool slab = kLane && n <= kHotMaxVertices;
  const unsigned threads = std::max(1u, plan.threads);
  const unsigned W = std::clamp(plan.interleave, 1u, kMaxInterleave);
  using Clock = std::chrono::steady_clock;
  const auto since_ns = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
  };
  const auto t_build = Clock::now();
  // A value that misses the lane leaves the list arrays to walk.
  if constexpr (kLane) {
    if (slab) slab = build_packed<kOnes>(list, op, threads, ws);
  }
  if (slab) {
    choose_slab_boundaries(want - 1, ws, global_tail);
  } else {
    choose_boundaries(list, want - 1, ws, global_tail);
  }
  // Sublist heads: the whole-list head, then sublist i + 1 at the i-th
  // pick's successor. A pick whose successor is itself a tail yields a
  // single-vertex sublist.
  ws.fit_uninit(ws.heads, want);
  ws.heads.clear();
  ws.heads.push_back(list.head);
  for (const index_t r : ws.picks) ws.heads.push_back(list.next[r]);
  // Resolved after the build section: the buffers may have reallocated
  // during it.
  packed_t* words = ws.packed.data();
  std::uint32_t* tag = ws.tag.data();
  const index_t* heads = ws.heads.data();
  const std::size_t k = ws.heads.size();
  value_t* o = out.data();
  info.build_ns = since_ns(t_build);

  // Phase 1: per-sublist inclusive sums and tails. At each vertex the
  // step also records what phase 3 needs, where the hop has just loaded
  // a line: its sublist id j in the slab word or the tag, flagged as a
  // tail so that a malformed list leading a second cursor there stops it,
  // and its exclusive prefix within the sublist -- in the slab word's
  // lane for a rank, otherwise in out[v], whose line the cursor
  // write-prefetched a hop ahead.
  const auto t_phase1 = Clock::now();
  ws.fit(ws.sums, k, Op::identity());
  ws.fit(ws.tails, k, kNoVertex);
  const auto walk = [&](const auto& hops, auto record, auto ahead) {
    interleave_sublists(
        hops, heads, k, threads, W, [](std::size_t) { return Op::identity(); },
        [&](index_t j, index_t v, value_t x, value_t& acc) {
          record(j, v, acc);
          acc = op(acc, x);
        },
        [&](index_t j, index_t v, value_t acc) {
          ws.sums[j] = acc;
          ws.tails[j] = v;
        },
        ahead);
  };
  const auto ahead = [o](index_t v) { prefetch_rw(&o[v]); };
  if constexpr (kOnes) {
    if (slab)
      walk(SlabHops{words},
           [words](index_t j, index_t v, value_t acc) {
             words[v] = hot_pack(true, j, static_cast<std::uint32_t>(acc));
           },
           NoAhead{});
  } else if constexpr (kLane) {
    if (slab)
      walk(SlabHops{words},
           [words, o](index_t j, index_t v, value_t acc) {
             words[v] = hot_pack(true, j, 0);
             o[v] = acc;
           },
           ahead);
  }
  if (!slab) {
    walk(ListHops<kOnes>{list.next.data(), list.value.data(), tag},
         [tag, o](index_t j, index_t v, value_t acc) {
           tag[v] = kTagTail | j;
           o[v] = acc;
         },
         ahead);
  }
  info.phase1_ns = since_ns(t_phase1);

  // Phase 2: visit the sublists in list order by chaining tail ->
  // successor sublist, exclusive-scanning their sums on the way. A tail
  // found at picks[i] continues at sublist i + 1, whose head is
  // next[picks[i]], so each link is one binary search of the O(k) sorted
  // picks. Combine order follows the list, so associativity alone (no
  // commutativity) keeps the non-commutative operators bit-exact.
  const auto t_phase2 = Clock::now();
  const std::vector<index_t>& picks = ws.picks;
  // Sublists a malformed list left out of the chain keep identity.
  ws.fit(ws.headscan, k, Op::identity());
  {
    std::size_t j = 0;  // the first sublist starts at the list head
    value_t acc = Op::identity();
    for (std::size_t seen = 0; seen < k; ++seen) {
      ws.headscan[j] = acc;
      acc = op(acc, ws.sums[j]);
      const index_t t = ws.tails[j];
      const auto hit = std::lower_bound(picks.begin(), picks.end(), t);
      // No pick: the global tail ends the chain (or a malformed list's
      // stray tail does).
      if (hit == picks.end() || *hit != t) break;
      j = static_cast<std::size_t>(hit - picks.begin()) + 1;
    }
  }
  info.phase2_ns = since_ns(t_phase2);

  // Phase 3: one pass in array order, out[v] = op(headscan[j], prefix).
  // Every read and write streams; only the O(k) headscan is gathered,
  // and it stays in cache. A vertex no head reached still holds its
  // build-time word or tag, whose id may be anything: ids past k are
  // skipped.
  const auto t_phase3 = Clock::now();
  const value_t* hs = ws.headscan.data();
  const auto expand = [&](auto sublist, auto prefix) {
    for_each_range(threads, n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t v = begin; v < end; ++v) {
        const std::size_t j = sublist(v);
        if (j < k) o[v] = op(hs[j], prefix(v));
      }
    });
  };
  const auto out_prefix = [o](std::size_t v) { return o[v]; };
  const auto word_sublist = [words](std::size_t v) {
    return hot_link(words[v]);
  };
  if constexpr (kOnes) {
    if (slab)
      expand(word_sublist, [words](std::size_t v) {
        return static_cast<value_t>(packed_value(words[v]));
      });
  } else if constexpr (kLane) {
    if (slab) expand(word_sublist, out_prefix);
  }
  if (!slab)
    expand([tag](std::size_t v) { return tag[v] & ~kTagTail; }, out_prefix);
  info.phase3_ns = since_ns(t_phase3);

  info.interleave = W;
  info.threads = threads;
  info.packed = slab;
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
