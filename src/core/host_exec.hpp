// The host execution kernel: Reid-Miller's sublist scan on real hardware
// (the calling thread's worker team), generic over the operator and
// allocation-free given a warmed-up Workspace. lr90::Engine's HostBackend
// runs it, and it is the only way the host ranks or scans a list.
//
// Same structure as the paper's algorithm, non-destructively: sublist
// boundaries live in a per-run record slab instead of planted self-loops,
// so the input list stays shared read-only across threads.
//
// The record slab is the paper's Section 3 single-gather encoding for
// every operator (lists/encode.hpp hot_pack): one record per vertex, one
// 64-bit word for a rank (sublist-tail flag, sublist id, link) and a
// second for a scan (the full value), built once per run in one O(n)
// pass. A hop is ONE random load, whatever the operator or the width of
// its values.
//
// One traversal kernel serves phase 1: interleave_sublists, the
// modern-CPU analog of the paper's VL=64 vector gathers. Each worker
// advances W independent sublist cursors round-robin with a software
// prefetch on every next hop (prefetcht0, so the line is in L1 when the
// cursor comes back to it): instead of stalling a full memory round-trip
// per element, the core overlaps W dependent-load chains, as the C90
// overlapped 64 lanes of a vector gather. Cursors that finish their
// sublist refill from their worker's claimed range, and a worker refills
// that range from a shared counter by guided self-scheduling: each trip
// takes max(1, remaining / (2 T W)) sublists, so the many short sublists
// that random boundaries leave pay a fraction of a contended claim each.
// The last claims are single sublists, and they drain with shrinking
// parallelism, which is why the Planner sizes the sublist count by the
// paper's Eq. 5 trade-off (analysis/tuner.hpp host_sublists) rather than
// by the thread count.
//
// Phase 3 departs from the paper. The C90's cacheless vector gathers made
// a second walk of every sublist cheap; here it would be a second pointer
// chase with a random store per hop. Instead, as in Helman and JaJa's SMP
// list ranking (ALENEX 1999), phase 1 overwrites each record it has read
// with the vertex's sublist id and its exclusive prefix within the
// sublist (a rank's count in word 0, a scan's prefix in word 1), and
// phase 3 is one pass in array order: out[v] = op(headscan[sublist(v)],
// prefix(v)). A slab therefore serves one run. KernelTier names what ran:
// kPackedCursors for every sublist run, kListArrays for the serial walk.
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
// plan_host. Workers come from one persistent team per calling thread
// (core/worker_team.cpp), whose idle helpers yield and then park, so a
// co-tenant process keeps its cores.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "baselines/serial_walk.hpp"
#include "core/kernel_tier.hpp"
#include "core/workspace.hpp"
#include "lists/encode.hpp"
#include "lists/linked_list.hpp"
#include "lists/ops.hpp"
#include "support/rng.hpp"

namespace lr90::host_exec {

/// Execution shape of one run, from analysis/tuner.hpp plan_host (the
/// one host planning path).
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
  /// The walk from the head meets no self-loop tail (a malformed list):
  /// the run stopped without an answer.
  bool no_tail = false;
  std::size_t sublists = 0;   ///< sublists used (0 = serial walk)
  /// What ran: kPackedCursors over the record slab (every sublist run),
  /// kListArrays on the serial walk, kAuto when nothing ran (empty list).
  KernelTier tier = KernelTier::kAuto;

  // Per-phase wall clock, for parallel-efficiency reporting (zero on the
  // serial walk, which has no phases). build_ns covers the slab build,
  // boundary choice and head collection.
  double build_ns = 0.0;   ///< slab build + boundaries + heads
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
/// the hardware thread count).
inline unsigned effective_threads(unsigned requested) {
  if (requested > 0) return std::min(requested, kMaxThreads);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? std::min(hw, kMaxThreads) : 1;
}

/// Runs body(ctx) on the calling thread and on up to `threads` - 1 helpers
/// of the calling thread's worker team, and returns once every helper
/// that entered the region has returned (core/worker_team.cpp). Called
/// from inside a region, it runs body alone. run_workers is the typed
/// front end.
void run_on_team(unsigned threads, void (*body)(void*) noexcept, void* ctx);

/// Runs fn() concurrently on up to `threads` workers and waits for all of
/// them: the one worker-orchestration primitive every parallel kernel
/// here uses. The calling thread is one worker; the others are helpers of
/// its persistent team, started on first use and joined when the thread
/// exits. A team may be smaller than requested: a helper that cannot be
/// started, or that has not entered by the time the caller's fn()
/// returns, does not run fn at all. Workers must therefore divide their
/// work dynamically (the kernels here claim fixed blocks from an atomic
/// counter) rather than by worker id, and the caller's fn() must return
/// only once no work is left to claim. fn must not throw: an exception
/// escaping it ends the program.
template <class Fn>
void run_workers(unsigned threads, Fn&& fn) {
  threads = std::clamp(threads, 1u, kMaxThreads);
  if (threads == 1) {
    fn();
    return;
  }
  using F = std::remove_reference_t<Fn>;
  run_on_team(
      threads, [](void* f) noexcept { (*static_cast<F*>(f))(); },
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
}

/// The b-th of `blocks` contiguous balanced ranges over `count` items
/// (empty ranges when b >= count are fine).
inline std::pair<std::size_t, std::size_t> block_range(std::size_t count,
                                                       std::size_t blocks,
                                                       std::size_t b) {
  const std::size_t base = count / blocks;
  const std::size_t extra = count % blocks;
  const std::size_t begin = b * base + std::min(b, extra);
  return {begin, begin + base + (b < extra ? 1 : 0)};
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

/// Calls body(begin, end) once for each of `threads` contiguous balanced
/// ranges of [0, n), spread over `threads` workers: the array-order
/// passes (the slab build and phase 3). Workers claim range ids from a
/// shared counter, so coverage is exact whatever team size run_workers
/// actually delivers.
template <class Body>
void for_each_range(unsigned threads, std::size_t n, Body&& body) {
  const std::size_t blocks = std::max(1u, threads);
  std::atomic<std::size_t> next{0};
  run_workers(threads, [&] {
    for (std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
         b < blocks; b = next.fetch_add(1, std::memory_order_relaxed)) {
      const auto [begin, end] = block_range(n, blocks, b);
      body(begin, end);
    }
  });
}

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

/// Words per vertex record: one for a rank (`kOnes`), two for a scan.
template <bool kOnes>
inline constexpr std::size_t kRecordWords = kOnes ? 1 : 2;

/// Builds the record slab of vertices [0, n) in ws.slab(): word 0 =
/// hot_pack(false, kHotNoSublist, next[v]), and for a scan word 1 =
/// value[v]. One pass that writes every word, split into per-thread
/// index ranges; the run flags its boundaries afterwards.
template <bool kOnes>
packed_t* build_slab(std::size_t n, const index_t* next,
                     const value_t* value, unsigned threads, Workspace& ws) {
  constexpr std::size_t kW = kRecordWords<kOnes>;
  packed_t* words = ws.slab(kW * n);
  for_each_range(threads, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      packed_t* r = words + kW * v;
      r[0] = hot_pack(false, kHotNoSublist, next[v]);
      if constexpr (!kOnes) r[1] = static_cast<packed_t>(value[v]);
    }
  });
  return words;
}

/// One step of a cursor: whether `v` ends its sublist, its successor, and
/// its value.
struct Hop {
  bool tail;
  index_t link;
  value_t value;
};

/// Hop source over the record slab: one random load per element (a
/// scan's word 1 shares word 0's cache line). `kOnes` reads the constant
/// 1 for every value (ranking).
template <bool kOnes>
struct SlabHops {
  const packed_t* words;
  Hop operator()(index_t v) const {
    const packed_t* r = words + kRecordWords<kOnes> * v;
    value_t value = 1;
    if constexpr (!kOnes) value = static_cast<value_t>(r[1]);
    return {hot_tail(r[0]), hot_link(r[0]), value};
  }
  void prefetch(index_t v) const {
    prefetch_ro(words + kRecordWords<kOnes> * v);
  }
};

/// The sublist traversal kernel: walks all `k` sublists over `threads`
/// workers, each keeping up to `W` cursors in flight. Per element: one
/// hop from `hops` (see SlabHops), a prefetch of the next hop, then
/// `step(sublist, vertex, value, acc)`; at a sublist tail,
/// `finish(sublist, tail_vertex, acc)` runs and the cursor refills with
/// the worker's next claimed sublist. `init(sublist)` seeds the
/// accumulator. The step runs after the vertex's hop is read, so it may
/// overwrite what the hop source holds for that vertex.
///
/// Claims are guided self-scheduling: a worker whose own range is empty
/// takes max(1, remaining / (2 T W)) sublists from the shared counter in
/// one CAS. The many short sublists that random boundaries leave then
/// cost a fraction of a contended claim each, while the last claims are
/// still single sublists: the final < W sublists drain with shrinking
/// parallelism, which is why the Planner sizes k by host_sublists.
template <class Hops, class AccInit, class Step, class Finish>
void interleave_sublists(const Hops& hops, const index_t* heads,
                         std::size_t k, unsigned threads, unsigned W,
                         AccInit init, Step step, Finish finish) {
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
      hops.prefetch(heads[j]);
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
        if (!h.tail) hops.prefetch(h.link);
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
/// no_tail) before the slab is built; a vertex no sublist head reaches
/// keeps its answer slot untouched. `kOnes` treats every value as 1
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

  constexpr std::size_t kW = kRecordWords<kOnes>;
  const unsigned threads = std::max(1u, plan.threads);
  const unsigned W = std::clamp(plan.interleave, 1u, kMaxInterleave);
  using Clock = std::chrono::steady_clock;
  const auto since_ns = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
  };
  const auto t_build = Clock::now();
  const index_t* next = list.next.data();
  packed_t* words =
      build_slab<kOnes>(n, next, list.value.data(), threads, ws);
  // The global tail and want - 1 picks, flagged in word 0's tail bit.
  draw_boundaries(n, want - 1, ws, global_tail, [words](index_t v) {
    packed_t& w = words[kW * v];
    if (hot_tail(w)) return false;
    w |= kHotTailBit;
    return true;
  });
  // Sublist heads: the whole-list head, then sublist i + 1 at the i-th
  // pick's successor. A pick whose successor is itself a tail yields a
  // single-vertex sublist.
  ws.fit_uninit(ws.heads, want);
  ws.heads.clear();
  ws.heads.push_back(list.head);
  for (const index_t r : ws.picks) ws.heads.push_back(next[r]);
  const index_t* heads = ws.heads.data();
  const std::size_t k = ws.heads.size();
  value_t* o = out.data();
  info.build_ns = since_ns(t_build);

  // Phase 1: per-sublist inclusive sums and tails. At each vertex the
  // step overwrites the record the hop has just loaded with what phase 3
  // needs: its sublist id j, flagged as a tail so that a malformed list
  // leading a second cursor there stops it, and its exclusive prefix
  // within the sublist -- a rank's count in word 0's low lane, a scan's
  // prefix in word 1.
  const auto t_phase1 = Clock::now();
  ws.fit(ws.sums, k, Op::identity());
  ws.fit(ws.tails, k, kNoVertex);
  interleave_sublists(
      SlabHops<kOnes>{words}, heads, k, threads, W,
      [](std::size_t) { return Op::identity(); },
      [words, op](index_t j, index_t v, value_t x, value_t& acc) {
        packed_t* r = words + kW * v;
        if constexpr (kOnes) {
          r[0] = hot_pack(true, j, static_cast<std::uint32_t>(acc));
        } else {
          r[0] = hot_pack(true, j, 0);
          r[1] = static_cast<packed_t>(acc);
        }
        acc = op(acc, x);
      },
      [&](index_t j, index_t v, value_t acc) {
        ws.sums[j] = acc;
        ws.tails[j] = v;
      });
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
  // build-time record, whose id kHotNoSublist is past k: it is skipped.
  const auto t_phase3 = Clock::now();
  const value_t* hs = ws.headscan.data();
  for_each_range(threads, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      const packed_t* r = words + kW * v;
      const std::size_t j = hot_sublist(r[0]);
      if (j >= k) continue;
      if constexpr (kOnes) {
        o[v] = op(hs[j], static_cast<value_t>(hot_link(r[0])));
      } else {
        o[v] = op(hs[j], static_cast<value_t>(r[1]));
      }
    }
  });
  info.phase3_ns = since_ns(t_phase3);

  info.interleave = W;
  info.threads = threads;
  info.sublists = k;
  info.tier = KernelTier::kPackedCursors;
  return info;
}

/// Exclusive list rank into `out`: the all-ones scan without ever
/// materializing a ones copy -- the one-word records carry no value, the
/// hops read the constant 1, and the serial walk writes positions
/// directly. Correct for any plan.
inline ExecInfo rank_into(const LinkedList& list, const HostPlan& plan,
                          Workspace& ws, std::span<value_t> out) {
  return scan_into<OpPlus, /*kOnes=*/true>(list, OpPlus{}, plan, ws, out);
}

}  // namespace lr90::host_exec
