// The host kernel's pieces (core/host_exec.hpp), below the Engine: the
// record slab must describe the list, the one cursor driver must walk
// every vertex exactly once over it, the array-order passes must cover
// every index once, and scan_into must report the tier, width and thread
// count that actually ran.
#include "core/host_exec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "lists/generators.hpp"
#include "lists/validate.hpp"
#include "test_util.hpp"

namespace lr90 {
namespace {

using host_exec::Hop;
using host_exec::kRecordWords;
using host_exec::SlabHops;

/// Builds `l`'s record slab in ws (`kOnes`: the rank's one-word records),
/// flags the global tail and `count` picks in it as scan_into does, and
/// returns the sublist heads the kernel would walk: the list head plus
/// each pick's successor.
template <bool kOnes = false>
std::vector<index_t> sublist_heads(const LinkedList& l, std::size_t count,
                                   Workspace& ws, unsigned threads = 2) {
  packed_t* words = host_exec::build_slab<kOnes>(
      l.size(), l.next.data(), l.value.data(), threads, ws);
  host_exec::draw_boundaries(l.size(), count, ws, l.find_tail(),
                             [words](index_t v) {
                               packed_t& w = words[kRecordWords<kOnes> * v];
                               if (hot_tail(w)) return false;
                               w |= kHotTailBit;
                               return true;
                             });
  std::vector<index_t> heads{l.head};
  for (const index_t r : ws.picks) heads.push_back(l.next[r]);
  return heads;
}

/// True iff `v` ends its sublist in ws's slab of `kOnes` records.
template <bool kOnes = false>
bool flagged(const Workspace& ws, index_t v) {
  return hot_tail(ws.packed[kRecordWords<kOnes> * v]);
}

TEST(HopSources, SlabHopsDescribeTheListWhateverItsValues) {
  // A scan's two-word records carry every value whole, one past 32 bits
  // included; a rank's one-word records read the constant 1. Both flag
  // the global tail plus the picks, which the same RNG state draws alike
  // whatever stores the flags.
  Rng rng(1);
  LinkedList l = random_list(5000, rng, ValueInit::kSigned);
  l.value[17] = (value_t{1} << 40) + 3;
  l.value[18] = std::numeric_limits<value_t>::min();
  Workspace ws;
  const Rng drawn = ws.rng;
  sublist_heads(l, 40, ws);
  const std::vector<index_t> picks = ws.picks;
  const SlabHops<false> slab{ws.packed.data()};
  std::vector<bool> tail(l.size());
  for (index_t v = 0; v < l.size(); ++v) {
    const Hop h = slab(v);
    EXPECT_EQ(h.link, l.next[v]) << "vertex " << v;
    EXPECT_EQ(h.value, l.value[v]) << "vertex " << v;
    EXPECT_EQ(hot_sublist(ws.packed[2 * v]), kHotNoSublist);
    tail[v] = h.tail;
  }
  EXPECT_EQ(std::count(tail.begin(), tail.end(), true), 41)
      << "40 picks plus the global tail";
  EXPECT_TRUE(tail[l.find_tail()]);

  ws.rng = drawn;
  sublist_heads</*kOnes=*/true>(l, 40, ws, 1);
  EXPECT_EQ(ws.picks, picks);
  const SlabHops<true> ones{ws.packed.data()};
  for (index_t v = 0; v < l.size(); ++v) {
    const Hop h = ones(v);
    EXPECT_EQ(h.link, l.next[v]) << "vertex " << v;
    EXPECT_EQ(h.value, 1);
    EXPECT_EQ(h.tail, tail[v]) << "vertex " << v;
  }

  // A caller's own flag store (a bitmap) draws the same picks too.
  std::vector<std::uint8_t> bitmap(l.size(), 0);
  ws.rng = drawn;
  host_exec::draw_boundaries(l.size(), 40, ws, l.find_tail(),
                             [&bitmap](index_t v) {
                               if (bitmap[v] != 0) return false;
                               bitmap[v] = 1;
                               return true;
                             });
  EXPECT_EQ(ws.picks, picks);
}

TEST(HopSources, DriverVisitsEveryVertexOnceOverEitherRecord) {
  // Three workers x W=4 over 97 sublists: every vertex is stepped exactly
  // once, every sublist finishes once at a boundary, over the scan's
  // two-word records and the rank's one-word records alike, and both
  // find the same sublist tails.
  Rng rng(2);
  const LinkedList l = random_list(20000, rng, ValueInit::kSigned);
  Workspace scan_ws;
  Workspace rank_ws;
  const std::vector<index_t> heads = sublist_heads(l, 96, scan_ws, 3);
  ASSERT_EQ(sublist_heads<true>(l, 96, rank_ws, 3), heads);
  const std::size_t k = heads.size();

  const auto walk = [&](const auto& hops, const Workspace& ws,
                        bool ones) {
    std::vector<std::atomic<int>> visits(l.size());
    std::vector<index_t> owner(l.size(), kNoVertex);
    std::vector<value_t> sums(k, 0);
    std::vector<index_t> tails(k, kNoVertex);
    std::vector<int> finishes(k, 0);
    host_exec::interleave_sublists(
        hops, heads.data(), k, /*threads=*/3, /*W=*/4,
        [](std::size_t) { return value_t{0}; },
        [&](index_t j, index_t v, value_t x, value_t& acc) {
          visits[v].fetch_add(1, std::memory_order_relaxed);
          owner[v] = j;
          acc += x;
        },
        [&](index_t j, index_t v, value_t acc) {
          sums[j] = acc;
          tails[j] = v;
          ++finishes[j];
        });
    const auto is_tail = [&](index_t v) {
      return ones ? flagged<true>(ws, v) : flagged<false>(ws, v);
    };
    for (index_t v = 0; v < l.size(); ++v)
      EXPECT_EQ(visits[v].load(), 1) << "vertex " << v;
    // The step is told the sublist its vertex belongs to.
    for (std::size_t j = 0; j < k; ++j) {
      for (index_t v = heads[j];; v = l.next[v]) {
        EXPECT_EQ(owner[v], j) << "vertex " << v;
        if (is_tail(v)) break;
      }
    }
    value_t total = 0;
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_EQ(finishes[j], 1) << "sublist " << j;
      EXPECT_TRUE(tails[j] != kNoVertex && is_tail(tails[j]))
          << "sublist " << j << " did not end at a boundary";
      total += sums[j];
    }
    value_t want = 0;
    for (const value_t x : l.value) want += ones ? 1 : x;
    EXPECT_EQ(total, want);
    return tails;
  };
  const std::vector<index_t> scan_tails =
      walk(SlabHops<false>{scan_ws.packed.data()}, scan_ws, false);
  const std::vector<index_t> rank_tails =
      walk(SlabHops<true>{rank_ws.packed.data()}, rank_ws, true);
  EXPECT_EQ(scan_tails, rank_tails);
}

TEST(HopSources, GuidedClaimsCoverShortSublistsOnceAtEveryThreadCount) {
  // Sublists of 1-2 vertices, the short end of what random boundaries
  // leave: both far more of them than cursors (k >> T x W) and fewer
  // (k < T x W). Each claim takes max(1, remaining / (2 T W)) sublists;
  // one that took none would make no progress and re-walk a sublist
  // forever, so a second finish stops the run here instead of hanging it.
  constexpr unsigned kW = 8;
  for (const std::size_t n : {std::size_t{30000}, std::size_t{6}}) {
    Rng rng(5);
    const LinkedList l = random_list(n, rng, ValueInit::kSigned);
    std::vector<packed_t> words(2 * n);
    std::vector<index_t> heads;
    std::size_t run = 0;
    std::size_t len = 1;
    for_each_in_order(l, [&](index_t v, std::size_t) {
      if (run++ == 0) heads.push_back(v);
      const bool tail = run == len || l.next[v] == v;
      words[2 * v] = hot_pack(tail, kHotNoSublist, l.next[v]);
      words[2 * v + 1] = static_cast<packed_t>(l.value[v]);
      if (tail) {
        run = 0;
        len = 1 + rng.uniform(2);
      }
    });
    const std::size_t k = heads.size();
    const SlabHops<false> hops{words.data()};
    for (const unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                   " T=" + std::to_string(threads));
      if (n < 10) {
        ASSERT_LT(k, std::size_t{threads} * kW);
      }
      std::vector<std::atomic<int>> visits(n);
      std::vector<std::atomic<int>> finishes(k);
      std::vector<index_t> tails(k, kNoVertex);
      host_exec::interleave_sublists(
          hops, heads.data(), k, threads, kW,
          [](std::size_t) { return value_t{0}; },
          [&](index_t, index_t v, value_t x, value_t& acc) {
            visits[v].fetch_add(1, std::memory_order_relaxed);
            acc += x;
          },
          [&](index_t j, index_t v, value_t) {
            tails[j] = v;
            if (finishes[j].fetch_add(1, std::memory_order_relaxed) != 0) {
              ADD_FAILURE() << "sublist " << j << " finished twice";
              std::fflush(stdout);
              std::abort();  // the driver would re-walk it forever
            }
          });
      for (index_t v = 0; v < n; ++v)
        EXPECT_EQ(visits[v].load(), 1) << "vertex " << v;
      for (std::size_t j = 0; j < k; ++j) {
        EXPECT_EQ(finishes[j].load(), 1) << "sublist " << j;
        EXPECT_TRUE(tails[j] != kNoVertex && hot_tail(words[2 * tails[j]]))
            << "sublist " << j << " did not end at a boundary";
      }
    }
  }
}

TEST(ForEachRange, CoversEveryIndexOnceInBalancedRanges) {
  // The array-order passes (the slab build and phase 3) split [0, n)
  // into T contiguous ranges that workers claim from one counter: every
  // range is handed out exactly once, its length is within one of n / T,
  // and every index lands in exactly one range, whatever team size
  // run_workers delivers, T past the list's length included.
  for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{5}, std::size_t{1000},
          std::size_t{100003}}) {
      SCOPED_TRACE("T=" + std::to_string(threads) +
                   " n=" + std::to_string(n));
      std::vector<std::atomic<int>> visits(n);
      std::atomic<unsigned> calls{0};
      std::atomic<int> unbalanced{0};
      host_exec::for_each_range(
          threads, n, [&](std::size_t begin, std::size_t end) {
            calls.fetch_add(1, std::memory_order_relaxed);
            const std::size_t len = end - begin;
            if (len < n / threads || len > n / threads + 1)
              unbalanced.fetch_add(1, std::memory_order_relaxed);
            for (std::size_t i = begin; i < end; ++i)
              visits[i].fetch_add(1, std::memory_order_relaxed);
          });
      EXPECT_EQ(calls.load(), threads);
      EXPECT_EQ(unbalanced.load(), 0);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ScanInto, ReportsTheHopSourceThatRan) {
  // Every sublist run walks the record slab, whatever the operator and
  // however wide its values; only the serial walk reads the list arrays.
  Rng rng(3);
  const LinkedList l = random_list(10000, rng, ValueInit::kSigned);
  LinkedList wide = l;
  wide.value[4321] = (value_t{1} << 31) + 5;
  host_exec::HostPlan plan;
  plan.threads = 2;
  plan.sublists = 64;
  plan.interleave = 8;
  Workspace ws;
  std::vector<value_t> out(l.size());

  const auto expect_sublists = [&](const host_exec::ExecInfo& info) {
    EXPECT_EQ(info.tier, KernelTier::kPackedCursors);
    EXPECT_EQ(info.interleave, 8u);
    EXPECT_EQ(info.threads, 2u);
    EXPECT_EQ(info.sublists, 64u);
  };
  {
    SCOPED_TRACE("rank");
    expect_sublists(host_exec::rank_into(l, plan, ws, out));
    testutil::expect_scan_eq(out, reference_rank(l));
    // Phase 2 finds a tail's successor sublist by searching the picks:
    // they must be sorted, and sublist i + 1 must start at the successor
    // of the i-th pick.
    for (std::size_t i = 1; i < ws.picks.size(); ++i)
      EXPECT_LT(ws.picks[i - 1], ws.picks[i]) << "pick " << i;
    ASSERT_EQ(ws.heads.size(), 64u);
    ASSERT_EQ(ws.picks.size(), 63u);
    EXPECT_EQ(ws.heads[0], l.head);
    for (std::size_t i = 0; i < ws.picks.size(); ++i)
      EXPECT_EQ(ws.heads[i + 1], l.next[ws.picks[i]]) << "pick " << i;
  }
  {
    SCOPED_TRACE("plus in 32 bits");
    expect_sublists(host_exec::scan_into(l, OpPlus{}, plan, ws, out));
    testutil::expect_scan_eq(out, testutil::expected_scan(l, OpPlus{}));
  }
  {
    SCOPED_TRACE("plus past 32 bits");
    expect_sublists(host_exec::scan_into(wide, OpPlus{}, plan, ws, out));
    testutil::expect_scan_eq(out, testutil::expected_scan(wide, OpPlus{}));
  }
  {
    SCOPED_TRACE("affine");
    expect_sublists(host_exec::scan_into(l, OpAffine{}, plan, ws, out));
    testutil::expect_scan_eq(out, testutil::expected_scan(l, OpAffine{}));
  }
  {
    SCOPED_TRACE("serial walk");
    host_exec::HostPlan serial;  // fewer than two sublists
    const host_exec::ExecInfo info =
        host_exec::scan_into(l, OpPlus{}, serial, ws, out);
    EXPECT_EQ(info.tier, KernelTier::kListArrays);
    EXPECT_EQ(info.interleave, 1u);
    EXPECT_EQ(info.threads, 1u);
    EXPECT_EQ(info.sublists, 0u);
    testutil::expect_scan_eq(out, testutil::expected_scan(l, OpPlus{}));
  }
  {
    SCOPED_TRACE("empty list");
    const LinkedList empty;
    const host_exec::ExecInfo info =
        host_exec::rank_into(empty, plan, ws, std::span<value_t>());
    EXPECT_EQ(info.tier, KernelTier::kAuto);
    EXPECT_EQ(info.interleave, 0u);
    EXPECT_EQ(info.threads, 0u);
  }
}

TEST(ScanInto, VerticesNoHeadReachesAreLeftAlone) {
  // Validation off, forced sublists: a valid head-to-tail path plus a
  // disjoint 2-cycle that no head reaches. The run returns, the path's
  // answers match the serial walk, the cycle's answers are untouched and
  // its records still hold what the build wrote, and phase 3 skips them:
  // their sublist id is kHotNoSublist, past k, so an unguarded phase 3
  // would index headscan out of range.
  Rng rng(6);
  const std::size_t path = 1u << 14;
  LinkedList l = random_list(path, rng, ValueInit::kSigned);
  const auto a = static_cast<index_t>(path);
  const auto b = static_cast<index_t>(path + 1);
  l.next.push_back(b);  // a -> b -> a
  l.next.push_back(a);
  l.value.push_back(3);
  l.value.push_back(4);
  const std::size_t n = l.size();

  host_exec::HostPlan plan;
  plan.threads = 2;
  plan.sublists = 200;
  plan.interleave = 8;
  // A boundary seed whose draw leaves the cycle without a pick, so no
  // sublist head lands in it.
  std::uint64_t seed = 1;
  for (;; ++seed) {
    Workspace probe;
    probe.rng = Rng(seed);
    std::vector<std::uint8_t> picked(n, 0);
    host_exec::draw_boundaries(n, plan.sublists - 1, probe, l.find_tail(),
                               [&picked](index_t v) {
                                 if (picked[v] != 0) return false;
                                 picked[v] = 1;
                                 return true;
                               });
    if (picked[a] == 0 && picked[b] == 0) break;
  }
  constexpr value_t kUntouched = 0x5a5a5a5a;
  // Runs `kernel` on a fresh workspace and checks what it left; `ones`
  // names the rank's one-word records.
  const auto run = [&](auto kernel, const std::vector<value_t>& want,
                       bool ones) {
    Workspace ws;
    ws.rng = Rng(seed);
    std::vector<value_t> out(n, kUntouched);
    const host_exec::ExecInfo info = kernel(ws, std::span<value_t>(out));
    EXPECT_FALSE(info.no_tail);
    EXPECT_EQ(info.tier, KernelTier::kPackedCursors);
    EXPECT_EQ(info.sublists, plan.sublists);
    for (index_t v = 0; v < path; ++v) {
      if (out[v] != want[v]) {
        ADD_FAILURE() << "first mismatch at vertex " << v;
        break;
      }
    }
    const std::size_t words = ones ? 1 : 2;
    for (const index_t v : {a, b}) {
      SCOPED_TRACE(v);
      EXPECT_EQ(out[v], kUntouched);
      const packed_t w = ws.packed[words * v];
      EXPECT_EQ(w, hot_pack(false, kHotNoSublist, l.next[v]));
      EXPECT_GE(hot_sublist(w), info.sublists);
      if (!ones) {
        EXPECT_EQ(static_cast<value_t>(ws.packed[2 * v + 1]), l.value[v]);
      }
    }
  };
  std::vector<value_t> rank(n, 0);
  ASSERT_TRUE(serial_rank_host(l, rank));
  {
    SCOPED_TRACE("rank");
    run([&](Workspace& ws, std::span<value_t> out) {
          return host_exec::rank_into(l, plan, ws, out);
        },
        rank, true);
  }
  {
    SCOPED_TRACE("plus");
    run([&](Workspace& ws, std::span<value_t> out) {
          return host_exec::scan_into(l, OpPlus{}, plan, ws, out);
        },
        testutil::expected_scan(l, OpPlus{}), false);
  }
  {
    SCOPED_TRACE("affine");
    run([&](Workspace& ws, std::span<value_t> out) {
          return host_exec::scan_into(l, OpAffine{}, plan, ws, out);
        },
        testutil::expected_scan(l, OpAffine{}), false);
  }
}

TEST(ScanInto, RefusesATaillessListBeforeMarkingBoundaries) {
  // A list whose links never reach a self-loop: the sublist kernel
  // reports no_tail before it builds a slab or marks a boundary; the
  // serial walk stops after n hops and reports the same.
  Rng rng(7);
  LinkedList ring = random_list(4096, rng);
  ring.next[ring.find_tail()] = ring.head;
  ring.tail = kNoVertex;
  host_exec::HostPlan plan;
  plan.threads = 2;
  plan.sublists = 64;
  plan.interleave = 4;
  Workspace ws;
  std::vector<value_t> out(ring.size(), 0);
  EXPECT_TRUE(host_exec::rank_into(ring, plan, ws, out).no_tail);
  EXPECT_TRUE(
      host_exec::scan_into(ring, OpAffine{}, plan, ws, out).no_tail);
  EXPECT_TRUE(ws.packed.empty());
  EXPECT_TRUE(ws.picks.empty());
  EXPECT_EQ(ws.packed_builds(), 0u);
  EXPECT_TRUE(
      host_exec::scan_into(ring, OpPlus{}, host_exec::HostPlan{}, ws, out)
          .no_tail);
}

}  // namespace
}  // namespace lr90
