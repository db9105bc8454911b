// The host kernel's pieces (core/host_exec.hpp), below the Engine: the two
// hop sources must describe the same list, the one cursor driver must
// walk every vertex exactly once over either of them, and scan_into must
// report the hop source, width and thread count that actually ran.
#include "core/host_exec.hpp"

#include <gtest/gtest.h>

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
using host_exec::ListHops;
using host_exec::SlabHops;

/// Picks `count` boundaries into ws twice from one RNG state -- into the
/// tags, and into the tail bits of a freshly built slab (`kOnes` packs the
/// rank's lane) -- and returns the sublist heads the kernel would walk:
/// the list head plus each pick's successor.
template <bool kOnes = false>
std::vector<index_t> sublist_heads(const LinkedList& l, std::size_t count,
                                   Workspace& ws, unsigned threads = 2) {
  const Rng drawn = ws.rng;
  host_exec::choose_boundaries(l, count, ws, l.find_tail());
  const std::vector<index_t> tag_picks = ws.picks;
  EXPECT_TRUE(host_exec::build_packed<kOnes>(l, OpPlus{}, threads, ws));
  ws.rng = drawn;
  host_exec::choose_slab_boundaries(count, ws, l.find_tail());
  EXPECT_EQ(ws.picks, tag_picks) << "both flag stores draw the same picks";
  std::vector<index_t> heads{l.head};
  for (const index_t r : ws.picks) heads.push_back(l.next[r]);
  return heads;
}

void expect_same_hop(const Hop& a, const Hop& b, index_t v) {
  EXPECT_EQ(a.tail, b.tail) << "vertex " << v;
  EXPECT_EQ(a.link, b.link) << "vertex " << v;
  EXPECT_EQ(a.value, b.value) << "vertex " << v;
}

TEST(HopSources, SlabAndListArraysYieldTheSameHops) {
  Rng rng(1);
  const LinkedList l = random_list(5000, rng, ValueInit::kSigned);
  Workspace ws;
  const Rng drawn = ws.rng;
  sublist_heads(l, 40, ws);
  const SlabHops slab{ws.packed.data()};
  const ListHops<false> arrays{l.next.data(), l.value.data(),
                               ws.tag.data()};
  std::size_t tails = 0;
  for (index_t v = 0; v < l.size(); ++v) {
    expect_same_hop(slab(v), arrays(v), v);
    tails += arrays(v).tail ? 1 : 0;
  }
  EXPECT_EQ(tails, 41u) << "40 picks plus the global tail";

  // Ranking: both sources substitute the constant 1 for every value.
  ws.rng = drawn;
  sublist_heads</*kOnes=*/true>(l, 40, ws, 1);
  const SlabHops ones{ws.packed.data()};
  const ListHops<true> ones_arrays{l.next.data(), nullptr, ws.tag.data()};
  for (index_t v = 0; v < l.size(); ++v) {
    expect_same_hop(ones(v), ones_arrays(v), v);
    EXPECT_EQ(ones_arrays(v).value, 1);
  }
}

TEST(HopSources, DriverVisitsEveryVertexOnceOverEitherSource) {
  // Three workers x W=4 over 97 sublists: every vertex is stepped exactly
  // once, every sublist finishes once at a boundary, and both hop sources
  // produce the same per-sublist totals.
  Rng rng(2);
  const LinkedList l = random_list(20000, rng, ValueInit::kSigned);
  Workspace ws;
  const std::vector<index_t> heads = sublist_heads(l, 96, ws, 3);
  const std::size_t k = heads.size();

  const auto walk = [&](const auto& hops) {
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
    for (index_t v = 0; v < l.size(); ++v)
      EXPECT_EQ(visits[v].load(), 1) << "vertex " << v;
    // The step is told the sublist its vertex belongs to.
    for (std::size_t j = 0; j < k; ++j) {
      for (index_t v = heads[j];; v = l.next[v]) {
        EXPECT_EQ(owner[v], j) << "vertex " << v;
        if (ws.tag[v] != 0) break;
      }
    }
    value_t total = 0;
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_EQ(finishes[j], 1) << "sublist " << j;
      EXPECT_TRUE(tails[j] != kNoVertex && ws.tag[tails[j]] != 0)
          << "sublist " << j << " did not end at a boundary";
      total += sums[j];
    }
    value_t want = 0;
    for (const value_t x : l.value) want += x;
    EXPECT_EQ(total, want);
    return sums;
  };
  const std::vector<value_t> slab_sums = walk(SlabHops{ws.packed.data()});
  const std::vector<value_t> array_sums = walk(
      ListHops<false>{l.next.data(), l.value.data(), ws.tag.data()});
  EXPECT_EQ(slab_sums, array_sums);
}

TEST(HopSources, AheadSeesEveryVertexOnceBeforeItsStep) {
  // The driver's `ahead` hook (phase 3's write prefetch rides it) is
  // called exactly once per vertex, always before that vertex's step.
  Rng rng(4);
  const LinkedList l = random_list(20000, rng);
  Workspace ws;
  const std::vector<index_t> heads = sublist_heads<true>(l, 96, ws, 3);
  std::vector<std::atomic<int>> ahead(l.size());
  std::atomic<int> early{0};
  host_exec::interleave_sublists(
      SlabHops{ws.packed.data()}, heads.data(), heads.size(),
      /*threads=*/3, /*W=*/4, [](std::size_t) { return value_t{0}; },
      [&](index_t, index_t v, value_t, value_t&) {
        if (ahead[v].load(std::memory_order_relaxed) != 1)
          early.fetch_add(1, std::memory_order_relaxed);
      },
      [](index_t, index_t, value_t) {},
      [&](index_t v) { ahead[v].fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(early.load(), 0) << "a step ran before its vertex's ahead";
  for (index_t v = 0; v < l.size(); ++v)
    EXPECT_EQ(ahead[v].load(), 1) << "vertex " << v;
}

TEST(HopSources, GuidedClaimsCoverShortSublistsOnceAtEveryThreadCount) {
  // The shard passes' shape: sublists of 1-2 vertices, both far more of
  // them than cursors (k >> T x W) and fewer (k < T x W). Each claim takes
  // max(1, remaining / (2 T W)) sublists; one that took none would make
  // no progress and re-walk a sublist forever, so a second finish stops
  // the run here instead of hanging it.
  constexpr unsigned kW = 8;
  for (const std::size_t n : {std::size_t{30000}, std::size_t{6}}) {
    Rng rng(5);
    const LinkedList l = random_list(n, rng, ValueInit::kSigned);
    std::vector<std::uint32_t> tag(n, 0);
    std::vector<index_t> heads;
    std::size_t run = 0;
    std::size_t len = 1;
    for_each_in_order(l, [&](index_t v, std::size_t) {
      if (run++ == 0) heads.push_back(v);
      if (run == len || l.next[v] == v) {
        tag[v] = host_exec::kTagTail;
        run = 0;
        len = 1 + rng.uniform(2);
      }
    });
    const std::size_t k = heads.size();
    const ListHops<false> hops{l.next.data(), l.value.data(), tag.data()};
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
        EXPECT_TRUE(tails[j] != kNoVertex && tag[tails[j]] != 0)
            << "sublist " << j << " did not end at a boundary";
      }
    }
  }
}

TEST(ScanInto, ReportsTheHopSourceThatRan) {
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

  const auto expect_sublists = [&](const host_exec::ExecInfo& info,
                                   KernelTier tier) {
    EXPECT_EQ(info.tier, tier);
    EXPECT_EQ(info.packed, tier == KernelTier::kPackedCursors);
    EXPECT_EQ(info.interleave, 8u);
    EXPECT_EQ(info.threads, 2u);
    EXPECT_EQ(info.sublists, 64u);
  };
  {
    SCOPED_TRACE("rank");
    expect_sublists(host_exec::rank_into(l, plan, ws, out),
                    KernelTier::kPackedCursors);
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
    SCOPED_TRACE("plus in the lane");
    expect_sublists(host_exec::scan_into(l, OpPlus{}, plan, ws, out),
                    KernelTier::kPackedCursors);
    testutil::expect_scan_eq(out, testutil::expected_scan(l, OpPlus{}));
  }
  {
    SCOPED_TRACE("plus past the lane");
    expect_sublists(host_exec::scan_into(wide, OpPlus{}, plan, ws, out),
                    KernelTier::kListArrays);
    testutil::expect_scan_eq(out, testutil::expected_scan(wide, OpPlus{}));
  }
  {
    SCOPED_TRACE("affine");
    expect_sublists(host_exec::scan_into(l, OpAffine{}, plan, ws, out),
                    KernelTier::kListArrays);
    testutil::expect_scan_eq(out, testutil::expected_scan(l, OpAffine{}));
  }
  {
    SCOPED_TRACE("serial walk");
    host_exec::HostPlan serial;  // fewer than two sublists
    const host_exec::ExecInfo info =
        host_exec::scan_into(l, OpPlus{}, serial, ws, out);
    EXPECT_EQ(info.tier, KernelTier::kListArrays);
    EXPECT_FALSE(info.packed);
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
  // answers match the serial walk, the cycle's slab words or tags are
  // still what the build left, and phase 3 skips them: their ids decode
  // to k or more, so an unguarded phase 3 would index headscan out of
  // range.
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
    host_exec::choose_boundaries(l, plan.sublists - 1, probe, l.find_tail());
    if (probe.tag[a] == 0 && probe.tag[b] == 0) break;
  }
  constexpr value_t kUntouched = 0x5a5a5a5a;
  // Runs `kernel` on a fresh workspace and checks what it left; `ones`
  // names the rank's constant value lane.
  const auto run = [&](auto kernel, const std::vector<value_t>& want,
                       bool ones) {
    Workspace ws;
    ws.rng = Rng(seed);
    std::vector<value_t> out(n, kUntouched);
    const host_exec::ExecInfo info = kernel(ws, std::span<value_t>(out));
    EXPECT_FALSE(info.no_tail);
    EXPECT_EQ(info.sublists, plan.sublists);
    for (index_t v = 0; v < path; ++v) {
      if (out[v] != want[v]) {
        ADD_FAILURE() << "first mismatch at vertex " << v;
        break;
      }
    }
    for (const index_t v : {a, b}) {
      SCOPED_TRACE(v);
      EXPECT_EQ(out[v], kUntouched);
      if (info.packed) {
        const value_t lane = ones ? 1 : l.value[v];
        EXPECT_EQ(ws.packed[v],
                  hot_pack(false, l.next[v],
                           static_cast<std::uint32_t>(lane)));
        EXPECT_GE(hot_link(ws.packed[v]), info.sublists);
      } else {
        EXPECT_EQ(ws.tag[v], 0u);
      }
    }
    return info.packed;
  };
  std::vector<value_t> rank(n, 0);
  ASSERT_TRUE(serial_rank_host(l, rank));
  EXPECT_TRUE(run(
      [&](Workspace& ws, std::span<value_t> out) {
        return host_exec::rank_into(l, plan, ws, out);
      },
      rank, true));
  EXPECT_TRUE(run(
      [&](Workspace& ws, std::span<value_t> out) {
        return host_exec::scan_into(l, OpPlus{}, plan, ws, out);
      },
      testutil::expected_scan(l, OpPlus{}), false));
  EXPECT_FALSE(run(
      [&](Workspace& ws, std::span<value_t> out) {
        return host_exec::scan_into(l, OpAffine{}, plan, ws, out);
      },
      testutil::expected_scan(l, OpAffine{}), false));
}

TEST(ScanInto, RefusesATaillessListBeforeMarkingBoundaries) {
  // A list whose links never reach a self-loop: the sublist kernel
  // reports no_tail and leaves the tags unfitted; the serial walk stops
  // after n hops and reports the same.
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
  EXPECT_TRUE(ws.tag.empty());
  EXPECT_EQ(ws.packed_builds(), 0u);
  EXPECT_TRUE(
      host_exec::scan_into(ring, OpPlus{}, host_exec::HostPlan{}, ws, out)
          .no_tail);
}

}  // namespace
}  // namespace lr90
