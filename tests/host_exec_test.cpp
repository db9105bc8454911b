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

/// Picks `count` boundaries into ws and returns the sublist heads the
/// kernel would walk: the list head plus each pick's successor.
std::vector<index_t> sublist_heads(const LinkedList& l, std::size_t count,
                                   Workspace& ws) {
  host_exec::choose_boundaries(l, count, ws, l.find_tail());
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
  sublist_heads(l, 40, ws);

  ASSERT_TRUE(host_exec::build_packed<false>(l, OpPlus{}, 2, ws));
  const SlabHops slab{ws.packed.data()};
  const ListHops<false> arrays{l.next.data(), l.value.data(),
                               ws.is_tail.data()};
  std::size_t tails = 0;
  for (index_t v = 0; v < l.size(); ++v) {
    expect_same_hop(slab(v), arrays(v), v);
    tails += arrays(v).tail ? 1 : 0;
  }
  EXPECT_EQ(tails, 41u) << "40 picks plus the global tail";

  // Ranking: both sources substitute the constant 1 for every value.
  ASSERT_TRUE(host_exec::build_packed<true>(l, OpPlus{}, 1, ws));
  const SlabHops ones{ws.packed.data()};
  const ListHops<true> ones_arrays{l.next.data(), nullptr, ws.is_tail.data()};
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
  const std::vector<index_t> heads = sublist_heads(l, 96, ws);
  ASSERT_TRUE(host_exec::build_packed<false>(l, OpPlus{}, 3, ws));
  const std::size_t k = heads.size();

  const auto walk = [&](const auto& hops) {
    std::vector<std::atomic<int>> visits(l.size());
    std::vector<value_t> sums(k, 0);
    std::vector<index_t> tails(k, kNoVertex);
    std::vector<int> finishes(k, 0);
    host_exec::interleave_sublists(
        hops, heads.data(), k, /*threads=*/3, /*W=*/4,
        [](std::size_t) { return value_t{0}; },
        [&](index_t v, value_t x, value_t& acc) {
          visits[v].fetch_add(1, std::memory_order_relaxed);
          acc += x;
        },
        [&](index_t j, index_t v, value_t acc) {
          sums[j] = acc;
          tails[j] = v;
          ++finishes[j];
        });
    for (index_t v = 0; v < l.size(); ++v)
      EXPECT_EQ(visits[v].load(), 1) << "vertex " << v;
    value_t total = 0;
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_EQ(finishes[j], 1) << "sublist " << j;
      EXPECT_TRUE(tails[j] != kNoVertex && ws.is_tail[tails[j]] == 1)
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
      ListHops<false>{l.next.data(), l.value.data(), ws.is_tail.data()});
  EXPECT_EQ(slab_sums, array_sums);
}

TEST(HopSources, AheadSeesEveryVertexOnceBeforeItsStep) {
  // The driver's `ahead` hook (phase 3's write prefetch rides it) is
  // called exactly once per vertex, always before that vertex's step.
  Rng rng(4);
  const LinkedList l = random_list(20000, rng);
  Workspace ws;
  const std::vector<index_t> heads = sublist_heads(l, 96, ws);
  ASSERT_TRUE(host_exec::build_packed<true>(l, OpPlus{}, 3, ws));
  std::vector<std::atomic<int>> ahead(l.size());
  std::atomic<int> early{0};
  host_exec::interleave_sublists(
      SlabHops{ws.packed.data()}, heads.data(), heads.size(),
      /*threads=*/3, /*W=*/4, [](std::size_t) { return value_t{0}; },
      [&](index_t v, value_t, value_t&) {
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
    std::vector<std::uint8_t> is_tail(n, 0);
    std::vector<index_t> heads;
    std::size_t run = 0;
    std::size_t len = 1;
    for_each_in_order(l, [&](index_t v, std::size_t) {
      if (run++ == 0) heads.push_back(v);
      if (run == len || l.next[v] == v) {
        is_tail[v] = 1;
        run = 0;
        len = 1 + rng.uniform(2);
      }
    });
    const std::size_t k = heads.size();
    const ListHops<false> hops{l.next.data(), l.value.data(), is_tail.data()};
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
          [&](index_t v, value_t x, value_t& acc) {
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
        EXPECT_TRUE(tails[j] != kNoVertex && is_tail[tails[j]] == 1)
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

}  // namespace
}  // namespace lr90
