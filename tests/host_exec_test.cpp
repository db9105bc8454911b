// The host kernel's pieces (core/host_exec.hpp), below the Engine: the two
// hop sources must describe the same list, the one cursor driver must
// walk every vertex exactly once over either of them, and scan_into must
// report the hop source, width and thread count that actually ran.
#include "core/host_exec.hpp"

#include <gtest/gtest.h>

#include <atomic>
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
