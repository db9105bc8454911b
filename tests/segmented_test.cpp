#include "vm/segmented.hpp"

#include <gtest/gtest.h>

#include "lists/transform.hpp"
#include "lists/generators.hpp"
#include "lists/validate.hpp"
#include "support/rng.hpp"

namespace lr90 {
namespace {

TEST(Scan, ExclusiveKnownValues) {
  vm::Machine m;
  const std::vector<value_t> v{3, 1, 4, 1, 5};
  std::vector<value_t> out(5);
  vm::exclusive_scan(m, 0, v, std::span<value_t>(out));
  EXPECT_EQ(out, (std::vector<value_t>{0, 3, 4, 8, 9}));
  EXPECT_GT(m.max_cycles(), 0.0);
}

TEST(Scan, InclusiveKnownValues) {
  vm::Machine m;
  const std::vector<value_t> v{3, 1, 4, 1, 5};
  std::vector<value_t> out(5);
  vm::inclusive_scan(m, 0, v, std::span<value_t>(out));
  EXPECT_EQ(out, (std::vector<value_t>{3, 4, 8, 9, 14}));
}

TEST(Scan, ExclusiveInPlace) {
  vm::Machine m;
  std::vector<value_t> v{1, 2, 3, 4};
  vm::exclusive_scan(m, 0, std::span<const value_t>(v),
                     std::span<value_t>(v));
  EXPECT_EQ(v, (std::vector<value_t>{0, 1, 3, 6}));
}

TEST(Scan, EmptyInput) {
  vm::Machine m;
  std::vector<value_t> v, out;
  vm::exclusive_scan(m, 0, v, std::span<value_t>(out));
  vm::inclusive_scan(m, 0, v, std::span<value_t>(out));
}

TEST(Scan, MaxOperator) {
  vm::Machine m;
  const std::vector<value_t> v{2, -1, 7, 3};
  std::vector<value_t> out(4);
  vm::inclusive_scan(m, 0, v, std::span<value_t>(out), OpMax{});
  EXPECT_EQ(out, (std::vector<value_t>{2, 2, 7, 7}));
}

TEST(SegmentedScan, RestartsAtFlags) {
  vm::Machine m;
  const std::vector<value_t> v{1, 2, 3, 4, 5, 6};
  const std::vector<std::uint8_t> f{1, 0, 0, 1, 0, 0};
  std::vector<value_t> out(6);
  vm::segmented_exclusive_scan(m, 0, v, f, std::span<value_t>(out));
  EXPECT_EQ(out, (std::vector<value_t>{0, 1, 3, 0, 4, 9}));
}

TEST(SegmentedScan, ImplicitFirstSegment) {
  vm::Machine m;
  const std::vector<value_t> v{5, 5};
  const std::vector<std::uint8_t> f{0, 0};  // no explicit starts
  std::vector<value_t> out(2);
  vm::segmented_exclusive_scan(m, 0, v, f, std::span<value_t>(out));
  EXPECT_EQ(out, (std::vector<value_t>{0, 5}));
}

TEST(SegmentedScan, EverySegmentSingleton) {
  vm::Machine m;
  const std::vector<value_t> v{7, 8, 9};
  const std::vector<std::uint8_t> f{1, 1, 1};
  std::vector<value_t> out(3);
  vm::segmented_exclusive_scan(m, 0, v, f, std::span<value_t>(out), OpPlus{});
  EXPECT_EQ(out, (std::vector<value_t>{0, 0, 0}));
}

TEST(SegmentedTotals, WritesTotalEverywhere) {
  vm::Machine m;
  const std::vector<value_t> v{1, 2, 3, 10, 20};
  const std::vector<std::uint8_t> f{1, 0, 0, 1, 0};
  std::vector<value_t> out(5);
  const std::size_t segs =
      vm::segmented_totals(m, 0, v, f, std::span<value_t>(out));
  EXPECT_EQ(segs, 2u);
  EXPECT_EQ(out, (std::vector<value_t>{6, 6, 6, 30, 30}));
}

TEST(SegmentedTotals, EmptyAndSingle) {
  vm::Machine m;
  std::vector<value_t> v, out;
  std::vector<std::uint8_t> f;
  EXPECT_EQ(vm::segmented_totals(m, 0, v, f, std::span<value_t>(out)), 0u);
  v = {42};
  f = {0};
  out.resize(1);
  EXPECT_EQ(vm::segmented_totals(m, 0, v, f, std::span<value_t>(out)), 1u);
  EXPECT_EQ(out[0], 42);
}

TEST(SegmentedScan, EquivalentToListScanAfterRanking) {
  // The bridge identity: rank a list into an array, mark each sublist
  // start, and the segmented scan of the reordered values equals the list
  // scan read off in traversal order.
  Rng rng(9);
  const LinkedList l = random_list(400, rng, ValueInit::kUniformSmall);
  const auto order = order_of(l);

  // Split the traversal into segments after positions 99 and 249.
  std::vector<std::uint8_t> flags(400, 0);
  flags[0] = flags[100] = flags[250] = 1;
  const auto arr = list_to_array(l);

  vm::Machine m;
  std::vector<value_t> seg_out(400);
  vm::segmented_exclusive_scan(m, 0, std::span<const value_t>(arr), flags,
                               std::span<value_t>(seg_out));

  // Reference: serial walk restarting at the same traversal positions.
  value_t acc = 0;
  for (std::size_t pos = 0; pos < 400; ++pos) {
    if (flags[pos]) acc = 0;
    EXPECT_EQ(seg_out[pos], acc) << pos;
    acc += l.value[order[pos]];
  }
}

TEST(RankMany, MatchesPerListRanks) {
  Rng rng(10);
  std::vector<LinkedList> lists;
  for (const std::size_t n : {1u, 5u, 100u, 37u}) {
    lists.push_back(random_list(n, rng));
  }
  const auto ranks = rank_many(lists);
  ASSERT_EQ(ranks.size(), 4u);
  for (std::size_t i = 0; i < lists.size(); ++i) {
    EXPECT_EQ(ranks[i], reference_rank(lists[i])) << i;
  }
}

TEST(RankMany, HandlesEmptyBatchAndEmptyMembers) {
  EXPECT_TRUE(rank_many({}).empty());
  Rng rng(11);
  std::vector<LinkedList> lists(3);
  lists[1] = random_list(10, rng);
  const auto ranks = rank_many(lists);
  ASSERT_EQ(ranks.size(), 3u);
  EXPECT_TRUE(ranks[0].empty());
  EXPECT_EQ(ranks[1], reference_rank(lists[1]));
  EXPECT_TRUE(ranks[2].empty());
}

TEST(RankMany, ManySmallListsThreaded) {
  Rng rng(12);
  std::vector<LinkedList> lists;
  for (int i = 0; i < 50; ++i) lists.push_back(random_list(64, rng));
  EngineOptions opt;
  opt.threads = 4;
  const auto ranks = rank_many(lists, opt);
  for (std::size_t i = 0; i < lists.size(); ++i) {
    EXPECT_EQ(ranks[i], reference_rank(lists[i])) << i;
  }
}

}  // namespace
}  // namespace lr90
