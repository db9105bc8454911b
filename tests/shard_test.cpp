// Tests for the sharded tier (src/shard/): the shard split and its
// segments, the two-level sharded scan's bit-exactness vs the serial
// oracle, the Engine/Planner wiring (auto-shard on the byte budget), and
// that a byte budget reads every shard from the resident list and
// touches no file.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/host_exec.hpp"
#include "core/workspace.hpp"
#include "lists/encode.hpp"
#include "lists/generators.hpp"
#include "lists/ops.hpp"
#include "shard/shard_store.hpp"
#include "shard/sharded.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace lr90 {
namespace {

namespace fs = std::filesystem;

/// A fresh empty directory under the test temp root.
std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "lr90_shard_" + tag;
  fs::remove_all(dir);
  return dir;
}

/// Oracle exclusive scan under a runtime operator.
std::vector<value_t> oracle(const LinkedList& list, bool rank, ScanOp op) {
  if (rank) {
    LinkedList ones = list;
    for (auto& v : ones.value) v = 1;
    return testutil::expected_scan(ones, OpPlus{});
  }
  return with_scan_op(
      op, [&](auto o) { return testutil::expected_scan(list, o); });
}

/// Runs sharded_scan and asserts success + bit-exactness vs the oracle.
shard::ShardRunStats run_and_check(const LinkedList& list, bool rank,
                                   ScanOp op, const shard::ShardExec& exec) {
  Workspace ws;
  std::vector<value_t> out(list.size());
  shard::ShardRunStats stats;
  const Status st =
      shard::sharded_scan(list, rank, op, exec, ws, out, stats);
  EXPECT_TRUE(st.ok()) << st.message;
  testutil::expect_scan_eq(out, oracle(list, rank, op));
  return stats;
}

// -- ShardedList structure --------------------------------------------------

TEST(ShardedList, SegmentsPartitionTheListAndStayInsideTheirShard) {
  Rng rng(42);
  const LinkedList list = random_list(1000, rng, ValueInit::kSigned);
  Workspace ws;
  const shard::ShardedList s = shard::ShardedList::build(list, 7, 1, ws);
  ASSERT_EQ(s.shards, 7u);
  // Every segment head lives in the shard whose heads_of range holds it,
  // and walking all segments visits every vertex exactly once.
  std::vector<int> seen(list.size(), 0);
  std::size_t segs = 0;
  for (unsigned p = 0; p < s.shards; ++p) {
    const auto [b, e] = s.range(p);
    for (const index_t h : s.heads_of(p)) {
      ASSERT_GE(h, b);
      ASSERT_LT(h, e);
      ++segs;
      index_t v = h;
      for (;;) {
        ++seen[v];
        const index_t nx = list.next[v];
        if (nx == v || s.shard_of(nx) != p) break;
        v = nx;
      }
    }
  }
  EXPECT_EQ(segs, s.segments);
  for (std::size_t v = 0; v < list.size(); ++v)
    EXPECT_EQ(seen[v], 1) << "vertex " << v;
}

TEST(ShardedList, DenseSegmentIdsNameEveryHeadAndOnlyHeads) {
  Rng rng(44);
  const std::pair<std::string, LinkedList> lists[] = {
      {"random", random_list(5000, rng)},
      {"blocked", blocked_list(5000, 64, rng)}};
  for (const auto& [name, list] : lists) {
    for (const unsigned shards : {1u, 3u, 8u}) {
      SCOPED_TRACE(name + " P=" + std::to_string(shards));
      Workspace ws;
      const shard::ShardedList s =
          shard::ShardedList::build(list, shards, /*threads=*/3, ws);
      ASSERT_EQ(s.seg_of.size(), list.size());
      std::vector<char> is_head(list.size(), 0);
      for (unsigned p = 0; p < s.shards; ++p) {
        for (std::size_t i = 0; i < s.heads_of(p).size(); ++i) {
          const index_t h = s.heads_of(p)[i];
          EXPECT_EQ(s.seg_of[h], s.seg_base[p] + i) << "head " << h;
          is_head[h] = 1;
        }
      }
      std::size_t named = 0;
      for (std::size_t v = 0; v < list.size(); ++v) {
        if (s.seg_of[v] != kNoVertex) ++named;
        if (!is_head[v]) {
          EXPECT_EQ(s.seg_of[v], kNoVertex) << "vertex " << v;
        }
      }
      EXPECT_EQ(named, s.segments);
    }
  }
}

TEST(ShardedList, SequentialListHasOneSegmentPerNonemptyShard) {
  const LinkedList list = sequential_list(100);
  Workspace ws;
  const shard::ShardedList s = shard::ShardedList::build(list, 4, 1, ws);
  // Sequential order never re-enters a shard: exactly one segment each.
  EXPECT_EQ(s.segments, 4u);
  for (unsigned p = 0; p < 4; ++p) EXPECT_EQ(s.heads_of(p).size(), 1u);
}

TEST(ShardedList, ShardCountClampsToListLength) {
  const LinkedList list = sequential_list(3);
  Workspace ws;
  const shard::ShardedList s = shard::ShardedList::build(list, 64, 1, ws);
  EXPECT_LE(s.shards, 3u);
  EXPECT_EQ(s.segments, static_cast<std::size_t>(s.shards));
}

TEST(ShardedList, RebuildInAWarmWorkspaceMatchesAFreshBuild) {
  // build() reuses the Workspace's segment arrays. No mark an earlier
  // list left there may name a head of the next one, whatever its layout
  // or length: each build equals the same build into a fresh Workspace.
  Rng rng(46);
  const std::pair<std::string, LinkedList> lists[] = {
      {"random", random_list(3000, rng)},
      {"blocked", blocked_list(3000, 64, rng)},
      {"sequential", sequential_list(1000)},
      {"short random", random_list(700, rng)}};
  Workspace warm;
  for (const auto& [name, list] : lists) {
    SCOPED_TRACE(name);
    const shard::ShardedList got =
        shard::ShardedList::build(list, 5, /*threads=*/2, warm);
    Workspace fresh;
    const shard::ShardedList want =
        shard::ShardedList::build(list, 5, /*threads=*/2, fresh);
    ASSERT_EQ(got.segments, want.segments);
    EXPECT_EQ(got.seg_base, want.seg_base);
    EXPECT_TRUE(std::ranges::equal(got.heads, want.heads));
    EXPECT_TRUE(std::ranges::equal(got.seg_of, want.seg_of));
  }
}

// -- sharded_scan correctness ----------------------------------------------

TEST(ShardedScan, RankMatchesOracleAcrossShardCountsAndShapes) {
  Rng rng(7);
  for (const std::size_t n : {0ul, 1ul, 2ul, 13ul, 997ul, 4096ul}) {
    for (const unsigned p : {1u, 2u, 7u, 16u}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " P=" + std::to_string(p));
      const LinkedList list = random_list(n, rng, ValueInit::kSigned);
      shard::ShardExec exec;
      exec.shards = p;
      run_and_check(list, /*rank=*/true, ScanOp::kPlus, exec);
    }
  }
}

TEST(ShardedScan, ShardCountClampsToTheCapAndToTheListLength) {
  // Asked for more shards than kMaxShards, or than the list has vertices,
  // a run splits into the smaller of the two and stays bit-exact. At one
  // vertex a shard, every vertex heads its own segment.
  Rng rng(53);
  shard::ShardExec exec;
  exec.shards = 10 * shard::kMaxShards;
  exec.threads = 2;
  const LinkedList big =
      random_list(3 * shard::kMaxShards, rng, ValueInit::kSigned);
  EXPECT_EQ(run_and_check(big, /*rank=*/false, ScanOp::kPlus, exec).shards,
            shard::kMaxShards);
  const LinkedList small = random_list(300, rng, ValueInit::kSigned);
  const shard::ShardRunStats stats =
      run_and_check(small, /*rank=*/true, ScanOp::kPlus, exec);
  EXPECT_EQ(stats.shards, 300u);
  EXPECT_EQ(stats.segments, 300u);
}

TEST(ShardedScan, ListThatLeavesItsShardOnEveryLinkIsBitExact) {
  // The order 0, h, 1, h + 1, ... (h = n / 2) crosses between the two
  // shards on every link, so every vertex heads a segment and pass B
  // scans a reduced list as long as the list itself.
  const std::size_t n = 5000;
  const std::size_t h = n / 2;
  std::vector<index_t> order;
  for (std::size_t i = 0; i < h; ++i) {
    order.push_back(static_cast<index_t>(i));
    order.push_back(static_cast<index_t>(h + i));
  }
  Rng rng(59);
  const LinkedList list = list_from_order(order, ValueInit::kSigned, &rng);
  shard::ShardExec exec;
  exec.shards = 2;
  exec.threads = 2;
  const std::pair<bool, ScanOp> runs[] = {
      {true, ScanOp::kPlus}, {false, ScanOp::kPlus}, {false, ScanOp::kXor}};
  for (const auto& [rank, op] : runs) {
    SCOPED_TRACE(rank ? "rank" : scan_op_name(op));
    const shard::ShardRunStats stats = run_and_check(list, rank, op, exec);
    EXPECT_EQ(stats.shards, 2u);
    EXPECT_EQ(stats.segments, n);
  }
}

TEST(ShardedScan, LaneOpsMatchOracleUnderShardedPackedKernels) {
  Rng rng(11);
  for (const ScanOp op :
       {ScanOp::kPlus, ScanOp::kMin, ScanOp::kMax, ScanOp::kXor}) {
    const LinkedList list = random_list(2000, rng, ValueInit::kSigned);
    shard::ShardExec exec;
    exec.shards = 5;
    SCOPED_TRACE(scan_op_name(op));
    run_and_check(list, /*rank=*/false, op, exec);
  }
}

TEST(ShardedScan, LaneOverflowFallsBackPerShardAndStaysExact) {
  // Values missing the signed 32-bit lane poison the per-shard slab build;
  // the shard must walk its own arrays and still be bit-exact.
  Rng rng(13);
  LinkedList list = random_list(500, rng, ValueInit::kSigned);
  list.value[123] = (value_t{1} << 40);
  list.value[400] = -(value_t{1} << 41);
  shard::ShardExec exec;
  exec.shards = 4;
  run_and_check(list, /*rank=*/false, ScanOp::kPlus, exec);
}

TEST(ShardedScan, ZeroInterleaveRunsOneCursorAndMatchesOracle) {
  Rng rng(17);
  const LinkedList list = random_list(1500, rng, ValueInit::kSigned);
  shard::ShardExec exec;
  exec.shards = 3;
  exec.interleave = 0;  // clamps to one cursor per worker
  const shard::ShardRunStats stats =
      run_and_check(list, /*rank=*/true, ScanOp::kPlus, exec);
  EXPECT_EQ(stats.interleave, 1u);
}

TEST(ShardedScan, InterleavePastTheCapClampsToTheMaximum) {
  Rng rng(61);
  const LinkedList list = random_list(6000, rng, ValueInit::kSigned);
  shard::ShardExec exec;
  exec.shards = 3;
  exec.threads = 2;
  exec.interleave = 4 * host_exec::kMaxInterleave;
  for (const bool rank : {true, false}) {
    SCOPED_TRACE(rank ? "rank" : "min");
    const shard::ShardRunStats stats =
        run_and_check(list, rank, ScanOp::kMin, exec);
    EXPECT_EQ(stats.interleave, host_exec::kMaxInterleave);
  }
}

TEST(ShardedScan, TwoLaneOperatorsWalkTheShardSlabsAtThePinnedWidth) {
  // The shard passes run the same slab and cursor driver for every
  // operator: the two-lane operators build each shard's two-word records
  // and walk them at the pinned width, and a rank of the same list its
  // one-word records.
  Rng rng(19);
  LinkedList list = random_list(3000, rng, ValueInit::kSigned);
  for (value_t& v : list.value) v &= 0xffff;  // keep max-plus in-lane
  shard::ShardExec exec;
  exec.shards = 4;
  exec.threads = 2;
  exec.interleave = 8;
  const std::size_t width = 3000 / 4;
  const auto run = [&](bool rank, ScanOp op) {
    Workspace ws;
    std::vector<value_t> out(list.size());
    shard::ShardRunStats stats;
    const Status st =
        shard::sharded_scan(list, rank, op, exec, ws, out, stats);
    EXPECT_TRUE(st.ok()) << st.message;
    testutil::expect_scan_eq(out, oracle(list, rank, op));
    EXPECT_EQ(stats.shards, 4u);
    EXPECT_EQ(stats.interleave, 8u);
    // One slab per shard, each with room for the shard's records.
    EXPECT_GE(ws.packed_builds(), 4u);
    EXPECT_GE(ws.packed.size(), (rank ? 1 : 2) * width);
  };
  for (const ScanOp op :
       {ScanOp::kSegSum, ScanOp::kAffine, ScanOp::kMaxPlus}) {
    SCOPED_TRACE(scan_op_name(op));
    run(/*rank=*/false, op);
  }
  SCOPED_TRACE("rank");
  run(/*rank=*/true, ScanOp::kPlus);
}

TEST(ShardedScan, ByteBudgetRunsReadTheResidentSource) {
  // A byte budget of one byte and a spill path change nothing but the
  // run's shape: every shard is read from the resident list, so the
  // answers are bit-exact, nothing is loaded or spilled, and the path is
  // never created.
  Rng rng(19);
  const std::size_t n = 50000;
  const unsigned P = 8;
  const LinkedList list = blocked_list(n, 512, rng, ValueInit::kSigned);
  shard::ShardExec exec;
  exec.shards = P;
  exec.byte_budget = 1;
  exec.spill_dir = fresh_dir("resident_source");
  const std::pair<bool, ScanOp> runs[] = {
      {true, ScanOp::kPlus}, {false, ScanOp::kPlus}, {false, ScanOp::kAffine}};
  for (const auto& [rank, op] : runs) {
    SCOPED_TRACE(rank ? "rank" : scan_op_name(op));
    const shard::ShardRunStats stats = run_and_check(list, rank, op, exec);
    EXPECT_EQ(stats.shards, P);
    EXPECT_EQ(stats.store.loads, 0u);
    EXPECT_EQ(stats.store.spills, 0u);
    EXPECT_FALSE(fs::exists(exec.spill_dir));
  }
}

TEST(ShardedScan, IgnoredExecFieldsChangeNeitherAnswerNorShape) {
  // byte_budget, spill_dir and keep_files are accepted and otherwise
  // ignored: a run that sets all three gives the answer and the shape
  // (shards, segments, cursors) of one that sets none, and creates no
  // path.
  Rng rng(29);
  const LinkedList list = random_list(30000, rng, ValueInit::kSigned);
  shard::ShardExec plain;
  plain.shards = 6;
  plain.threads = 2;
  shard::ShardExec knobs = plain;
  knobs.byte_budget = 1;
  knobs.spill_dir = fresh_dir("ignored_knobs");
  knobs.keep_files = true;
  const std::pair<bool, ScanOp> runs[] = {{true, ScanOp::kPlus},
                                          {false, ScanOp::kAffine}};
  for (const auto& [rank, op] : runs) {
    SCOPED_TRACE(rank ? "rank" : scan_op_name(op));
    const shard::ShardRunStats a = run_and_check(list, rank, op, plain);
    const shard::ShardRunStats b = run_and_check(list, rank, op, knobs);
    EXPECT_EQ(b.shards, a.shards);
    EXPECT_EQ(b.segments, a.segments);
    EXPECT_EQ(b.interleave, a.interleave);
    EXPECT_EQ(b.store.prefetch_hits, 0u);
    EXPECT_FALSE(fs::exists(knobs.spill_dir));
  }
}

TEST(ShardedScan, EmptyTrailingShardsStayBitExactInEveryRun) {
  // n = 9 or 17 at P = 8 leaves the last shards empty; every run, rank
  // or scan, still splits into P shards and matches the oracle.
  for (const std::size_t n : {std::size_t{9}, std::size_t{17}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(n);
    const LinkedList list = random_list(n, rng, ValueInit::kSigned);
    const unsigned P = 8;
    shard::ShardExec exec;
    exec.shards = P;
    exec.threads = 2;
    for (int run = 0; run < 50; ++run) {
      const shard::ShardRunStats stats =
          run_and_check(list, /*rank=*/run % 2 == 0, ScanOp::kPlus, exec);
      ASSERT_EQ(stats.shards, P) << "run " << run;
    }
  }
}

TEST(ShardedScan, OneWorkspaceNeverCarriesARunIntoTheNext) {
  // All of a run's scratch (segment ids, the reduced list, its prefixes,
  // the shard slab) lives in the Workspace the caller passes. Through
  // one Workspace run a list, the same links with new values, another
  // list of that length, a shorter one and the first again: every answer
  // is bit-exact, so nothing an earlier run left there is served.
  Rng rng(23);
  const LinkedList first = random_list(20000, rng, ValueInit::kSigned);
  LinkedList revalued = first;
  for (value_t& v : revalued.value)
    v = static_cast<value_t>(rng.next_u64() % 2001) - 1000;
  const LinkedList other = random_list(20000, rng, ValueInit::kSigned);
  const LinkedList shorter = blocked_list(6000, 128, rng, ValueInit::kSigned);
  const std::pair<const char*, const LinkedList*> lists[] = {
      {"first", &first},     {"revalued", &revalued},
      {"other", &other},     {"shorter", &shorter},
      {"first again", &first}};
  shard::ShardExec exec;
  exec.shards = 4;
  exec.threads = 2;
  Workspace ws;
  for (const auto& [name, list] : lists) {
    for (const bool rank : {false, true}) {
      SCOPED_TRACE(std::string(name) + (rank ? " rank" : " max"));
      std::vector<value_t> out(list->size());
      shard::ShardRunStats stats;
      const Status st = shard::sharded_scan(*list, rank, ScanOp::kMax, exec,
                                            ws, out, stats);
      ASSERT_TRUE(st.ok()) << st.message;
      testutil::expect_scan_eq(out, oracle(*list, rank, ScanOp::kMax));
    }
  }
}

TEST(ShardedScan, TaillessListIsRefusedBeforeAnyShardIsBuilt) {
  // Pass A walks a segment to a shard exit or the self-loop, so a list
  // with neither would spin inside one shard. The run refuses it before
  // it builds a shard, at one shard or two.
  LinkedList cycle;
  cycle.next = {1, 0};
  cycle.value = {1, 1};
  cycle.head = 0;
  for (const unsigned p : {1u, 2u}) {
    SCOPED_TRACE("P=" + std::to_string(p));
    shard::ShardExec exec;
    exec.shards = p;
    Workspace ws;
    std::vector<value_t> out(cycle.size());
    for (const bool rank : {true, false}) {
      shard::ShardRunStats stats;
      const Status st =
          shard::sharded_scan(cycle, rank, ScanOp::kPlus, exec, ws, out,
                              stats);
      EXPECT_EQ(st.code, StatusCode::kInvalidInput) << st.message;
      EXPECT_EQ(stats.shards, 0u);
    }
  }
}

// -- Engine / Planner wiring ------------------------------------------------

TEST(ShardPlanner, AutoShardOffRunsEveryIndexableListUnsharded) {
  // With no shard count and no byte budget, a list of any length a
  // 32-bit index holds runs unsharded: the slab's links take all 32 bits,
  // so no length forces a shard split.
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  const Planner planner(opt);
  for (const std::size_t n : {(std::size_t{1} << 31) + 5,
                              std::size_t{kNoVertex}}) {
    const auto d = planner.decide(n, Method::kAuto, /*rank=*/true);
    EXPECT_EQ(d.shard_count, 0u) << n;
    EXPECT_EQ(d.method, Method::kReidMiller) << n;
  }
}

TEST(ShardPlanner, BelowTheBoundStaysUnsharded) {
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  const Planner planner(opt);
  const auto d = planner.decide(1 << 20, Method::kAuto, /*rank=*/true);
  EXPECT_EQ(d.shard_count, 0u);
}

TEST(ShardPlanner, ByteBudgetTriggersAutoShard) {
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.shard.byte_budget = 64 * 1024;
  const Planner planner(opt);
  const std::size_t n = 100000;  // 1.2 MB of list > 64 KB budget
  const auto d = planner.decide(n, Method::kAuto, /*rank=*/true);
  ASSERT_GT(d.shard_count, 1u);
  // Enough shards that ~two fit the budget (the mapped shard plus pass
  // A's slab of it).
  const std::size_t width = (n + d.shard_count - 1) / d.shard_count;
  EXPECT_LE(width * (sizeof(index_t) + sizeof(value_t)),
            opt.shard.byte_budget);
}

TEST(ShardPlanner, OnlyAListPastTheBudgetIsSharded) {
  // A list whose bytes the budget holds stays unsharded, even at exactly
  // its bytes; one byte less splits it so that two shards fit the budget,
  // and a budget far below the list is clamped to kMaxShards.
  const std::size_t n = 100000;
  const std::size_t bytes = n * (sizeof(index_t) + sizeof(value_t));
  const auto shards_at = [&](std::size_t budget) {
    EngineOptions opt;
    opt.backend = BackendKind::kHost;
    opt.shard.byte_budget = budget;
    return Planner(opt).decide(n, Method::kAuto, /*rank=*/true).shard_count;
  };
  EXPECT_EQ(shards_at(2 * bytes), 0u);
  EXPECT_EQ(shards_at(bytes), 0u);
  EXPECT_EQ(shards_at(bytes - 1), 3u);
  EXPECT_EQ(shards_at(bytes / 2), 4u);
  EXPECT_EQ(shards_at(1), shard::kMaxShards);
}

TEST(ShardPlanner, PinnedShardCountWinsOverTheByteBudget) {
  // A pinned count is the count whatever the budget says; only the list
  // length clamps it.
  for (const std::size_t budget :
       {std::size_t{0}, std::size_t{1}, std::size_t{1} << 40}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    EngineOptions opt;
    opt.backend = BackendKind::kHost;
    opt.shard.shards = 3;
    opt.shard.byte_budget = budget;
    const Planner planner(opt);
    EXPECT_EQ(planner.decide(100000, Method::kAuto, true).shard_count, 3u);
    EXPECT_EQ(planner.decide(2, Method::kAuto, true).shard_count, 2u);
  }
}

TEST(ShardEngine, PinnedShardsRunShardedAndVerify) {
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.shard.shards = 4;
  opt.verify_output = true;  // engine checks vs the serial reference
  Engine engine(opt);
  Rng rng(31);
  const LinkedList list = random_list(5000, rng, ValueInit::kSigned);
  const RunResult r = engine.scan(list, ScanOp::kMin);
  ASSERT_TRUE(r.ok()) << r.status.message;
  EXPECT_EQ(r.stats.shard_count, 4u);
  EXPECT_GT(r.stats.shard_segments, 0u);
  testutil::expect_scan_eq(r.scan, oracle(list, false, ScanOp::kMin));
}

TEST(ShardEngine, ExtraWordsCountTheSegmentIdArray) {
  // ~4 words per segment, the 4 B/vertex segment-id array (n/2 words),
  // and one shard's slab resident at a time: one word per vertex for a
  // rank, two for a scan.
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.shard.shards = 4;
  Engine engine(opt);
  Rng rng(33);
  const LinkedList list = random_list(5000, rng);
  const RunResult r = engine.rank(list);
  ASSERT_TRUE(r.ok()) << r.status.message;
  ASSERT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
  EXPECT_EQ(r.stats.algo.extra_words,
            4 * r.stats.shard_segments + 5000 / 2 + 5000 / 4);
  // Pass A chases every link once; pass C streams.
  EXPECT_EQ(r.stats.algo.link_steps, 5000u);
  const RunResult a = engine.scan(list, ScanOp::kAffine);
  ASSERT_TRUE(a.ok()) << a.status.message;
  EXPECT_EQ(a.stats.algo.extra_words,
            4 * a.stats.shard_segments + 5000 / 2 + 2 * (5000 / 4));
}

TEST(ShardEngine, ByteBudgetShardsTheRunAndStaysBitExact) {
  // No pinned shard count: the 240 KB list past a 40 KB budget is split
  // so that two shards' bytes fit it, 2 * 240000 / 40000 = 12 shards.
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.shard.byte_budget = 40000;
  opt.verify_output = true;
  Engine engine(opt);
  Rng rng(37);
  const LinkedList list = random_list(20000, rng, ValueInit::kOnes);
  const RunResult r = engine.rank(list);
  ASSERT_TRUE(r.ok()) << r.status.message;
  EXPECT_EQ(r.stats.shard_count, 12u);
  testutil::expect_scan_eq(r.scan, oracle(list, true, ScanOp::kPlus));
}

TEST(ShardEngine, OneEngineAnswersEveryListOfOneShapeBitExact) {
  // One Engine and its warm Workspace. List B keeps A's links with new
  // values and C is another list of the same length, so all three share
  // every shard's range: each answer is bit-exact.
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.shard.shards = 4;
  opt.shard.byte_budget = 1;
  Engine engine(opt);
  Rng rng(53);
  const std::size_t n = 4000;
  const LinkedList a = random_list(n, rng, ValueInit::kSigned);
  LinkedList b = a;
  for (value_t& v : b.value)
    v = static_cast<value_t>(rng.next_u64() % 2001) - 1000;
  const LinkedList c = random_list(n, rng, ValueInit::kSigned);
  const LinkedList* const lists[] = {&a, &b, &c};
  for (const LinkedList* list : lists) {
    const RunResult r = engine.scan(*list, ScanOp::kPlus);
    ASSERT_TRUE(r.ok()) << r.status.message;
    EXPECT_EQ(r.stats.shard_count, 4u);
    testutil::expect_scan_eq(r.scan, oracle(*list, false, ScanOp::kPlus));
  }
}

TEST(ShardEngine, ExplicitSerialRequestIsHonouredUnsharded) {
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.shard.shards = 4;
  Engine engine(opt);
  Rng rng(41);
  const LinkedList list = random_list(1000, rng);
  const RunResult r = engine.rank(list, Method::kSerial);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.stats.shard_count, 0u);
}

TEST(ShardEngine, SixtyFourBitOperatorRunsShardedOverTheSlab) {
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.shard.shards = 3;
  opt.verify_output = true;
  Engine engine(opt);
  Rng rng(43);
  const LinkedList list = random_list(3000, rng, ValueInit::kUniformSmall);
  const RunResult r = engine.scan(list, ScanOp::kMaxPlus);
  ASSERT_TRUE(r.ok()) << r.status.message;
  EXPECT_EQ(r.stats.shard_count, 3u);
  EXPECT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
}

TEST(ShardEngine, ValuesPast32BitsRunShardedOverTheSlab) {
  // A plus scan with one value past 32 bits walks every shard's slab,
  // the value riding whole in its record's second word, and stays
  // bit-exact; so does the same shape without it.
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.shard.shards = 4;
  Engine engine(opt);
  Rng rng(47);
  LinkedList list = random_list(1u << 16, rng, ValueInit::kSigned);
  list.value[4321] = value_t{1} << 40;
  const RunResult r = engine.scan(list, ScanOp::kPlus);
  ASSERT_TRUE(r.ok()) << r.status.message;
  testutil::expect_scan_eq(r.scan, oracle(list, false, ScanOp::kPlus));
  EXPECT_EQ(r.stats.shard_count, 4u);
  EXPECT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
  EXPECT_GE(r.stats.host_interleave, 1u);

  list.value[4321] = 7;
  const RunResult clean = engine.scan(list, ScanOp::kPlus);
  ASSERT_TRUE(clean.ok()) << clean.status.message;
  testutil::expect_scan_eq(clean.scan, oracle(list, false, ScanOp::kPlus));
  EXPECT_EQ(clean.stats.kernel_tier, KernelTier::kPackedCursors);
}

TEST(ShardEngine, ACycleInsideOneShardEndsTheRunWithValidationOff) {
  // The head runs 1,000 vertices into a 500-vertex cycle, all inside
  // shard 0, and a separate chain ends at the self-loop, so the list has
  // a tail and passes the tail check. Pass A flags every record it
  // visits, so the cursor lapping the cycle stops at the first vertex it
  // revisits, as the host kernel's phase 1 does. A run that spins instead
  // is reported here and ends the test binary, rather than hanging ctest.
  constexpr std::size_t n = 1u << 16;
  LinkedList list;
  list.next.resize(n);
  list.value.assign(n, 1);
  for (std::size_t v = 0; v + 1 < n; ++v)
    list.next[v] = static_cast<index_t>(v + 1);
  list.next[1499] = 1000;
  list.next[n - 1] = static_cast<index_t>(n - 1);
  list.head = 0;
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.threads = 4;
  opt.interleave = 8;
  opt.shard.shards = 4;
  ASSERT_FALSE(opt.validate_input);
  std::promise<RunResult> result;
  std::future<RunResult> ready = result.get_future();
  std::thread run([&] { result.set_value(Engine(opt).rank(list)); });
  if (ready.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    std::fprintf(stderr,
                 "FAILED: a 4-shard rank of a list whose head enters a "
                 "cycle inside shard 0 still runs after 10 s\n");
    std::_Exit(1);
  }
  run.join();
  const RunResult r = ready.get();
  EXPECT_EQ(r.stats.shard_count, 4u);
}

}  // namespace
}  // namespace lr90
