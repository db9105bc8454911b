// Tests for shard::sharded_scan (src/shard/), the adapter that runs the
// host sublist kernel over the whole resident list: bit-exactness vs the
// serial oracle for a rank and every operator whatever its ignored
// ShardExec fields say, on every list shape and at the pinned width,
// typed answers on a tailless and an empty list, a Workspace that serves
// list after list, and the ignored shard options, through sharded_scan,
// the Planner and the Engine. A malformed list whose head runs into a
// cycle with validation off must end every run, not spin.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/tuner.hpp"
#include "core/engine.hpp"
#include "core/host_exec.hpp"
#include "core/workspace.hpp"
#include "lists/generators.hpp"
#include "lists/ops.hpp"
#include "shard/sharded.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace lr90 {
namespace {

namespace fs = std::filesystem;

/// A fresh path under the test temp root that no run may create.
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

/// The W the kernel runs for `n` vertices under `exec`'s pins.
unsigned planned_width(std::size_t n, bool rank, ScanOp op,
                       const shard::ShardExec& exec) {
  return plan_host(n, rank ? ScanOp::kPlus : op,
                   {.threads = exec.threads,
                    .interleave = exec.interleave,
                    .force_sublists = true})
      .interleave;
}

// -- sharded_scan ------------------------------------------------------------

TEST(ShardedScan, EveryOperatorIsBitExactWhateverTheIgnoredFieldsSay) {
  // shards, byte_budget, spill_dir and keep_files are accepted and
  // otherwise ignored: a rank and every operator's scan answer bit-exact
  // with all four unset and with all four set, at the same W, and no
  // path is created.
  Rng rng(29);
  const LinkedList base = random_list(30000, rng, ValueInit::kSigned);
  shard::ShardExec plain;
  plain.threads = 2;
  shard::ShardExec knobs = plain;
  knobs.shards = 6;
  knobs.byte_budget = 1;
  knobs.spill_dir = fresh_dir("ignored_knobs");
  knobs.keep_files = true;
  const auto run = [](const LinkedList& list, bool rank, ScanOp op,
                      const shard::ShardExec& exec) {
    const shard::ShardRunStats stats = run_and_check(list, rank, op, exec);
    EXPECT_EQ(stats.shards, 1u);
    EXPECT_EQ(stats.segments, 0u);
    EXPECT_EQ(stats.store.loads, 0u);
    EXPECT_EQ(stats.store.spills, 0u);
    EXPECT_EQ(stats.store.prefetch_hits, 0u);
    return stats.interleave;
  };
  for (const ScanOp op : kAllScanOps) {
    SCOPED_TRACE(scan_op_name(op));
    // The packed operators read their value as 32-bit lanes; keep the
    // magnitudes in-lane so every combine is exact (max-plus especially).
    LinkedList list = base;
    if (op == ScanOp::kSegSum || op == ScanOp::kAffine ||
        op == ScanOp::kMaxPlus) {
      for (value_t& v : list.value) v &= 0xffff;
    }
    EXPECT_EQ(run(list, /*rank=*/false, op, knobs),
              run(list, /*rank=*/false, op, plain));
  }
  SCOPED_TRACE("rank");
  EXPECT_EQ(run(base, /*rank=*/true, ScanOp::kPlus, knobs),
            run(base, /*rank=*/true, ScanOp::kPlus, plain));
  EXPECT_FALSE(fs::exists(knobs.spill_dir));
}

TEST(ShardedScan, RankMatchesOracleAcrossShardCountsAndShapes) {
  // Every pinned shard count ranks the whole list on the one kernel:
  // from the empty list to 4096 vertices, each answer is bit-exact.
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

TEST(ShardedScan, AnyPinnedShardCountReportsOneShard) {
  // A count far past any list, or past this list's length, still runs
  // the list whole: the stats report one shard and no segment.
  Rng rng(53);
  shard::ShardExec exec;
  exec.shards = 10240;
  exec.threads = 2;
  const LinkedList big = random_list(3 * 1024, rng, ValueInit::kSigned);
  const LinkedList small = random_list(300, rng, ValueInit::kSigned);
  for (const LinkedList* list : {&big, &small}) {
    for (const bool rank : {true, false}) {
      SCOPED_TRACE("n=" + std::to_string(list->size()) +
                   (rank ? " rank" : " plus"));
      const shard::ShardRunStats stats =
          run_and_check(*list, rank, ScanOp::kPlus, exec);
      EXPECT_EQ(stats.shards, 1u);
      EXPECT_EQ(stats.segments, 0u);
    }
  }
}

TEST(ShardedScan, ListThatJumpsHalfItsLengthOnEveryLinkIsBitExact) {
  // The order 0, h, 1, h + 1, ... (h = n / 2) moves n / 2 ids on every
  // link, so no two consecutive vertices share a cache line.
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
    EXPECT_EQ(stats.shards, 1u);
    EXPECT_EQ(stats.interleave, exec.interleave);
  }
}

TEST(ShardedScan, LaneOpsMatchOracleOnEveryListShape) {
  // The one-lane operators over random, sequential, reversed and blocked
  // layouts, each on two workers at the default W.
  Rng rng(11);
  const std::size_t n = 2000;
  const std::pair<const char*, LinkedList> lists[] = {
      {"random", random_list(n, rng, ValueInit::kSigned)},
      {"sequential", sequential_list(n, ValueInit::kSigned, &rng)},
      {"reversed", reversed_list(n, ValueInit::kSigned, &rng)},
      {"blocked", blocked_list(n, 64, rng, ValueInit::kSigned)}};
  shard::ShardExec exec;
  exec.shards = 5;
  exec.threads = 2;
  for (const auto& [name, list] : lists) {
    for (const ScanOp op :
         {ScanOp::kPlus, ScanOp::kMin, ScanOp::kMax, ScanOp::kXor}) {
      SCOPED_TRACE(std::string(name) + " " + scan_op_name(op));
      run_and_check(list, /*rank=*/false, op, exec);
    }
  }
}

TEST(ShardedScan, ValuesPast32BitsStayExact) {
  // Values far outside the signed 32-bit range ride whole in each
  // record's second word: every one-lane operator stays bit-exact.
  Rng rng(13);
  LinkedList list = random_list(500, rng, ValueInit::kSigned);
  list.value[123] = value_t{1} << 40;
  list.value[400] = -(value_t{1} << 41);
  list.value[7] = (value_t{1} << 62) + 3;
  shard::ShardExec exec;
  exec.shards = 4;
  for (const ScanOp op :
       {ScanOp::kPlus, ScanOp::kMin, ScanOp::kMax, ScanOp::kXor}) {
    SCOPED_TRACE(scan_op_name(op));
    run_and_check(list, /*rank=*/false, op, exec);
  }
}

TEST(ShardedScan, ZeroInterleaveLetsThePlanPickTheWidth) {
  // interleave = 0 leaves W to plan_host's footprint rule: the run
  // reports the W the plan picks for the list's length, and a list too
  // short for two sublists runs the serial walk (W = 1).
  shard::ShardExec exec;
  exec.shards = 3;
  exec.threads = 2;
  exec.interleave = 0;
  for (const std::size_t n :
       {std::size_t{3}, std::size_t{1500}, std::size_t{1} << 17,
        std::size_t{1} << 18}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(17 + n);
    const LinkedList list = random_list(n, rng, ValueInit::kSigned);
    const shard::ShardRunStats stats =
        run_and_check(list, /*rank=*/true, ScanOp::kPlus, exec);
    EXPECT_EQ(stats.interleave,
              n < 4 ? 1u : planned_width(n, true, ScanOp::kPlus, exec));
  }
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

TEST(ShardedScan, TwoLaneOperatorsWalkTheSlabAtThePinnedWidth) {
  // Every operator runs the same slab and cursor driver: the two-lane
  // operators build one two-word record per vertex and walk them at the
  // pinned width, and a rank of the same list its one-word records.
  Rng rng(19);
  const std::size_t n = 3000;
  LinkedList list = random_list(n, rng, ValueInit::kSigned);
  for (value_t& v : list.value) v &= 0xffff;  // keep max-plus in-lane
  shard::ShardExec exec;
  exec.shards = 4;
  exec.threads = 2;
  exec.interleave = 8;
  const auto run = [&](bool rank, ScanOp op) {
    Workspace ws;
    std::vector<value_t> out(list.size());
    shard::ShardRunStats stats;
    const Status st =
        shard::sharded_scan(list, rank, op, exec, ws, out, stats);
    EXPECT_TRUE(st.ok()) << st.message;
    testutil::expect_scan_eq(out, oracle(list, rank, op));
    EXPECT_EQ(stats.shards, 1u);
    EXPECT_EQ(stats.interleave, 8u);
    // One slab for the whole list, with room for every record.
    EXPECT_EQ(ws.packed_builds(), 1u);
    EXPECT_GE(ws.packed.size(), (rank ? 1 : 2) * n);
  };
  for (const ScanOp op :
       {ScanOp::kSegSum, ScanOp::kAffine, ScanOp::kMaxPlus}) {
    SCOPED_TRACE(scan_op_name(op));
    run(/*rank=*/false, op);
  }
  SCOPED_TRACE("rank");
  run(/*rank=*/true, ScanOp::kPlus);
}

TEST(ShardedScan, ByteBudgetRunsMatchUnbudgetedRunsOnABlockedList) {
  // A byte budget of one byte and a spill path change nothing: on a
  // blocked layout every answer is bit-exact at the W of a run without
  // them, nothing is loaded or spilled, and the path is never created.
  Rng rng(19);
  const LinkedList list = blocked_list(50000, 512, rng, ValueInit::kSigned);
  shard::ShardExec plain;
  plain.threads = 2;
  shard::ShardExec budget = plain;
  budget.shards = 8;
  budget.byte_budget = 1;
  budget.spill_dir = fresh_dir("resident_source");
  const std::pair<bool, ScanOp> runs[] = {
      {true, ScanOp::kPlus}, {false, ScanOp::kPlus}, {false, ScanOp::kAffine}};
  for (const auto& [rank, op] : runs) {
    SCOPED_TRACE(rank ? "rank" : scan_op_name(op));
    const shard::ShardRunStats want = run_and_check(list, rank, op, plain);
    const shard::ShardRunStats got = run_and_check(list, rank, op, budget);
    EXPECT_EQ(got.shards, want.shards);
    EXPECT_EQ(got.interleave, want.interleave);
    EXPECT_EQ(got.store.loads, 0u);
    EXPECT_EQ(got.store.spills, 0u);
    EXPECT_FALSE(fs::exists(budget.spill_dir));
  }
}

TEST(ShardedScan, PinnedShardsPastTheListLengthStayBitExactInEveryRun) {
  // n = 9 or 17 at P = 8 pins more shards than the list can fill; every
  // run, rank or scan, answers the whole list as one.
  for (const std::size_t n : {std::size_t{9}, std::size_t{17}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(n);
    const LinkedList list = random_list(n, rng, ValueInit::kSigned);
    shard::ShardExec exec;
    exec.shards = 8;
    exec.threads = 2;
    for (int run = 0; run < 50; ++run) {
      const shard::ShardRunStats stats =
          run_and_check(list, /*rank=*/run % 2 == 0, ScanOp::kPlus, exec);
      ASSERT_EQ(stats.shards, 1u) << "run " << run;
    }
  }
}

TEST(ShardedScan, EveryRunReseedsTheWorkspaceRng) {
  // The run draws its sublist heads from ws.rng reseeded from
  // kDefaultSeed, as Engine::run does: a Workspace whose generator an
  // earlier caller advanced ends the run in the state a fresh one does.
  Rng rng(67);
  const LinkedList list = random_list(20000, rng, ValueInit::kSigned);
  shard::ShardExec exec;
  exec.threads = 2;
  const auto rng_after = [&](Workspace& ws) {
    std::vector<value_t> out(list.size());
    shard::ShardRunStats stats;
    EXPECT_TRUE(shard::sharded_scan(list, /*rank=*/false, ScanOp::kPlus,
                                    exec, ws, out, stats)
                    .ok());
    testutil::expect_scan_eq(out, oracle(list, false, ScanOp::kPlus));
    return ws.rng.next_u64();
  };
  Workspace fresh;
  const std::uint64_t want = rng_after(fresh);
  Workspace advanced;
  advanced.rng = Rng(12345);
  for (int i = 0; i < 17; ++i) advanced.rng.next_u64();
  EXPECT_EQ(rng_after(advanced), want);
  EXPECT_EQ(rng_after(advanced), want);
}

TEST(ShardedScan, TaillessListIsInvalidAtAnyPinnedShardCount) {
  // A list whose walk from the head meets no self-loop tail is refused
  // typed, for a rank and a scan, whatever shard count is pinned, and
  // the stats report no shard.
  LinkedList cycle;
  cycle.next = {1, 0};
  cycle.value = {1, 1};
  cycle.head = 0;
  for (const unsigned p : {1u, 2u}) {
    shard::ShardExec exec;
    exec.shards = p;
    Workspace ws;
    for (const bool rank : {true, false}) {
      SCOPED_TRACE("P=" + std::to_string(p) + (rank ? " rank" : " plus"));
      std::vector<value_t> out(cycle.size());
      shard::ShardRunStats stats;
      const Status st = shard::sharded_scan(cycle, rank, ScanOp::kPlus, exec,
                                            ws, out, stats);
      EXPECT_EQ(st.code, StatusCode::kInvalidInput) << st.message;
      EXPECT_EQ(stats.shards, 0u);
    }
  }
}

TEST(ShardedScan, EmptyListIsOkAndRunsNoCursor) {
  // An empty list answers kOk for a rank and a scan, as one shard in
  // which no cursor ran.
  const LinkedList empty;
  shard::ShardExec exec;
  Workspace ws;
  for (const bool rank : {true, false}) {
    SCOPED_TRACE(rank ? "rank" : "plus");
    shard::ShardRunStats stats;
    const Status st =
        shard::sharded_scan(empty, rank, ScanOp::kPlus, exec, ws, {}, stats);
    EXPECT_TRUE(st.ok()) << st.message;
    EXPECT_EQ(stats.shards, 1u);
    EXPECT_EQ(stats.interleave, 0u);
  }
}

TEST(ShardedScan, OneWorkspaceNeverCarriesARunIntoTheNext) {
  // All of a run's scratch lives in the Workspace the caller passes.
  // Through one Workspace run a list, the same links with new values,
  // another list of that length, a shorter one and the first again:
  // every answer is bit-exact, so nothing an earlier run left there is
  // served.
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

// -- the Planner's shard options -----------------------------------------------

/// The Planner's decision on a 4-thread host engine under `shard`.
Planner::Decision decide(const ShardOptions& shard, std::size_t n,
                         Method method, bool rank, ScanOp op) {
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.threads = 4;
  opt.shard = shard;
  return Planner(opt).decide(n, method, rank, op);
}

/// Expects every pin in `pins` to plan exactly as no shard option does,
/// with no shard named, across lengths, methods and operators.
void expect_plans_unchanged(std::span<const ShardOptions> pins) {
  for (const std::size_t n : {std::size_t{2}, std::size_t{1} << 15,
                              std::size_t{100000}, std::size_t{1} << 20}) {
    for (const Method method : {Method::kAuto, Method::kReidMiller}) {
      for (const auto& [rank, op] : {std::pair{true, ScanOp::kPlus},
                                     std::pair{false, ScanOp::kAffine}}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " " + method_name(method) +
                     " " + (rank ? "rank" : scan_op_name(op)));
        const Planner::Decision want = decide({}, n, method, rank, op);
        EXPECT_EQ(want.shard_count, 0u);
        for (const ShardOptions& shard : pins) {
          SCOPED_TRACE("shards=" + std::to_string(shard.shards) +
                       " budget=" + std::to_string(shard.byte_budget));
          const Planner::Decision got = decide(shard, n, method, rank, op);
          EXPECT_EQ(got.method, want.method);
          EXPECT_EQ(got.threads, want.threads);
          EXPECT_EQ(got.interleave, want.interleave);
          EXPECT_EQ(got.sublists, want.sublists);
          EXPECT_EQ(got.shard_count, 0u);
        }
      }
    }
  }
}

TEST(ShardPlanner, PinnedShardCountLeavesThePlanUnchanged) {
  const ShardOptions pins[] = {
      {.shards = 1}, {.shards = 3}, {.shards = 8}, {.shards = 10240}};
  expect_plans_unchanged(pins);
}

TEST(ShardPlanner, ByteBudgetLeavesThePlanUnchanged) {
  // Budgets past, at, just under, at half of and far below the bytes of
  // a 100,000-vertex list.
  const std::size_t bytes = 100000 * (sizeof(index_t) + sizeof(value_t));
  const ShardOptions pins[] = {{.byte_budget = 2 * bytes},
                               {.byte_budget = bytes},
                               {.byte_budget = bytes - 1},
                               {.byte_budget = bytes / 2},
                               {.byte_budget = 1}};
  expect_plans_unchanged(pins);
}

TEST(ShardPlanner, PinnedShardCountAndBudgetTogetherLeaveThePlanUnchanged) {
  const ShardOptions pins[] = {{.shards = 3, .byte_budget = 1},
                               {.shards = 3, .byte_budget = std::size_t{1}
                                                            << 40},
                               {.shards = 8, .byte_budget = 64 << 10}};
  expect_plans_unchanged(pins);
}

// -- the Engine with shard options pinned ------------------------------------

/// A host engine on 2 threads with `shard` pinned (and otherwise ignored).
EngineOptions pinned_engine(const ShardOptions& shard) {
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.threads = 2;
  opt.shard = shard;
  return opt;
}

/// Expects two runs of one request to have taken the same execution
/// shape.
void expect_same_shape(const RunResult& got, const RunResult& want) {
  EXPECT_EQ(got.method_used, want.method_used);
  EXPECT_EQ(got.stats.kernel_tier, want.stats.kernel_tier);
  EXPECT_EQ(got.stats.host_threads, want.stats.host_threads);
  EXPECT_EQ(got.stats.host_interleave, want.stats.host_interleave);
  EXPECT_EQ(got.stats.host_sublists, want.stats.host_sublists);
}

TEST(ShardEngine, PinnedShardsRunUnshardedAndVerify) {
  EngineOptions opt = pinned_engine({.shards = 4});
  opt.verify_output = true;  // engine checks vs the serial reference
  Engine engine(opt);
  Engine unpinned(pinned_engine({}));
  Rng rng(31);
  const LinkedList list = random_list(5000, rng, ValueInit::kSigned);
  for (const Method method : {Method::kAuto, Method::kReidMiller}) {
    SCOPED_TRACE(method_name(method));
    const RunResult r = engine.scan(list, ScanOp::kMin, method);
    ASSERT_TRUE(r.ok()) << r.status.message;
    testutil::expect_scan_eq(r.scan, oracle(list, false, ScanOp::kMin));
    expect_same_shape(r, unpinned.scan(list, ScanOp::kMin, method));
  }
}

TEST(ShardEngine, PinnedShardsAddNoExtraWords) {
  // The run keeps the flat kernel's footprint: the same extra words and
  // link steps as a run with no shard option, for a rank and a two-lane
  // scan.
  Engine engine(pinned_engine({.shards = 4}));
  Engine unpinned(pinned_engine({}));
  Rng rng(33);
  const LinkedList list = random_list(5000, rng);
  const RunResult r = engine.rank(list, Method::kReidMiller);
  ASSERT_TRUE(r.ok()) << r.status.message;
  ASSERT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
  const RunResult r0 = unpinned.rank(list, Method::kReidMiller);
  EXPECT_EQ(r.stats.algo.extra_words, r0.stats.algo.extra_words);
  EXPECT_EQ(r.stats.algo.link_steps, r0.stats.algo.link_steps);
  const RunResult a =
      engine.scan(list, ScanOp::kAffine, Method::kReidMiller);
  ASSERT_TRUE(a.ok()) << a.status.message;
  const RunResult a0 =
      unpinned.scan(list, ScanOp::kAffine, Method::kReidMiller);
  EXPECT_EQ(a.stats.algo.extra_words, a0.stats.algo.extra_words);
  EXPECT_EQ(a.stats.algo.link_steps, a0.stats.algo.link_steps);
}

TEST(ShardEngine, ByteBudgetLeavesTheRunUnshardedAndBitExact) {
  // A 40 KB budget under a 240 KB list changes nothing: the rank is
  // bit-exact and runs as an unbudgeted one does.
  EngineOptions opt = pinned_engine({.byte_budget = 40000});
  opt.verify_output = true;
  Engine engine(opt);
  Engine unpinned(pinned_engine({}));
  Rng rng(37);
  const LinkedList list = random_list(20000, rng, ValueInit::kOnes);
  const RunResult r = engine.rank(list);
  ASSERT_TRUE(r.ok()) << r.status.message;
  testutil::expect_scan_eq(r.scan, oracle(list, true, ScanOp::kPlus));
  expect_same_shape(r, unpinned.rank(list));
}

TEST(ShardEngine, OneEngineAnswersEveryListOfOneShapeBitExact) {
  // One Engine and its warm Workspace. List B keeps A's links with new
  // values and C is another list of the same length: each answer is
  // bit-exact.
  Engine engine(pinned_engine({.shards = 4, .byte_budget = 1}));
  Rng rng(53);
  const std::size_t n = 4000;
  const LinkedList a = random_list(n, rng, ValueInit::kSigned);
  LinkedList b = a;
  for (value_t& v : b.value)
    v = static_cast<value_t>(rng.next_u64() % 2001) - 1000;
  const LinkedList c = random_list(n, rng, ValueInit::kSigned);
  const LinkedList* const lists[] = {&a, &b, &c};
  for (const LinkedList* list : lists) {
    const RunResult r = engine.scan(*list, ScanOp::kPlus, Method::kReidMiller);
    ASSERT_TRUE(r.ok()) << r.status.message;
    EXPECT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
    testutil::expect_scan_eq(r.scan, oracle(*list, false, ScanOp::kPlus));
  }
}

TEST(ShardEngine, ExplicitSerialRequestIsHonouredUnsharded) {
  Engine engine(pinned_engine({.shards = 4}));
  Rng rng(41);
  const LinkedList list = random_list(1000, rng);
  const RunResult r = engine.rank(list, Method::kSerial);
  ASSERT_TRUE(r.ok()) << r.status.message;
  EXPECT_EQ(r.method_used, Method::kSerial);
  testutil::expect_scan_eq(r.scan, oracle(list, true, ScanOp::kPlus));
}

TEST(ShardEngine, SixtyFourBitOperatorRunsOverTheSlabWithShardsPinned) {
  EngineOptions opt = pinned_engine({.shards = 3});
  opt.verify_output = true;
  Engine engine(opt);
  Rng rng(43);
  const LinkedList list = random_list(3000, rng, ValueInit::kUniformSmall);
  const RunResult r =
      engine.scan(list, ScanOp::kMaxPlus, Method::kReidMiller);
  ASSERT_TRUE(r.ok()) << r.status.message;
  EXPECT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
  testutil::expect_scan_eq(r.scan, oracle(list, false, ScanOp::kMaxPlus));
}

TEST(ShardEngine, ValuesPast32BitsRunOverTheSlabWithShardsPinned) {
  // A plus scan with one value past 32 bits walks the slab, the value
  // riding whole in its record's second word, and stays bit-exact; so
  // does the same shape without it.
  Engine engine(pinned_engine({.shards = 4}));
  Rng rng(47);
  LinkedList list = random_list(1u << 16, rng, ValueInit::kSigned);
  list.value[4321] = value_t{1} << 40;
  const RunResult r = engine.scan(list, ScanOp::kPlus, Method::kReidMiller);
  ASSERT_TRUE(r.ok()) << r.status.message;
  testutil::expect_scan_eq(r.scan, oracle(list, false, ScanOp::kPlus));
  EXPECT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
  EXPECT_GE(r.stats.host_interleave, 1u);

  list.value[4321] = 7;
  const RunResult clean =
      engine.scan(list, ScanOp::kPlus, Method::kReidMiller);
  ASSERT_TRUE(clean.ok()) << clean.status.message;
  testutil::expect_scan_eq(clean.scan, oracle(list, false, ScanOp::kPlus));
  EXPECT_EQ(clean.stats.kernel_tier, KernelTier::kPackedCursors);
}

// -- a head that runs into a cycle, validation off -----------------------------

/// The head runs 1,000 vertices into a 500-vertex cycle, and a separate
/// chain ends at the self-loop, so the list has a tail and passes the
/// tail check. Phase 1 flags every record it visits, so a cursor lapping
/// the cycle stops at the first vertex it revisits.
LinkedList head_into_cycle() {
  constexpr std::size_t n = 1u << 16;
  LinkedList list;
  list.next.resize(n);
  list.value.assign(n, 1);
  for (std::size_t v = 0; v + 1 < n; ++v)
    list.next[v] = static_cast<index_t>(v + 1);
  list.next[1499] = 1000;
  list.next[n - 1] = static_cast<index_t>(n - 1);
  list.head = 0;
  return list;
}

/// Expects `run` to return a typed status (today kOk with an incomplete
/// answer) within 10 s; a run that spins instead is reported here and
/// ends the test binary, rather than hanging ctest.
void expect_typed_within_10s(const char* name,
                             const std::function<StatusCode()>& run) {
  std::promise<StatusCode> result;
  std::future<StatusCode> ready = result.get_future();
  std::thread worker([&] { result.set_value(run()); });
  if (ready.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    std::fprintf(stderr,
                 "FAILED: %s of a list whose head enters a cycle still "
                 "runs after 10 s\n",
                 name);
    std::_Exit(1);
  }
  worker.join();
  const StatusCode code = ready.get();
  EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kInvalidInput)
      << status_code_name(code);
}

TEST(ShardedScan, AHeadThatEntersACycleEndsTheRunWithValidationOff) {
  const LinkedList list = head_into_cycle();
  shard::ShardExec exec;
  exec.threads = 4;
  exec.interleave = 8;
  expect_typed_within_10s("sharded_scan", [&] {
    Workspace ws;
    std::vector<value_t> out(list.size());
    shard::ShardRunStats stats;
    return shard::sharded_scan(list, /*rank=*/true, ScanOp::kPlus, exec, ws,
                               out, stats)
        .code;
  });
}

TEST(ShardEngine, AHeadThatEntersACycleEndsTheRunWithValidationOff) {
  // Engine::rank at T = 4, W = 8, with four shards pinned.
  const LinkedList list = head_into_cycle();
  EngineOptions opt = pinned_engine({.shards = 4});
  opt.threads = 4;
  opt.interleave = 8;
  ASSERT_FALSE(opt.validate_input);
  expect_typed_within_10s(
      "Engine::rank", [&] { return Engine(opt).rank(list).status.code; });
}

}  // namespace
}  // namespace lr90
