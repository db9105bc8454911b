// Tests for the sharded + out-of-core tier (src/shard/): the ShardFile
// format, the ShardStore residency/spill/load machinery, the two-level
// sharded scan's bit-exactness vs the serial oracle, the Engine/Planner
// wiring (auto-shard on the 2^31 packed bound and on the byte budget), and
// the spill lifecycle: every run writes its own shard files and removes
// them when it ends.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/workspace.hpp"
#include "lists/encode.hpp"
#include "lists/generators.hpp"
#include "lists/ops.hpp"
#include "shard/shard_file.hpp"
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

/// Shard files anywhere under `root`.
std::size_t shard_files_under(const std::string& root) {
  std::size_t count = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(root, ec))
    if (e.path().filename().string().rfind("shard_", 0) == 0) ++count;
  return count;
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
  const shard::ShardedList s = shard::ShardedList::build(list, 7);
  ASSERT_EQ(s.shards, 7u);
  // Every segment head lives in the shard whose heads_of bucket holds it,
  // and walking all segments visits every vertex exactly once.
  std::vector<int> seen(list.size(), 0);
  std::size_t segs = 0;
  for (unsigned p = 0; p < s.shards; ++p) {
    const auto [b, e] = s.range(p);
    for (const index_t h : s.heads_of[p]) {
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
      const shard::ShardedList s =
          shard::ShardedList::build(list, shards, /*threads=*/3);
      ASSERT_EQ(s.seg_of.size(), list.size());
      std::vector<char> is_head(list.size(), 0);
      for (unsigned p = 0; p < s.shards; ++p) {
        for (std::size_t i = 0; i < s.heads_of[p].size(); ++i) {
          const index_t h = s.heads_of[p][i];
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
  const shard::ShardedList s = shard::ShardedList::build(list, 4);
  // Sequential order never re-enters a shard: exactly one segment each.
  EXPECT_EQ(s.segments, 4u);
  for (unsigned p = 0; p < 4; ++p) EXPECT_EQ(s.heads_of[p].size(), 1u);
}

TEST(ShardedList, ShardCountClampsToListLength) {
  const LinkedList list = sequential_list(3);
  const shard::ShardedList s = shard::ShardedList::build(list, 64);
  EXPECT_LE(s.shards, 3u);
  EXPECT_EQ(s.segments, static_cast<std::size_t>(s.shards));
}

// -- ShardFile format -------------------------------------------------------

TEST(ShardFile, WriteReadRoundTripAndHeaderValidation) {
  const std::string dir = fresh_dir("file_roundtrip");
  fs::create_directories(dir);
  const std::string path = dir + "/" + shard::shard_file_name(3);
  std::vector<index_t> next{5, 6, 7, 8};
  std::vector<value_t> value{-1, 2, -3, 4};
  shard::ShardHeader h;
  h.shard_index = 3;
  h.begin = 4;
  h.end = 8;
  h.total_n = 100;
  h.payload_bytes = shard::shard_payload_bytes(4);
  ASSERT_TRUE(shard::write_shard_file(path, h, next.data(), value.data()));

  shard::ShardHeader got;
  ASSERT_TRUE(shard::read_shard_header(path, got));
  EXPECT_TRUE(shard::shard_header_matches(got, 3, 4, 8, 100));
  // Any identity mismatch is a refusal: wrong index, range, or total n.
  EXPECT_FALSE(shard::shard_header_matches(got, 2, 4, 8, 100));
  EXPECT_FALSE(shard::shard_header_matches(got, 3, 4, 9, 100));
  EXPECT_FALSE(shard::shard_header_matches(got, 3, 4, 8, 99));

  shard::ShardMap map;
  ASSERT_TRUE(map.open(path, 3, 4, 8, 100));
  ASSERT_EQ(map.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(map.next()[i], next[i]);
    EXPECT_EQ(map.value()[i], value[i]);
  }
  // A loader expecting a different shard identity refuses the same file.
  shard::ShardMap wrong;
  EXPECT_FALSE(wrong.open(path, 3, 4, 8, 101));
  shard::drop_spill_dir(dir);
}

TEST(ShardFile, CorruptMagicAndVersionAreRejected) {
  const std::string dir = fresh_dir("file_corrupt");
  fs::create_directories(dir);
  const std::string path = dir + "/" + shard::shard_file_name(0);
  std::vector<index_t> next{0, 1};
  std::vector<value_t> value{1, 1};
  shard::ShardHeader h;
  h.begin = 0;
  h.end = 2;
  h.total_n = 2;
  h.payload_bytes = shard::shard_payload_bytes(2);
  ASSERT_TRUE(shard::write_shard_file(path, h, next.data(), value.data()));

  shard::ShardHeader bad = h;
  bad.magic ^= 1;
  ASSERT_TRUE(shard::write_shard_file(path, bad, next.data(), value.data()));
  shard::ShardHeader got;
  EXPECT_FALSE(shard::read_shard_header(path, got));  // magic check fails

  bad = h;
  bad.version = shard::kShardFormatVersion + 1;
  ASSERT_TRUE(shard::write_shard_file(path, bad, next.data(), value.data()));
  ASSERT_TRUE(shard::read_shard_header(path, got));
  EXPECT_FALSE(shard::shard_header_matches(got, 0, 0, 2, 2));
  shard::ShardMap map;
  EXPECT_FALSE(map.open(path, 0, 0, 2, 2));
  shard::drop_spill_dir(dir);
}

TEST(ShardFile, FlippedOrTruncatedPayloadIsCorrupt) {
  // The loader's checksum and size checks catch a slab damaged on disk
  // under an intact header: one flipped payload byte, or a payload cut
  // short, each answers kCorrupt.
  const std::string dir = fresh_dir("file_damage");
  fs::create_directories(dir);
  const std::string path = dir + "/" + shard::shard_file_name(1);
  std::vector<index_t> next(64);
  std::vector<value_t> value(64);
  for (std::size_t i = 0; i < 64; ++i) {
    next[i] = static_cast<index_t>(65 + i);
    value[i] = static_cast<value_t>(i) - 7;
  }
  shard::ShardHeader h;
  h.shard_index = 1;
  h.begin = 64;
  h.end = 128;
  h.total_n = 200;
  h.payload_bytes = shard::shard_payload_bytes(64);
  shard::ShardMap map;

  ASSERT_TRUE(shard::write_shard_file(path, h, next.data(), value.data()));
  ASSERT_TRUE(map.open(path, 1, 64, 128, 200));
  map.close();
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, sizeof(shard::ShardHeader) + 13, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  EXPECT_FALSE(map.open(path, 1, 64, 128, 200));
  EXPECT_EQ(map.error(), shard::ShardLoadError::kCorrupt);

  ASSERT_TRUE(shard::write_shard_file(path, h, next.data(), value.data()));
  const auto full = fs::file_size(path);
  fs::resize_file(path, sizeof(shard::ShardHeader) +
                            (full - sizeof(shard::ShardHeader)) / 2);
  EXPECT_FALSE(map.open(path, 1, 64, 128, 200));
  EXPECT_EQ(map.error(), shard::ShardLoadError::kCorrupt);
  shard::drop_spill_dir(dir);
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
  EXPECT_TRUE(stats.packed);
}

TEST(ShardedScan, TwoLaneOperatorsWalkTheShardArraysAtThePinnedWidth) {
  // The shard passes run the same cursor driver for every operator: the
  // two-lane operators walk each shard's arrays (ShardHops) at the pinned
  // width, while a rank of the same list walks the per-shard slabs.
  Rng rng(19);
  LinkedList list = random_list(3000, rng, ValueInit::kSigned);
  for (value_t& v : list.value) v &= 0xffff;  // keep max-plus in-lane
  shard::ShardExec exec;
  exec.shards = 4;
  exec.threads = 2;
  exec.interleave = 8;
  for (const ScanOp op :
       {ScanOp::kSegSum, ScanOp::kAffine, ScanOp::kMaxPlus}) {
    SCOPED_TRACE(scan_op_name(op));
    const shard::ShardRunStats stats =
        run_and_check(list, /*rank=*/false, op, exec);
    EXPECT_EQ(stats.shards, 4u);
    EXPECT_EQ(stats.interleave, 8u);
    EXPECT_FALSE(stats.packed);
  }
  const shard::ShardRunStats rank =
      run_and_check(list, /*rank=*/true, ScanOp::kPlus, exec);
  EXPECT_EQ(rank.interleave, 8u);
  EXPECT_TRUE(rank.packed);
}

TEST(ShardedScan, SpillTierIsBitExactAndCountsSpillsAndLoads) {
  Rng rng(19);
  const std::size_t n = 50000;
  const unsigned P = 8;
  const LinkedList list = blocked_list(n, 512, rng, ValueInit::kSigned);
  shard::ShardExec exec;
  exec.shards = P;
  exec.spill_dir = fresh_dir("spill_counts");
  // Budget for two resident shards: pass A maps each shard once.
  const std::size_t width = (n + P - 1) / P;
  exec.byte_budget =
      2 * (shard::shard_payload_bytes(width) + sizeof(shard::ShardHeader));
  const shard::ShardRunStats stats =
      run_and_check(list, /*rank=*/true, ScanOp::kPlus, exec);
  EXPECT_EQ(stats.shards, P);
  EXPECT_TRUE(stats.store.spilled);
  EXPECT_EQ(stats.store.loads, static_cast<std::uint64_t>(P));
  EXPECT_EQ(stats.store.spills, static_cast<std::uint64_t>(P));
  EXPECT_EQ(stats.store.prefetch_hits, 0u);
  // Ephemeral directory: removed when the run ended.
  EXPECT_FALSE(fs::exists(exec.spill_dir));
}

TEST(ShardedScan, EmptyTrailingShardsCountEveryLoadOnceInEveryRun) {
  // n = 9 or 17 at P = 8 leaves the last shards empty. Pass A acquires
  // them too, so each shard is loaded and released once: the counters
  // repeat exactly, run after run.
  for (const std::size_t n : {std::size_t{9}, std::size_t{17}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(n);
    const LinkedList list = random_list(n, rng, ValueInit::kSigned);
    const unsigned P = 8;
    shard::ShardExec exec;
    exec.shards = P;
    exec.threads = 2;
    exec.byte_budget = 1;
    exec.spill_dir = fresh_dir("empty_tail");
    for (int run = 0; run < 50; ++run) {
      const shard::ShardRunStats stats =
          run_and_check(list, /*rank=*/run % 2 == 0, ScanOp::kPlus, exec);
      ASSERT_EQ(stats.shards, P) << "run " << run;
      EXPECT_EQ(stats.store.loads, P) << "run " << run;
      EXPECT_EQ(stats.store.spills, P) << "run " << run;
      EXPECT_EQ(stats.store.prefetch_hits, 0u) << "run " << run;
      EXPECT_FALSE(fs::exists(exec.spill_dir)) << "run " << run;
    }
  }
}

TEST(ShardedScan, SpillDirFilesAreNeverReusedAcrossRuns) {
  // A run writes every shard afresh into its spill directory and removes
  // the files when it ends. Files another run left there with the same
  // shard identity (index, range, n) but other values are overwritten,
  // never served.
  Rng rng(23);
  const LinkedList stale = random_list(20000, rng, ValueInit::kSigned);
  LinkedList list = stale;  // the same links, new values
  for (value_t& v : list.value)
    v = static_cast<value_t>(rng.next_u64() % 2001) - 1000;
  shard::ShardExec exec;
  exec.shards = 4;
  exec.spill_dir = fresh_dir("spill_reuse");
  exec.byte_budget = 1;  // tiny: every acquire loads from file
  fs::create_directories(exec.spill_dir);
  const shard::ShardedList plan = shard::ShardedList::build(stale, 4);
  std::uint64_t bytes = 0;
  for (unsigned p = 0; p < plan.shards; ++p) {
    const auto [b, e] = plan.range(p);
    shard::ShardHeader h;
    h.shard_index = p;
    h.begin = b;
    h.end = e;
    h.total_n = plan.n;
    h.payload_bytes = shard::shard_payload_bytes(e - b);
    ASSERT_TRUE(shard::write_shard_file(
        exec.spill_dir + "/" + shard::shard_file_name(p), h,
        stale.next.data() + b, stale.value.data() + b));
    bytes += sizeof(shard::ShardHeader) + h.payload_bytes;
  }
  const shard::ShardRunStats stats =
      run_and_check(list, /*rank=*/false, ScanOp::kMax, exec);
  EXPECT_EQ(stats.store.spill_bytes, bytes);  // every shard rewritten
  EXPECT_EQ(stats.store.loads, 4u);
  EXPECT_FALSE(fs::exists(exec.spill_dir));
}

TEST(ShardedScan, ReleasedShardsAreUnmappedUnderABudgetThatHoldsTheList) {
  // The budget turns the spill tier on; it does not keep shards mapped.
  // Even a budget past the whole list unmaps each shard on release.
  Rng rng(31);
  const std::size_t n = 20000;
  const unsigned P = 5;
  const LinkedList list = random_list(n, rng, ValueInit::kSigned);
  shard::ShardExec exec;
  exec.shards = P;
  exec.spill_dir = fresh_dir("spill_roomy");
  exec.byte_budget = 4 * n * (sizeof(index_t) + sizeof(value_t));
  const shard::ShardRunStats stats =
      run_and_check(list, /*rank=*/false, ScanOp::kPlus, exec);
  EXPECT_TRUE(stats.store.spilled);
  EXPECT_EQ(stats.store.loads, static_cast<std::uint64_t>(P));
  EXPECT_EQ(stats.store.spills, static_cast<std::uint64_t>(P));
}

TEST(ShardedScan, TaillessListIsRefusedBeforeAnyShardIsBuilt) {
  // Pass A walks a segment to a shard exit or the self-loop, so a list
  // with neither would spin inside one shard. The run refuses it before
  // it builds or spills a shard, at one shard or two.
  LinkedList cycle;
  cycle.next = {1, 0};
  cycle.value = {1, 1};
  cycle.head = 0;
  for (const unsigned p : {1u, 2u}) {
    SCOPED_TRACE("P=" + std::to_string(p));
    shard::ShardExec exec;
    exec.shards = p;
    exec.byte_budget = 1;
    exec.spill_dir = fresh_dir("tailless");
    Workspace ws;
    std::vector<value_t> out(cycle.size());
    for (const bool rank : {true, false}) {
      shard::ShardRunStats stats;
      const Status st =
          shard::sharded_scan(cycle, rank, ScanOp::kPlus, exec, ws, out,
                              stats);
      EXPECT_EQ(st.code, StatusCode::kInvalidInput) << st.message;
      EXPECT_EQ(stats.shards, 0u);
      EXPECT_FALSE(stats.store.spilled);
      EXPECT_FALSE(fs::exists(exec.spill_dir));
    }
  }
}

// -- Engine / Planner wiring ------------------------------------------------

TEST(ShardPlanner, AutoShardOffStillNeverPlansPackedPastTheBound) {
  // A list past the slab's 2^31 link-lane bound runs unsharded; the
  // kernel itself walks the list arrays for links that cannot fit the
  // slab's 31-bit lane.
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  const Planner planner(opt);
  const auto d =
      planner.decide(kHotMaxVertices + 5, Method::kAuto, /*rank=*/true);
  EXPECT_EQ(d.shard_count, 0u);
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
  EXPECT_FALSE(r.stats.shard_spilled);  // no budget: all-in-RAM sharding
  testutil::expect_scan_eq(r.scan, oracle(list, false, ScanOp::kMin));
}

TEST(ShardEngine, ExtraWordsCountTheSegmentIdArray) {
  // ~4 words per segment, the 4 B/vertex segment-id array (n/2 words),
  // and one shard's slab resident at a time.
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.shard.shards = 4;
  Engine engine(opt);
  Rng rng(33);
  const LinkedList list = random_list(5000, rng);
  const RunResult r = engine.rank(list);
  ASSERT_TRUE(r.ok()) << r.status.message;
  ASSERT_TRUE(r.stats.host_packed);
  EXPECT_EQ(r.stats.algo.extra_words,
            4 * r.stats.shard_segments + 5000 / 2 + 5000 / 4);
  // Pass A chases every link once; pass C streams.
  EXPECT_EQ(r.stats.algo.link_steps, 5000u);
}

TEST(ShardEngine, ByteBudgetSpillsAndStaysBitExact) {
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.shard.shards = 6;
  opt.shard.byte_budget = 40000;  // < one 20k-vertex list: forces spills
  opt.verify_output = true;
  Engine engine(opt);
  Rng rng(37);
  const LinkedList list = random_list(20000, rng, ValueInit::kOnes);
  const RunResult r = engine.rank(list);
  ASSERT_TRUE(r.ok()) << r.status.message;
  EXPECT_EQ(r.stats.shard_count, 6u);
  EXPECT_TRUE(r.stats.shard_spilled);
  EXPECT_GE(r.stats.shard_spills, 4u);
  EXPECT_GE(r.stats.shard_loads, 6u);
  testutil::expect_scan_eq(r.scan, oracle(list, true, ScanOp::kPlus));
}

TEST(ShardEngine, PinnedSpillDirGivesEveryRunFreshShardFiles) {
  // One Engine under a pinned spill_dir. List B keeps A's links with new
  // values and C is another list of the same length, so all three share
  // every shard's identity (index, range, n). Each run spills into its
  // own directory under the root and removes it, so every answer is
  // bit-exact and no shard file is left behind.
  const std::string root = fresh_dir("engine_root");
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.shard.shards = 4;
  opt.shard.byte_budget = 1;
  opt.shard.spill_dir = root;
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
    EXPECT_TRUE(r.stats.shard_spilled);
    testutil::expect_scan_eq(r.scan, oracle(*list, false, ScanOp::kPlus));
    EXPECT_EQ(shard_files_under(root), 0u);
  }
  fs::remove_all(root);
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

TEST(ShardEngine, SixtyFourBitOperatorRunsShardedOverTheListArrays) {
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
  EXPECT_FALSE(r.stats.host_packed);  // 64-bit lanes: the list arrays
  EXPECT_EQ(r.stats.kernel_tier, KernelTier::kListArrays);
}

TEST(ShardEngine, LaneOverflowReportsTheListArraysNotTheSlab) {
  // Regression: a sharded run used to derive host_packed / kernel_tier
  // from the operator, so a plus scan with one value past the 32-bit lane
  // reported the slab while that shard walked its arrays.
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
  EXPECT_FALSE(r.stats.host_packed);
  EXPECT_EQ(r.stats.kernel_tier, KernelTier::kListArrays);
  EXPECT_GE(r.stats.host_interleave, 1u);

  // The same shape without the wide value walks every shard's slab.
  list.value[4321] = 7;
  const RunResult clean = engine.scan(list, ScanOp::kPlus);
  ASSERT_TRUE(clean.ok()) << clean.status.message;
  EXPECT_TRUE(clean.stats.host_packed);
  EXPECT_EQ(clean.stats.kernel_tier, KernelTier::kPackedCursors);
}

}  // namespace
}  // namespace lr90
