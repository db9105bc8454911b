// The host backend's parallel sublist kernel, driven through the Engine:
// explicit thread counts, the lane operators, seeds, sublist
// oversubscription and the tiny-list sublist clamp all stay bit-exact
// against the reference walk, and the input list is never written.
// Method::kReidMiller is requested where a test needs the sublist kernel
// itself rather than the planner's pick; the two sublist-count cases
// force host_exec::HostPlan::sublists on the kernel directly.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include "core/host_exec.hpp"
#include "lists/generators.hpp"
#include "lists/validate.hpp"
#include "test_util.hpp"

namespace lr90 {
namespace {

/// Host-backend options on `threads` workers (0 = the planner's pick).
EngineOptions host_options(unsigned threads = 0) {
  EngineOptions eo;
  eo.backend = BackendKind::kHost;
  eo.threads = threads;
  return eo;
}

TEST(ParallelHost, RankMatchesReferenceAcrossSizes) {
  Rng rng(1);
  Engine engine(host_options(4));
  for (const std::size_t n : testutil::sweep_sizes()) {
    const LinkedList l = random_list(n, rng);
    for (const Method method : {Method::kAuto, Method::kReidMiller}) {
      const RunResult r = engine.rank(l, method);
      ASSERT_TRUE(r.ok()) << "n=" << n << ": " << r.status.message;
      testutil::expect_scan_eq(r.scan, reference_rank(l));
    }
  }
}

TEST(ParallelHost, ScanMatchesReference) {
  Rng rng(2);
  Engine engine(host_options());
  for (const std::size_t n : {3u, 100u, 10000u, 100000u}) {
    const LinkedList l = random_list(n, rng, ValueInit::kUniformSmall);
    const RunResult r = engine.scan(l, ScanOp::kPlus);
    ASSERT_TRUE(r.ok()) << "n=" << n << ": " << r.status.message;
    testutil::expect_scan_eq(r.scan, testutil::expected_scan(l, OpPlus{}));
  }
}

TEST(ParallelHost, ExplicitThreadCounts) {
  Rng rng(3);
  const LinkedList l = random_list(20000, rng, ValueInit::kUniformSmall);
  const auto want = testutil::expected_scan(l, OpPlus{});
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    Engine engine(host_options(threads));
    const RunResult r = engine.scan(l, ScanOp::kPlus, Method::kReidMiller);
    ASSERT_TRUE(r.ok()) << threads << " threads: " << r.status.message;
    EXPECT_EQ(r.stats.host_threads, threads);
    testutil::expect_scan_eq(r.scan, want);
  }
}

TEST(ParallelHost, MinMaxXorOperators) {
  Rng rng(4);
  const LinkedList l = random_list(5000, rng, ValueInit::kSigned);
  Engine engine(host_options(4));
  const auto scan = [&](ScanOp op) {
    const RunResult r = engine.scan(l, op, Method::kReidMiller);
    EXPECT_TRUE(r.ok()) << scan_op_name(op) << ": " << r.status.message;
    return r.scan;
  };
  testutil::expect_scan_eq(scan(ScanOp::kMin),
                           testutil::expected_scan(l, OpMin{}));
  testutil::expect_scan_eq(scan(ScanOp::kMax),
                           testutil::expected_scan(l, OpMax{}));
  testutil::expect_scan_eq(scan(ScanOp::kXor),
                           testutil::expected_scan(l, OpXor{}));
}

TEST(ParallelHost, ManySublistsPerThread) {
  // 500 sublists per worker, far past the planned m.
  Rng rng(5);
  const LinkedList l = random_list(50000, rng);
  Workspace ws;
  std::vector<value_t> out(l.size());
  const host_exec::ExecInfo info = host_exec::rank_into(
      l, {.threads = 2, .sublists = 1000, .interleave = 8}, ws, out);
  ASSERT_FALSE(info.no_tail);
  EXPECT_EQ(info.threads, 2u);
  EXPECT_EQ(info.sublists, 1000u);
  testutil::expect_scan_eq(out, reference_rank(l));
}

TEST(ParallelHost, SublistCountClampedForTinyLists) {
  // 8 threads x 1000 sublists asked of a 6-vertex list: the kernel clamps
  // the sublist count to n/2.
  Rng rng(6);
  const LinkedList l = random_list(6, rng, ValueInit::kUniformSmall);
  Workspace ws;
  std::vector<value_t> out(l.size());
  const host_exec::ExecInfo info = host_exec::scan_into(
      l, OpPlus{}, {.threads = 8, .sublists = 8000, .interleave = 8}, ws,
      out);
  ASSERT_FALSE(info.no_tail);
  EXPECT_EQ(info.sublists, 3u);
  testutil::expect_scan_eq(out, testutil::expected_scan(l, OpPlus{}));
}

TEST(ParallelHost, SeedInvariance) {
  Rng rng(7);
  const LinkedList l = random_list(30000, rng, ValueInit::kUniformSmall);
  const auto want = testutil::expected_scan(l, OpPlus{});
  for (const std::uint64_t seed : {1ULL, 42ULL, 777ULL}) {
    EngineOptions eo = host_options(3);
    eo.seed = seed;
    Engine engine(std::move(eo));
    const RunResult r = engine.scan(l, ScanOp::kPlus, Method::kReidMiller);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status.message;
    testutil::expect_scan_eq(r.scan, want);
  }
}

TEST(ParallelHost, InputUntouched) {
  Rng rng(8);
  const LinkedList l = random_list(10000, rng, ValueInit::kUniformSmall);
  const LinkedList copy = l;
  Engine engine(host_options(4));
  ASSERT_TRUE(engine.scan(l, ScanOp::kPlus, Method::kReidMiller).ok());
  ASSERT_TRUE(engine.rank(l, Method::kReidMiller).ok());
  EXPECT_TRUE(lists_equal(l, copy));
}

TEST(ParallelHost, SequentialLayout) {
  const LinkedList l = sequential_list(8192);
  Engine engine(host_options(4));
  const RunResult r = engine.rank(l, Method::kReidMiller);
  ASSERT_TRUE(r.ok());
  testutil::expect_scan_eq(r.scan, reference_rank(l));
}

}  // namespace
}  // namespace lr90
