// Property-based tests: invariants that must hold for every algorithm,
// every list shape, every operator, and every seed. Uses parameterized
// gtest suites to sweep the cross products.
//
// The differential harness at the top is the load-bearing suite: seeded
// random lists of every generator shape and size class (0 / 1 / 2 / prime
// / large) run through every Method x backend x ScanOp via the Engine
// facade and must be bit-identical to the serial oracle -- or typed
// kUnsupported exactly where the support matrix says so. Every assertion
// carries the reproducing seed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <tuple>

#include "baselines/anderson_miller.hpp"
#include "baselines/miller_reif.hpp"
#include "baselines/serial.hpp"
#include "baselines/wyllie.hpp"
#include "core/engine.hpp"
#include "core/host_exec.hpp"
#include "core/reid_miller.hpp"
#include "core/workspace.hpp"
#include "lists/generators.hpp"
#include "lists/validate.hpp"
#include "serve/server.hpp"
#include "shard/sharded.hpp"
#include "test_util.hpp"

namespace lr90 {
namespace {

enum class Shape { kRandom, kSequential, kReversed, kBlocked };

LinkedList make_shape(Shape shape, std::size_t n, ValueInit init, Rng& rng) {
  switch (shape) {
    case Shape::kRandom: return random_list(n, rng, init);
    case Shape::kSequential: return sequential_list(n, init, &rng);
    case Shape::kReversed: return reversed_list(n, init, &rng);
    case Shape::kBlocked:
      return blocked_list(n, std::max<std::size_t>(1, n / 16), rng, init);
  }
  return {};
}

// A throwaway engine per call keeps the property bodies one-liners while
// exercising the library's entry point.
std::vector<value_t> sim_rank(const LinkedList& l, Method method,
                              unsigned processors = 1,
                              std::uint64_t seed = kDefaultSeed) {
  EngineOptions eo;
  eo.backend = BackendKind::kSim;
  eo.processors = processors;
  eo.seed = seed;
  Engine engine{std::move(eo)};
  RunResult r = engine.run(RankRequest{&l, method});
  EXPECT_TRUE(r.ok()) << r.status.message;
  return std::move(r.scan);
}

std::vector<value_t> sim_scan(const LinkedList& l, Method method,
                              unsigned processors = 1,
                              std::uint64_t seed = kDefaultSeed) {
  EngineOptions eo;
  eo.backend = BackendKind::kSim;
  eo.processors = processors;
  eo.seed = seed;
  Engine engine{std::move(eo)};
  RunResult r = engine.run(ScanRequest{&l, ScanOp::kPlus, method});
  EXPECT_TRUE(r.ok()) << r.status.message;
  return std::move(r.scan);
}

std::vector<value_t> host_scan(const LinkedList& l, ScanOp op,
                               unsigned threads = 0) {
  EngineOptions eo;
  eo.backend = BackendKind::kHost;
  eo.threads = threads;
  Engine engine{std::move(eo)};
  RunResult r = engine.run(ScanRequest{&l, op});
  EXPECT_TRUE(r.ok()) << r.status.message;
  return std::move(r.scan);
}

// ---------------------------------------------------------------------
// Differential harness: every Method x backend x operator, every shape,
// sizes 0/1/2/prime/large, bit-exact against the serial oracle.
// ---------------------------------------------------------------------

/// The size classes of the harness: empty, singleton, pair, primes (no
/// alignment accidents), and large enough for every parallel path.
constexpr std::size_t kHarnessSizes[] = {0, 1, 2, 13, 997, 4096};

constexpr Shape kAllShapes[] = {Shape::kRandom, Shape::kSequential,
                                Shape::kReversed, Shape::kBlocked};

/// The reproducing seed of one harness case, derived (not random) so a
/// failure report names exactly how to rebuild the failing list.
std::uint64_t case_seed(Shape shape, std::size_t n, ScanOp op) {
  return 0x5eed1990ULL + static_cast<std::uint64_t>(shape) * 1000003ULL +
         static_cast<std::uint64_t>(n) * 101ULL +
         static_cast<std::uint64_t>(op) * 17ULL;
}

/// Rewrites raw generator values into the operator's value domain so
/// every combine is exact (and therefore associative) regardless of how a
/// method regroups segments: packed lanes for the packed operators,
/// small magnitudes for the arithmetic ones.
value_t harness_value(ScanOp op, value_t raw) {
  switch (op) {
    case ScanOp::kSegSum:
      // A segment start roughly every 7th vertex, signed 32-bit sums --
      // plus junk in bits 32..62, which the operator documents as ignored
      // on input: outputs must still be canonical (bit-exact vs the
      // oracle), so every method has to combine values through the
      // operator rather than propagate them raw.
      return seg_pack(raw % 7 == 0, static_cast<std::int32_t>(raw)) |
             ((raw & 0x1f) << 40);
    case ScanOp::kAffine:
      // Any lanes are exact under wrapping arithmetic; vary both.
      return affine_pack(static_cast<std::int32_t>(raw % 5) - 2,
                         static_cast<std::int32_t>(raw));
    case ScanOp::kMaxPlus:
      // Non-negative shifts, bounded floors: no lane overflow over any
      // sublist grouping of <= 5000 elements.
      return maxplus_pack(static_cast<std::int32_t>((raw < 0 ? -raw : raw) %
                                                    100),
                          static_cast<std::int32_t>(raw % 1000));
    default:
      return raw;  // |raw| < 500 from ValueInit::kSigned: sums stay exact
  }
}

/// The serial oracle under a runtime operator: one ordered walk.
std::vector<value_t> oracle_scan(const LinkedList& l, ScanOp op) {
  return with_scan_op(
      op, [&](auto o) { return testutil::expected_scan(l, o); });
}

/// The support matrix: which (backend, method) pairs may run a scan at
/// all. Anything outside must come back StatusCode::kUnsupported --
/// typed, never wrong, never UB.
bool scan_supported(BackendKind backend, Method method) {
  switch (backend) {
    case BackendKind::kSerial:
      return method == Method::kAuto || method == Method::kSerial;
    case BackendKind::kHost:
      return method == Method::kAuto || method == Method::kSerial ||
             method == Method::kReidMiller;
    case BackendKind::kSim:
      return method != Method::kReidMillerEncoded;  // encoded is rank-only
  }
  return false;
}

bool rank_supported(BackendKind backend, Method method) {
  return scan_supported(backend, method) ||
         (backend == BackendKind::kSim &&
          method == Method::kReidMillerEncoded);
}

EngineOptions harness_options(BackendKind backend) {
  EngineOptions opt;
  opt.backend = backend;
  if (backend == BackendKind::kSim) opt.processors = 4;
  if (backend == BackendKind::kHost) opt.threads = 3;
  return opt;
}

using BackendMethod = std::tuple<BackendKind, Method>;

class DifferentialHarness : public ::testing::TestWithParam<BackendMethod> {};

TEST_P(DifferentialHarness, ScansMatchSerialOracleOrRejectTyped) {
  const auto [backend, method] = GetParam();
  Engine engine(harness_options(backend));
  for (const ScanOp op : kAllScanOps) {
    for (const Shape shape : kAllShapes) {
      for (const std::size_t n : kHarnessSizes) {
        const std::uint64_t seed = case_seed(shape, n, op);
        Rng rng(seed);
        LinkedList l = make_shape(shape, n, ValueInit::kSigned, rng);
        for (value_t& v : l.value) v = harness_value(op, v);

        std::ostringstream repro;
        repro << "repro: seed=" << seed << " shape=" << static_cast<int>(shape)
              << " n=" << n << " op=" << scan_op_name(op)
              << " method=" << method_name(method)
              << " backend=" << backend_name(backend);
        SCOPED_TRACE(repro.str());

        const RunResult r = engine.run(OpRequest{&l, op, method});
        if (!scan_supported(backend, method)) {
          EXPECT_EQ(r.status.code, StatusCode::kUnsupported);
          continue;
        }
        ASSERT_TRUE(r.ok()) << r.status.message;
        ASSERT_NE(r.method_used, Method::kAuto);
        testutil::expect_scan_eq(r.scan, oracle_scan(l, op));
      }
    }
  }
}

TEST_P(DifferentialHarness, RanksMatchReferenceOrRejectTyped) {
  const auto [backend, method] = GetParam();
  Engine engine(harness_options(backend));
  for (const Shape shape : kAllShapes) {
    for (const std::size_t n : kHarnessSizes) {
      const std::uint64_t seed = case_seed(shape, n, ScanOp::kPlus) ^ 0xabcd;
      Rng rng(seed);
      const LinkedList l = make_shape(shape, n, ValueInit::kSigned, rng);

      std::ostringstream repro;
      repro << "repro: seed=" << seed << " shape=" << static_cast<int>(shape)
            << " n=" << n << " rank method=" << method_name(method)
            << " backend=" << backend_name(backend);
      SCOPED_TRACE(repro.str());

      const RunResult r = engine.rank(l, method);
      if (!rank_supported(backend, method)) {
        EXPECT_EQ(r.status.code, StatusCode::kUnsupported);
        continue;
      }
      ASSERT_TRUE(r.ok()) << r.status.message;
      testutil::expect_scan_eq(r.scan, reference_rank(l));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsTimesMethods, DifferentialHarness,
    ::testing::Combine(
        ::testing::Values(BackendKind::kSerial, BackendKind::kSim,
                          BackendKind::kHost),
        ::testing::Values(Method::kAuto, Method::kSerial, Method::kWyllie,
                          Method::kMillerReif, Method::kAndersonMiller,
                          Method::kReidMiller, Method::kReidMillerEncoded)));

// ---------------------------------------------------------------------
// The multi-cursor driver: every forced interleave width (including the
// degenerate W=1), every generator shape and size class, every operator
// -- bit-exact against the serial oracle. Every operator walks the
// record slab with the same driver at the same forced width, values
// past 32 bits included.
// ---------------------------------------------------------------------

class HostInterleaveHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(HostInterleaveHarness, AllWidthsMatchSerialOracle) {
  const unsigned width = GetParam();
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.threads = 3;
  opt.interleave = width;
  Engine engine(std::move(opt));
  for (const ScanOp op : kAllScanOps) {
    for (const Shape shape : kAllShapes) {
      for (const std::size_t n : kHarnessSizes) {
        const std::uint64_t seed = case_seed(shape, n, op) ^ 0x11ead;
        Rng rng(seed);
        LinkedList l = make_shape(shape, n, ValueInit::kSigned, rng);
        for (value_t& v : l.value) v = harness_value(op, v);

        std::ostringstream repro;
        repro << "repro: seed=" << seed << " shape=" << static_cast<int>(shape)
              << " n=" << n << " op=" << scan_op_name(op) << " W=" << width;
        SCOPED_TRACE(repro.str());

        const RunResult r = engine.run(OpRequest{&l, op});
        ASSERT_TRUE(r.ok()) << r.status.message;
        testutil::expect_scan_eq(r.scan, oracle_scan(l, op));
        if (r.method_used == Method::kReidMiller) {
          // Every operator walks the slab at the forced width.
          EXPECT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
          EXPECT_EQ(r.stats.host_interleave, width);
        }

        const RunResult rank = engine.rank(l);
        ASSERT_TRUE(rank.ok()) << rank.status.message;
        testutil::expect_scan_eq(rank.scan, reference_rank(l));
      }
    }
  }

  // A plus scan with one value past 32 bits: it rides whole in the
  // record's second word, and the same driver walks the slab at the
  // forced width.
  Rng rng(0x0f10);
  LinkedList wide = random_list(8192, rng, ValueInit::kSigned);
  wide.value[1234] = (value_t{1} << 31) + 5;
  SCOPED_TRACE("repro: seed=3856 lane overflow W=" + std::to_string(width));
  const RunResult r = engine.run(OpRequest{&wide, ScanOp::kPlus});
  ASSERT_TRUE(r.ok()) << r.status.message;
  testutil::expect_scan_eq(r.scan, oracle_scan(wide, ScanOp::kPlus));
  ASSERT_EQ(r.method_used, Method::kReidMiller);
  EXPECT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
  EXPECT_EQ(r.stats.host_interleave, width);
}

INSTANTIATE_TEST_SUITE_P(Widths, HostInterleaveHarness,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

// ---------------------------------------------------------------------
// Thread scaling: every forced (T, W) execution shape, every generator
// shape and size class, every operator -- bit-exact against the serial
// oracle. The direct host_exec half pins the exact worker count (the
// Engine's planner sheds threads for small n), so the parallel slab
// build and the shared claim counter both run with genuinely T workers;
// the Engine half checks the same shape end-to-end through the planner
// and stats plumbing.
// ---------------------------------------------------------------------

using ThreadsWidth = std::tuple<unsigned, unsigned>;

class HostThreadsHarness : public ::testing::TestWithParam<ThreadsWidth> {};

TEST_P(HostThreadsHarness, AllThreadCountsMatchSerialOracle) {
  const auto [threads, width] = GetParam();
  EngineOptions opt;
  opt.backend = BackendKind::kHost;
  opt.threads = threads;
  opt.interleave = width;
  Engine engine(std::move(opt));
  // Enough sublists that T workers all get work whenever n allows it.
  const std::size_t sublists = 16 * static_cast<std::size_t>(threads) + 64;
  for (const ScanOp op : kAllScanOps) {
    for (const Shape shape : kAllShapes) {
      for (const std::size_t n : kHarnessSizes) {
        const std::uint64_t seed = case_seed(shape, n, op) ^ 0x7ead5;
        Rng rng(seed);
        LinkedList l = make_shape(shape, n, ValueInit::kSigned, rng);
        for (value_t& v : l.value) v = harness_value(op, v);

        std::ostringstream repro;
        repro << "repro: seed=" << seed << " shape=" << static_cast<int>(shape)
              << " n=" << n << " op=" << scan_op_name(op) << " T=" << threads
              << " W=" << width;
        SCOPED_TRACE(repro.str());
        const std::vector<value_t> want = oracle_scan(l, op);

        // Direct kernel, exact worker count (the slab when the operator's
        // values fit the 32-bit lane, the list arrays otherwise).
        {
          host_exec::HostPlan plan;
          plan.threads = threads;
          plan.sublists = sublists;
          plan.interleave = width;
          Workspace ws;
          ws.rng = Rng(seed);
          std::vector<value_t> got(n, 0);
          with_scan_op(op, [&](auto o) {
            host_exec::scan_into(l, o, plan, ws, std::span<value_t>(got));
          });
          testutil::expect_scan_eq(got, want);

          std::vector<value_t> ranked(n, 0);
          ws.rng = Rng(seed);
          host_exec::rank_into(l, plan, ws, std::span<value_t>(ranked));
          testutil::expect_scan_eq(ranked, reference_rank(l));
        }

        // The Engine path under the same pinned options.
        const RunResult r = engine.run(OpRequest{&l, op});
        ASSERT_TRUE(r.ok()) << r.status.message;
        testutil::expect_scan_eq(r.scan, want);
        if (r.method_used == Method::kReidMiller) {
          EXPECT_GE(r.stats.host_threads, 1u);
          EXPECT_LE(r.stats.host_threads, threads);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsTimesWidths, HostThreadsHarness,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(1u, 4u, 16u)));

// The array-order phase 3 at its edge: sublists pinned near n / 2, so
// most hold one or two vertices and sublist ids pass 2^16. Every operator
// runs on the slab, the elementwise ones again with one value past 32
// bits, and rank runs on the slab, all bit-exact against the serial
// oracle.
TEST(StreamingPhase3, TinySublistsOnTheSlabMatchSerialOracle) {
  constexpr std::size_t kN = std::size_t{1} << 18;
  host_exec::HostPlan plan;
  plan.threads = 4;
  plan.sublists = kN / 2 - 3;
  plan.interleave = 8;
  const auto expect_run = [&](const host_exec::ExecInfo& info) {
    EXPECT_EQ(info.tier, KernelTier::kPackedCursors);
    EXPECT_EQ(info.sublists, plan.sublists);
    EXPECT_GT(info.sublists, std::size_t{1} << 16);
  };
  Workspace ws;
  std::vector<value_t> got(kN, 0);
  for (const ScanOp op : kAllScanOps) {
    Rng rng(0x57ea + static_cast<std::uint64_t>(op));
    LinkedList l = random_list(kN, rng, ValueInit::kSigned);
    for (value_t& v : l.value) v = harness_value(op, v);
    // The two-lane operators' values already fill all 64 bits.
    const bool two_lane = op == ScanOp::kSegSum || op == ScanOp::kAffine ||
                          op == ScanOp::kMaxPlus;
    for (const bool past_lane : {false, true}) {
      if (past_lane && two_lane) continue;
      SCOPED_TRACE(std::string(scan_op_name(op)) +
                   (past_lane ? " past 32 bits" : ""));
      if (past_lane) l.value[kN / 3] = (value_t{1} << 31) + 5;
      with_scan_op(op, [&](auto o) {
        expect_run(host_exec::scan_into(l, o, plan, ws, got));
      });
      testutil::expect_scan_eq(got, oracle_scan(l, op));
    }
  }
  Rng rng(0x57eb);
  const LinkedList l = random_list(kN, rng);
  expect_run(host_exec::rank_into(l, plan, ws, got));
  testutil::expect_scan_eq(got, reference_rank(l));
}

// ---------------------------------------------------------------------
// The sharded tier: P shards x every operator x every generator shape,
// with the spill tier forced on and off -- bit-exact against the serial
// oracle. The second-level Reid-Miller reduction over shard-boundary
// segments must be invisible: any regrouping the shard plan induces has
// to resolve through the operator, never through luck.
// ---------------------------------------------------------------------

class ShardHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShardHarness, AllShardCountsMatchSerialOracleSpillOnAndOff) {
  const unsigned shards = GetParam();
  for (const bool spill : {false, true}) {
    for (const ScanOp op : kAllScanOps) {
      for (const Shape shape : kAllShapes) {
        for (const std::size_t n :
             {std::size_t{13}, std::size_t{997}, std::size_t{4096}}) {
          const std::uint64_t seed = case_seed(shape, n, op) ^ 0x5aa5;
          Rng rng(seed);
          LinkedList l = make_shape(shape, n, ValueInit::kSigned, rng);
          for (value_t& v : l.value) v = harness_value(op, v);

          std::ostringstream repro;
          repro << "repro: seed=" << seed
                << " shape=" << static_cast<int>(shape) << " n=" << n
                << " op=" << scan_op_name(op) << " P=" << shards
                << " spill=" << spill;
          SCOPED_TRACE(repro.str());

          shard::ShardExec exec;
          exec.shards = shards;
          exec.threads = 2;
          exec.interleave = 8;
          // Any nonzero budget turns the spill tier on: every acquire
          // loads from the spill file and unmaps it on release.
          if (spill) exec.byte_budget = 1;

          Workspace ws;
          std::vector<value_t> out(n, 0);
          shard::ShardRunStats st;
          Status s = shard::sharded_scan(l, /*rank=*/false, op, exec, ws,
                                         std::span<value_t>(out), st);
          ASSERT_TRUE(s.ok()) << s.message;
          testutil::expect_scan_eq(out, oracle_scan(l, op));

          std::vector<value_t> ranked(n, 0);
          s = shard::sharded_scan(l, /*rank=*/true, ScanOp::kPlus, exec, ws,
                                  std::span<value_t>(ranked), st);
          ASSERT_TRUE(s.ok()) << s.message;
          testutil::expect_scan_eq(ranked, reference_rank(l));
          if (spill) EXPECT_TRUE(st.store.spilled);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardHarness,
                         ::testing::Values(1u, 2u, 7u, 16u));

// ---------------------------------------------------------------------
// Operator algebra: the packed operators are associative with an exact
// identity on arbitrary packed inputs (the property every parallel
// regrouping implicitly relies on).
// ---------------------------------------------------------------------
TEST(OperatorAlgebra, PackedOperatorsAssociateWithExactIdentity) {
  Rng rng(0x0955);
  for (const ScanOp op :
       {ScanOp::kSegSum, ScanOp::kAffine, ScanOp::kMaxPlus}) {
    with_scan_op(op, [&](auto o) {
      using Op = decltype(o);
      for (int i = 0; i < 2000; ++i) {
        const value_t a = harness_value(
            op, static_cast<value_t>(rng.uniform(1000)) - 500);
        const value_t b = harness_value(
            op, static_cast<value_t>(rng.uniform(1000)) - 500);
        const value_t c = harness_value(
            op, static_cast<value_t>(rng.uniform(1000)) - 500);
        ASSERT_EQ(o(o(a, b), c), o(a, o(b, c)))
            << scan_op_name(op) << " must associate";
        // Identity laws hold bitwise on canonical values (combine
        // outputs); a raw input may carry ignored bits the combine drops.
        const value_t canon = o(Op::identity(), a);
        ASSERT_EQ(o(Op::identity(), canon), canon);
        ASSERT_EQ(o(canon, Op::identity()), canon);
        ASSERT_EQ(o(a, Op::identity()), canon);
      }
    });
  }
}

// ---------------------------------------------------------------------
// Every method x every shape x several sizes: rank == reference.
// ---------------------------------------------------------------------
using MethodShape = std::tuple<Method, Shape, std::size_t>;

class RankProperty : public ::testing::TestWithParam<MethodShape> {};

TEST_P(RankProperty, MatchesReference) {
  const auto [method, shape, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 31 + static_cast<int>(shape));
  const LinkedList l = make_shape(shape, n, ValueInit::kOnes, rng);
  testutil::expect_scan_eq(sim_rank(l, method), reference_rank(l));
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsShapesSizes, RankProperty,
    ::testing::Combine(
        ::testing::Values(Method::kSerial, Method::kWyllie,
                          Method::kMillerReif, Method::kAndersonMiller,
                          Method::kReidMiller, Method::kReidMillerEncoded),
        ::testing::Values(Shape::kRandom, Shape::kSequential,
                          Shape::kReversed, Shape::kBlocked),
        ::testing::Values<std::size_t>(1, 2, 3, 13, 128, 1500)));

// ---------------------------------------------------------------------
// Scan under every operator agrees with the reference walk.
// ---------------------------------------------------------------------
class OperatorProperty
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

template <class Op>
void check_all_scan_algorithms(const LinkedList& l, Op op, ScanOp sop) {
  const auto want = testutil::expected_scan(l, op);
  const std::size_t n = l.size();
  vm::Machine m;
  std::vector<value_t> out(n);

  serial_scan(m, 0, l, std::span<value_t>(out), op);
  testutil::expect_scan_eq(out, want);

  wyllie_scan(m, l, std::span<value_t>(out), op);
  testutil::expect_scan_eq(out, want);

  Rng c1(1);
  miller_reif_scan(m, l, std::span<value_t>(out), c1, op);
  testutil::expect_scan_eq(out, want);

  Rng c2(2);
  anderson_miller_scan(m, l, std::span<value_t>(out), c2, op);
  testutil::expect_scan_eq(out, want);

  LinkedList work = l;
  Rng c3(3);
  reid_miller_scan(m, work, std::span<value_t>(out), c3, op);
  testutil::expect_scan_eq(out, want);
  EXPECT_TRUE(lists_equal(work, l));

  testutil::expect_scan_eq(host_scan(l, sop, /*threads=*/3), want);
}

TEST_P(OperatorProperty, AllAlgorithmsAgree) {
  const auto [op_id, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(op_id) * 1000 + n);
  const LinkedList l = make_shape(Shape::kRandom, n, ValueInit::kSigned, rng);
  switch (op_id) {
    case 0: check_all_scan_algorithms(l, OpPlus{}, ScanOp::kPlus); break;
    case 1: check_all_scan_algorithms(l, OpMin{}, ScanOp::kMin); break;
    case 2: check_all_scan_algorithms(l, OpMax{}, ScanOp::kMax); break;
    case 3: check_all_scan_algorithms(l, OpXor{}, ScanOp::kXor); break;
    default: FAIL();
  }
}

INSTANTIATE_TEST_SUITE_P(
    OpsTimesSizes, OperatorProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values<std::size_t>(2, 9, 257, 2048)));

// ---------------------------------------------------------------------
// Exhaustive tiny lists: every permutation of up to 6 vertices.
// ---------------------------------------------------------------------
TEST(ExhaustiveTiny, EveryPermutationRanksCorrectly) {
  for (std::size_t n = 1; n <= 6; ++n) {
    std::vector<index_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<index_t>(i);
    do {
      const LinkedList l = list_from_order(order);
      const auto want = reference_rank(l);
      ASSERT_EQ(sim_rank(l, Method::kReidMiller), want);
      ASSERT_EQ(sim_rank(l, Method::kMillerReif), want);
      ASSERT_EQ(sim_rank(l, Method::kAndersonMiller), want);
      ASSERT_EQ(sim_rank(l, Method::kWyllie), want);
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

// ---------------------------------------------------------------------
// Multiprocessor sweep: methods that support p > 1 x processor counts.
// ---------------------------------------------------------------------
using MethodProcs = std::tuple<Method, unsigned, std::size_t>;

class MultiprocProperty : public ::testing::TestWithParam<MethodProcs> {};

TEST_P(MultiprocProperty, CorrectOnEveryProcessorCount) {
  const auto [method, procs, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(procs) * 7919 + n);
  const LinkedList l = random_list(n, rng, ValueInit::kUniformSmall);
  testutil::expect_scan_eq(sim_scan(l, method, procs),
                           testutil::expected_scan(l, OpPlus{}));
}

INSTANTIATE_TEST_SUITE_P(
    MethodsTimesProcs, MultiprocProperty,
    ::testing::Combine(::testing::Values(Method::kWyllie,
                                         Method::kReidMiller),
                       ::testing::Values(1u, 2u, 3u, 5u, 8u, 16u),
                       ::testing::Values<std::size_t>(37, 4096, 50000)));

// ---------------------------------------------------------------------
// Reid-Miller option matrix: schedule kind x explicit m choices.
// ---------------------------------------------------------------------
using RmConfig = std::tuple<ScheduleKind, double>;

class RmOptionProperty : public ::testing::TestWithParam<RmConfig> {};

TEST_P(RmOptionProperty, CorrectAndRestoring) {
  const auto [kind, m_frac] = GetParam();
  const std::size_t n = 8000;
  Rng rng(static_cast<std::uint64_t>(m_frac * 1000) + 5);
  const LinkedList l = random_list(n, rng, ValueInit::kSigned);
  LinkedList work = l;
  std::vector<value_t> out(n);
  vm::Machine machine;
  Rng r(17);
  ReidMillerOptions opt;
  opt.schedule = kind;
  opt.m = m_frac > 0 ? m_frac * static_cast<double>(n) : 0;
  reid_miller_scan(machine, work, std::span<value_t>(out), r, OpPlus{}, opt);
  testutil::expect_scan_eq(out, testutil::expected_scan(l, OpPlus{}));
  EXPECT_TRUE(lists_equal(work, l));
}

INSTANTIATE_TEST_SUITE_P(
    SchedulesTimesM, RmOptionProperty,
    ::testing::Combine(::testing::Values(ScheduleKind::kOptimal,
                                         ScheduleKind::kUniform,
                                         ScheduleKind::kNone),
                       ::testing::Values(0.0, 0.001, 0.02, 0.25, 0.9)));

// ---------------------------------------------------------------------
// Structural invariants.
// ---------------------------------------------------------------------
class SeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedProperty, ScanOfOnesEqualsRank) {
  Rng rng(GetParam());
  LinkedList l = random_list(3000, rng, ValueInit::kOnes);
  const auto rank = sim_rank(l, Method::kReidMiller, 1, GetParam());
  const auto scan = sim_scan(l, Method::kReidMiller, 1, GetParam());
  testutil::expect_scan_eq(scan, rank);
}

TEST_P(SeedProperty, XorScanAppliedTwiceRecoversPrefixParity) {
  // xor-scan is its own "inverse" check: out[v] ^ value[v] equals the
  // inclusive prefix, and the inclusive prefix of the tail equals the xor
  // of everything except the tail... a cheap end-to-end consistency chain.
  Rng rng(GetParam() + 100);
  const LinkedList l = random_list(1024, rng, ValueInit::kUniformSmall);
  const auto out = host_scan(l, ScanOp::kXor);
  value_t all = 0;
  for (const value_t v : l.value) all ^= v;
  const index_t tail = l.find_tail();
  EXPECT_EQ(out[tail] ^ l.value[tail], all);
  EXPECT_EQ(out[l.head], 0);
}

TEST_P(SeedProperty, RanksAreAPermutationOfZeroToNMinusOne) {
  Rng rng(GetParam() + 200);
  const LinkedList l = random_list(4096, rng);
  const auto ranks = sim_rank(l, Method::kReidMillerEncoded, 1, GetParam());
  std::vector<char> seen(4096, 0);
  for (const value_t v : ranks) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 4096);
    ASSERT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedProperty,
                         ::testing::Values(1, 7, 42, 1234, 99991));

// ---------------------------------------------------------------------
// Cache-coherence differential harness: seeded interleavings of
// register / update / rank / scan / drop across two snapshots and all
// seven operators against an EngineServer with the cross-request caches
// live. Every successful response must be bit-exact against a FRESH
// serial-oracle run on the generation the request resolved to -- a
// cached answer is indistinguishable from a recomputed one, or the cache
// is wrong. Stale pins must come back kStaleGeneration carrying the
// current generation; dropped ids must come back kInvalidInput.
// ---------------------------------------------------------------------

/// Shadow of one registered snapshot: what the server must currently be
/// serving for it.
struct ShadowSnapshot {
  serve::SnapshotHandle handle;  ///< id + the generation we last saw
  LinkedList list;               ///< bit-for-bit the registered bytes
};

/// Small non-negative values keep every operator exact under arbitrary
/// regrouping AND arbitrary lane interpretation (no segment-start bits,
/// no lane overflow), so one fixed value set is a sound oracle input for
/// all seven operators at once.
LinkedList coherence_list(std::size_t n, Rng& rng) {
  LinkedList l = random_list(n, rng, ValueInit::kUniformSmall);
  for (value_t& v : l.value) v %= 100;
  return l;
}

class SnapshotCoherence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotCoherence, InterleavedMutationsStayBitExact) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.engine.threads = 2;
  opt.workers = 2;
  EngineServer server(opt);

  constexpr std::size_t kSnapshots = 2;
  const std::size_t sizes[kSnapshots] = {997, 256};
  ShadowSnapshot shadow[kSnapshots];
  for (std::size_t i = 0; i < kSnapshots; ++i) {
    shadow[i].list = coherence_list(sizes[i], rng);
    ASSERT_TRUE(server
                    .register_snapshot(shadow[i].list, shadow[i].handle)
                    .ok());
    EXPECT_EQ(shadow[i].handle.generation, 1u);
  }

  for (int step = 0; step < 120; ++step) {
    const std::size_t i = rng.uniform(kSnapshots);
    ShadowSnapshot& s = shadow[i];
    const ScanOp op = kAllScanOps[static_cast<std::size_t>(step) %
                                  std::size(kAllScanOps)];
    std::ostringstream repro;
    repro << "repro: seed=" << seed << " step=" << step << " snapshot=" << i
          << " id=" << s.handle.snapshot_id << " gen=" << s.handle.generation
          << " op=" << scan_op_name(op);
    SCOPED_TRACE(repro.str());

    const std::uint64_t action = rng.uniform(10);
    if (action < 3) {
      // Rank against whatever is current (generation 0) or our pinned
      // current generation -- both must serve the current bytes.
      serve::SnapshotRequest req;
      req.snapshot_id = s.handle.snapshot_id;
      req.generation = rng.coin() ? 0 : s.handle.generation;
      req.rank = true;
      const RunResult r = server.submit(req).get();
      ASSERT_TRUE(r.ok()) << r.status.message;
      EXPECT_EQ(r.stats.snapshot_generation, s.handle.generation);
      testutil::expect_scan_eq(r.scan, reference_rank(s.list));
    } else if (action < 6) {
      serve::SnapshotRequest req;
      req.snapshot_id = s.handle.snapshot_id;
      req.generation = rng.coin() ? 0 : s.handle.generation;
      req.rank = false;
      req.op = op;
      const RunResult r = server.submit(req).get();
      ASSERT_TRUE(r.ok()) << r.status.message;
      testutil::expect_scan_eq(r.scan, oracle_scan(s.list, op));
    } else if (action < 7 && s.handle.generation >= 2) {
      // A pin on the superseded generation: the typed stale refusal must
      // name the generation to retarget to. Never a stale answer.
      serve::SnapshotRequest req;
      req.snapshot_id = s.handle.snapshot_id;
      req.generation = s.handle.generation - 1;
      req.rank = (step % 2) == 0;
      req.op = op;
      const RunResult r = server.submit(req).get();
      ASSERT_EQ(r.status.code, StatusCode::kStaleGeneration);
      EXPECT_EQ(r.stats.snapshot_generation, s.handle.generation);
    } else if (action < 9) {
      // update(): new bytes under the same id, generation bump; every
      // later request must observe only the new list.
      s.list = coherence_list(sizes[i], rng);
      const std::uint64_t before = s.handle.generation;
      ASSERT_TRUE(server
                      .update_snapshot(s.handle.snapshot_id, s.list,
                                       s.handle)
                      .ok());
      EXPECT_EQ(s.handle.generation, before + 1);
    } else {
      // drop() then re-register: the dropped id must refuse typed, and
      // ids are never reused.
      const std::uint64_t dropped = s.handle.snapshot_id;
      ASSERT_TRUE(server.drop_snapshot(dropped));
      serve::SnapshotRequest req;
      req.snapshot_id = dropped;
      const RunResult r = server.submit(req).get();
      EXPECT_EQ(r.status.code, StatusCode::kInvalidInput);
      s.list = coherence_list(sizes[i], rng);
      ASSERT_TRUE(server.register_snapshot(s.list, s.handle).ok());
      EXPECT_NE(s.handle.snapshot_id, dropped);
      EXPECT_EQ(s.handle.generation, 1u);
    }
  }

  server.shutdown();
  const ServerStats stats = server.stats();
  // The interleaving repeats (snapshot, generation, shape) keys, so the
  // caches must have actually served -- this harness exercises hits, not
  // just cold misses.
  EXPECT_GT(stats.result_hits + stats.slab_hits, 0u);
  EXPECT_EQ(stats.snapshots_live, kSnapshots);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotCoherence,
                         ::testing::Values(1, 7, 42, 1234));

}  // namespace
}  // namespace lr90
