#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/tuner.hpp"
#include "core/host_exec.hpp"
#include "lists/generators.hpp"
#include "lists/validate.hpp"
#include "support/huge_pages.hpp"
#include "test_util.hpp"

namespace lr90 {
namespace {

EngineOptions backend_options(BackendKind kind) {
  EngineOptions eo;
  eo.backend = kind;
  if (kind == BackendKind::kHost) eo.threads = 2;
  return eo;
}

// -- backend parity ---------------------------------------------------------

TEST(Engine, BackendsAgreeOnRankAcrossSizes) {
  Rng rng(1);
  for (const std::size_t n : testutil::sweep_sizes()) {
    const LinkedList l = random_list(n, rng);
    const auto want = reference_rank(l);
    for (const BackendKind kind :
         {BackendKind::kSerial, BackendKind::kSim, BackendKind::kHost}) {
      Engine engine(backend_options(kind));
      const RunResult r = engine.rank(l);
      ASSERT_TRUE(r.ok()) << backend_name(kind) << " n=" << n << ": "
                          << r.status.message;
      EXPECT_EQ(r.backend, kind);
      testutil::expect_scan_eq(r.scan, want);
    }
  }
}

TEST(Engine, BackendsAgreeOnDegenerateLayouts) {
  for (const std::size_t n : {1u, 2u, 5u, 300u}) {
    for (const bool reversed : {false, true}) {
      const LinkedList l =
          reversed ? reversed_list(n) : sequential_list(n);
      const auto want = reference_rank(l);
      for (const BackendKind kind :
           {BackendKind::kSerial, BackendKind::kSim, BackendKind::kHost}) {
        Engine engine(backend_options(kind));
        const RunResult r = engine.rank(l);
        ASSERT_TRUE(r.ok());
        testutil::expect_scan_eq(r.scan, want);
      }
    }
  }
}

TEST(Engine, BackendsAgreeOnEveryScanOp) {
  Rng rng(2);
  const LinkedList base = random_list(3000, rng, ValueInit::kSigned);
  for (const ScanOp op : kAllScanOps) {
    // The packed operators read their value as 32-bit lanes; keep the
    // magnitudes in-lane so every combine is exact (max-plus especially).
    LinkedList l = base;
    if (op == ScanOp::kSegSum || op == ScanOp::kAffine ||
        op == ScanOp::kMaxPlus) {
      for (value_t& v : l.value) v &= 0xffff;
    }
    const std::vector<value_t> want = with_scan_op(
        op, [&](auto o) { return testutil::expected_scan(l, o); });
    for (const BackendKind kind :
         {BackendKind::kSerial, BackendKind::kSim, BackendKind::kHost}) {
      Engine engine(backend_options(kind));
      const RunResult r = engine.run(OpRequest{&l, op});
      ASSERT_TRUE(r.ok()) << backend_name(kind) << " op "
                          << scan_op_name(op) << ": " << r.status.message;
      testutil::expect_scan_eq(r.scan, want);
    }
  }
}

TEST(Engine, EmptyAndSingleVertexLists) {
  for (const BackendKind kind :
       {BackendKind::kSerial, BackendKind::kSim, BackendKind::kHost}) {
    Engine engine(backend_options(kind));

    const LinkedList empty;
    const RunResult r0 = engine.rank(empty);
    ASSERT_TRUE(r0.ok());
    EXPECT_TRUE(r0.scan.empty());

    const LinkedList one = sequential_list(1);
    const RunResult r1 = engine.rank(one);
    ASSERT_TRUE(r1.ok());
    ASSERT_EQ(r1.scan.size(), 1u);
    EXPECT_EQ(r1.scan[0], 0);
    const RunResult s1 = engine.scan(one, ScanOp::kMin);
    ASSERT_TRUE(s1.ok());
    EXPECT_EQ(s1.scan[0], OpMin::identity());
  }
}

// -- merged stats -----------------------------------------------------------

TEST(Engine, SimStatsCarrySimulatedFigures) {
  Rng rng(3);
  const LinkedList l = random_list(5000, rng);
  Engine engine(backend_options(BackendKind::kSim));
  const RunResult r = engine.rank(l, Method::kReidMiller);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.stats.has_sim);
  EXPECT_GT(r.stats.sim_cycles, 0.0);
  EXPECT_GT(r.stats.sim_ns, 0.0);
  EXPECT_GT(r.stats.sim_ns_per_vertex, 0.0);
  EXPECT_GT(r.stats.algo.link_steps, 0u);
  EXPECT_GE(r.stats.wall_ns, 0.0);
  ASSERT_NE(engine.sim_machine(), nullptr);
  EXPECT_DOUBLE_EQ(engine.sim_machine()->max_cycles(), r.stats.sim_cycles);
}

TEST(Engine, HostStatsHaveNoSimFigures) {
  Rng rng(4);
  const LinkedList l = random_list(5000, rng);
  Engine engine(backend_options(BackendKind::kHost));
  const RunResult r = engine.rank(l);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.stats.has_sim);
  EXPECT_EQ(r.stats.sim_cycles, 0.0);
  EXPECT_GE(r.stats.wall_ns, 0.0);
  EXPECT_EQ(engine.sim_machine(), nullptr);
}

// -- typed errors -----------------------------------------------------------

TEST(Engine, NullListIsInvalidInput) {
  Engine engine;
  const RunResult r = engine.run(Request{});
  EXPECT_EQ(r.status.code, StatusCode::kInvalidInput);
}

TEST(Engine, MalformedListIsInvalidInputWhenValidating) {
  LinkedList bad;
  bad.next = {1, 0};  // two-cycle, no tail
  bad.value = {1, 1};
  bad.head = 0;
  EngineOptions eo = backend_options(BackendKind::kSim);
  eo.validate_input = true;
  Engine engine(std::move(eo));
  const RunResult r = engine.rank(bad);
  EXPECT_EQ(r.status.code, StatusCode::kInvalidInput);
}

TEST(Engine, UnsupportedCombinationsAreTypedNotThrown) {
  Rng rng(5);
  const LinkedList l = random_list(100, rng);
  {
    Engine sim(backend_options(BackendKind::kSim));
    const RunResult r = sim.scan(l, ScanOp::kPlus,
                                 Method::kReidMillerEncoded);
    EXPECT_EQ(r.status.code, StatusCode::kUnsupported);
  }
  {
    Engine host(backend_options(BackendKind::kHost));
    const RunResult r = host.rank(l, Method::kWyllie);
    EXPECT_EQ(r.status.code, StatusCode::kUnsupported);
  }
  {
    Engine serial(backend_options(BackendKind::kSerial));
    const RunResult r = serial.rank(l, Method::kMillerReif);
    EXPECT_EQ(r.status.code, StatusCode::kUnsupported);
  }
}

// -- batches ----------------------------------------------------------------

TEST(Engine, RunBatchMixedSizesAndKinds) {
  Rng rng(6);
  std::vector<LinkedList> lists;
  for (const std::size_t n : {0u, 1u, 2u, 17u, 500u, 4096u})
    lists.push_back(random_list(n, rng, ValueInit::kSigned));

  std::vector<Request> requests;
  for (const LinkedList& l : lists) {
    requests.push_back(RankRequest{&l});
    requests.push_back(ScanRequest{&l, ScanOp::kPlus});
    requests.push_back(ScanRequest{&l, ScanOp::kMax});
  }

  for (const BackendKind kind :
       {BackendKind::kSerial, BackendKind::kSim, BackendKind::kHost}) {
    Engine engine(backend_options(kind));
    const std::vector<RunResult> results = engine.run_batch(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Request& req = requests[i];
      const RunResult& r = results[i];
      ASSERT_TRUE(r.ok()) << backend_name(kind) << " request " << i << ": "
                          << r.status.message;
      if (req.rank) {
        testutil::expect_scan_eq(r.scan, reference_rank(*req.list));
      } else if (req.op == ScanOp::kPlus) {
        testutil::expect_scan_eq(r.scan,
                                 testutil::expected_scan(*req.list, OpPlus{}));
      } else {
        testutil::expect_scan_eq(r.scan,
                                 testutil::expected_scan(*req.list, OpMax{}));
      }
    }
  }
}

TEST(Engine, BatchFailuresAreIsolatedPerRequest) {
  Rng rng(7);
  const LinkedList good = random_list(50, rng);
  const Request requests[] = {
      RankRequest{&good},
      Request{},  // null list: fails alone
      RankRequest{&good},
  };
  Engine engine;
  const auto results = engine.run_batch(requests);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status.code, StatusCode::kInvalidInput);
  EXPECT_TRUE(results[2].ok());
}

// -- workspace reuse --------------------------------------------------------

TEST(Engine, WorkspaceStopsAllocatingAfterWarmup) {
  // The acceptance bar: a 100-request batch on the host backend performs
  // no more than one workspace allocation after warm-up.
  constexpr std::size_t kRequests = 100;
  constexpr std::size_t kVertices = 20000;
  Rng rng(8);
  std::vector<LinkedList> lists;
  lists.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i)
    lists.push_back(random_list(kVertices, rng));

  Engine engine(backend_options(BackendKind::kHost));
  // Warm-up: the first run grows every buffer to the working size.
  const RunResult warm = engine.rank(lists[0]);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm.method_used, Method::kReidMiller)
      << "list too small to exercise the parallel path";
  const std::uint64_t after_warmup = engine.workspace().allocations();
  ASSERT_GT(after_warmup, 0u);

  std::vector<Request> requests;
  requests.reserve(kRequests);
  for (const LinkedList& l : lists) requests.push_back(RankRequest{&l});
  const auto results = engine.run_batch(requests);
  for (const RunResult& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.method_used, Method::kReidMiller);
  }

  EXPECT_LE(engine.workspace().allocations(), after_warmup + 1);
  EXPECT_GT(engine.workspace().reuse_hits(), 0u);
  // Spot-check the last answer; the batch above already verified sizes.
  testutil::expect_scan_eq(results.back().scan,
                           reference_rank(lists.back()));
}

TEST(Engine, SimWorkspaceReusesScratchListAcrossCalls) {
  Rng rng(9);
  const LinkedList l = random_list(4096, rng);
  Engine engine(backend_options(BackendKind::kSim));
  ASSERT_TRUE(engine.rank(l, Method::kReidMiller).ok());
  const std::uint64_t after_warmup = engine.workspace().allocations();
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(engine.rank(l, Method::kReidMiller).ok());
  EXPECT_EQ(engine.workspace().allocations(), after_warmup);
}

TEST(Engine, RepeatedRunsAreDeterministic) {
  Rng rng(10);
  const LinkedList l = random_list(10000, rng);
  Engine engine(backend_options(BackendKind::kSim));
  const RunResult a = engine.rank(l, Method::kReidMiller);
  const RunResult b = engine.rank(l, Method::kReidMiller);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.scan, b.scan);
  EXPECT_DOUBLE_EQ(a.stats.sim_cycles, b.stats.sim_cycles);
}

// -- planner ----------------------------------------------------------------

TEST(Planner, SimCrossoversAtLegacyBoundaries) {
  // The fixed Fig. 1 crossovers the library once hard-coded: serial up to
  // 128 vertices, Wyllie up to 1024, Reid-Miller beyond.
  constexpr std::size_t kAutoSerialMax = 128;
  constexpr std::size_t kAutoWyllieMax = 1024;
  const Planner planner(backend_options(BackendKind::kSim));
  for (const bool rank : {false, true}) {
    // At the legacy serial/Wyllie boundary the model still prefers serial
    // (the fixed threshold under-used it; see Fig. 1's measured curves).
    EXPECT_EQ(planner.decide(kAutoSerialMax, Method::kAuto, rank).method,
              Method::kSerial);
    EXPECT_EQ(planner.decide(kAutoSerialMax + 1, Method::kAuto, rank).method,
              Method::kSerial);
    // At the legacy Wyllie/Reid-Miller boundary the model and the fixed
    // threshold agree: Reid-Miller from ~1k vertices on.
    const auto at_boundary =
        planner.decide(kAutoWyllieMax, Method::kAuto, rank);
    EXPECT_EQ(at_boundary.method, Method::kReidMiller);
    const auto past_boundary =
        planner.decide(kAutoWyllieMax + 1, Method::kAuto, rank);
    EXPECT_EQ(past_boundary.method, Method::kReidMiller);
    EXPECT_GT(past_boundary.sublists, 0.0);
    EXPECT_GT(past_boundary.s1, 0.0);
    EXPECT_GT(past_boundary.predicted_cycles, 0.0);
  }
  // The model's own serial/Wyllie crossover sits between the legacy
  // thresholds.
  EXPECT_EQ(planner.decide(512, Method::kAuto, false).method,
            Method::kWyllie);
}

TEST(Planner, SimAutoIsMonotoneInN) {
  const Planner planner(backend_options(BackendKind::kSim));
  auto phase = [](Method m) {
    return m == Method::kSerial ? 0 : m == Method::kWyllie ? 1 : 2;
  };
  int prev = 0;
  for (std::size_t n = 2; n <= (1u << 20); n = n * 5 / 4 + 1) {
    const Method m = planner.decide(n, Method::kAuto, false).method;
    EXPECT_GE(phase(m), prev) << "regressed at n=" << n;
    prev = phase(m);
  }
  EXPECT_EQ(prev, 2) << "never reached reid-miller";
}

TEST(Planner, EstimatesBackTheDecision) {
  const Planner planner(backend_options(BackendKind::kSim));
  for (const std::size_t n : {64u, 512u, 4096u, 65536u}) {
    const auto d = planner.decide(n, Method::kAuto, false);
    const double chosen = d.predicted_cycles;
    EXPECT_LE(chosen, planner.serial_cycles(n, false));
    EXPECT_LE(chosen, planner.wyllie_cycles(n, false));
    EXPECT_LE(chosen, planner.reid_miller_cycles(n, false));
  }
}

TEST(Planner, ExplicitMethodIsHonoured) {
  const Planner planner(backend_options(BackendKind::kSim));
  EXPECT_EQ(planner.decide(10, Method::kReidMiller, false).method,
            Method::kReidMiller);
  EXPECT_EQ(planner.decide(1u << 20, Method::kSerial, true).method,
            Method::kSerial);
}

TEST(Planner, OperatorCostScalesTheModel) {
  // A costlier combine must raise every per-element estimate, never the
  // startups alone, and the kAuto pick must still be the cheapest of the
  // three candidates under that operator's costs.
  const Planner planner(backend_options(BackendKind::kSim));
  for (const std::size_t n : {64u, 512u, 4096u, 65536u}) {
    EXPECT_GT(planner.serial_cycles(n, false, ScanOp::kAffine),
              planner.serial_cycles(n, false, ScanOp::kPlus));
    EXPECT_GT(planner.wyllie_cycles(n, false, ScanOp::kAffine),
              planner.wyllie_cycles(n, false, ScanOp::kPlus));
    if (n >= 2) {
      EXPECT_GT(planner.reid_miller_cycles(n, false, ScanOp::kAffine),
                planner.reid_miller_cycles(n, false, ScanOp::kPlus));
    }
    for (const ScanOp op : {ScanOp::kSegSum, ScanOp::kAffine,
                            ScanOp::kMaxPlus}) {
      const auto d = planner.decide(n, Method::kAuto, false, op);
      EXPECT_LE(d.predicted_cycles, planner.serial_cycles(n, false, op));
      EXPECT_LE(d.predicted_cycles, planner.wyllie_cycles(n, false, op));
      EXPECT_LE(d.predicted_cycles,
                planner.reid_miller_cycles(n, false, op));
    }
  }
  // Ranking is all-ones addition regardless of the request's operator.
  EXPECT_EQ(planner.decide(4096, Method::kAuto, true, ScanOp::kAffine)
                .predicted_cycles,
            planner.decide(4096, Method::kAuto, true, ScanOp::kPlus)
                .predicted_cycles);
}

TEST(Planner, HostShedsThreadsBeforeGoingSerial) {
  EngineOptions eo = backend_options(BackendKind::kHost);
  eo.threads = 8;
  const Planner planner(eo);

  const auto big = planner.decide(1u << 20, Method::kAuto, true);
  EXPECT_EQ(big.method, Method::kReidMiller);
  EXPECT_EQ(big.threads, 8u);
  // host_sublists: floor(sqrt(0.2 / 2 * 2^20 * ln 2^20)) = 1205, above
  // the 8 x W floor.
  EXPECT_EQ(big.sublists, 1205.0);

  // Medium lists keep some parallelism with fewer threads.
  const auto medium = planner.decide(8192, Method::kAuto, true);
  EXPECT_EQ(medium.method, Method::kReidMiller);
  EXPECT_EQ(medium.threads, 4u);

  // Tiny lists fall back to the serial walk.
  EXPECT_EQ(planner.decide(100, Method::kAuto, true).method,
            Method::kSerial);
  EXPECT_EQ(planner.decide(3, Method::kAuto, true).method, Method::kSerial);
}

TEST(Planner, HostSublistCountComesFromTheModel) {
  // m is the host rule's, evaluated at the width, threads and W the plan
  // runs -- for ranks and for the list-array operators alike -- so it
  // grows with n.
  EngineOptions eo = backend_options(BackendKind::kHost);
  eo.threads = 4;
  const Planner planner(eo);
  double prev = 0.0;
  for (const std::size_t n : {1u << 16, 1u << 20, 1u << 24}) {
    for (const ScanOp op : {ScanOp::kPlus, ScanOp::kAffine}) {
      const auto d = planner.decide(n, Method::kAuto, false, op);
      ASSERT_EQ(d.method, Method::kReidMiller) << n;
      EXPECT_EQ(d.sublists, static_cast<double>(host_sublists(
                                static_cast<double>(n), d.threads,
                                d.interleave)))
          << "n=" << n << " " << scan_op_name(op);
    }
    const auto rank = planner.decide(n, Method::kAuto, true);
    EXPECT_GT(rank.sublists, prev) << n;
    prev = rank.sublists;
  }
}

TEST(Planner, SerialBackendAlwaysWalksSerially) {
  const Planner planner(backend_options(BackendKind::kSerial));
  EXPECT_EQ(planner.decide(1u << 20, Method::kAuto, true).method,
            Method::kSerial);
}

TEST(Planner, PicksPackedInterleavedForLargeN) {
  // The acceptance bar of the latency-hiding PR: large-n packed-capable
  // requests must route to the packed multi-cursor path automatically --
  // even on a single thread, where the seed planner fell back to the
  // serial walk (one dependent load chain, a full stall per element).
  for (const unsigned threads : {1u, 2u, 8u}) {
    EngineOptions eo = backend_options(BackendKind::kHost);
    eo.threads = threads;
    const Planner planner(eo);
    const auto d = planner.decide(1u << 20, Method::kAuto, /*rank=*/true);
    EXPECT_EQ(d.method, Method::kReidMiller) << threads << " threads";
    EXPECT_GT(d.interleave, 1u) << threads << " threads";
    // Scans interleave too, the 64-bit-value operators over the list
    // arrays.
    const auto scan =
        planner.decide(1u << 20, Method::kAuto, false, ScanOp::kMin);
    EXPECT_GT(scan.interleave, 1u);
    const auto wide =
        planner.decide(1u << 20, Method::kAuto, false, ScanOp::kAffine);
    EXPECT_GT(wide.interleave, 1u);
  }
  // Tiny lists still take the serial walk.
  EngineOptions one = backend_options(BackendKind::kHost);
  one.threads = 1;
  const Planner planner(one);
  EXPECT_EQ(planner.decide(100, Method::kAuto, true).method,
            Method::kSerial);
  // A pinned W=1 on one thread is modelled at that width: the packed
  // path cannot hide latency with one cursor, so kAuto keeps the serial
  // walk instead of justifying the choice with the auto-optimal W.
  EngineOptions pinned1 = backend_options(BackendKind::kHost);
  pinned1.threads = 1;
  pinned1.interleave = 1;
  const Planner p1(pinned1);
  EXPECT_EQ(p1.decide(1u << 20, Method::kAuto, true).method,
            Method::kSerial);
}

TEST(Planner, OneThreadCrossesFromSerialToSublistsBetween2To15And2To18) {
  // The served shape: one worker per request. At n = 2^15 the whole list
  // sits in L2 and the serial walk beats W cursors plus the sublist
  // phases; by 2^18 the cursors win -- for ranks, the elementwise scans
  // and the two-lane operators alike.
  EngineOptions one = backend_options(BackendKind::kHost);
  one.threads = 1;
  const Planner planner(one);
  const auto check = [&](bool rank, ScanOp op) {
    SCOPED_TRACE(rank ? "rank" : scan_op_name(op));
    EXPECT_EQ(planner.decide(1u << 15, Method::kAuto, rank, op).method,
              Method::kSerial);
    const auto big = planner.decide(1u << 18, Method::kAuto, rank, op);
    EXPECT_EQ(big.method, Method::kReidMiller);
    EXPECT_EQ(big.threads, 1u);
    EXPECT_GT(big.interleave, 1u);
  };
  check(true, ScanOp::kPlus);
  check(false, ScanOp::kPlus);
  check(false, ScanOp::kAffine);
}

TEST(Planner, BenchmarkShapesAreUnchanged) {
  // The exact plans the benchmark workloads run, with the thread count
  // pinned so the answer does not depend on the machine: bulk's 2^24
  // list on 4 threads, a snapshot's 2^18 and a served request's 2^15
  // list on one worker, and out_of_core's 2^20 list on 4 threads, which
  // sharded_scan runs unsharded. Any drift in the host planner fails here.
  struct Shape {
    Method method;
    unsigned threads, interleave;
    double sublists;
  };
  const auto plan = [](unsigned threads, std::size_t n, bool rank,
                       ScanOp op) {
    EngineOptions eo = backend_options(BackendKind::kHost);
    eo.threads = threads;
    const Planner::Decision d =
        Planner(eo).decide(n, Method::kAuto, rank, op);
    return Shape{d.method, d.threads, d.interleave, d.sublists};
  };
  const auto expect = [](const Shape& got, const Shape& want) {
    EXPECT_EQ(got.method, want.method);
    EXPECT_EQ(got.threads, want.threads);
    EXPECT_EQ(got.interleave, want.interleave);
    EXPECT_EQ(got.sublists, want.sublists);
  };
  const std::size_t bulk = std::size_t{1} << 24;
  for (const auto& [rank, op] : {std::pair{true, ScanOp::kPlus},
                                 std::pair{false, ScanOp::kPlus},
                                 std::pair{false, ScanOp::kAffine}}) {
    SCOPED_TRACE(rank ? "rank" : scan_op_name(op));
    expect(plan(4, bulk, rank, op), {Method::kReidMiller, 4, 16, 5282});
  }
  expect(plan(1, std::size_t{1} << 18, true, ScanOp::kPlus),
         {Method::kReidMiller, 1, 16, 571});
  expect(plan(1, std::size_t{1} << 15, true, ScanOp::kPlus),
         {Method::kSerial, 1, 0, 0});

  const std::size_t n = std::size_t{1} << 20;
  expect(plan(4, n, true, ScanOp::kPlus),
         {Method::kReidMiller, 4, 16, 1205});
  // sharded_scan plans again from that W and thread count, pinned, with
  // the sublist kernel forced: the same plan.
  const host_exec::HostPlan hp = plan_host(
      n, ScanOp::kPlus,
      {.threads = 4, .interleave = 16, .force_sublists = true});
  EXPECT_EQ(hp.threads, 4u);
  EXPECT_EQ(hp.interleave, 16u);
  EXPECT_EQ(hp.sublists, 1205u);
}

TEST(Planner, ForcedSublistPlansShedThreadsByOneRule) {
  // Every sublist plan sheds threads by one break-even (~2048 vertices
  // per thread for addition): kAuto and an explicit kReidMiller both run
  // a 5000-vertex width on 2 of 8 threads, with the same W and m.
  EngineOptions eo = backend_options(BackendKind::kHost);
  eo.threads = 8;
  const std::size_t n = 5000;
  const auto auto_plan = Planner(eo).decide(n, Method::kAuto, true);
  const auto explicit_plan = Planner(eo).decide(n, Method::kReidMiller, true);
  ASSERT_EQ(auto_plan.method, Method::kReidMiller);
  EXPECT_EQ(auto_plan.threads, 2u);
  EXPECT_EQ(explicit_plan.method, Method::kReidMiller);
  EXPECT_EQ(explicit_plan.threads, auto_plan.threads);
  EXPECT_EQ(explicit_plan.interleave, auto_plan.interleave);
  EXPECT_EQ(explicit_plan.sublists, auto_plan.sublists);
}

TEST(Engine, LargeRankRunsPackedAndReportsCursors) {
  Rng rng(21);
  const LinkedList l = random_list(1u << 17, rng);
  Engine engine(backend_options(BackendKind::kHost));
  const RunResult r = engine.rank(l);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.method_used, Method::kReidMiller);
  EXPECT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
  EXPECT_GT(r.stats.host_interleave, 1u);
  testutil::expect_scan_eq(r.scan, reference_rank(l));
}

TEST(Engine, ReportsTheSublistCountItPlanned) {
  // RunStats::host_sublists is the sublist count the kernel walked: the
  // plan's m for a rank and an affine scan alike, and 0 on the serial
  // walk.
  Rng rng(27);
  const LinkedList l = random_list(1u << 17, rng, ValueInit::kSigned);
  Engine engine(backend_options(BackendKind::kHost));
  const auto d = engine.planner().decide(l.size(), Method::kAuto, true);
  ASSERT_EQ(d.method, Method::kReidMiller);
  const RunResult r = engine.rank(l);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
  EXPECT_EQ(r.stats.host_sublists, static_cast<std::size_t>(d.sublists));
  // Extra space: the rank's one-word records (n words) and four
  // O(sublists) arrays, nothing else per vertex -- a run flags its
  // boundaries in the slab.
  const std::uint64_t n = l.size();
  EXPECT_EQ(r.stats.algo.extra_words, n + 4 * r.stats.host_sublists);

  const auto da =
      engine.planner().decide(l.size(), Method::kAuto, false, ScanOp::kAffine);
  const RunResult a = engine.run(OpRequest{&l, ScanOp::kAffine});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.stats.kernel_tier, KernelTier::kPackedCursors);
  EXPECT_EQ(a.stats.host_sublists, static_cast<std::size_t>(da.sublists));
  // A scan: two-word records (2n words) instead.
  EXPECT_EQ(a.stats.algo.extra_words, 2 * n + 4 * a.stats.host_sublists);

  const RunResult s = engine.rank(l, Method::kSerial);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.stats.host_sublists, 0u);
  EXPECT_EQ(s.stats.kernel_tier, KernelTier::kListArrays);
}

TEST(Engine, PinnedInterleaveIsHonoured) {
  Rng rng(22);
  const LinkedList l = random_list(50000, rng);
  for (const unsigned w : {1u, 2u, 4u, 8u, 16u, 32u}) {
    EngineOptions eo = backend_options(BackendKind::kHost);
    eo.interleave = w;
    Engine engine(std::move(eo));
    const RunResult r = engine.rank(l);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
    EXPECT_EQ(r.stats.host_interleave, w);
    testutil::expect_scan_eq(r.scan, reference_rank(l));
  }
}

TEST(Engine, WideValuesWalkTheSlabNeverWrong) {
  // Values outside 32 bits ride whole in the scan's second record word:
  // the run walks the slab like any other and stays bit-exact.
  Rng rng(23);
  LinkedList l = random_list(30000, rng, ValueInit::kSigned);
  l.value[12345] = (value_t{1} << 40) + 7;
  l.value[777] = std::numeric_limits<value_t>::min() / 4;
  Engine engine(backend_options(BackendKind::kHost));
  const RunResult r = engine.run(OpRequest{&l, ScanOp::kPlus});
  ASSERT_TRUE(r.ok()) << r.status.message;
  EXPECT_EQ(r.method_used, Method::kReidMiller);
  EXPECT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
  testutil::expect_scan_eq(r.scan,
                           testutil::expected_scan(l, OpPlus{}));
  // The same engine's next request, a rank, walks its own slab.
  const LinkedList clean = random_list(30000, rng);
  const RunResult r2 = engine.rank(clean);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.stats.kernel_tier, KernelTier::kPackedCursors);
  testutil::expect_scan_eq(r2.scan, reference_rank(clean));
}

TEST(Engine, FewerSublistsThanCursorsDrainCorrectly) {
  // The k < W edge of the multi-cursor driver: fewer sublists than
  // cursors means the initial claims exhaust immediately and the drain
  // (swap-with-last) path does all the work. Explicit kReidMiller skips
  // the planner's serial shed for tiny lists.
  Rng rng(25);
  for (const std::size_t n : {4u, 5u, 9u, 17u, 40u, 64u}) {
    const LinkedList l = random_list(n, rng, ValueInit::kSigned);
    for (const unsigned w : {8u, 32u, 64u}) {
      EngineOptions eo = backend_options(BackendKind::kHost);
      eo.interleave = w;
      Engine engine(std::move(eo));
      const RunResult r = engine.rank(l, Method::kReidMiller);
      ASSERT_TRUE(r.ok()) << "n=" << n << " W=" << w;
      EXPECT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
      testutil::expect_scan_eq(r.scan, reference_rank(l));
      const RunResult s =
          engine.scan(l, ScanOp::kMin, Method::kReidMiller);
      ASSERT_TRUE(s.ok());
      testutil::expect_scan_eq(s.scan,
                               testutil::expected_scan(l, OpMin{}));
    }
  }
}

TEST(Engine, EveryPackingRunInABatchBuildsItsOwnSlab) {
  // run_batch is a plain loop over run(): five same-list ranks build the
  // single-gather slab five times.
  Rng rng(24);
  const LinkedList a = random_list(40000, rng);
  Engine engine(backend_options(BackendKind::kHost));

  const std::vector<Request> same(5, Request{RankRequest{&a}});
  const auto results = engine.run_batch(same);
  EXPECT_EQ(engine.workspace().packed_builds(), 5u);
  for (const RunResult& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
    testutil::expect_scan_eq(r.scan, reference_rank(a));
  }
}

TEST(Engine, AlternatingOperatorsNeverReuseAUsedUpSlab) {
  // Phase 1 overwrites the slab it walks, so each run must build a fresh
  // one: on one engine, rank, plus and affine in turn are each bit-exact,
  // and packed_builds() rises by one per run, affine included, although
  // the rank's one-word records leave the scans' second words behind.
  Rng rng(25);
  const LinkedList l = random_list(1u << 16, rng, ValueInit::kSigned);
  const std::vector<value_t> rank = reference_rank(l);
  const std::vector<value_t> plus = testutil::expected_scan(l, OpPlus{});
  const std::vector<value_t> affine = testutil::expected_scan(l, OpAffine{});
  Engine engine(backend_options(BackendKind::kHost));
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    std::uint64_t builds = engine.workspace().packed_builds();
    const RunResult r = engine.rank(l, Method::kReidMiller);
    ASSERT_TRUE(r.ok()) << r.status.message;
    testutil::expect_scan_eq(r.scan, rank);
    EXPECT_EQ(engine.workspace().packed_builds(), ++builds);

    const RunResult p =
        engine.run(OpRequest{&l, ScanOp::kPlus, Method::kReidMiller});
    ASSERT_TRUE(p.ok()) << p.status.message;
    testutil::expect_scan_eq(p.scan, plus);
    EXPECT_EQ(engine.workspace().packed_builds(), ++builds);

    const RunResult a =
        engine.run(OpRequest{&l, ScanOp::kAffine, Method::kReidMiller});
    ASSERT_TRUE(a.ok()) << a.status.message;
    testutil::expect_scan_eq(a.scan, affine);
    EXPECT_EQ(a.stats.kernel_tier, KernelTier::kPackedCursors);
    EXPECT_EQ(engine.workspace().packed_builds(), ++builds);
  }
}

TEST(Engine, TaillessListsAreRefusedWithValidationOff) {
  // With validate_input off (the default) a list whose links never reach
  // a self-loop must still get a typed answer: the serial walk stops
  // after n hops, and the sublist kernel refuses a list with no tail
  // before it marks any boundary.
  LinkedList cycle;  // a 2-cycle: the serial plan
  cycle.next = {1, 0};
  cycle.value = {1, 1};
  cycle.head = 0;
  Rng rng(26);
  LinkedList ring = random_list(1u << 16, rng);  // tail linked to head
  ring.next[ring.find_tail()] = ring.head;
  ring.tail = kNoVertex;
  ASSERT_EQ(ring.find_tail(), kNoVertex);

  for (const BackendKind kind : {BackendKind::kSerial, BackendKind::kHost}) {
    SCOPED_TRACE(backend_name(kind));
    Engine engine(backend_options(kind));
    ASSERT_FALSE(engine.options().validate_input);
    for (const bool rank : {true, false}) {
      Request req = rank ? Request(RankRequest{&cycle})
                         : Request(OpRequest{&cycle, ScanOp::kAffine});
      const RunResult r = engine.run(req);
      EXPECT_EQ(r.status.code, StatusCode::kInvalidInput)
          << status_code_name(r.status.code);
      EXPECT_EQ(r.method_used, Method::kSerial);
    }
  }

  Engine host(backend_options(BackendKind::kHost));
  for (const ScanOp op : {ScanOp::kPlus, ScanOp::kAffine}) {
    SCOPED_TRACE(scan_op_name(op));
    const RunResult s = host.run(OpRequest{&ring, op, Method::kReidMiller});
    EXPECT_EQ(s.status.code, StatusCode::kInvalidInput)
        << status_code_name(s.status.code);
    EXPECT_EQ(s.method_used, Method::kReidMiller);
  }
  const RunResult r = host.rank(ring, Method::kReidMiller);
  EXPECT_EQ(r.status.code, StatusCode::kInvalidInput);
  // A serial walk over the ring stops after n hops as well.
  EXPECT_EQ(host.rank(ring, Method::kSerial).status.code,
            StatusCode::kInvalidInput);

  // The sim backend checks every input, so no method sees the cycle.
  Engine sim(backend_options(BackendKind::kSim));
  ASSERT_FALSE(sim.options().validate_input);
  for (const Method m :
       {Method::kAuto, Method::kSerial, Method::kWyllie, Method::kMillerReif,
        Method::kAndersonMiller, Method::kReidMiller,
        Method::kReidMillerEncoded}) {
    SCOPED_TRACE(method_name(m));
    for (const bool rank : {true, false}) {
      Request req = rank ? Request(RankRequest{&cycle, m})
                         : Request(OpRequest{&cycle, ScanOp::kPlus, m});
      EXPECT_EQ(sim.run(req).status.code, StatusCode::kInvalidInput);
    }
  }
}

TEST(Engine, PinnedS1SurvivesAutoM) {
  // Regression: a caller-pinned first balance interval must not be
  // overwritten by the planner's tuned value when m is left on auto.
  Rng rng(12);
  const LinkedList l = random_list(100000, rng);

  EngineOptions auto_opts;
  auto_opts.backend = BackendKind::kSim;
  Engine tuned_engine(std::move(auto_opts));
  const RunResult tuned = tuned_engine.rank(l, Method::kReidMiller);

  EngineOptions pinned_opts;
  pinned_opts.backend = BackendKind::kSim;
  pinned_opts.reid_miller.s1 = 5;  // far from any tuned value
  Engine pinned_engine(std::move(pinned_opts));
  const RunResult pinned = pinned_engine.rank(l, Method::kReidMiller);

  ASSERT_TRUE(tuned.ok());
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(tuned.scan, pinned.scan);
  // A 5-link first interval forces a very different balance schedule; the
  // knob being live must show up in the simulated cost.
  EXPECT_NE(tuned.stats.sim_cycles, pinned.stats.sim_cycles);
}

TEST(KernelTier, NamesAndCodesAreStable) {
  // Benches record the tier as its numeric code, so the list-array value
  // keeps the code the one-cursor tier had before it.
  EXPECT_EQ(static_cast<int>(KernelTier::kAuto), 0);
  EXPECT_EQ(static_cast<int>(KernelTier::kListArrays), 1);
  EXPECT_EQ(static_cast<int>(KernelTier::kPackedCursors), 2);
  EXPECT_STREQ(kernel_tier_name(KernelTier::kAuto), "auto");
  EXPECT_STREQ(kernel_tier_name(KernelTier::kListArrays), "list-arrays");
  EXPECT_STREQ(kernel_tier_name(KernelTier::kPackedCursors),
               "packed-cursors");
}

TEST(Engine, TierOptionPlansAndAnswersAlike) {
  // EngineOptions::tier is accepted for source compatibility only: every
  // value plans the same shape, and every sublist run walks the slab,
  // rank and affine alike.
  Rng rng(27);
  const LinkedList l = random_list(1u << 16, rng, ValueInit::kUniformSmall);
  const auto shape = [&](KernelTier tier, bool rank) {
    EngineOptions eo = backend_options(BackendKind::kHost);
    eo.tier = tier;
    Engine engine(std::move(eo));
    RunResult r = rank ? engine.rank(l) : engine.scan(l, ScanOp::kAffine);
    EXPECT_TRUE(r.ok()) << kernel_tier_name(tier) << ": "
                        << r.status.message;
    return r;
  };
  for (const bool rank : {true, false}) {
    SCOPED_TRACE(rank ? "rank" : "affine");
    const RunResult base = shape(KernelTier::kAuto, rank);
    ASSERT_EQ(base.method_used, Method::kReidMiller);
    EXPECT_EQ(base.stats.kernel_tier, KernelTier::kPackedCursors);
    testutil::expect_scan_eq(
        base.scan, rank ? reference_rank(l)
                        : testutil::expected_scan(l, OpAffine{}));
    for (const KernelTier tier :
         {KernelTier::kListArrays, KernelTier::kPackedCursors}) {
      const RunResult r = shape(tier, rank);
      EXPECT_EQ(r.method_used, base.method_used) << kernel_tier_name(tier);
      EXPECT_EQ(r.stats.host_threads, base.stats.host_threads);
      EXPECT_EQ(r.stats.host_interleave, base.stats.host_interleave);
      EXPECT_EQ(r.stats.kernel_tier, base.stats.kernel_tier);
      EXPECT_EQ(r.scan, base.scan);
    }
  }
}

TEST(Planner, AutoThreadsTakeTheMachineForWideLists) {
  // threads = 0 on a DRAM-resident list: every thread the machine has,
  // planned exactly as that count pinned, whatever this machine is.
  EngineOptions eo;
  eo.backend = BackendKind::kHost;
  eo.threads = 0;
  const unsigned eff = host_exec::effective_threads(0);
  const auto d = Planner(eo).decide(1u << 22, Method::kAuto, /*rank=*/true);
  ASSERT_EQ(d.method, Method::kReidMiller);
  EXPECT_EQ(d.threads, eff);
  const host_exec::HostPlan pinned =
      plan_host(1u << 22, ScanOp::kPlus, {.threads = eff});
  EXPECT_EQ(d.interleave, pinned.interleave);
  EXPECT_EQ(d.sublists, static_cast<double>(pinned.sublists));

  // On an (emulated) 8-thread machine a DRAM-resident list takes all
  // eight, with W the chip's 64 cursors split across them.
  eo.threads = 8;
  const auto d8 = Planner(eo).decide(1u << 22, Method::kAuto, true);
  ASSERT_EQ(d8.method, Method::kReidMiller);
  EXPECT_EQ(d8.threads, 8u);
  EXPECT_EQ(d8.interleave, 8u);
}

TEST(Planner, EveryIndexableLengthPlansASublistRun) {
  // A list of any length a 32-bit index holds plans a sublist run on
  // the machine's threads, exactly as plan_host plans that length: the
  // slab's links take all 32 bits, so no length needs another path.
  EngineOptions eo;
  eo.backend = BackendKind::kHost;
  eo.threads = 0;
  const unsigned eff = host_exec::effective_threads(0);
  for (const std::size_t n : {(std::size_t{1} << 31) + 5,
                              std::size_t{kNoVertex}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto d = Planner(eo).decide(n, Method::kAuto, /*rank=*/true);
    EXPECT_EQ(d.method, Method::kReidMiller);
    EXPECT_EQ(d.threads, eff);
    EXPECT_EQ(d.shard_count, 0u);
    const host_exec::HostPlan pinned =
        plan_host(n, ScanOp::kPlus, {.threads = eff});
    EXPECT_EQ(d.interleave, pinned.interleave);
    EXPECT_EQ(d.sublists, static_cast<double>(pinned.sublists));
  }
}

TEST(Planner, AutoThreadsPlanOneWorkerBelow2To17) {
  // threads = 0 below 2^17 vertices plans one worker, however many the
  // machine has: one beats four there. 2^12 and 2^15 fit L2 and walk
  // serially; 2^16 runs W cursors on its one worker; from 2^17 the
  // machine's count runs.
  EngineOptions eo;
  eo.backend = BackendKind::kHost;
  eo.threads = 0;
  const Planner planner(eo);
  for (const std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 15}) {
    for (const ScanOp op : {ScanOp::kPlus, ScanOp::kAffine}) {
      const auto d = planner.decide(n, Method::kAuto, false, op);
      EXPECT_EQ(d.method, Method::kSerial) << n << " " << scan_op_name(op);
      EXPECT_EQ(d.threads, 1u) << n << " " << scan_op_name(op);
    }
  }
  const auto d16 = planner.decide(1u << 16, Method::kAuto, true);
  EXPECT_EQ(d16.method, Method::kReidMiller);
  EXPECT_EQ(d16.threads, 1u);
  EXPECT_GT(d16.interleave, 1u);
  const auto d17 = planner.decide(1u << 17, Method::kAuto, true);
  EXPECT_EQ(d17.method, Method::kReidMiller);
  EXPECT_EQ(d17.threads, host_exec::effective_threads(0));
}

TEST(Engine, ReportsThreadsAndPerPhaseTimings) {
  Rng rng(26);
  const LinkedList l = random_list(1u << 16, rng);
  Engine engine(backend_options(BackendKind::kHost));  // threads = 2
  const RunResult r = engine.rank(l);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.method_used, Method::kReidMiller);
  EXPECT_EQ(r.stats.host_threads, 2u);
  EXPECT_GT(r.stats.host_build_ns, 0.0);
  EXPECT_GT(r.stats.host_phase1_ns, 0.0);
  EXPECT_GT(r.stats.host_phase3_ns, 0.0);
  EXPECT_GT(r.stats.host_parallel_frac, 0.0);
  EXPECT_LE(r.stats.host_parallel_frac, 1.0);

  // The serial walk has no phases to time and one worker by definition.
  const RunResult s = engine.rank(l, Method::kSerial);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.stats.host_threads, 1u);
  EXPECT_EQ(s.stats.host_phase1_ns, 0.0);
  EXPECT_EQ(s.stats.host_parallel_frac, 0.0);
}

// -- huge pages -------------------------------------------------------------

/// 2^21 vertices: the answer, the packed slab and the value array are
/// 16 MiB each, the smallest buffers reserve_huge advises.
constexpr std::size_t kHugeN = std::size_t{1} << 21;

/// Whether [lo, hi) lies inside one mapping of /proc/self/smaps whose
/// VmFlags carry `hg` (advised MADV_HUGEPAGE).
bool advised_huge(std::uintptr_t lo, std::uintptr_t hi) {
  std::ifstream smaps("/proc/self/smaps");
  bool inside = false;
  for (std::string line; std::getline(smaps, line);) {
    std::istringstream header(line);
    std::uintptr_t begin = 0, end = 0;
    char dash = 0;
    if (header >> std::hex >> begin >> dash >> end && dash == '-') {
      inside = begin <= lo && hi <= end;
      continue;
    }
    if (inside && line.rfind("VmFlags:", 0) == 0)
      return line.find(" hg") != std::string::npos;
  }
  return false;
}

/// Whether the 2 MiB-aligned interior of `v`'s buffer was advised.
template <class T>
bool interior_advised_huge(const std::vector<T>& v) {
  constexpr std::uintptr_t kMask = ~std::uintptr_t{kHugePageBytes - 1};
  const auto begin = reinterpret_cast<std::uintptr_t>(v.data());
  const std::uintptr_t lo = (begin + kHugePageBytes - 1) & kMask;
  const std::uintptr_t hi = (begin + v.size() * sizeof(T)) & kMask;
  return hi > lo && advised_huge(lo, hi);
}

TEST(Engine, HugePageSizedRunsAreExactAndStopAllocating) {
  // The advised path at its threshold: rank, plus-scan and affine all
  // walk the slab and match the serial oracle. A second round of the
  // same three runs grows nothing.
  Rng rng(33);
  const LinkedList l = random_list(kHugeN, rng, ValueInit::kSigned);
  const std::vector<value_t> want[] = {
      reference_rank(l), testutil::expected_scan(l, OpPlus{}),
      testutil::expected_scan(l, OpAffine{})};
  Engine engine(backend_options(BackendKind::kHost));
  const auto round = [&] {
    const RunResult got[] = {engine.rank(l),
                             engine.run(OpRequest{&l, ScanOp::kPlus}),
                             engine.run(OpRequest{&l, ScanOp::kAffine})};
    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE(i);
      ASSERT_TRUE(got[i].ok()) << got[i].status.message;
      EXPECT_EQ(got[i].method_used, Method::kReidMiller);
      EXPECT_EQ(got[i].stats.kernel_tier, KernelTier::kPackedCursors);
      testutil::expect_scan_eq(got[i].scan, want[i]);
    }
  };
  round();
  const std::uint64_t warm = engine.workspace().allocations();
  round();
  EXPECT_EQ(engine.workspace().allocations(), warm);
}

TEST(Engine, LargeAnswerAndSlabAreAdvisedHugePages) {
  // With THP built into the kernel, the advice marks the mapping `hg`
  // whatever the THP mode; without it there is nothing to check.
  const char* thp = "/sys/kernel/mm/transparent_hugepage/enabled";
  if (!std::filesystem::exists(thp))
    GTEST_SKIP() << "kernel without transparent huge pages";
  Rng rng(34);
  const LinkedList l = random_list(kHugeN, rng);
  Engine engine(backend_options(BackendKind::kHost));
  const RunResult r = engine.rank(l);
  ASSERT_TRUE(r.ok()) << r.status.message;
  ASSERT_EQ(r.stats.kernel_tier, KernelTier::kPackedCursors);
  EXPECT_TRUE(interior_advised_huge(r.scan)) << "the answer";
  EXPECT_TRUE(interior_advised_huge(engine.workspace().packed)) << "the slab";
}

}  // namespace
}  // namespace lr90
