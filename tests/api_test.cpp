// The Engine's public contract on the simulated C90 (sim backend): every
// paper method agrees with the reference, kAuto dispatches by list size,
// simulated time follows the machine clock and processor count, and
// unsupported requests come back typed instead of thrown.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include "lists/generators.hpp"
#include "lists/validate.hpp"
#include "test_util.hpp"

namespace lr90 {
namespace {

/// A sim-backend Engine on `processors` simulated processors.
Engine sim_engine(unsigned processors = 1, std::uint64_t seed = kDefaultSeed) {
  EngineOptions eo;
  eo.backend = BackendKind::kSim;
  eo.processors = processors;
  eo.seed = seed;
  return Engine(std::move(eo));
}

TEST(Api, AutoDispatchBySize) {
  // The model's Fig. 1 crossovers: the serial walk for tiny lists, Wyllie
  // in between, Reid-Miller from ~1k vertices on. An explicit method is
  // honoured at any size.
  Rng rng(8);
  Engine engine = sim_engine();
  for (const auto& [n, want] :
       {std::pair{std::size_t{10}, Method::kSerial},
        std::pair{std::size_t{512}, Method::kWyllie},
        std::pair{std::size_t{4096}, Method::kReidMiller}}) {
    const LinkedList l = random_list(n, rng);
    const RunResult r = engine.rank(l);
    ASSERT_TRUE(r.ok()) << "n=" << n << ": " << r.status.message;
    EXPECT_EQ(r.method_used, want) << "n=" << n;
    testutil::expect_scan_eq(r.scan, reference_rank(l));
  }
  const LinkedList five = random_list(5, rng);
  const RunResult pinned = engine.rank(five, Method::kWyllie);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned.method_used, Method::kWyllie);
}

TEST(Api, AllMethodsAgreeOnRank) {
  Rng rng(1);
  const LinkedList l = random_list(3000, rng);
  const auto want = reference_rank(l);
  Engine engine = sim_engine();
  for (const Method method :
       {Method::kSerial, Method::kWyllie, Method::kMillerReif,
        Method::kAndersonMiller, Method::kReidMiller,
        Method::kReidMillerEncoded}) {
    const RunResult r = engine.rank(l, method);
    ASSERT_TRUE(r.ok()) << method_name(method) << ": " << r.status.message;
    EXPECT_EQ(r.method_used, method);
    testutil::expect_scan_eq(r.scan, want);
    EXPECT_GT(r.stats.sim_cycles, 0.0) << method_name(method);
  }
}

TEST(Api, AllMethodsAgreeOnScan) {
  Rng rng(2);
  const LinkedList l = random_list(2000, rng, ValueInit::kUniformSmall);
  const auto want = testutil::expected_scan(l, OpPlus{});
  Engine engine = sim_engine();
  for (const Method method :
       {Method::kSerial, Method::kWyllie, Method::kMillerReif,
        Method::kAndersonMiller, Method::kReidMiller}) {
    const RunResult r = engine.scan(l, ScanOp::kPlus, method);
    ASSERT_TRUE(r.ok()) << method_name(method) << ": " << r.status.message;
    testutil::expect_scan_eq(r.scan, want);
  }
}

TEST(Api, EncodedRejectsScan) {
  Rng rng(3);
  const LinkedList l = random_list(100, rng);
  Engine engine = sim_engine();
  const RunResult r =
      engine.scan(l, ScanOp::kPlus, Method::kReidMillerEncoded);
  EXPECT_EQ(r.status.code, StatusCode::kUnsupported);
}

TEST(Api, InputListIsNotModified) {
  Rng rng(4);
  const LinkedList l = random_list(5000, rng, ValueInit::kUniformSmall);
  const LinkedList copy = l;
  Engine engine = sim_engine();
  ASSERT_TRUE(engine.scan(l, ScanOp::kPlus, Method::kReidMiller).ok());
  EXPECT_TRUE(lists_equal(l, copy));
}

TEST(Api, NsConsistentWithCycles) {
  Rng rng(5);
  const LinkedList l = random_list(4000, rng);
  Engine engine = sim_engine();
  const RunResult r = engine.rank(l);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.stats.sim_ns, r.stats.sim_cycles * 4.2, 1e-6);
  EXPECT_NEAR(r.stats.sim_ns_per_vertex, r.stats.sim_ns / 4000.0, 1e-9);
}

TEST(Api, EmptyAndSingletonLists) {
  Engine engine = sim_engine();
  const LinkedList empty;
  const RunResult r0 = engine.rank(empty);
  ASSERT_TRUE(r0.ok());
  EXPECT_TRUE(r0.scan.empty());

  LinkedList one;
  one.next = {0};
  one.value = {7};
  one.head = 0;
  const RunResult r1 = engine.scan(one, ScanOp::kPlus);
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(r1.scan.size(), 1u);
  EXPECT_EQ(r1.scan[0], 0);
}

TEST(Api, ProcessorsReduceSimulatedTime) {
  Rng rng(6);
  const LinkedList l = random_list(200000, rng);
  Engine one = sim_engine(1);
  Engine eight = sim_engine(8);
  const RunResult r1 = one.rank(l, Method::kReidMiller);
  const RunResult r8 = eight.rank(l, Method::kReidMiller);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r8.ok());
  EXPECT_LT(r8.stats.sim_ns, r1.stats.sim_ns / 4.0);
}

TEST(Api, MethodNamesAreStable) {
  EXPECT_STREQ(method_name(Method::kSerial), "serial");
  EXPECT_STREQ(method_name(Method::kWyllie), "wyllie");
  EXPECT_STREQ(method_name(Method::kReidMiller), "reid-miller");
}

TEST(Api, SeedChangesNothingButCost) {
  // The seed picks the sublist boundaries; the answer never depends on it.
  Rng rng(7);
  const LinkedList l = random_list(10000, rng);
  Engine a = sim_engine(1, 1);
  Engine b = sim_engine(1, 999);
  const RunResult ra = a.rank(l, Method::kReidMiller);
  const RunResult rb = b.rank(l, Method::kReidMiller);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  testutil::expect_scan_eq(ra.scan, rb.scan);
}

}  // namespace
}  // namespace lr90
