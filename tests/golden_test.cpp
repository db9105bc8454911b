// Golden regression tests: the simulated cycle accounting is part of this
// library's contract (EXPERIMENTS.md is built on it), so formula-derivable
// costs are pinned exactly and stochastic ones are pinned to determinism
// and tight envelopes. A failure here means the cost model changed -- if
// that was intentional, re-run the benches and update EXPERIMENTS.md.
#include <gtest/gtest.h>

#include "baselines/serial.hpp"
#include "baselines/wyllie.hpp"
#include "core/engine.hpp"
#include "lists/generators.hpp"

namespace lr90 {
namespace {

/// One run on a fresh sim-backend Engine with an explicit method.
RunResult sim_run(const LinkedList& l, bool rank, Method method,
                  std::uint64_t seed = kDefaultSeed,
                  bool validate_input = false) {
  EngineOptions eo;
  eo.backend = BackendKind::kSim;
  eo.seed = seed;
  eo.validate_input = validate_input;
  Engine engine(std::move(eo));
  Request req;
  req.list = &l;
  req.rank = rank;
  req.method = method;
  return engine.run(req);
}

TEST(Golden, SerialRankCyclesExact) {
  Rng rng(1);
  const LinkedList l = random_list(12345, rng);
  std::vector<value_t> out(l.size());
  vm::Machine m;
  serial_rank(m, 0, l, out);
  EXPECT_DOUBLE_EQ(m.max_cycles(), 42.1 * 12345 + 100.0);
}

TEST(Golden, SerialScanCyclesExact) {
  Rng rng(2);
  const LinkedList l = random_list(999, rng, ValueInit::kUniformSmall);
  std::vector<value_t> out(l.size());
  vm::Machine m;
  serial_scan(m, 0, l, std::span<value_t>(out));
  EXPECT_DOUBLE_EQ(m.max_cycles(), 43.6 * 999 + 100.0);
}

TEST(Golden, WyllieSingleProcCyclesExact) {
  // One processor: pred scatter (n), init gather (n), then per round two
  // gathers + one map2 over n, a final copy. Barriers are free at p = 1.
  const std::size_t n = 4096;
  Rng rng(3);
  const LinkedList l = random_list(n, rng);
  std::vector<value_t> out(n);
  vm::Machine m;
  wyllie_rank(m, l, out);
  const auto nn = static_cast<double>(n);
  const unsigned rounds = detail::wyllie_rounds(n);  // 12
  const double scatter = 1.2 * nn + 15.0;
  const double gather = 1.2 * nn + 15.0;
  const double map2 = 0.5 * nn + 8.0;
  const double copy = 0.4 * nn + 8.0;
  const double expect =
      scatter + gather + rounds * (2 * gather + map2) + copy;
  EXPECT_NEAR(m.max_cycles(), expect, 1e-6);
}

TEST(Golden, SynchronizeFreeOnOneProcessor) {
  vm::Machine m1;
  m1.charge_scalar(0, 100.0);
  m1.synchronize();
  EXPECT_DOUBLE_EQ(m1.max_cycles(), 100.0);
  EXPECT_EQ(m1.ops().syncs, 0u);
}

TEST(Golden, KernelChargeArithmetic) {
  vm::Machine m;
  m.charge_kernel(0, vm::Kernel::kFinalScanStep, 1000);
  m.charge_kernel(0, vm::Kernel::kFinalPack, 1000);
  EXPECT_DOUBLE_EQ(m.max_cycles(), (4.6 * 1000 + 28) + (7.2 * 1000 + 950));
}

TEST(Golden, SimRunsAreDeterministic) {
  Rng rng(4);
  const LinkedList l = random_list(20000, rng, ValueInit::kUniformSmall);
  for (const Method method :
       {Method::kWyllie, Method::kMillerReif, Method::kAndersonMiller,
        Method::kReidMiller}) {
    const RunResult a = sim_run(l, /*rank=*/false, method, 99);
    const RunResult b = sim_run(l, /*rank=*/false, method, 99);
    ASSERT_TRUE(a.ok() && b.ok()) << method_name(method);
    EXPECT_DOUBLE_EQ(a.stats.sim_cycles, b.stats.sim_cycles)
        << method_name(method);
    EXPECT_EQ(a.stats.algo.rounds, b.stats.algo.rounds)
        << method_name(method);
  }
}

TEST(Golden, AsymptoticEnvelopes) {
  // Envelope pins for the headline numbers quoted in EXPERIMENTS.md
  // (generous enough to tolerate seed-to-seed noise, tight enough to catch
  // cost-table regressions).
  Rng rng(5);
  const std::size_t n = 1 << 20;
  const LinkedList l = random_list(n, rng);
  auto cpv = [&](Method method) {
    return sim_run(l, /*rank=*/true, method).stats.sim_cycles /
           static_cast<double>(n);
  };
  const double serial = cpv(Method::kSerial);
  EXPECT_NEAR(serial, 42.1, 0.1);
  const double ours = cpv(Method::kReidMillerEncoded);
  EXPECT_GT(ours, 5.0);
  EXPECT_LT(ours, 7.5);
  const double wyllie = cpv(Method::kWyllie);
  EXPECT_GT(wyllie, 55.0);  // 2.9 * 20 rounds + overheads
  EXPECT_LT(wyllie, 70.0);
  const double mr = cpv(Method::kMillerReif);
  EXPECT_GT(mr / serial, 2.5);   // paper: ~3.5x serial
  EXPECT_LT(mr / serial, 4.5);
  const double am = cpv(Method::kAndersonMiller);
  EXPECT_GT(am / serial, 1.05);  // paper: ~1.2x serial
  EXPECT_LT(am / serial, 1.8);
}

TEST(Golden, ContentionFactorsPinned) {
  // Table I's multiprocessor columns depend on these exact values.
  vm::MachineConfig cfg;
  for (const auto& [p, factor] :
       {std::pair<unsigned, double>{2, 1.063},
        {4, 1.126},
        {8, 1.189}}) {
    cfg.processors = p;
    EXPECT_NEAR(cfg.contention_factor(), factor, 1e-9) << p;
  }
}

TEST(Golden, ValidateInputRejectsMalformedList) {
  LinkedList bad;
  bad.next = {1, 0};  // two-cycle, no tail
  bad.value = {1, 1};
  bad.head = 0;
  EXPECT_EQ(sim_run(bad, /*rank=*/true, Method::kReidMiller, kDefaultSeed,
                    /*validate_input=*/true)
                .status.code,
            StatusCode::kInvalidInput);
  EXPECT_EQ(sim_run(bad, /*rank=*/false, Method::kSerial, kDefaultSeed,
                    /*validate_input=*/true)
                .status.code,
            StatusCode::kInvalidInput);
}

TEST(Golden, ValidateInputAcceptsGoodList) {
  Rng rng(6);
  const LinkedList l = random_list(100, rng);
  EXPECT_TRUE(sim_run(l, /*rank=*/true, Method::kReidMiller, kDefaultSeed,
                      /*validate_input=*/true)
                  .ok());
}

}  // namespace
}  // namespace lr90
