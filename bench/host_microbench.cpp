// Wall-clock google-benchmark of the host-path implementations: the serial
// walk, the Engine's host backend (workspace reused across
// iterations), a fresh Engine per call for comparison, and (for context)
// the host cost of the simulator itself. Run with --benchmark_filter=...
// to narrow.
#include <benchmark/benchmark.h>

#include <map>

#include "apps/euler_tour.hpp"
#include "baselines/serial.hpp"
#include "core/engine.hpp"
#include "lists/generators.hpp"
#include "lists/transform.hpp"
#include "vm/segmented.hpp"

namespace {

using namespace lr90;

const LinkedList& cached_list(std::size_t n) {
  static std::map<std::size_t, LinkedList> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Rng rng(n);
    it = cache.emplace(n, random_list(n, rng, ValueInit::kUniformSmall))
             .first;
  }
  return it->second;
}

void BM_SerialScanHost(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const LinkedList& l = cached_list(n);
  std::vector<value_t> out(n);
  for (auto _ : state) {
    serial_scan_host(l, std::span<value_t>(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SerialScanHost)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_EngineHostScan(benchmark::State& state) {
  // The Engine path: the workspace warms up on the first iteration and
  // every later run reuses it (state.counters report the reuse ratio).
  const auto n = static_cast<std::size_t>(state.range(0));
  const LinkedList& l = cached_list(n);
  EngineOptions eo;
  eo.backend = BackendKind::kHost;
  eo.threads = static_cast<unsigned>(state.range(1));
  Engine engine(std::move(eo));
  for (auto _ : state) {
    auto r = engine.scan(l);
    benchmark::DoNotOptimize(r.scan.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["ws_alloc"] =
      static_cast<double>(engine.workspace().allocations());
  state.counters["ws_reuse"] =
      static_cast<double>(engine.workspace().reuse_hits());
}
BENCHMARK(BM_EngineHostScan)
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 2})
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 2})
    ->Args({1 << 20, 4});

void BM_EngineHostScanColdWorkspace(benchmark::State& state) {
  // A fresh Engine per call: every run re-grows its scratch workspace,
  // the per-call cost the warm engine above amortizes away.
  const auto n = static_cast<std::size_t>(state.range(0));
  const LinkedList& l = cached_list(n);
  EngineOptions eo;
  eo.threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    Engine engine(eo);
    auto r = engine.scan(l);
    benchmark::DoNotOptimize(r.scan.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineHostScanColdWorkspace)
    ->Args({1 << 20, 2})
    ->Args({1 << 20, 4});

void BM_EngineHostRank(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const LinkedList& l = cached_list(n);
  Engine engine({.backend = BackendKind::kHost});
  for (auto _ : state) {
    auto r = engine.rank(l);
    benchmark::DoNotOptimize(r.scan.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineHostRank)->Arg(1 << 16)->Arg(1 << 20);

void BM_EngineRunBatch(benchmark::State& state) {
  // A batch of independent rank requests through one warm workspace.
  const auto lists_count = static_cast<std::size_t>(state.range(0));
  const auto each = static_cast<std::size_t>(state.range(1));
  Rng rng(7);
  std::vector<LinkedList> lists;
  lists.reserve(lists_count);
  for (std::size_t i = 0; i < lists_count; ++i)
    lists.push_back(random_list(each, rng));
  std::vector<Request> requests;
  requests.reserve(lists_count);
  for (const LinkedList& l : lists)
    requests.push_back(RankRequest{&l});
  Engine engine({.backend = BackendKind::kHost});
  for (auto _ : state) {
    auto results = engine.run_batch(requests);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lists_count * each));
  state.counters["ws_alloc"] =
      static_cast<double>(engine.workspace().allocations());
}
BENCHMARK(BM_EngineRunBatch)->Args({256, 256})->Args({16, 65536});

void BM_SimReidMiller(benchmark::State& state) {
  // Host cost of the functional simulation itself (not simulated ns).
  const auto n = static_cast<std::size_t>(state.range(0));
  const LinkedList& l = cached_list(n);
  EngineOptions eo;
  eo.backend = BackendKind::kSim;
  Engine engine(std::move(eo));
  for (auto _ : state) {
    auto r = engine.scan(l, ScanOp::kPlus, Method::kReidMiller);
    benchmark::DoNotOptimize(r.scan.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimReidMiller)->Arg(1 << 14)->Arg(1 << 18);

void BM_EulerTourLabels(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  const RootedTree tree = random_tree(n, rng);
  for (auto _ : state) {
    auto labels = tree_labels(tree);
    benchmark::DoNotOptimize(labels.depth.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EulerTourLabels)->Arg(1 << 14)->Arg(1 << 18);

void BM_RankManyBatch(benchmark::State& state) {
  // The concat-once-rank-once batching of lists/transform.hpp, for
  // comparison with BM_EngineRunBatch's per-request execution.
  const auto lists_count = static_cast<std::size_t>(state.range(0));
  const auto each = static_cast<std::size_t>(state.range(1));
  Rng rng(7);
  std::vector<LinkedList> lists;
  lists.reserve(lists_count);
  for (std::size_t i = 0; i < lists_count; ++i)
    lists.push_back(random_list(each, rng));
  for (auto _ : state) {
    auto ranks = rank_many(lists);
    benchmark::DoNotOptimize(ranks.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lists_count * each));
}
BENCHMARK(BM_RankManyBatch)->Args({256, 256})->Args({16, 65536});

void BM_SegmentedScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  std::vector<value_t> v(n);
  std::vector<std::uint8_t> flags(n, 0);
  for (auto& x : v) x = static_cast<value_t>(rng.uniform(100));
  for (std::size_t i = 0; i < n; i += 97) flags[i] = 1;
  std::vector<value_t> out(n);
  vm::Machine m(vm::MachineConfig{}, vm::CostTable::zero());
  for (auto _ : state) {
    vm::segmented_exclusive_scan(m, 0, std::span<const value_t>(v), flags,
                                 std::span<value_t>(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SegmentedScan)->Arg(1 << 16)->Arg(1 << 20);

void BM_SimWyllie(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const LinkedList& l = cached_list(n);
  EngineOptions eo;
  eo.backend = BackendKind::kSim;
  Engine engine(std::move(eo));
  for (auto _ : state) {
    auto r = engine.scan(l, ScanOp::kPlus, Method::kWyllie);
    benchmark::DoNotOptimize(r.scan.data());
  }
}
BENCHMARK(BM_SimWyllie)->Arg(1 << 14);

}  // namespace

BENCHMARK_MAIN();
