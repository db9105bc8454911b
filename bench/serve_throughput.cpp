// Serving-layer scaling bench: aggregate req/s and latency percentiles of
// an EngineServer as the number of client threads grows.
//
// Each client runs a closed-loop: submit one request, wait for its future,
// repeat. With one client every request pays the full submit -> worker
// wakeup -> run -> fulfil -> client wakeup round trip while the other
// workers sit idle; with several concurrent clients the queue stays
// occupied, every worker runs a request on its own leased engine, and one
// request's wakeups overlap another's run. The speedup column against the
// 1-client row measures that overlap and inter-request parallelism (the
// requests themselves are small on purpose); a single-core machine shows
// little of it.
//
// Also reports the pooled-workspace allocation counters around the
// measured phases: after warmup the steady state must not allocate.
//
//   $ ./serve_throughput [n] [requests_per_client] [workers]
//       n                   list length per request  (default 32768)
//       requests_per_client closed-loop length       (default 400)
//       workers             server worker threads    (default 0 = one per
//                           hardware thread)
//
// Every client ranks the same caller-owned list, and every request runs
// the engine once: only snapshot-addressed requests are memoized (the
// snapshot hot-key phase at the end).
//
// Exits non-zero if the 4-client aggregate throughput fails to reach 2x
// the 1-client baseline or the steady state allocated workspace memory --
// the acceptance gate this bench exists to keep honest.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include "lists/generators.hpp"
#include "serve/server.hpp"
#include "support/bench_json.hpp"
#include "support/table.hpp"

namespace {

using namespace lr90;
using Clock = std::chrono::steady_clock;

struct LoadResult {
  double seconds = 0.0;          ///< wall time of the whole closed loop
  double reqs = 0.0;             ///< requests completed across clients
  std::vector<double> lat_us;    ///< per-request latency, microseconds
  unsigned cursors = 0;          ///< cursors-in-flight the engines reported
  KernelTier tier = KernelTier::kAuto;  ///< what the engines walked
};

/// Runs `clients` closed-loop threads of `per_client` rank requests each.
LoadResult run_load(EngineServer& server, const LinkedList& list,
                    unsigned clients, std::size_t per_client) {
  LoadResult out;
  std::vector<std::vector<double>> lat(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto t0 = Clock::now();
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      lat[c].reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        const auto s = Clock::now();
        RunResult r = server.submit(RankRequest{&list}).get();
        const auto e = Clock::now();
        if (!r.ok()) {
          std::fprintf(stderr, "request failed: %s\n",
                       r.status.message.c_str());
          std::exit(1);
        }
        if (c == 0 && i == 0) {  // execution shape is per-run deterministic
          out.cursors = r.stats.host_interleave;
          out.tier = r.stats.kernel_tier;
        }
        lat[c].push_back(
            std::chrono::duration<double, std::micro>(e - s).count());
      }
    });
  }
  for (auto& t : threads) t.join();
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.reqs = static_cast<double>(clients) * static_cast<double>(per_client);
  for (auto& per : lat)
    out.lat_us.insert(out.lat_us.end(), per.begin(), per.end());
  std::sort(out.lat_us.begin(), out.lat_us.end());
  return out;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 32768;
  const std::size_t per_client =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 400;
  const unsigned workers =
      argc > 3 ? static_cast<unsigned>(std::strtoul(argv[3], nullptr, 10))
               : 0;

  Rng rng(42);
  const LinkedList list = random_list(n, rng);

  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  // Two engine threads force the sublist kernel (not the serial walk), so
  // the workspace is genuinely exercised and its zero-alloc steady state
  // is a meaningful claim; inter-request parallelism still comes from the
  // worker pool, the serving-layer axis this bench measures.
  opt.engine.threads = 2;
  opt.workers = workers;
  EngineServer server(opt);

  std::printf("serve_throughput: n=%zu, %zu reqs/client, %zu workers\n\n",
              n, per_client, server.workers());

  // Warm every pooled workspace (and the allocator) before measuring.
  run_load(server, list, 2 * static_cast<unsigned>(server.workers()), 64);
  const std::uint64_t warm_allocs = server.stats().pool.allocations;

  BenchJson json("serve_throughput");
  stamp_provenance(json);
  json.meta("n", static_cast<double>(n));
  json.meta("reqs_per_client", static_cast<double>(per_client));
  json.meta("workers", static_cast<double>(server.workers()));
  json.meta("engine_threads", 2.0);

  TextTable table(
      {"clients", "req/s", "p50 us", "p99 us", "speedup", "cursors"});
  double baseline = 0.0;
  double at4 = 0.0;
  for (const unsigned clients : {1u, 2u, 4u, 8u}) {
    const LoadResult r = run_load(server, list, clients, per_client);
    const double rps = r.reqs / r.seconds;
    if (clients == 1) baseline = rps;
    if (clients == 4) at4 = rps;
    const double p50 = percentile(r.lat_us, 0.50);
    const double p99 = percentile(r.lat_us, 0.99);
    table.add_row({std::to_string(clients), TextTable::num(rps, 0),
                   TextTable::num(p50, 1), TextTable::num(p99, 1),
                   TextTable::num(rps / baseline, 2) + "x",
                   std::to_string(r.cursors) + " (" +
                       kernel_tier_name(r.tier) + ")"});
    json.row();
    json.field("clients", static_cast<double>(clients));
    json.field("req_per_s", rps);
    json.field("p50_us", p50);
    json.field("p99_us", p99);
    json.field("speedup_vs_1_client", rps / baseline);
    json.field("cursors", static_cast<double>(r.cursors));
    json.field("kernel_tier", static_cast<double>(r.tier));
  }
  table.print();

  const ServerStats stats = server.stats();
  const std::uint64_t steady_allocs = stats.pool.allocations - warm_allocs;
  const double speedup = at4 / baseline;
  std::printf(
      "\nengine runs: %llu for %llu requests\n"
      "workspace allocations after warmup: %llu (reuse hits %llu)\n"
      "4-client speedup over 1-client submission loop: %.2fx\n",
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(steady_allocs),
      static_cast<unsigned long long>(stats.pool.reuse_hits), speedup);
  // The two parallelism axes multiplied: worker pool (inter-request) x
  // per-engine host threads (intra-request, RunStats::host_threads peak).
  std::printf(
      "machine parallelism: %zu workers x %llu intra-request threads "
      "= %llu\n",
      server.workers(),
      static_cast<unsigned long long>(stats.intra_threads_peak),
      static_cast<unsigned long long>(
          server.workers() * stats.intra_threads_peak));
  json.meta("intra_threads_peak",
            static_cast<double>(stats.intra_threads_peak));

  // --- Snapshot hot-key phase: the cross-request cache steady state. ---
  // Register the bench list as a snapshot, warm the shared caches with a
  // single run, zero the counters, then hammer the handle from 8
  // closed-loop clients. Steady state must answer every request from the
  // result memo: zero engine runs, zero packed-slab builds, hit rate 1.
  SnapshotHandle handle;
  if (const Status s = server.register_snapshot(list, handle); !s.ok()) {
    std::fprintf(stderr, "register_snapshot failed: %s\n",
                 s.message.c_str());
    return 1;
  }
  SnapshotRequest hot;
  hot.snapshot_id = handle.snapshot_id;
  {
    RunResult warm = server.submit(hot).get();
    if (!warm.ok()) {
      std::fprintf(stderr, "snapshot warmup failed: %s\n",
                   warm.status.message.c_str());
      return 1;
    }
  }
  // Quiesce before zeroing, so no job of the engine phase or the warmup
  // lands after reset_stats() as a phantom engine run in the measured
  // window: completed == submitted means every accepted job is fully
  // accounted, and the resident entry proves the memo is warm.
  for (ServerStats s = server.stats();
       s.cache_resident_entries == 0 || s.completed < s.submitted;
       s = server.stats())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.reset_stats();

  constexpr unsigned kHotClients = 8;
  std::vector<std::vector<double>> hot_lat(kHotClients);
  std::vector<std::thread> hot_threads;
  const auto hot_t0 = Clock::now();
  for (unsigned c = 0; c < kHotClients; ++c) {
    hot_threads.emplace_back([&, c] {
      hot_lat[c].reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        const auto s = Clock::now();
        RunResult r = server.submit(hot).get();
        const auto e = Clock::now();
        if (!r.ok()) {
          std::fprintf(stderr, "hot-key request failed: %s\n",
                       r.status.message.c_str());
          std::exit(1);
        }
        hot_lat[c].push_back(
            std::chrono::duration<double, std::micro>(e - s).count());
      }
    });
  }
  for (auto& t : hot_threads) t.join();
  const double hot_seconds =
      std::chrono::duration<double>(Clock::now() - hot_t0).count();
  std::vector<double> hot_sorted;
  for (auto& per : hot_lat)
    hot_sorted.insert(hot_sorted.end(), per.begin(), per.end());
  std::sort(hot_sorted.begin(), hot_sorted.end());
  const double hot_reqs =
      static_cast<double>(kHotClients) * static_cast<double>(per_client);
  const double hot_rps = hot_reqs / hot_seconds;
  const double hot_p50 = percentile(hot_sorted, 0.50);
  const double hot_p99 = percentile(hot_sorted, 0.99);

  const ServerStats hot_stats = server.stats();
  const double hot_lookups = static_cast<double>(hot_stats.result_hits) +
                             static_cast<double>(hot_stats.result_misses);
  const double hit_rate =
      hot_lookups > 0.0
          ? static_cast<double>(hot_stats.result_hits) / hot_lookups
          : 0.0;
  std::printf(
      "\nsnapshot hot key (%u clients x %zu): %.0f req/s, p50 %.1f us, "
      "p99 %.1f us; cache hit rate %.4f, engine runs %llu, packed builds "
      "%llu\n",
      kHotClients, per_client, hot_rps, hot_p50, hot_p99, hit_rate,
      static_cast<unsigned long long>(hot_stats.completed),
      static_cast<unsigned long long>(hot_stats.pool.packed_builds));
  json.row();
  json.field("clients", static_cast<double>(kHotClients));
  json.field("variant", std::string("snapshot-hotkey"));
  json.field("req_per_s", hot_rps);
  json.field("p50_us", hot_p50);
  json.field("p99_us", hot_p99);
  json.field("cache_hit_efficiency", hit_rate);
  json.field("packed_builds",
             static_cast<double>(hot_stats.pool.packed_builds));
  json.field("engine_runs", static_cast<double>(hot_stats.completed));

  const std::string json_path = bench_json_path("BENCH_serve.json");
  if (json.write(json_path))
    std::printf("wrote %s\n", json_path.c_str());

  // SERVE_THROUGHPUT_LENIENT downgrades the wall-clock speedup gate to a
  // warning (shared CI runners make timing assertions flaky); the
  // zero-allocation gate is deterministic and stays hard either way.
  const bool lenient = std::getenv("SERVE_THROUGHPUT_LENIENT") != nullptr;
  bool failed = false;
  if (steady_allocs != 0) {
    std::puts("FAIL: steady state grew a pooled workspace");
    failed = true;
  }
  if (speedup < 2.0) {
    if (lenient) {
      std::puts("WARN: 4-client speedup below 2x (lenient mode, not fatal)");
    } else {
      std::puts("FAIL: 4-client speedup below 2x");
      failed = true;
    }
  }
  // The snapshot gates are deterministic (no wall clock involved), so
  // they stay hard even in lenient mode.
  if (hot_stats.completed != 0 || hot_stats.pool.packed_builds != 0) {
    std::puts("FAIL: snapshot hot-key steady state ran the engine again");
    failed = true;
  }
  if (hit_rate < 0.99) {
    std::puts("FAIL: snapshot hot-key cache hit rate below 0.99");
    failed = true;
  }
  if (!failed)
    std::puts("OK: >=2x at 4 clients, zero-alloc steady state, "
              "zero-run snapshot hot key");
  return failed ? 1 : 0;
}
