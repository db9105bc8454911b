// Sharded / out-of-core sweep: the second-level Reid-Miller reduction
// (src/shard/) measured against the all-in-RAM sharded run and the serial
// walk, on chunked-locality lists where sharding is meant to live.
//
// The workload is blocked_list(n, 8192): a random permutation of 8192-
// vertex contiguous blocks, sequential inside each block -- the "mostly
// local, occasionally far" layout of lists that arrive from external
// sources. Under an id-range shard plan its shard-boundary segment count
// is bounded by the block count, so the second-level reduced list stays
// tiny and pass B is noise; what this bench actually measures is pass
// A's one walk of every shard plus pass C's stream over the answer, under
// the three residency regimes:
//
//   serial-walk    the pointer-chasing oracle (no sharding at all)
//   sharded-ram    P shards, no byte budget: every shard is a view of the
//                  resident list, the spill tier never engages
//   sharded-spill  the same plan under a budget of ~2 shards: pass A maps
//                  each shard from its spill file once and unmaps it on
//                  release, and one future loads the next meanwhile
//
// Every measured run is verified bit-exact against the serial oracle
// before its timing is accepted -- a fast wrong answer is not a result.
//
// Gate (the PR's acceptance bar, smoke config): at the largest n
// measured, sharded-spill must finish within 3x sharded-ram, and the
// spill run must have actually spilled >= 4 times (otherwise the tier
// under test never ran). SHARD_SWEEP_LENIENT=1 downgrades a miss to a
// warning (CI runners with unknown disk). The JSON trajectory is written
// either way.
//
//   $ ./shard_sweep [max_n] [reps] [--full]
//
// --full appends the out-of-core acceptance point: n = 2^27 ranked under
// a budget that forces >= 4 spills, bit-exact vs the serial oracle.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/workspace.hpp"
#include "lists/generators.hpp"
#include "shard/sharded.hpp"
#include "support/bench_json.hpp"
#include "support/table.hpp"

namespace {

using namespace lr90;
using Clock = std::chrono::steady_clock;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

constexpr std::size_t kBlock = 8192;  ///< locality grain of the workload
constexpr unsigned kShards = 8;      ///< shard plan of every sharded row

/// Serial-oracle ranks (and the baseline timing denominator).
std::vector<value_t> oracle_rank(const LinkedList& list) {
  std::vector<value_t> want(list.size());
  for_each_in_order(list, [&](index_t v, std::size_t pos) {
    want[v] = static_cast<value_t>(pos);
  });
  return want;
}

/// One measured sharded configuration: median ms over `reps` runs, every
/// run verified bit-exact against `want` before its timing counts.
struct Measured {
  double ms = 0.0;
  shard::ShardRunStats stats;  ///< from the last rep
  bool exact = true;
};

Measured measure_sharded(const LinkedList& list, std::size_t byte_budget,
                         unsigned threads, std::size_t reps,
                         const std::vector<value_t>& want) {
  shard::ShardExec exec;
  exec.shards = kShards;
  exec.threads = threads;
  exec.interleave = 8;
  exec.byte_budget = byte_budget;
  Measured m;
  std::vector<value_t> out(list.size(), 0);
  Workspace ws;
  std::vector<double> ms;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    const Status s = shard::sharded_scan(list, /*rank=*/true, ScanOp::kPlus,
                                         exec, ws, std::span<value_t>(out),
                                         m.stats);
    const auto t1 = Clock::now();
    if (!s.ok() || out != want) {
      m.exact = false;
      return m;
    }
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  m.ms = median(ms);
  return m;
}

/// The spill budget: room for ~2 of the plan's P shards, the acquired one
/// and the prefetched next. Any nonzero budget turns the spill tier on, so
/// pass A loads every shard from its spill file.
std::size_t spill_budget(std::size_t n) {
  const std::size_t per_shard =
      shard::shard_payload_bytes((n + kShards - 1) / kShards);
  return 2 * per_shard + 4096;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_n = 1u << 22;
  std::size_t reps = 3;
  bool full = false;
  int pos = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (++pos == 1) {
      max_n = std::max<std::size_t>(1u << 20,
                                    std::strtoull(argv[i], nullptr, 10));
    } else {
      reps = std::max<std::size_t>(1, std::strtoull(argv[i], nullptr, 10));
    }
  }
  const bool lenient = std::getenv("SHARD_SWEEP_LENIENT") != nullptr;
  const unsigned threads = 2;  // fixed: rows comparable across machines

  BenchJson json("shard_sweep");
  stamp_provenance(json);
  json.meta("workload", "blocked list (8192-vertex chunks), rank");
  json.meta("shards", static_cast<double>(kShards));
  json.meta("threads", static_cast<double>(threads));
  json.meta("max_n", static_cast<double>(max_n));
  json.meta("reps", static_cast<double>(reps));

  std::printf("shard_sweep: n up to %zu, %zu reps, P=%u shards%s\n\n",
              max_n, reps, kShards, full ? ", --full acceptance point" : "");

  double gate_ram_ms = 0.0, gate_spill_ms = 0.0;
  shard::StoreStats gate_store;  ///< the spill run's store at the gate's n
  std::size_t gate_n = 0;

  for (std::size_t n = 1u << 20; n <= max_n; n *= 4) {
    Rng rng(0x5eed + n);
    const LinkedList list = blocked_list(n, kBlock, rng);
    const double nd = static_cast<double>(n);

    std::vector<double> serial_ms;
    std::vector<value_t> want;
    for (std::size_t i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      want = oracle_rank(list);
      const auto t1 = Clock::now();
      serial_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    const double serial = median(serial_ms);
    json.row();
    json.field("n", nd);
    json.field("variant", "serial-walk");
    json.field("median_ms", serial);
    json.field("ns_per_elem", serial * 1e6 / nd);

    const Measured ram = measure_sharded(list, /*byte_budget=*/0, threads,
                                         reps, want);
    const Measured spill = measure_sharded(list, spill_budget(n), threads,
                                           reps, want);
    if (!ram.exact || !spill.exact) {
      std::printf("FAIL: sharded run diverged from the serial oracle at "
                  "n=%zu (%s)\n",
                  n, !ram.exact ? "ram" : "spill");
      return 1;
    }

    TextTable table({"variant", "P", "median ms", "ns/elem", "vs serial",
                     "segments", "spills"});
    table.add_row({"serial-walk", "-", TextTable::num(serial, 2),
                   TextTable::num(serial * 1e6 / nd, 2), "-", "-", "-"});
    const auto add = [&](const char* name, const Measured& m, bool spilled) {
      table.add_row({name, std::to_string(kShards),
                     TextTable::num(m.ms, 2),
                     TextTable::num(m.ms * 1e6 / nd, 2),
                     TextTable::num(serial / m.ms, 2) + "x",
                     std::to_string(m.stats.segments),
                     std::to_string(m.stats.store.spills)});
      json.row();
      json.field("n", nd);
      json.field("variant", name);
      json.field("shards", static_cast<double>(m.stats.shards));
      json.field("segments", static_cast<double>(m.stats.segments));
      json.field("spilled", spilled ? 1.0 : 0.0);
      json.field("median_ms", m.ms);
      json.field("ns_per_elem", m.ms * 1e6 / nd);
    };
    add("sharded-ram", ram, false);
    add("sharded-spill", spill, true);
    if (!spill.stats.store.spilled || ram.stats.store.spilled) {
      std::printf("FAIL: spill tier mis-engaged at n=%zu (ram spilled=%d, "
                  "spill spilled=%d)\n",
                  n, int(ram.stats.store.spilled),
                  int(spill.stats.store.spilled));
      return 1;
    }

    gate_ram_ms = ram.ms;
    gate_spill_ms = spill.ms;
    gate_store = spill.stats.store;
    gate_n = n;

    std::printf("n = %zu\n", n);
    table.print();
    std::printf("\n");
  }

  if (full) {
    // The out-of-core acceptance point: n = 2^27 under a ~2-shard budget,
    // bit-exact vs the serial oracle with >= 4 spills. One rep -- this is
    // a correctness-under-pressure demonstration, not a timing row (it is
    // deliberately NOT written into the gated JSON, so smoke baselines
    // stay comparable).
    const std::size_t n = std::size_t{1} << 27;
    std::printf("full: out-of-core acceptance at n=2^27...\n");
    Rng rng(0x5eed + n);
    const LinkedList list = blocked_list(n, kBlock, rng);
    const std::vector<value_t> want = oracle_rank(list);
    const Measured m = measure_sharded(list, spill_budget(n), threads,
                                       /*reps=*/1, want);
    if (!m.exact || m.stats.store.spills < 4) {
      std::printf("FAIL: full acceptance point (exact=%d, spills=%llu)\n",
                  int(m.exact),
                  static_cast<unsigned long long>(m.stats.store.spills));
      return 1;
    }
    std::printf("full: n=2^27 bit-exact under budget, %.0f ms, "
                "%llu loads, %llu spills, %llu prefetch hits\n\n",
                m.ms, static_cast<unsigned long long>(m.stats.store.loads),
                static_cast<unsigned long long>(m.stats.store.spills),
                static_cast<unsigned long long>(m.stats.store.prefetch_hits));
  }

  // Store behaviour of the gate's spill run, as meta: context for humans,
  // not compared row fields.
  json.meta("spill_loads", static_cast<double>(gate_store.loads));
  json.meta("spill_spills", static_cast<double>(gate_store.spills));
  json.meta("spill_prefetch_hits",
            static_cast<double>(gate_store.prefetch_hits));
  const std::string path = bench_json_path("BENCH_shard.json");
  if (!json.write(path)) return 1;
  std::printf("wrote %s\n", path.c_str());

  // The gate: out-of-core within 3x all-in-RAM sharded at the largest n,
  // and the spill tier must have genuinely engaged (>= 4 spills).
  const double ratio = gate_ram_ms > 0.0 ? gate_spill_ms / gate_ram_ms : 0.0;
  std::printf("gate: sharded-spill vs sharded-ram at n=%zu: %.2fx "
              "(need <= 3.00x), %llu spills (need >= 4)\n",
              gate_n, ratio,
              static_cast<unsigned long long>(gate_store.spills));
  if (ratio > 0.0 && ratio <= 3.0 && gate_store.spills >= 4) {
    std::puts("gate ok");
    return 0;
  }
  if (lenient) {
    std::puts("GATE MISS (SHARD_SWEEP_LENIENT set: warning only)");
    return 0;
  }
  std::puts("GATE MISS");
  return 1;
}
