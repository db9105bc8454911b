// Sharded sweep: the second-level Reid-Miller reduction (src/shard/)
// measured against the serial walk, on chunked-locality lists where
// sharding is meant to live.
//
// The workload is blocked_list(n, 8192): a random permutation of 8192-
// vertex contiguous blocks, sequential inside each block -- the "mostly
// local, occasionally far" layout of lists that arrive from external
// sources. Under an id-range shard plan its shard-boundary segment count
// is bounded by the block count, so the second-level reduced list stays
// tiny and pass B is noise; what this bench actually measures is pass
// A's one walk of every shard plus pass C's stream over the answer:
//
//   serial-walk    the pointer-chasing oracle (no sharding at all)
//   sharded-ram    P shards, each read from its slice of the resident list
//
// Every measured run is verified bit-exact against the serial oracle
// before its timing is accepted -- a fast wrong answer is not a result,
// and the bench exits 1 on one. It writes the JSON trajectory and has no
// wall-clock gate.
//
//   $ ./shard_sweep [max_n] [reps] [--full]
//
// --full appends one more point: n = 2^27 ranked sharded, bit-exact vs
// the serial oracle.
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

Measured measure_sharded(const LinkedList& list, unsigned threads,
                         std::size_t reps, const std::vector<value_t>& want) {
  shard::ShardExec exec;
  exec.shards = kShards;
  exec.threads = threads;
  exec.interleave = 8;
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
  const unsigned threads = 2;  // fixed: rows comparable across machines

  BenchJson json("shard_sweep");
  stamp_provenance(json);
  json.meta("workload", "blocked list (8192-vertex chunks), rank");
  json.meta("shards", static_cast<double>(kShards));
  json.meta("threads", static_cast<double>(threads));
  json.meta("max_n", static_cast<double>(max_n));
  json.meta("reps", static_cast<double>(reps));

  std::printf("shard_sweep: n up to %zu, %zu reps, P=%u shards%s\n\n",
              max_n, reps, kShards, full ? ", --full point" : "");

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

    const Measured ram = measure_sharded(list, threads, reps, want);
    if (!ram.exact) {
      std::printf("FAIL: sharded run diverged from the serial oracle at "
                  "n=%zu\n", n);
      return 1;
    }

    TextTable table({"variant", "P", "median ms", "ns/elem", "vs serial",
                     "segments"});
    table.add_row({"serial-walk", "-", TextTable::num(serial, 2),
                   TextTable::num(serial * 1e6 / nd, 2), "-", "-"});
    table.add_row({"sharded-ram", std::to_string(kShards),
                   TextTable::num(ram.ms, 2),
                   TextTable::num(ram.ms * 1e6 / nd, 2),
                   TextTable::num(serial / ram.ms, 2) + "x",
                   std::to_string(ram.stats.segments)});
    json.row();
    json.field("n", nd);
    json.field("variant", "sharded-ram");
    json.field("shards", static_cast<double>(ram.stats.shards));
    json.field("segments", static_cast<double>(ram.stats.segments));
    json.field("median_ms", ram.ms);
    json.field("ns_per_elem", ram.ms * 1e6 / nd);

    std::printf("n = %zu\n", n);
    table.print();
    std::printf("\n");
  }

  if (full) {
    // n = 2^27 ranked sharded, bit-exact vs the serial oracle. One rep --
    // a correctness demonstration at scale, not a timing row (it is
    // deliberately NOT written into the JSON, so smoke baselines stay
    // comparable).
    const std::size_t n = std::size_t{1} << 27;
    std::printf("full: sharded rank at n=2^27...\n");
    Rng rng(0x5eed + n);
    const LinkedList list = blocked_list(n, kBlock, rng);
    const std::vector<value_t> want = oracle_rank(list);
    const Measured m = measure_sharded(list, threads, /*reps=*/1, want);
    if (!m.exact) {
      std::puts("FAIL: the n=2^27 sharded rank diverged from the oracle");
      return 1;
    }
    std::printf("full: n=2^27 bit-exact, %.0f ms, %llu segments\n\n", m.ms,
                static_cast<unsigned long long>(m.stats.segments));
  }

  const std::string path = bench_json_path("BENCH_shard.json");
  if (!json.write(path)) return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
