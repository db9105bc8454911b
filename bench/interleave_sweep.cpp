// Latency-hiding sweep: packed multi-cursor traversal vs the seed
// single-cursor kernel, W x n, single thread.
//
// The paper's core claim is that chasing 64+ list chains at once turns a
// latency-bound traversal into a bandwidth-bound one (Cray vector
// gathers, VL = 64). The host analog is the packed multi-cursor kernel of
// core/host_exec.hpp: one gather per element from the single-gather slab,
// W independent load chains in flight per thread via round-robin cursors
// and software prefetch. This bench sweeps
//
//   W in {1, 2, 4, 8, 16, 32}  x  n in {2^16 .. max_n}
//
// over random-permutation lists (the paper's workload: memory position
// uncorrelated with list position) on ONE thread, against two
// single-cursor baselines:
//
//   serial     the plain ordered walk (1 dependent load chain);
//   seed-1cur  the seed's phase-1/3 sublist kernel, frozen here verbatim:
//              single cursor per sublist, value gather + is_tail bitmap
//              access per element, O(n) owner-table refill.
//
// Rep i of every sublist row draws its boundaries from seed 0x5eed + i,
// so a row's median spans several decompositions and every row walks
// the same ones.
//
// Gate: at n = 2^20 the packed W=8 kernel must beat seed-1cur by >= 1.5x.
// When max_n < 2^20 (CI smoke runs) the gate degrades to "best width >=
// seed-1cur" -- still meaningful on shared runners, and
// INTERLEAVE_SWEEP_LENIENT=1 downgrades any miss to a warning. Every row
// lands in BENCH_hotpath.json (LR90_BENCH_JSON_PATH
// overrides the path); the committed perf trajectory lives in
// bench/trajectory/ and tools/bench_compare.py diffs fresh runs
// against it.
//
//   $ ./interleave_sweep [max_n] [reps]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/serial_walk.hpp"
#include "core/host_exec.hpp"
#include "lists/generators.hpp"
#include "lists/ops.hpp"
#include "support/bench_json.hpp"
#include "support/table.hpp"

namespace {

using namespace lr90;
using Clock = std::chrono::steady_clock;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Times `reps` calls f(rep); a sublist row reseeds from rep_rng(rep).
template <class F>
double median_ms(std::size_t reps, F&& f) {
  std::vector<double> ms;
  ms.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f(i);
    const auto t1 = Clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return median(ms);
}

Rng rep_rng(std::size_t rep) { return Rng(0x5eed + rep); }

/// The SEED's three-phase kernel, frozen at the pre-interleave state as
/// the differential baseline: one cursor per sublist, a value gather and
/// a bitmap access per element, full O(n) owner refill in phase 2. Do
/// not "fix" this copy -- its whole point is to stay what the seed did.
/// The owner table and the 1-byte tail bitmap are this kernel's alone
/// (the library kernel keeps neither), so the caller owns them and they
/// grow through the Workspace, as the seed's did. The bitmap takes the
/// library's boundary draw (draw_boundaries), so both kernels walk the
/// same sublists.
void seed_single_cursor_scan(const LinkedList& list, std::size_t sublists,
                             Workspace& ws,
                             std::vector<index_t>& owner_of_head,
                             std::vector<std::uint8_t>& is_tail,
                             std::span<value_t> out) {
  const std::size_t n = list.size();
  const std::size_t want = std::min(sublists, n / 2);
  const index_t global_tail = list.find_tail();
  ws.fit(is_tail, n, std::uint8_t{0});
  std::uint8_t* tail = is_tail.data();
  host_exec::draw_boundaries(n, want - 1, ws, global_tail, [tail](index_t v) {
    if (tail[v] != 0) return false;
    tail[v] = 1;
    return true;
  });
  ws.fit_uninit(ws.heads, want);
  ws.heads.clear();
  ws.heads.push_back(list.head);
  for (const index_t r : ws.picks) ws.heads.push_back(list.next[r]);
  const std::size_t k = ws.heads.size();

  ws.fit(ws.sums, k, OpPlus::identity());
  ws.fit(ws.tails, k, kNoVertex);
  for (std::size_t j = 0; j < k; ++j) {
    index_t v = ws.heads[j];
    value_t acc = OpPlus::identity();
    while (true) {
      acc = acc + list.value[v];
      if (is_tail[v]) break;
      v = list.next[v];
    }
    ws.sums[j] = acc;
    ws.tails[j] = v;
  }

  ws.fit(owner_of_head, n, kNoVertex);
  for (std::size_t j = 0; j < k; ++j)
    owner_of_head[ws.heads[j]] = static_cast<index_t>(j);
  ws.fit(ws.headscan, k, OpPlus::identity());
  {
    value_t acc = OpPlus::identity();
    std::size_t j = 0;
    for (std::size_t seen = 0; seen < k; ++seen) {
      ws.headscan[j] = acc;
      acc = acc + ws.sums[j];
      const index_t t = ws.tails[j];
      if (list.next[t] == t) break;
      j = owner_of_head[list.next[t]];
    }
  }

  for (std::size_t j = 0; j < k; ++j) {
    index_t v = ws.heads[j];
    value_t acc = ws.headscan[j];
    while (true) {
      out[v] = acc;
      acc = acc + list.value[v];
      if (is_tail[v]) break;
      v = list.next[v];
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The sweep starts at 2^16; clamp so a smaller argument still measures
  // one size instead of writing an empty JSON and a spurious gate miss.
  const std::size_t max_n = std::max<std::size_t>(
      1u << 16,
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : (1u << 22));
  const std::size_t reps = std::max<std::size_t>(
      3, argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5);
  const bool lenient = std::getenv("INTERLEAVE_SWEEP_LENIENT") != nullptr;
  constexpr unsigned kWidths[] = {1, 2, 4, 8, 16, 32};
  constexpr std::size_t kSublists = 64;

  BenchJson json("interleave_sweep");
  stamp_provenance(json);
  json.meta("workload", "random-permutation list, OpPlus over ones");
  json.meta("threads", 1.0);
  json.meta("sublists", static_cast<double>(kSublists));
  json.meta("max_n", static_cast<double>(max_n));
  json.meta("reps", static_cast<double>(reps));

  std::printf("interleave_sweep: n up to %zu, %zu reps, 1 thread, "
              "%zu sublists\n\n",
              max_n, reps, kSublists);

  double gate_seed_ms = 0.0;      // seed-1cur at the gate size
  double gate_packed8_ms = 0.0;   // packed W=8 at the gate size
  double gate_best_ratio = 0.0;   // best packed speedup at the largest n
  std::size_t gate_n = 0;

  for (std::size_t n = 1u << 16; n <= max_n; n *= 4) {
    Rng rng(0x5eed + n);
    const LinkedList list = random_list(n, rng);
    std::vector<value_t> out(n);
    Workspace ws;
    std::vector<index_t> owner_of_head;  // the seed kernel's, kept warm
    std::vector<std::uint8_t> is_tail;   // likewise
    const double nd = static_cast<double>(n);

    const double serial = median_ms(reps, [&](std::size_t) {
      serial_scan_host(list, std::span<value_t>(out));
    });
    const double seed1 = median_ms(reps, [&](std::size_t rep) {
      ws.rng = rep_rng(rep);
      seed_single_cursor_scan(list, kSublists, ws, owner_of_head, is_tail,
                              std::span<value_t>(out));
    });

    TextTable table({"variant", "W", "median ms", "ns/elem",
                     "vs seed-1cur"});
    table.add_row({"serial-walk", "1", TextTable::num(serial, 2),
                   TextTable::num(serial * 1e6 / nd, 2),
                   TextTable::num(seed1 / serial, 2) + "x"});
    table.add_row({"seed-1cur", "1", TextTable::num(seed1, 2),
                   TextTable::num(seed1 * 1e6 / nd, 2), "1.00x"});
    json.row();
    json.field("n", nd);
    json.field("variant", "serial-walk");
    json.field("median_ms", serial);
    json.field("ns_per_elem", serial * 1e6 / nd);
    json.row();
    json.field("n", nd);
    json.field("variant", "seed-1cur");
    json.field("median_ms", seed1);
    json.field("ns_per_elem", seed1 * 1e6 / nd);

    double best_ratio = 0.0;
    for (const unsigned w : kWidths) {
      host_exec::HostPlan plan;
      plan.threads = 1;
      plan.sublists = kSublists;
      plan.interleave = w;
      const double ms = median_ms(reps, [&](std::size_t rep) {
        ws.rng = rep_rng(rep);
        host_exec::scan_into(list, OpPlus{}, plan, ws,
                             std::span<value_t>(out));
      });
      const double ratio = seed1 / ms;
      best_ratio = std::max(best_ratio, ratio);
      table.add_row({"packed", std::to_string(w), TextTable::num(ms, 2),
                     TextTable::num(ms * 1e6 / nd, 2),
                     TextTable::num(ratio, 2) + "x"});
      json.row();
      json.field("n", nd);
      json.field("variant", "packed");
      json.field("w", static_cast<double>(w));
      json.field("median_ms", ms);
      json.field("ns_per_elem", ms * 1e6 / nd);
      json.field("speedup_vs_seed", ratio);
      if (n == (1u << 20) && w == 8) {
        gate_seed_ms = seed1;
        gate_packed8_ms = ms;
      }
    }
    gate_best_ratio = best_ratio;
    gate_n = n;
    std::printf("n = %zu\n", n);
    table.print();
    std::printf("\n");
  }

  const std::string path = bench_json_path("BENCH_hotpath.json");
  if (!json.write(path)) return 1;
  std::printf("wrote %s\n", path.c_str());

  // The gate. Full runs (max_n >= 2^20): packed W=8 must beat the seed
  // kernel by >= 1.5x at n = 2^20. Smoke runs: the best packed width must
  // at least match the seed kernel at the largest n measured.
  bool ok = true;
  if (gate_packed8_ms > 0.0) {
    const double ratio = gate_seed_ms / gate_packed8_ms;
    std::printf("gate: packed W=8 vs seed-1cur at n=2^20: %.2fx "
                "(need >= 1.50x)\n",
                ratio);
    if (ratio < 1.5) ok = false;
  } else {
    std::printf("gate (smoke, n=%zu): best packed width vs seed-1cur: "
                "%.2fx (need >= 1.00x)\n",
                gate_n, gate_best_ratio);
    if (gate_best_ratio < 1.0) ok = false;
  }
  if (ok) {
    std::puts("gate ok");
    return 0;
  }
  if (lenient) {
    std::puts("GATE MISS (INTERLEAVE_SWEEP_LENIENT set: warning only)");
    return 0;
  }
  std::puts("GATE MISS");
  return 1;
}
