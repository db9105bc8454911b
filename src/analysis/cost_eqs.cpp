#include "analysis/cost_eqs.hpp"

#include <cassert>
#include <cmath>

#include "analysis/sublist_stats.hpp"

namespace lr90 {

CostConstants CostConstants::from(const vm::CostTable& t, bool rank) {
  const auto& scan1 = t.kernel(rank ? vm::Kernel::kInitialScanRankStep
                                    : vm::Kernel::kInitialScanStep);
  const auto& scan3 = t.kernel(rank ? vm::Kernel::kFinalScanRankStep
                                    : vm::Kernel::kFinalScanStep);
  const auto& pack1 = t.kernel(vm::Kernel::kInitialPack);
  const auto& pack3 = t.kernel(vm::Kernel::kFinalPack);
  const auto& init = t.kernel(vm::Kernel::kInitialize);
  const auto& find = t.kernel(vm::Kernel::kFindSublistList);
  const auto& restore = t.kernel(vm::Kernel::kRestoreList);

  CostConstants k{};
  k.a = scan1.per_elem + scan3.per_elem;
  k.b = scan1.startup + scan3.startup;
  k.c = pack1.per_elem + pack3.per_elem;
  k.d = pack1.startup + pack3.startup;
  k.e = init.per_elem + find.per_elem + restore.per_elem;
  k.f = init.startup + find.startup + restore.startup;
  k.serial_per_vertex =
      rank ? t.serial_rank_per_vertex : t.serial_scan_per_vertex;
  return k;
}

double expected_cycles_eq3(double n, double m, std::span<const double> s,
                           const CostConstants& k) {
  assert(n > 0 && m > 0);
  double cycles = k.e * (m + 1.0) + k.f;
  double prev = 0.0;
  for (const double si : s) {
    assert(si > prev);
    // Lanes active while traversing (prev, si] are the sublists longer than
    // prev: g(prev). The pack at si then processes those same lanes, i.e.
    // the paper's sum_{i=0}^{l-1} (c g(S_i) + d) with the pack at S_{i+1}
    // costing c g(S_i) + d.
    const double survivors = g_survivors(n, m, prev);
    cycles += (si - prev) * (k.a * survivors + k.b);  // traverse interval
    cycles += k.c * survivors + k.d;                  // balance at si
    prev = si;
  }
  return cycles;
}

double phase2_serial_cycles(double m, const CostConstants& k) {
  return k.serial_per_vertex * (m + 1.0) + 100.0;
}

double expected_cycles_eq6(double n, double m, std::span<const double> s,
                           const CostConstants& k, unsigned p,
                           double contention) {
  assert(n > 0 && m > 0 && p >= 1);
  // Per-element work divides over p processors but pays contention; the
  // per-vector-call startups are issued by every processor in lockstep and
  // do not parallelize.
  const double pe = static_cast<double>(p) / contention;
  double cycles = k.e * (m + 1.0) / pe + k.f;
  double prev = 0.0;
  for (const double si : s) {
    assert(si > prev);
    const double survivors = g_survivors(n, m, prev);
    cycles += (si - prev) * (k.a * survivors / pe + k.b);
    cycles += k.c * survivors / pe + k.d;
    prev = si;
  }
  return cycles;
}

double phase2_cycles_estimate(double m, const CostConstants& k, unsigned p,
                              double contention) {
  const double serial = phase2_serial_cycles(m, k);
  // Wyllie on the reduced list: ~2.9 contended cycles per element per
  // round, ceil(log2 m) rounds, plus per-round startup and a sync.
  const double rounds = std::ceil(std::log2(std::max(2.0, m)));
  const double wyllie =
      rounds * (2.9 * contention * (m + 1.0) / static_cast<double>(p) +
                540.0) +
      2000.0;
  // Recursion: roughly the leading a-term plus fixed overhead.
  const double recursive =
      k.a * contention * (m + 1.0) / static_cast<double>(p) + k.f + 3000.0;
  return std::min(serial, std::min(wyllie, recursive));
}

double expected_cycles_eq5(double n, double m, double s1, std::size_t l,
                           const CostConstants& k) {
  return k.a * n + k.b * (n / m) * std::log(m) +
         (k.a * s1 + k.c + k.e) * (m + 1.0) +
         static_cast<double>(l) * k.d + k.f;
}

double host_latency_ns(double bytes, const HostCostConstants& k) {
  // Log-linear ramps between the cache levels: latency climbs as less of
  // the working set fits each tier.
  auto ramp = [](double bytes, double lo_b, double hi_b, double lo_ns,
                 double hi_ns) {
    const double t = (std::log2(bytes) - std::log2(lo_b)) /
                     (std::log2(hi_b) - std::log2(lo_b));
    return lo_ns + t * (hi_ns - lo_ns);
  };
  if (bytes <= k.l1_bytes) return k.l1_latency_ns;
  if (bytes <= k.l2_bytes)
    return ramp(bytes, k.l1_bytes, k.l2_bytes, k.l1_latency_ns,
                k.l2_latency_ns);
  if (bytes >= k.llc_bytes) return k.dram_latency_ns;
  return ramp(bytes, k.l2_bytes, k.llc_bytes, k.l2_latency_ns,
              k.dram_latency_ns);
}

double host_packed_ns_per_elem_mt(double n, unsigned threads, unsigned W,
                                  const HostCostConstants& k,
                                  double op_factor) {
  assert(threads >= 1 && W >= 1);
  // Footprint: the slab plus the output array the cursors scatter into.
  const double lat = host_latency_ns(n * 12.0, k);
  // One worker's per-element cost in each traversal phase.
  const double per_thread =
      std::max(lat / static_cast<double>(W), k.combine_ns * op_factor) +
      k.bookkeeping_ns * static_cast<double>(W - 1);
  // Dividing across workers helps until the chip's outstanding-miss
  // ceiling: threads x W chains cannot hide more latency than
  // mem_parallelism concurrent round-trips' worth.
  const double per_phase =
      std::max(per_thread / static_cast<double>(threads),
               lat / k.mem_parallelism);
  const double build = std::max(k.build_ns / static_cast<double>(threads),
                                k.build_min_ns);
  return 2.0 * per_phase + build;
}

double host_serial_ns_per_elem(double n, const HostCostConstants& k,
                               double op_factor) {
  return host_latency_ns(n * 12.0, k) + k.serial_walk_ns * op_factor;
}

}  // namespace lr90
