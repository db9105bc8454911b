// The paper's cost model of the Reid-Miller algorithm (Section 4.2-4.3).
//
// With T_Scan(x) = a*x + b, T_Pack(x) = c*x + d per load-balance interval
// and T_Other(x) = e*x + f for the fixed per-sublist phases, the expected
// one-processor cost of Phases 1+3 given balance points S_0=0 < S_1 < ... <
// S_l is Eq. 3:
//
//   T = sum_i (S_{i+1}-S_i) (a g(S_i) + b) + sum_i (c g(S_i) + d)
//       + e (m+1) + f
//
// where g is the expected-survivor function (Eq. 2). Minimizing over the
// S_i yields the recurrence Eq. 4 (analysis/schedule.hpp), and substituting
// it back gives the closed form Eq. 5:
//
//   T(n) ~= a n + b (n/m) ln m + (a S_1 + c + e)(m+1) + l d + f [+ phase 2]
//
// Constants are extracted from the simulator's CostTable so the model and
// the machine can never drift apart.
#pragma once

#include <span>

#include "vm/cost_table.hpp"

namespace lr90 {

/// Linear-model constants for the phases of the algorithm, all in cycles.
struct CostConstants {
  double a;  ///< traversal cycles per sublist per link step (both phases)
  double b;  ///< traversal startup per link step
  double c;  ///< pack cycles per sublist per balance (both phases)
  double d;  ///< pack startup per balance
  double e;  ///< per-sublist cycles of initialize + reduce-list + restore
  double f;  ///< fixed cycles of initialize + reduce-list + restore
  double serial_per_vertex;  ///< Phase-2 serial fallback cycles per vertex

  double c_over_a() const { return c / a; }

  /// Extracts the constants from a machine cost table. `rank` selects the
  /// single-gather ranking kernels.
  static CostConstants from(const vm::CostTable& t, bool rank = false);

  /// Returns a copy with the per-element traversal terms (`a`, the combine
  /// inside every link step, and the serial walk) scaled by an operator's
  /// combine cost (lists/ops.hpp op_cost_factor). Startups, packing, and
  /// the fixed per-sublist phases move links, not values, and are
  /// unaffected. Identity when factor == 1.
  CostConstants with_combine_factor(double factor) const {
    CostConstants k = *this;
    k.a *= factor;
    k.serial_per_vertex *= factor;
    return k;
  }
};

/// Eq. 3: expected Phase 1+3 cycles (plus fixed per-sublist work) on one
/// processor for balance points `s` (S_1..S_l ascending, S_0=0 implied).
/// Does not include Phase 2.
double expected_cycles_eq3(double n, double m, std::span<const double> s,
                           const CostConstants& k);

/// Eq. 6 (Section 5): the p-processor generalization of Eq. 3. Per-element
/// vector work divides across processors but also pays the memory
/// contention multiplier; per-call startups do not parallelize (every
/// processor issues the same schedule of vector instructions).
double expected_cycles_eq6(double n, double m, std::span<const double> s,
                           const CostConstants& k, unsigned p,
                           double contention);

/// Phase-2 estimate on p processors: the cheapest of serial, Wyllie
/// (vectorized, ~2.9 cycles/element/round over ceil(log2 m) rounds), and a
/// coarse recursive bound. Used by the per-p tuner.
double phase2_cycles_estimate(double m, const CostConstants& k, unsigned p,
                              double contention);

/// Simple Phase-2 estimate used by the tuner: serial scan of the reduced
/// list of m+1 sublist sums.
double phase2_serial_cycles(double m, const CostConstants& k);

/// Eq. 5: the closed-form over-estimate of the total one-processor cycles
/// (the paper notes Eq. 5 over-estimates while Eq. 3 predicts accurately).
double expected_cycles_eq5(double n, double m, double s1, std::size_t l,
                           const CostConstants& k);

// -- host sublist kernel -----------------------------------------------------
//
// The host analog of the paper's vector model: with W cursors in flight
// per worker, a traversal element costs roughly
//
//   max( latency(footprint) / W , combine )  +  bookkeeping(W)
//
// -- the memory round-trip amortizes across the W independent load chains
// until the core's own per-element work becomes the bottleneck, while the
// round-robin bookkeeping grows mildly with W. latency() steps through
// the cache hierarchy by the slab's footprint, exactly the role the
// Hockney (startup, per-element) pairs play in the C90 CostTable.
// Defaults are fitted from bench/interleave_sweep and one-thread Engine
// runs on a 4-core Xeon (2 MiB L2 per core); they need only rank the
// candidate shapes -- and the serial walk -- correctly, not predict wall
// time. One model serves both hop sources (core/host_exec.hpp). The
// latency terms were fitted while the kernel's per-hop prefetch was
// non-temporal; it is prefetcht0 now (plus a write prefetch in phase 3),
// which makes small W and small n cheaper than the model says, and they
// have not been refitted since.
//
// The sublist count m is planned apart from (threads, W), by Eq. 5's own
// trade-off: the drain (the last sublists finishing with fewer cursors
// than the workers hold, each hop paying an unhidden latency) costs
// ~(n/m) ln m hops, against a per-sublist cost ~m, so m tracks
// sqrt(n ln n) exactly as the paper's tuned m does (analysis/tuner.hpp
// host_sublists).

/// Per-element constants of the host sublist kernel, in nanoseconds.
/// Value-semantic so benches can refit and re-plan. The per-thread terms
/// (fork_join_ns, mem_parallelism, build_min_ns) extend the model to the
/// joint (threads x W) grid: per-core work divides across workers, but
/// the memory system caps the aggregate latency hiding -- the host
/// analog of the paper's Section 5 shared-memory contention term.
struct HostCostConstants {
  double l1_latency_ns = 5.0;     ///< random load, working set in L1/L2
  double l2_latency_ns = 16.0;    ///< random load, slab within L2/LLC
  double dram_latency_ns = 95.0;  ///< random load, slab misses to DRAM
  double combine_ns = 1.4;        ///< combine + cursor advance (plus-like)
  double bookkeeping_ns = 0.08;   ///< round-robin overhead per extra cursor
  /// Per-element work outside the two traversals on one worker: boundary
  /// picks, the slab build and first touch of the run's scratch. It is
  /// what lets the serial walk win on one thread while a list fits the
  /// flat-latency region (n = 2^15 runs ~1.4x faster serial here).
  double build_ns = 5.0;
  double serial_walk_ns = 1.1;    ///< serial walk non-memory work per elem
  double fixed_run_ns = 4000.0;   ///< boundary picks, phase 2, plan fixed
  /// Working sets up to here see the flat l1 latency: well inside L2.
  double l1_bytes = 512.0 * 1024;
  double l2_bytes = 2.0 * 1024 * 1024;    ///< slab fits here: l2 latency
  double llc_bytes = 30.0 * 1024 * 1024;  ///< beyond here: dram latency

  // -- thread-scaling terms (joint (threads x W) planning) ---------------
  /// Per extra worker per run: team wake-up plus the join barrier (std::
  /// thread spawn on OpenMP-less builds is the costlier bound; the model
  /// only has to shed threads for small n, not predict wall time).
  double fork_join_ns = 9000.0;
  /// Chip-wide outstanding-miss ceiling: total in-flight random loads the
  /// memory system sustains. threads x W chains hide latency only up to
  /// this; past it, more threads stop helping the traversal phases. Kept
  /// above the per-worker cursor cap (32 in the W grid) so the ceiling
  /// never binds on one thread.
  double mem_parallelism = 48.0;
  /// Parallel slab-build floor (streaming bandwidth bound): build time
  /// per element cannot drop below this no matter how many workers.
  double build_min_ns = 0.3;

  // -- sublist count (analysis/tuner.hpp host_sublists) ------------------
  /// Eq. 5's drain-to-per-sublist cost ratio on the host: ns a drain hop
  /// costs (a cursor walking the last long sublists alone, its latency
  /// no longer hidden) over the ns one more sublist costs (boundary pick,
  /// claim, and phase 2's serial chain hop -- all latency-bound random
  /// accesses too, so the ratio holds across the cache hierarchy).
  /// Fitted to the best sublist count of bench/thread_sweep's k/T rows.
  double drain_per_sublist = 0.2;
};

/// Interpolated random-access latency for a working set of `bytes`.
double host_latency_ns(double bytes, const HostCostConstants& k);

/// Model ns/element of the packed phases 1+3 plus the parallel slab
/// build with `threads` workers each keeping `W` cursors in flight. One
/// worker pays max(latency / W, combine) plus the round-robin
/// bookkeeping per element and phase; per-core work divides by the
/// worker count; aggregate latency hiding saturates at k.mem_parallelism
/// outstanding misses; the build scales to its bandwidth floor.
/// `op_factor` scales the combine (lists/ops.hpp). Excludes the per-run
/// fixed and fork/join terms (host_tune_at adds those).
double host_packed_ns_per_elem_mt(double n, unsigned threads, unsigned W,
                                  const HostCostConstants& k,
                                  double op_factor = 1.0);

/// Model ns/element of the single-cursor serial walk over the same list
/// (the packed path's break-even opponent on one thread).
double host_serial_ns_per_elem(double n, const HostCostConstants& k,
                               double op_factor = 1.0);

}  // namespace lr90
