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

}  // namespace lr90
