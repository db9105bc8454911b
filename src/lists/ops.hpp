// Binary associative operators for list scan -- the pluggable operator
// layer of the library.
//
// List scan computes, for each vertex, the "sum" of the values of all prior
// vertices under any binary associative operator with an identity
// (Section 2 of the paper). List ranking is the special case of integer
// addition over all-ones values.
//
// Two faces of the same layer:
//
//  * Compile time: each operator is a stateless function object satisfying
//    the `ListOp` concept (a static identity() plus a binary combine);
//    every algorithm is templated on the operator so the compiler inlines
//    it into the traversal kernels, mirroring how the paper's C code
//    specializes the "sum" operator.
//  * Run time: the `ScanOp` enum names each registered operator for
//    request structs (core/engine.hpp OpRequest/ScanRequest) and the
//    serving layer; `with_scan_op` dispatches an enum value onto the
//    corresponding operator type exactly once per run, so the inner loops
//    stay monomorphic.
//
// Combine order contract: `op(a, b)` combines segment `a` *followed in
// list order by* segment `b`. Addition, min, max, and xor are commutative
// so the order is moot; the packed operators below (segmented sum, affine
// composition, max-plus) are NOT commutative, and every algorithm in the
// library preserves this order (see baselines/wyllie.hpp for the one
// formulation where that is subtle).
//
// Packed operators: value_t is 64 bits wide, which fits a pair of 32-bit
// lanes. Segmented sum packs (segment-start flag, sum); affine composition
// packs the map x -> mul*x + add as (mul, add) with wrapping 32-bit
// arithmetic (exact, hence associative, for any inputs); max-plus packs
// the map x -> max(x + shift, floor) as (shift, floor), the composition
// law of critical-path/dependency-chain scheduling (apps/chain_sched.hpp).
// Max-plus combines exactly -- and therefore associatively -- as long as
// no intermediate shift or floor leaves the 32-bit lane (max does not
// commute with wrap-around); callers keep durations and release times
// small enough, which chain scheduling does by construction.
//
// The host kernel (core/host_exec.hpp) carries every value whole, all 64
// bits, in its record slab, so all seven operators run the same slab
// kernel whatever their values.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>

#include "lists/linked_list.hpp"

namespace lr90 {

/// What every scan operator must provide: a default-constructible,
/// stateless function object with a static identity and a binary combine
/// over value_t. `op(a, b)` combines segment `a` followed in list order by
/// segment `b`; the operator must be associative (commutativity is NOT
/// required -- see OpSegSum / OpAffine / OpMaxPlus).
template <class Op>
concept ListOp =
    std::default_initializable<Op> &&
    requires(const Op op, value_t a, value_t b) {
      { Op::identity() } -> std::convertible_to<value_t>;
      { op(a, b) } -> std::convertible_to<value_t>;
    };

// -- elementwise operators --------------------------------------------------

/// Integer addition (identity 0); list ranking is this over all-ones.
struct OpPlus {
  static constexpr value_t identity() { return 0; }
  constexpr value_t operator()(value_t a, value_t b) const { return a + b; }
};

/// Minimum (identity +inf): running minimum along the list.
struct OpMin {
  static constexpr value_t identity() {
    return std::numeric_limits<value_t>::max();
  }
  constexpr value_t operator()(value_t a, value_t b) const {
    return std::min(a, b);
  }
};

/// Maximum (identity -inf): running maximum along the list.
struct OpMax {
  static constexpr value_t identity() {
    return std::numeric_limits<value_t>::min();
  }
  constexpr value_t operator()(value_t a, value_t b) const {
    return std::max(a, b);
  }
};

/// Bitwise xor (identity 0); self-inverse, handy for consistency checks.
struct OpXor {
  static constexpr value_t identity() { return 0; }
  constexpr value_t operator()(value_t a, value_t b) const { return a ^ b; }
};

// -- segmented sum ----------------------------------------------------------
//
// A value is a (start-flag, sum) pair: bit 63 marks the beginning of a new
// segment, the low 32 bits carry the (wrapping, signed) sum lane. Bits
// 32..62 are ignored on input and zero on every combine result, so ANY
// 64-bit input pattern is legal and the operator is exactly associative.

/// Packs a segmented-sum element: `start` opens a new segment at this
/// vertex, `v` is its value.
inline constexpr value_t seg_pack(bool start, std::int32_t v) {
  return static_cast<value_t>(
      (start ? 0x8000000000000000ULL : 0ULL) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
}
/// True iff the element opens a new segment.
inline constexpr bool seg_start(value_t w) {
  return (static_cast<std::uint64_t>(w) >> 63) != 0;
}
/// The element's sum lane (signed view of the low 32 bits).
inline constexpr std::int32_t seg_sum(value_t w) {
  return static_cast<std::int32_t>(static_cast<std::uint64_t>(w) &
                                   0xffffffffULL);
}

/// Segmented sum (Blelloch): sums reset at every segment start, so one scan
/// computes an independent prefix sum per segment. Non-commutative.
struct OpSegSum {
  static constexpr value_t identity() { return seg_pack(false, 0); }
  constexpr value_t operator()(value_t a, value_t b) const {
    const bool start = seg_start(a) || seg_start(b);
    const std::uint32_t sum =
        seg_start(b) ? static_cast<std::uint32_t>(seg_sum(b))
                     : static_cast<std::uint32_t>(seg_sum(a)) +
                           static_cast<std::uint32_t>(seg_sum(b));
    return seg_pack(start, static_cast<std::int32_t>(sum));
  }
};

// -- affine composition -----------------------------------------------------
//
// A value is the affine map x -> mul*x + add, packed as (mul, add) 32-bit
// lanes. The scan's combine is function composition, earliest map applied
// first; all arithmetic wraps mod 2^32 (a ring), so the operator is
// exactly associative for ANY inputs. The exclusive scan at vertex v is
// the composition of every earlier vertex's map -- linear recurrences
// x_{i+1} = mul_i * x_i + add_i solved in one scan.

/// Packs the affine map x -> mul*x + add.
inline constexpr value_t affine_pack(std::int32_t mul, std::int32_t add) {
  return static_cast<value_t>(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(mul)) << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(add)));
}
/// The map's multiplier lane.
inline constexpr std::int32_t affine_mul(value_t f) {
  return static_cast<std::int32_t>(static_cast<std::uint64_t>(f) >> 32);
}
/// The map's additive lane.
inline constexpr std::int32_t affine_add(value_t f) {
  return static_cast<std::int32_t>(static_cast<std::uint64_t>(f) &
                                   0xffffffffULL);
}
/// Applies the packed map to x (wrapping 32-bit arithmetic).
inline constexpr std::int32_t affine_apply(value_t f, std::int32_t x) {
  return static_cast<std::int32_t>(
      static_cast<std::uint32_t>(affine_mul(f)) *
          static_cast<std::uint32_t>(x) +
      static_cast<std::uint32_t>(affine_add(f)));
}

/// Affine-map composition (identity x -> x): op(a, b) is "apply a, then
/// b". Non-commutative.
struct OpAffine {
  static constexpr value_t identity() { return affine_pack(1, 0); }
  constexpr value_t operator()(value_t a, value_t b) const {
    const auto mb = static_cast<std::uint32_t>(affine_mul(b));
    const std::uint32_t mul = mb * static_cast<std::uint32_t>(affine_mul(a));
    const std::uint32_t add =
        mb * static_cast<std::uint32_t>(affine_add(a)) +
        static_cast<std::uint32_t>(affine_add(b));
    return affine_pack(static_cast<std::int32_t>(mul),
                       static_cast<std::int32_t>(add));
  }
};

// -- max-plus ---------------------------------------------------------------
//
// A value is the map x -> max(x + shift, floor), packed as (shift, floor)
// 32-bit lanes: exactly the "finish time" update of a task in a dependency
// chain (shift = duration, floor = release time + duration), and closed
// under composition:
//
//   g(f(x)) = max(x + (sf + sg), max(ff + sg, fg)).
//
// The identity is the bit pattern (0, INT32_MIN), matched exactly in the
// combine so no arithmetic ever touches the -inf sentinel. Associative as
// long as combined shifts and floors stay within the 32-bit lanes.

/// The floor lane of the max-plus identity ("-inf": never the maximum).
inline constexpr std::int32_t kMaxPlusNegInf =
    std::numeric_limits<std::int32_t>::min();

/// Packs the max-plus map x -> max(x + shift, floor).
inline constexpr value_t maxplus_pack(std::int32_t shift, std::int32_t floor) {
  return static_cast<value_t>(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(shift)) << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(floor)));
}
/// The map's shift lane (a task's duration).
inline constexpr std::int32_t maxplus_shift(value_t f) {
  return static_cast<std::int32_t>(static_cast<std::uint64_t>(f) >> 32);
}
/// The map's floor lane (a task's release time + duration).
inline constexpr std::int32_t maxplus_floor(value_t f) {
  return static_cast<std::int32_t>(static_cast<std::uint64_t>(f) &
                                   0xffffffffULL);
}
/// Applies the packed map to x.
inline constexpr std::int64_t maxplus_apply(value_t f, std::int64_t x) {
  return std::max(x + maxplus_shift(f),
                  static_cast<std::int64_t>(maxplus_floor(f)));
}

/// Max-plus ("tropical affine") composition: op(a, b) is "apply a, then
/// b". The critical-path operator of apps/chain_sched.hpp.
/// Non-commutative.
struct OpMaxPlus {
  static constexpr value_t identity() {
    return maxplus_pack(0, kMaxPlusNegInf);
  }
  constexpr value_t operator()(value_t a, value_t b) const {
    if (a == identity()) return b;
    if (b == identity()) return a;
    const std::uint32_t shift = static_cast<std::uint32_t>(maxplus_shift(a)) +
                                static_cast<std::uint32_t>(maxplus_shift(b));
    const std::int64_t floor =
        std::max(static_cast<std::int64_t>(maxplus_floor(a)) +
                     maxplus_shift(b),
                 static_cast<std::int64_t>(maxplus_floor(b)));
    return maxplus_pack(static_cast<std::int32_t>(shift),
                        static_cast<std::int32_t>(floor));
  }
};

// -- runtime dispatch -------------------------------------------------------

/// The registered operators, runtime-nameable for requests (OpRequest /
/// ScanRequest in core/engine.hpp) and the serving layer. The template
/// entry points remain the way to scan under a custom operator type.
enum class ScanOp {
  kPlus,     ///< addition (identity 0); OpPlus
  kMin,      ///< minimum (identity +inf); OpMin
  kMax,      ///< maximum (identity -inf); OpMax
  kXor,      ///< bitwise xor (identity 0); OpXor
  kSegSum,   ///< segmented sum over packed (flag, sum); OpSegSum
  kAffine,   ///< affine-map composition over packed (mul, add); OpAffine
  kMaxPlus,  ///< max-plus composition over packed (shift, floor); OpMaxPlus
};

/// Every registered operator, in ScanOp declaration order (for sweeps).
inline constexpr ScanOp kAllScanOps[] = {
    ScanOp::kPlus,   ScanOp::kMin,    ScanOp::kMax,    ScanOp::kXor,
    ScanOp::kSegSum, ScanOp::kAffine, ScanOp::kMaxPlus,
};

/// Short stable name of `op` ("plus", "min", ..., "seg-sum", "affine",
/// "max-plus") for tables/CLIs.
inline constexpr const char* scan_op_name(ScanOp op) {
  switch (op) {
    case ScanOp::kPlus: return "plus";
    case ScanOp::kMin: return "min";
    case ScanOp::kMax: return "max";
    case ScanOp::kXor: return "xor";
    case ScanOp::kSegSum: return "seg-sum";
    case ScanOp::kAffine: return "affine";
    case ScanOp::kMaxPlus: return "max-plus";
  }
  return "?";
}

/// Dispatches a runtime ScanOp onto its operator type: calls `f` with a
/// value of the matching ListOp. One switch per run -- the traversal
/// kernels underneath stay monomorphic and fully inlined.
template <class F>
constexpr decltype(auto) with_scan_op(ScanOp op, F&& f) {
  switch (op) {
    case ScanOp::kPlus: return f(OpPlus{});
    case ScanOp::kMin: return f(OpMin{});
    case ScanOp::kMax: return f(OpMax{});
    case ScanOp::kXor: return f(OpXor{});
    case ScanOp::kSegSum: return f(OpSegSum{});
    case ScanOp::kAffine: return f(OpAffine{});
    case ScanOp::kMaxPlus: return f(OpMaxPlus{});
  }
  return f(OpPlus{});
}

/// Combine cost of `op` relative to integer addition, for the Planner's
/// cost model: the packed operators decode two 32-bit lanes and issue
/// several ALU operations per combine where addition issues one. Scales
/// the per-element traversal terms of the cost equations, shifting the
/// serial/parallel crossovers accordingly (analysis/cost_eqs.hpp).
inline constexpr double op_cost_factor(ScanOp op) {
  switch (op) {
    case ScanOp::kPlus:
    case ScanOp::kMin:
    case ScanOp::kMax:
    case ScanOp::kXor:
      return 1.0;
    case ScanOp::kSegSum:
      return 1.25;
    case ScanOp::kAffine:
      return 1.5;
    case ScanOp::kMaxPlus:
      return 1.5;
  }
  return 1.0;
}

}  // namespace lr90
