// lr90::KernelTier -- what the host traversal kernel walked.
//
// Lives in its own header (included and re-exported by core/engine.hpp,
// where the rest of the Engine API is declared) so the execution kernel
// layer (core/host_exec.hpp) can name tiers without depending on the
// Engine facade.
#pragma once

namespace lr90 {

/// What the host kernel walked: every sublist run walks its record slab
/// with W cursors, whatever the operator, and the serial walk reads the
/// list arrays. RunStats::kernel_tier reports what ran. The numeric
/// values are stable (benches record them as codes).
enum class KernelTier {
  kAuto,           ///< nothing ran (empty list, non-host backend)
  kListArrays,     ///< no slab: the serial walk over the list arrays
  kPackedCursors,  ///< W cursors over the single-gather record slab
};

/// Short stable name of `t` ("auto", "list-arrays", "packed-cursors") for
/// tables/CLIs/STATS text.
inline constexpr const char* kernel_tier_name(KernelTier t) {
  switch (t) {
    case KernelTier::kAuto: return "auto";
    case KernelTier::kListArrays: return "list-arrays";
    case KernelTier::kPackedCursors: return "packed-cursors";
  }
  return "?";
}

}  // namespace lr90
