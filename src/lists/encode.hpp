// The paper's single-gather encoding for list ranking (Section 3, Phase 1):
//
//   "we encode the link and value data for a vertex into a w-bit integer
//    value, which we can do as long as the list length (and therefore the
//    maximum rank) is no more than 2^(w/2)."
//
// The Cray C90 can issue only one gather or scatter at a time, so halving
// the gathers in the dominant traversal loops nearly halves their cost
// (T_InitialScan drops from 3.4x+35 to the rank kernel's 2.1x+30).
//
// Encoding: word = (link << 32) | (value & 0xffffffff). Values must fit in
// an unsigned 32-bit lane; for ranking they are 0 or 1 and partial sums stay
// below n <= 2^32.
#pragma once

#include <cstdint>
#include <vector>

#include "lists/linked_list.hpp"

namespace lr90 {

using packed_t = std::uint64_t;

inline constexpr unsigned kPackShift = 32;
inline constexpr packed_t kPackValueMask = 0xffffffffULL;

inline packed_t pack_link_value(index_t link, std::uint32_t value) {
  return (static_cast<packed_t>(link) << kPackShift) |
         static_cast<packed_t>(value);
}
inline index_t packed_link(packed_t w) {
  return static_cast<index_t>(w >> kPackShift);
}
inline std::uint32_t packed_value(packed_t w) {
  return static_cast<std::uint32_t>(w & kPackValueMask);
}

// -- the host hot-path word ("tail-flag-in-word") ---------------------------
//
// The host traversal kernels (core/host_exec.hpp) extend the single-gather
// idea with the per-run sublist-tail flag, stolen from the top bit of the
// link lane (links only need 31 bits, bounding n by 2^31 on this path):
//
//   word = (is_sublist_tail << 63) | (next << 32) | (value & 0xffffffff)
//
// so the inner loop issues exactly ONE random load per element -- link,
// value, and stop condition arrive together, where the seed kernel paid a
// dependent load on `next`, a second gather on `value`, and a third random
// access into a sublist-tail bitmap. The value lane is the low 32 bits of
// value_t, reread back sign-extended; a list qualifies only when every
// value round-trips (hot_value_fits).

/// The sublist-tail flag bit of a hot word.
inline constexpr packed_t kHotTailBit = 0x8000000000000000ULL;
/// Mask of the 31-bit link lane (bits 32..62).
inline constexpr packed_t kHotLinkMask = 0x7fffffffULL;
/// The largest list the hot path can encode (links must fit 31 bits).
inline constexpr std::size_t kHotMaxVertices = std::size_t{1} << 31;

/// Packs (sublist-tail flag, link, value lane) into one hot word.
inline constexpr packed_t hot_pack(bool tail, index_t link,
                                   std::uint32_t value) {
  return (tail ? kHotTailBit : 0) |
         ((static_cast<packed_t>(link) & kHotLinkMask) << kPackShift) |
         static_cast<packed_t>(value);
}
/// True iff the word's vertex ends its sublist.
inline constexpr bool hot_tail(packed_t w) { return (w & kHotTailBit) != 0; }
/// The word's successor index.
inline constexpr index_t hot_link(packed_t w) {
  return static_cast<index_t>((w >> kPackShift) & kHotLinkMask);
}
/// The word's value lane, sign-extended back to value_t.
inline constexpr value_t hot_value(packed_t w) {
  return static_cast<value_t>(
      static_cast<std::int32_t>(static_cast<std::uint32_t>(w)));
}
/// True iff `v` survives the lane round-trip (fits a signed 32-bit lane).
inline constexpr bool hot_value_fits(value_t v) {
  return v == static_cast<value_t>(static_cast<std::int32_t>(
                  static_cast<std::uint32_t>(v)));
}

/// Packs hot words for the index range [begin, end), with no sublist
/// tail flagged (the kernel flags its boundaries afterwards): the
/// per-thread unit of the parallel slab build (core/host_exec.hpp
/// build_packed). `value` == nullptr packs the constant 1 into every
/// value lane (ranking). Returns false -- packed contents of the range
/// unspecified -- if any value misses the signed 32-bit lane; always true
/// when ranking. The pass is branch-light and sequential over the range,
/// so per-thread ranges stream independently at full bandwidth.
inline bool hot_pack_range(const index_t* next, const value_t* value,
                           packed_t* out, std::size_t begin,
                           std::size_t end) {
  bool ok = true;
  for (std::size_t i = begin; i < end; ++i) {
    const value_t v = value == nullptr ? value_t{1} : value[i];
    ok = ok && hot_value_fits(v);
    out[i] = hot_pack(false, next[i],
                      static_cast<std::uint32_t>(static_cast<std::uint64_t>(v)));
  }
  return ok;
}

/// True iff every value of `list` fits the 32-bit value lane and n itself
/// cannot overflow a 32-bit partial rank (the paper's n <= 2^(w/2) bound).
bool can_encode(const LinkedList& list);

/// Packs (next, value) per vertex into one 64-bit word each.
std::vector<packed_t> encode_list(const LinkedList& list);

/// Reverses encode_list; `head` must be supplied (it is not encoded).
LinkedList decode_list(const std::vector<packed_t>& packed, index_t head);

}  // namespace lr90
