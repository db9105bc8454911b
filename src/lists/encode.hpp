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

// -- the host record ---------------------------------------------------------
//
// The host kernel (core/host_exec.hpp) keeps the single-gather idea with
// one record per vertex in a per-run slab: word 0 carries the link and
// the sublist bookkeeping, and a scan adds word 1 for the full 64-bit
// value, in the same 16-byte record and so the same cache line.
//
//   word 0 = (is_sublist_tail << 63) | (sublist << 32) | low
//
// `low` is the link until phase 1 reaches the vertex, and a rank's local
// count after it; `sublist` is kHotNoSublist until phase 1 writes the
// vertex's sublist id. Links get all 32 bits, so any list a 32-bit index
// holds fits. Each hop then issues exactly ONE random load: link, stop
// condition and (in word 1) value arrive together, where a walk of the
// list arrays pays a dependent load on `next`, a second one on `value`
// and a third on a sublist-tail flag.

/// The sublist-tail flag bit of a record's word 0.
inline constexpr packed_t kHotTailBit = 0x8000000000000000ULL;
/// The sublist id a build writes: no run has this many sublists (k <=
/// n / 2 < 2^31), so phase 3 skips a vertex no sublist head reached.
inline constexpr std::uint32_t kHotNoSublist = 0x7fffffffu;

/// Packs (sublist-tail flag, sublist id, low lane) into a record's word 0.
inline constexpr packed_t hot_pack(bool tail, std::uint32_t sublist,
                                   std::uint32_t low) {
  return (tail ? kHotTailBit : 0) |
         (static_cast<packed_t>(sublist & kHotNoSublist) << kPackShift) |
         static_cast<packed_t>(low);
}
/// True iff the word's vertex ends its sublist.
inline constexpr bool hot_tail(packed_t w) { return (w & kHotTailBit) != 0; }
/// The word's sublist id (kHotNoSublist until phase 1 writes one).
inline constexpr std::uint32_t hot_sublist(packed_t w) {
  return static_cast<std::uint32_t>(w >> kPackShift) & kHotNoSublist;
}
/// The word's low lane: the successor index before phase 1, a rank's
/// local count after it.
inline constexpr index_t hot_link(packed_t w) {
  return static_cast<index_t>(w & kPackValueMask);
}

/// True iff every value of `list` fits the 32-bit value lane and n itself
/// cannot overflow a 32-bit partial rank (the paper's n <= 2^(w/2) bound).
bool can_encode(const LinkedList& list);

/// Packs (next, value) per vertex into one 64-bit word each.
std::vector<packed_t> encode_list(const LinkedList& list);

/// Reverses encode_list; `head` must be supplied (it is not encoded).
LinkedList decode_list(const std::vector<packed_t>& packed, index_t head);

}  // namespace lr90
