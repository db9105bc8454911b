// Linked-list representation shared by every algorithm in the library.
//
// Following the paper (Section 3), a list of n vertices is a pair of arrays:
// `value[v]` holds the vertex's value and `next[v]` the index of its
// successor. The tail is a self-loop (next[tail] == tail). Vertex indices
// are array positions; the traversal order is independent of index order,
// which is exactly what makes list ranking communication-intensive.
#pragma once

#include <cstdint>
#include <vector>

namespace lr90 {

/// Vertex index type. 32 bits: the paper's single-gather encoding packs a
/// link and a value into one 64-bit machine word, which bounds n by 2^(w/2).
using index_t = std::uint32_t;

/// Vertex value type for scans.
using value_t = std::int64_t;

/// Sentinel for "no vertex".
inline constexpr index_t kNoVertex = static_cast<index_t>(-1);

/// A singly linked list in structure-of-arrays form.
///
/// Invariants (checked by lists/validate.hpp):
///  * next.size() == value.size() == n
///  * head < n (unless n == 0)
///  * following `next` from `head` visits every vertex exactly once and
///    terminates at the unique self-loop tail.
struct LinkedList {
  std::vector<index_t> next;
  std::vector<value_t> value;
  index_t head = kNoVertex;
  /// Cached tail index (the self-loop vertex), kNoVertex when unknown.
  /// The generators, decode_list, and the transforms fill it at build
  /// time; find_tail() trusts it only after re-checking the self-loop, so
  /// a stale cache (links edited by hand) degrades to the O(n) scan
  /// instead of a wrong answer.
  index_t tail = kNoVertex;

  std::size_t size() const { return next.size(); }
  bool empty() const { return next.empty(); }

  /// The tail index: the cached `tail` when it still names the self-loop,
  /// otherwise an O(n) scan (whose result is not written back -- the
  /// struct stays freely copyable/const). kNoVertex if the list is empty
  /// or malformed.
  index_t find_tail() const;
};

/// Visits vertices in list order, calling f(vertex, position), and
/// returns whether the walk met the self-loop tail (true for an empty
/// list). It stops after n visits, so a list whose links never reach a
/// self-loop (a cycle) ends the walk with false instead of spinning it.
template <class F>
bool for_each_in_order(const LinkedList& list, F&& f) {
  if (list.empty()) return true;
  index_t v = list.head;
  for (std::size_t pos = 0; pos < list.size(); ++pos) {
    f(v, pos);
    const index_t nxt = list.next[v];
    if (nxt == v) return true;
    v = nxt;
  }
  return false;
}

/// Returns the vertices in list order (head first).
std::vector<index_t> order_of(const LinkedList& list);

}  // namespace lr90
