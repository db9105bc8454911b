// The serial reference walks (paper Section 2.1) on the host: one
// exclusive rank walk and one exclusive scan walk. Every serial path runs
// these -- the serial backend, the host kernel's serial plan,
// verify_output's reference, and the simulated baselines in
// baselines/serial.hpp, which add the cycle accounting. Kept free of
// vm/machine.hpp so the host kernel can include it.
#pragma once

#include <span>

#include "lists/linked_list.hpp"
#include "lists/ops.hpp"

namespace lr90 {

/// Exclusive serial list rank into `out` (indexed by vertex): each
/// vertex's position in list order. Reads only the link array.
inline void serial_rank_host(const LinkedList& list,
                             std::span<value_t> out) {
  for_each_in_order(list, [&](index_t v, std::size_t pos) {
    out[v] = static_cast<value_t>(pos);
  });
}

/// Exclusive serial list scan into `out` (indexed by vertex).
template <ListOp Op = OpPlus>
void serial_scan_host(const LinkedList& list, std::span<value_t> out,
                      Op op = {}) {
  value_t acc = Op::identity();
  for_each_in_order(list, [&](index_t v, std::size_t) {
    out[v] = acc;
    acc = op(acc, list.value[v]);
  });
}

}  // namespace lr90
