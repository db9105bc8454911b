// The serial list-scan algorithm (paper Section 2.1).
//
// Walks the list from the head accumulating the operator; O(n) time, small
// constants, and the yardstick every parallel algorithm must beat. On the
// simulated Cray C90 the walk is a scalar (non-vectorizable) loop costing
// ~42 cycles per vertex for ranking and ~43.6 for scanning (Table I).
// The walks themselves are serial_rank_host / serial_scan_host
// (baselines/serial_walk.hpp); this header charges them to the machine.
#pragma once

#include <span>

#include "baselines/algo_stats.hpp"
#include "baselines/serial_walk.hpp"
#include "lists/linked_list.hpp"
#include "lists/ops.hpp"
#include "vm/machine.hpp"

namespace lr90 {

/// Exclusive serial list scan on the simulated machine, charged to `proc`.
/// `as_rank` selects the (slightly cheaper) list-ranking cycle cost.
template <ListOp Op = OpPlus>
AlgoStats serial_scan(vm::Machine& m, unsigned proc, const LinkedList& list,
                      std::span<value_t> out, Op op = {},
                      bool as_rank = false) {
  serial_scan_host(list, out, op);
  const auto& c = m.costs();
  const double per_vertex =
      as_rank ? c.serial_rank_per_vertex : c.serial_scan_per_vertex;
  m.charge_scalar(proc,
                  per_vertex * static_cast<double>(list.size()) +
                      c.serial_startup,
                  list.size());
  AlgoStats stats;
  stats.rounds = 1;
  stats.link_steps = list.size();
  stats.extra_words = 0;
  return stats;
}

/// Serial list ranking (scan of all-ones with integer addition); ignores
/// list values, as ranking only reads the link array.
AlgoStats serial_rank(vm::Machine& m, unsigned proc, const LinkedList& list,
                      std::span<value_t> out);

}  // namespace lr90
