#include "baselines/serial.hpp"

namespace lr90 {

AlgoStats serial_rank(vm::Machine& m, unsigned proc, const LinkedList& list,
                      std::span<value_t> out) {
  serial_rank_host(list, out);
  const auto& c = m.costs();
  m.charge_scalar(proc,
                  c.serial_rank_per_vertex * static_cast<double>(list.size()) +
                      c.serial_startup,
                  list.size());
  AlgoStats stats;
  stats.rounds = 1;
  stats.link_steps = list.size();
  return stats;
}

}  // namespace lr90
