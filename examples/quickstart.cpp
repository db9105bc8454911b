// Quickstart: build a random linked list, rank it with one lr90::Engine on
// the simulated Cray C90 and with another on the real host, and verify the
// two answers agree.
//
//   $ ./quickstart [n]
#include <cstdio>
#include <cstdlib>

#include "core/engine.hpp"
#include "lists/generators.hpp"
#include "lists/validate.hpp"

int main(int argc, char** argv) {
  using namespace lr90;
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                 : 100000;

  // A list whose traversal order is a random permutation of memory order:
  // the hard, cache-hostile case the paper targets.
  Rng rng(2024);
  const LinkedList list = random_list(n, rng);
  std::printf("built a random linked list with %zu vertices (head = %u)\n",
              list.size(), list.head);

  // 1. Rank on the simulated Cray C90 with the paper's algorithm.
  EngineOptions sim_opt;
  sim_opt.backend = BackendKind::kSim;
  sim_opt.processors = 4;
  Engine sim(std::move(sim_opt));
  const RunResult simulated = sim.rank(list, Method::kReidMiller);
  if (!simulated.ok()) {
    std::printf("sim backend failed: %s\n", simulated.status.message.c_str());
    return 1;
  }
  std::printf("simulated C90 (%u proc, %s): %.0f cycles, %.2f ns/vertex"
              " (simulator ran %.1f ms on this host)\n",
              sim.options().processors, method_name(simulated.method_used),
              simulated.stats.sim_cycles, simulated.stats.sim_ns_per_vertex,
              simulated.stats.wall_ns / 1e6);

  // 2. Rank on this machine's cores with the host backend.
  Engine host({.backend = BackendKind::kHost});
  const RunResult real = host.rank(list);
  if (!real.ok()) {
    std::printf("host backend failed: %s\n", real.status.message.c_str());
    return 1;
  }
  std::printf("host (%s): %.2f ms wall\n", method_name(real.method_used),
              real.stats.wall_ns / 1e6);

  // 3. Verify both against the serial reference.
  const std::vector<value_t> want = reference_rank(list);
  if (simulated.scan != want || real.scan != want) {
    std::puts("MISMATCH -- this is a bug");
    return 1;
  }
  std::printf("verified: both backends agree with the serial reference\n");
  std::printf("example ranks: head=%lld, vertex 0 has rank %lld\n",
              static_cast<long long>(simulated.scan[list.head]),
              static_cast<long long>(simulated.scan[0]));
  return 0;
}
