// EngineServer walkthrough: concurrent clients, futures, pooled engines,
// a tree workload through the server, and a graceful shutdown with typed
// rejection -- the serving layer in ~100 lines.
//
//   $ ./serve_demo [n]
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include "apps/euler_tour.hpp"
#include "lists/generators.hpp"
#include "serve/server.hpp"

int main(int argc, char** argv) {
  using namespace lr90;
  const std::size_t n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;

  Rng rng(1);
  const LinkedList hot = random_list(n, rng);
  const LinkedList other = random_list(n / 2, rng);

  // A host-backend server: one engine (and one warmed workspace) per
  // worker, bounded queue, one job per pop.
  EngineServer server({.engine = {.backend = BackendKind::kHost}});
  std::printf("serving on %zu workers (queue capacity %zu)\n",
              server.workers(), server.options().queue_capacity);

  // Four clients hammer the server concurrently: ranks over one shared
  // hot list and max-scans over another.
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 50; ++i) {
        std::future<RunResult> f =
            (i % 2 == 0)
                ? server.submit(RankRequest{&hot})
                : server.submit(ScanRequest{&other, ScanOp::kMax});
        const RunResult r = f.get();
        if (!r.ok()) {
          std::fprintf(stderr, "client %d: %s\n", c, r.status.message.c_str());
          std::exit(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // Tree workloads ride the same facade: an Euler tour is an ordinary
  // linked list, so one server-side scan labels a whole tree.
  const RootedTree tree = random_tree(n / 10, rng);
  const EulerTour tour = build_euler_tour(tree);
  const RunResult scan = server.submit(ScanRequest{&tour.arcs}).get();
  if (!scan.ok()) return 1;
  value_t max_depth = 0;
  for (std::size_t v = 0; v < tree.size(); ++v) {
    if (tour.down[v] != kNoVertex && scan.scan[tour.down[v]] + 1 > max_depth)
      max_depth = scan.scan[tour.down[v]] + 1;
  }
  std::printf("euler tour of %zu-node tree served: max depth %lld\n",
              tree.size(), static_cast<long long>(max_depth));

  server.shutdown();
  const ServerStats stats = server.stats();
  std::printf(
      "served %llu requests in %llu engine runs\n"
      "pooled workspaces: %llu allocations, %llu reuse hits\n",
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.pool.allocations),
      static_cast<unsigned long long>(stats.pool.reuse_hits));

  // After shutdown the server answers with a typed Status, not a hang.
  const RunResult late = server.submit(RankRequest{&hot}).get();
  std::printf("submit after shutdown -> %s (\"%s\")\n",
              status_code_name(late.status.code), late.status.message.c_str());
  return late.status.code == StatusCode::kUnavailable ? 0 : 1;
}
