// Network front-door walkthrough: an in-process NetServer on an
// ephemeral loopback port, driven by NetClient over real sockets --
// health probe, a rank and a scan round trip checked against a direct
// Engine run, back-pressure made visible with RETRY_AFTER, and the
// stats endpoint. The whole wire story in ~100 lines.
//
//   $ ./net_demo [n]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/engine.hpp"
#include "lists/generators.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

int main(int argc, char** argv) {
  using namespace lr90;
  using net::ResponseFrame;
  using net::WireStatus;
  const std::size_t n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;

  // An event-loop TCP server fronting an EngineServer: port 0 picks an
  // ephemeral port, so the demo never collides with anything.
  NetServerOptions opt;
  opt.serve.engine.backend = BackendKind::kHost;
  opt.serve.workers = 2;
  NetServer server(opt);
  if (!server.start().ok()) {
    std::puts("failed to start");
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u (try: printf 'STATS\\n' | nc "
              "127.0.0.1 %u)\n",
              server.port(), server.port());

  NetClient client;
  if (!client.connect_to("127.0.0.1", server.port()).ok()) {
    std::puts("failed to connect");
    return 1;
  }

  std::string health;
  client.health_text(health);
  std::printf("health: %s", health.c_str());

  // A rank and a scan over the wire, checked against a direct engine.
  Rng rng(1);
  const LinkedList list = random_list(n, rng);
  Engine direct(server.options().serve.engine);

  ResponseFrame resp;
  if (!client.rank(list, resp).ok() || resp.status != WireStatus::kOk) {
    std::puts("rank over the wire failed");
    return 1;
  }
  const bool rank_exact = resp.values == direct.run(RankRequest{&list}).scan;
  std::printf("rank of %zu nodes over TCP: %s\n", n,
              rank_exact ? "bit-exact with the direct engine" : "MISMATCH");

  if (!client.scan(list, ScanOp::kMin, resp).ok() ||
      resp.status != WireStatus::kOk) {
    std::puts("scan over the wire failed");
    return 1;
  }
  const bool scan_exact =
      resp.values == direct.run(ScanRequest{&list, ScanOp::kMin}).scan;
  std::printf("min-scan over TCP:         %s\n",
              scan_exact ? "bit-exact with the direct engine" : "MISMATCH");

  // Back-pressure on the wire: a tiny server (one worker, one queue
  // slot) under a pipelined burst answers RETRY_AFTER with a drain-rate
  // hint instead of blocking or dropping.
  NetServerOptions tiny = opt;
  tiny.serve.workers = 1;
  tiny.serve.queue_capacity = 1;
  NetServer small(tiny);
  small.start();
  NetClient burst;
  burst.connect_to("127.0.0.1", small.port());
  std::uint32_t id = 0;
  for (int i = 0; i < 12; ++i) burst.send_rank(list, id);
  int served = 0, retried = 0;
  for (int i = 0; i < 12; ++i) {
    ResponseFrame r;
    if (!burst.read_response(r).ok()) break;
    if (r.status == WireStatus::kRetryAfter) {
      ++retried;
      if (retried == 1)
        std::printf("overloaded server said RETRY_AFTER %u ms\n",
                    r.retry_after_ms);
    } else if (r.status == WireStatus::kOk) {
      ++served;
    }
  }
  std::printf("12-deep burst at 1 queue slot: %d served, %d told to retry "
              "(none dropped)\n",
              served + retried == 12 ? served : -1, retried);
  small.stop();

  // The stats endpoint -- the same text netcat gets for "STATS\n".
  std::string stats;
  client.stats_text(stats);
  std::printf("\nstats endpoint says:\n%s", stats.c_str());

  server.stop();
  std::puts("drained and stopped.");
  return rank_exact && scan_exact ? 0 : 1;
}
