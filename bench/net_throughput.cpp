// Network front-door bench: closed-loop throughput and latency of the
// event-loop TCP server over real loopback sockets, plus the overload
// scenario the back-pressure mapping exists for.
//
// Phase 1 (closed loop): N client connections each run submit -> wait ->
// repeat against one NetServer on an ephemeral 127.0.0.1 port. Every
// response is compared against a direct Engine run of the same list --
// a HARD bit-exactness gate, because a fast server returning different
// ranks is not a server. Reports req/s and p50/p99 latency per
// connection count.
//
// Phase 2 (overload): a deliberately tiny server (one worker, one queue
// slot) takes a large "plug" rank and, behind it, a pipelined burst many
// times deeper than its queue. The plug holds the one worker while the
// event loop decodes the burst, so the first burst request fills the
// slot and the next one must be refused -- the rejection is structural,
// not a race between decoding and ranking. The gate: every request is
// answered -- kOk or an explicit RETRY_AFTER with a usable hint -- with
// at least one RETRY_AFTER observed and zero hangs, zero drops, zero
// protocol errors. A client then honours the hints and must land the
// request within a bounded number of retries.
//
//   $ ./net_throughput [n] [requests_per_conn]
//       n                 list length per request  (default 32768)
//       requests_per_conn closed-loop length       (default 200)
//
// Writes BENCH_net.json (BenchJson + provenance stamp). How many of the
// burst are refused depends on how far the loop gets while the plug
// ranks, so the reject rate lives in meta, not in a gated row field.
// NET_THROUGHPUT_LENIENT downgrades the wall-clock scaling gate to a
// warning for shared CI runners; the bit-exactness, answered-everything,
// and >=1-RETRY_AFTER gates are deterministic and stay hard either way.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "lists/generators.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "support/bench_json.hpp"
#include "support/table.hpp"

namespace {

using namespace lr90;
using net::NetClient;
using net::ResponseFrame;
using net::WireStatus;
using Clock = std::chrono::steady_clock;

struct LoadResult {
  double seconds = 0.0;        ///< wall time of the whole closed loop
  double reqs = 0.0;           ///< requests answered kOk across conns
  std::vector<double> lat_us;  ///< per-request latency, microseconds
  std::uint64_t retries = 0;   ///< RETRY_AFTER answers honoured
  std::uint64_t mismatches = 0;  ///< responses that were not bit-exact
};

/// Runs `conns` closed-loop connections of `per_conn` rank requests
/// each; every kOk response is checked against `want`.
LoadResult run_load(std::uint16_t port, const LinkedList& list,
                    const std::vector<value_t>& want, unsigned conns,
                    std::size_t per_conn) {
  LoadResult out;
  std::vector<LoadResult> per(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  const auto t0 = Clock::now();
  for (unsigned c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      NetClient client;
      if (!client.connect_to("127.0.0.1", port).ok()) {
        per[c].mismatches += per_conn;  // count the whole loop as failed
        return;
      }
      per[c].lat_us.reserve(per_conn);
      for (std::size_t i = 0; i < per_conn; ++i) {
        const auto s = Clock::now();
        ResponseFrame resp;
        bool answered = false;
        // The closed loop honours back-pressure: a RETRY_AFTER waits the
        // hinted time and resubmits (bounded), like a well-behaved client.
        for (int attempt = 0; attempt < 100; ++attempt) {
          if (!client.rank(list, resp).ok()) break;
          if (resp.status != WireStatus::kRetryAfter) {
            answered = true;
            break;
          }
          per[c].retries += 1;
          std::this_thread::sleep_for(
              std::chrono::milliseconds(resp.retry_after_ms));
        }
        const auto e = Clock::now();
        if (!answered || resp.status != WireStatus::kOk ||
            resp.values != want) {
          per[c].mismatches += 1;
          continue;
        }
        per[c].reqs += 1.0;
        per[c].lat_us.push_back(
            std::chrono::duration<double, std::micro>(e - s).count());
      }
    });
  }
  for (auto& t : threads) t.join();
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const LoadResult& p : per) {
    out.reqs += p.reqs;
    out.retries += p.retries;
    out.mismatches += p.mismatches;
    out.lat_us.insert(out.lat_us.end(), p.lat_us.begin(), p.lat_us.end());
  }
  std::sort(out.lat_us.begin(), out.lat_us.end());
  return out;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

/// Phase 2: the overload scenario. Returns false on gate failure.
bool run_overload(BenchJson& json) {
  NetServerOptions opt;
  opt.serve.engine.backend = BackendKind::kHost;
  opt.serve.engine.threads = 1;
  opt.serve.workers = 1;
  opt.serve.queue_capacity = 1;
  NetServer server(opt);
  if (!server.start().ok()) {
    std::puts("FAIL: overload server did not start");
    return false;
  }
  Rng rng(17);
  constexpr std::size_t kPlugN = std::size_t{1} << 21;
  const LinkedList plug = random_list(kPlugN, rng);
  const LinkedList list = random_list(60000, rng);
  Engine direct(server.options().serve.engine);
  const std::vector<value_t> want_plug = direct.run(RankRequest{&plug}).scan;
  const std::vector<value_t> want = direct.run(RankRequest{&list}).scan;

  NetClient client;
  if (!client.connect_to("127.0.0.1", server.port()).ok()) {
    std::puts("FAIL: overload client did not connect");
    return false;
  }
  std::uint32_t plug_id = 0;
  constexpr int kBurst = 32;
  std::vector<std::uint32_t> ids(kBurst);
  bool sent = client.send_rank(plug, plug_id).ok();
  for (int i = 0; i < kBurst && sent; ++i)
    sent = client.send_rank(list, ids[i]).ok();
  if (!sent) {
    std::puts("FAIL: overload send failed");
    return false;
  }
  // Refusals are answered at once by the loop, completions when the
  // worker finishes, so responses interleave: match the plug by id.
  int ok = 0, retry = 0;
  for (int i = 0; i < kBurst + 1; ++i) {
    ResponseFrame resp;
    if (!client.read_response(resp).ok()) {
      std::printf("FAIL: overload response %d never arrived\n", i);
      return false;
    }
    if (resp.request_id == plug_id) {
      if (resp.status != WireStatus::kOk || resp.values != want_plug) {
        std::puts("FAIL: overload plug not answered bit-exact");
        return false;
      }
    } else if (resp.status == WireStatus::kOk) {
      if (resp.values != want) {
        std::puts("FAIL: overload kOk response not bit-exact");
        return false;
      }
      ++ok;
    } else if (resp.status == WireStatus::kRetryAfter) {
      ++retry;
    } else {
      std::printf("FAIL: unexpected overload status %s\n",
                  wire_status_name(resp.status));
      return false;
    }
  }
  // Honouring the hint must land the request in bounded retries.
  bool landed = false;
  int attempts = 0;
  for (; attempts < 100 && !landed; ++attempts) {
    ResponseFrame resp;
    if (!client.rank(list, resp).ok()) break;
    if (resp.status == WireStatus::kOk) {
      landed = resp.values == want;
      break;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(resp.retry_after_ms));
  }
  const net::NetStats stats = server.net_stats();
  server.stop();

  std::printf(
      "\noverload (1 worker, 1 queue slot, %zu-vertex plug, %d-deep "
      "burst): %d served, %d RETRY_AFTER (%.0f%% rejected), "
      "hint-honouring client landed after %d retries\n",
      kPlugN, kBurst, ok, retry, 100.0 * retry / kBurst, attempts);
  json.meta("overload_plug_n", static_cast<double>(kPlugN));
  json.meta("overload_burst", static_cast<double>(kBurst));
  json.meta("overload_reject_rate", static_cast<double>(retry) / kBurst);

  if (ok + retry != kBurst) {
    std::puts("FAIL: overload dropped a request (answers != burst)");
    return false;
  }
  if (retry < 1) {
    std::puts("FAIL: a 32-deep burst against one queue slot must reject");
    return false;
  }
  if (ok < 1) {
    std::puts("FAIL: overload served nothing");
    return false;
  }
  if (!landed) {
    std::puts("FAIL: hint-honouring retry loop never landed");
    return false;
  }
  if (stats.protocol_errors != 0) {
    std::puts("FAIL: overload produced protocol errors");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 32768;
  const std::size_t per_conn =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 200;

  Rng rng(42);
  const LinkedList list = random_list(n, rng);

  NetServerOptions opt;
  opt.serve.engine.backend = BackendKind::kHost;
  opt.serve.engine.threads = 1;  // parallelism = the worker pool axis
  opt.serve.workers = 2;
  NetServer server(opt);
  if (!server.start().ok()) {
    std::puts("FAIL: server did not start");
    return 1;
  }
  // The reference answer from an identically-configured direct engine.
  Engine direct(server.options().serve.engine);
  const RunResult ref = direct.run(RankRequest{&list});
  if (!ref.ok()) {
    std::puts("FAIL: direct engine reference run failed");
    return 1;
  }

  std::printf("net_throughput: n=%zu, %zu reqs/conn, 2 workers, port %u\n\n",
              n, per_conn, server.port());

  // Warm the pooled engines and the loopback path before measuring.
  run_load(server.port(), list, ref.scan, 2, 32);

  BenchJson json("net_throughput");
  stamp_provenance(json);
  json.meta("n", static_cast<double>(n));
  json.meta("reqs_per_conn", static_cast<double>(per_conn));
  json.meta("workers", 2.0);

  TextTable table({"conns", "req/s", "p50 us", "p99 us", "speedup"});
  double baseline = 0.0;
  double at4 = 0.0;
  std::uint64_t mismatches = 0;
  for (const unsigned conns : {1u, 2u, 4u, 8u}) {
    const LoadResult r =
        run_load(server.port(), list, ref.scan, conns, per_conn);
    mismatches += r.mismatches;
    const double rps = r.reqs / r.seconds;
    if (conns == 1) baseline = rps;
    if (conns == 4) at4 = rps;
    const double p50 = percentile(r.lat_us, 0.50);
    const double p99 = percentile(r.lat_us, 0.99);
    table.add_row({std::to_string(conns), TextTable::num(rps, 0),
                   TextTable::num(p50, 1), TextTable::num(p99, 1),
                   TextTable::num(rps / baseline, 2) + "x"});
    json.row();
    json.field("clients", static_cast<double>(conns));
    json.field("req_per_s", rps);
    json.field("p50_us", p50);
    json.field("p99_us", p99);
    json.field("speedup_vs_1_conn", rps / baseline);
    json.field("bit_exact", r.mismatches == 0 ? 1.0 : 0.0);
  }
  table.print();

  const net::NetStats stats = server.net_stats();
  std::printf(
      "\nframes in %llu, responses out %llu, bytes in %.1f MiB out %.1f "
      "MiB, protocol errors %llu\n",
      static_cast<unsigned long long>(stats.frames_in),
      static_cast<unsigned long long>(stats.responses_out),
      static_cast<double>(stats.bytes_in) / (1024.0 * 1024.0),
      static_cast<double>(stats.bytes_out) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(stats.protocol_errors));
  server.stop();

  bool failed = false;
  if (mismatches != 0) {
    std::printf("FAIL: %llu responses were not bit-exact against the "
                "direct engine\n",
                static_cast<unsigned long long>(mismatches));
    failed = true;
  }
  if (stats.protocol_errors != 0) {
    std::puts("FAIL: the closed loop produced protocol errors");
    failed = true;
  }

  if (!run_overload(json)) failed = true;

  const std::string json_path = bench_json_path("BENCH_net.json");
  if (json.write(json_path))
    std::printf("wrote %s\n", json_path.c_str());

  // NET_THROUGHPUT_LENIENT downgrades the wall-clock gate (flaky on
  // shared runners); every correctness gate above stays hard. The gate
  // asks that concurrency never COLLAPSES aggregate throughput (a
  // serialization bug in the loop would); genuine scaling needs more
  // than one core, which a CI runner or dev sandbox may not have.
  const bool lenient = std::getenv("NET_THROUGHPUT_LENIENT") != nullptr;
  if (at4 < 0.7 * baseline) {
    if (lenient) {
      std::puts("WARN: 4-conn throughput collapsed vs 1-conn "
                "(lenient mode, not fatal)");
    } else {
      std::puts("FAIL: 4-conn throughput collapsed below 70% of 1-conn");
      failed = true;
    }
  }
  if (!failed)
    std::puts("OK: bit-exact over sockets, overload answered with "
              "RETRY_AFTER, nothing hung");
  return failed ? 1 : 0;
}
