// Workloads `served` and `snapshot`: open-loop traffic over loopback TCP
// against a NetServer with default options.
//
// served    each request carries its own random list (½ rank, ¼ plus-scan,
//           ¼ affine-scan) at a light and a heavy fixed rate; net,
//           validation and serve queueing carry the load.
// snapshot  reads of registered snapshots (uniform over ids, pinned to the
//           last generation the client saw, retargeted on STALE_GENERATION)
//           beside one writer connection replacing a snapshot on a fixed
//           schedule: the result cache, its invalidation, and the loop
//           stall of each update.
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "lists/validate.hpp"
#include "loadgen.hpp"
#include "net/server.hpp"

namespace perfbench {
namespace {

using lr90::net::BodyKind;
using lr90::net::ResponseFrame;
using lr90::net::WireStatus;

constexpr const char* kKindE2e[] = {"rank_ns_per_elem", "scan_ns_per_elem",
                                    "wide_scan_ns_per_elem"};

/// The latency limit of every rate ladder: p99 within 10 ms.
constexpr double kP99LimitMs = 10.0;
/// A ladder step's length; its p99 is the median of its 1 s windows' p99s.
constexpr double kStepS = 3.0;

/// served: each request carries 2^15 elements, so the engine does a small
/// share of a request and net, validation and queueing carry the load.
constexpr std::size_t kServedN = std::size_t{1} << 15;
/// The light and heavy offered rates are about 20-25% and 50-60% of the
/// 800-1000 req/s max_rps the ladder below read on the 4-core machine the
/// benchmark was sized on.
constexpr double kLightRps = 200.0;
constexpr double kHeavyRps = 480.0;
constexpr double kServedLadder[] = {200, 300,  400,  500,  600,  700,
                                    800, 900, 1000, 1200, 1400, 1600};

lr90::ScanOp op_of(Kind k) {
  return k == Kind::kWide ? lr90::ScanOp::kAffine : lr90::ScanOp::kPlus;
}

/// The (workers x intra-request threads) shape an EngineServer resolves
/// default options to.
std::string server_shape(const lr90::serve::ServerOptions& o) {
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned workers = o.workers > 0 ? o.workers : (hw > 0 ? hw : 1);
  const unsigned threads = o.engine.threads > 0 ? o.engine.threads : 1;
  return std::to_string(workers) + "x" + std::to_string(threads);
}

std::unique_ptr<lr90::NetServer> start_server() {
  auto server = std::make_unique<lr90::NetServer>(lr90::NetServerOptions{});
  const lr90::Status st = server->start();
  if (!st.ok()) throw std::runtime_error("server start: " + st.message);
  return server;
}

/// Median of `f()` in microseconds over `reps` calls.
template <class F>
double median_us(int reps, F&& f) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    f();
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(us);
}

/// net.* from the server's counters, and the wire codec timed in-process
/// on this workload's own request (`encode_request` appends its frame) and
/// answer.
void report_net(
    const lr90::NetServer& server, const LoadResult& phase,
    const std::function<void(std::vector<std::uint8_t>&)>& encode_request,
    const std::vector<value_t>& answer, Report& report) {
  const lr90::NetStats ns = server.net_stats();
  report.layer("net.bytes_in_per_req",
               ns.frames_in == 0 ? 0.0
                                 : static_cast<double>(ns.bytes_in) /
                                       static_cast<double>(ns.frames_in),
               "bytes");
  report.layer("net.bytes_out_per_req",
               ns.responses_out == 0
                   ? 0.0
                   : static_cast<double>(ns.bytes_out) /
                         static_cast<double>(ns.responses_out),
               "bytes");
  report.layer("net.retry_after_sent",
               static_cast<double>(ns.retry_after_sent), "count");
  report.layer("net.protocol_errors", static_cast<double>(ns.protocol_errors),
               "count");
  report.layer("net.decode_response_us", median(phase.decode_us), "us");
  std::vector<std::uint8_t> request_frame;
  report.layer("net.encode_request_us", median_us(20, [&] {
                 request_frame.clear();
                 encode_request(request_frame);
               }),
               "us");
  lr90::net::FrameView view;
  std::size_t len = 0;
  lr90::net::parse_frame(request_frame.data(), request_frame.size(), view,
                         len);  // a frame this process encoded: well formed
  report.layer("net.decode_request_us", median_us(20, [&] {
                 lr90::net::RequestFrame out;
                 lr90::net::decode_request(view, out);
               }),
               "us");
  std::vector<std::uint8_t> buf;
  report.layer("net.encode_response_us", median_us(20, [&] {
                 buf.clear();
                 lr90::net::encode_values_response(buf, 1, WireStatus::kOk,
                                                   answer);
               }),
               "us");
}

/// serve.* counters of the EngineServer beneath the NetServer.
void report_serve_counters(const lr90::NetServer& server, Report& report) {
  const lr90::ServerStats ss = server.serve_stats();
  report.layer("serve.queue_depth_hwm",
               static_cast<double>(ss.queue_depth_hwm), "count");
  report.layer("serve.intra_threads_peak",
               static_cast<double>(ss.intra_threads_peak), "count");
  report.layer("serve.batches_per_req",
               ss.completed == 0 ? 0.0
                                 : static_cast<double>(ss.batches) /
                                       static_cast<double>(ss.completed),
               "ratio");
  const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  report.layer("serve.result_hit_ratio",
               ratio(ss.result_hits, ss.result_misses), "ratio");
  report.layer("serve.slab_hit_ratio", ratio(ss.slab_hits, ss.slab_misses),
               "ratio");
  report.layer("serve.stale_rejections",
               static_cast<double>(ss.stale_rejections), "count");
}

/// lists.validate_ns_per_elem over a few of the workload's lists.
void report_validate(const std::vector<const LinkedList*>& lists,
                     Tracer& tracer, Report& report) {
  std::vector<double> ns;
  for (const LinkedList* l : lists) {
    const std::int64_t t0 = now_ns();
    const bool ok = !lr90::validate_list(*l).has_value();
    const std::int64_t t1 = now_ns();
    tracer.record("lists.validate_list", t0, t1, -1, 0);
    report.answer(ok);
    ns.push_back(static_cast<double>(t1 - t0) /
                 static_cast<double>(l->size()));
  }
  report.layer("lists.validate_ns_per_elem", median(ns), "ns");
}


// -- served ------------------------------------------------------------------

struct ServedSetup {
  std::vector<Case> cases;
  std::vector<std::vector<std::uint8_t>> frames;
  std::unique_ptr<lr90::NetServer> server;
  std::vector<std::unique_ptr<Conn>> conns;
};

void build_served(ServedSetup& s, const RunArgs& args) {
  constexpr std::size_t pool = 128;  // a multiple of 4 keeps the mix exact
  lr90::Rng rng(args.seed);
  for (std::size_t j = 0; j < pool; ++j) {
    s.cases.push_back(make_case(kServedN, mix_kind(j), rng));
    std::vector<std::uint8_t> frame;
    const Case& c = s.cases.back();
    if (c.kind == Kind::kRank) {
      lr90::net::encode_rank_request(frame, 0, c.list);
    } else {
      lr90::net::encode_scan_request(frame, 0, c.list, op_of(c.kind));
    }
    s.frames.push_back(std::move(frame));
  }
  s.server = start_server();
  for (int c = 0; c < 4; ++c)
    s.conns.push_back(std::make_unique<Conn>(s.server->port()));
}

/// One served phase at `rate` for `seconds`.
LoadResult served_phase(ServedSetup& s, double rate, double seconds,
                        Tracer* tracer) {
  OpenLoop spec;
  spec.rate = rate;
  spec.seconds = seconds;
  spec.tracer = tracer;
  spec.make = [&](std::size_t i, std::vector<std::uint8_t>& frame) {
    frame = s.frames[i % s.frames.size()];
  };
  spec.check = [&](std::size_t i, const ResponseFrame& r,
                   std::vector<std::uint8_t>&) {
    const Case& c = s.cases[i % s.cases.size()];
    const bool ok = r.status == WireStatus::kOk &&
                    r.body == BodyKind::kValues && r.values == c.want;
    if (!ok && log_failure())
      std::fprintf(stderr, "served: request %zu (%s) answered %s\n", i,
                   kind_name(c.kind), lr90::net::wire_status_name(r.status));
    return ok ? Verdict::kOk : Verdict::kFail;
  };
  return run_open_loop(s.conns, spec);
}

struct ServedFigures {
  double kind_ns[3] = {};
  Percentile light_p50, light_p99, heavy_p50, heavy_p99;
  WindowedTail light_tail;  ///< median of the 2 s window p90s
  double lateness_p99_ms = 0.0;
};

ServedFigures served_figures(const ServedSetup& s, const LoadResult& light,
                             const LoadResult& heavy, double window_s) {
  ServedFigures f;
  f.light_tail = light.windowed_ms(window_s, 90);
  const double n = static_cast<double>(s.cases[0].list.size());
  for (const Kind k : kKinds) {
    const auto ms = light.latency_ms([&](std::size_t i) {
      return s.cases[i % s.cases.size()].kind == k;
    });
    f.kind_ns[static_cast<int>(k)] = median(ms) * 1e6 / n;
  }
  const auto lm = light.latency_ms();
  const auto hm = heavy.latency_ms();
  f.light_p50 = percentile(lm, 50);
  f.light_p99 = percentile(lm, 99);
  f.heavy_p50 = percentile(hm, 50);
  f.heavy_p99 = percentile(hm, 99);
  f.lateness_p99_ms = std::max(light.generator_lateness().p99_us,
                               heavy.generator_lateness().p99_us) /
                      1e3;
  return f;
}

void report_served(const ServedFigures& f, Report& report,
                   const std::string& prefix) {
  for (int k = 0; k < 3; ++k) {
    report.e2e(kKindE2e[k], f.kind_ns[k], "ns");
    report.detail(prefix + kKindE2e[k], f.kind_ns[k], "ns");
  }
  report.e2e("p50_ms", f.light_p50.value, "ms");
  report.layer("tail.windowed_p90_ms", f.light_tail.value, "ms");
  report.detail(prefix + "light.windowed_p90_ms", f.light_tail.value, "ms",
                f.light_tail.samples);
  report.detail(prefix + "light.p50_ms", f.light_p50.value, "ms",
                f.light_p50.samples);
  report.detail(prefix + "light.p99_ms", f.light_p99.value, "ms",
                f.light_p99.samples);
  report.detail(prefix + "heavy.p50_ms", f.heavy_p50.value, "ms",
                f.heavy_p50.samples);
  report.detail(prefix + "heavy.p99_ms", f.heavy_p99.value, "ms",
                f.heavy_p99.samples);
  report.detail(prefix + "client.lateness_p99_ms", f.lateness_p99_ms, "ms");
}

/// The same request stream submitted in-process at `rate`: the latency
/// a request sees without the network, and its engine share.
void served_in_process(const ServedSetup& s, double rate, double seconds,
                       Tracer& tracer, double tcp_p50_ms, Report& report) {
  lr90::serve::ServerOptions opt = lr90::NetServerOptions{}.serve;
  opt.reject_when_full = true;        // what NetServer::start() forces
  opt.engine.validate_input = true;
  lr90::EngineServer server(opt);
  const std::size_t count =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  const std::vector<std::int64_t> due =
      fixed_schedule(now_ns() + 2'000'000, rate, count);
  std::vector<double> latency_ms(count), wall_us(count);
  std::vector<char> ok(count, 0);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due[i])));
    const Case* c = &s.cases[i % s.cases.size()];
    lr90::Request req;
    req.list = &c->list;
    req.rank = c->kind == Kind::kRank;
    req.op = op_of(c->kind);
    server.submit(req, [&, i, c](lr90::RunResult&& r) {
      const std::int64_t t = now_ns();
      const bool right = r.ok() && r.scan == c->want;
      tracer.record("serve.EngineServer::submit", due[i], t, -1, i + 1);
      const std::lock_guard<std::mutex> lock(mu);
      latency_ms[i] = static_cast<double>(t - due[i]) / 1e6;
      wall_us[i] = r.stats.wall_ns / 1e3;
      ok[i] = right ? 1 : 0;
      ++done;
      cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return done == count; });
  }
  server.shutdown();
  std::vector<double> lat, wall, wait;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (ok[i] == 0) {
      ++bad;
      continue;
    }
    lat.push_back(latency_ms[i] * 1e3);
    wall.push_back(wall_us[i]);
    wait.push_back(latency_ms[i] * 1e3 - wall_us[i]);
  }
  report.answers(count, bad);
  const Percentile p50 = percentile(lat, 50), p99 = percentile(lat, 99);
  report.layer("serve.latency_p50_us", p50.value, "us");
  report.layer("serve.latency_p99_us", p99.value, "us");
  report.layer("serve.engine_wall_us", median(wall), "us");
  report.layer("serve.queue_wait_us", median(wait), "us");
  report.layer("net.overhead_p50_us", tcp_p50_ms * 1e3 - p50.value, "us");
  report.detail("in_process.p50_us", p50.value, "us", p50.samples);
  report.detail("in_process.p99_us", p99.value, "us", p99.samples);
}

/// Climbs `ladder`, running `phase(rate)` for kStepS per step, and returns
/// the highest rate whose p99 meets `p99_limit_ms` with no growing backlog
/// (more than kP99LimitMs of requests in flight when the window closes)
/// and no failed request. A step's p99 is the median of its one-second
/// windows' p99s, so one stall of the machine does not end the climb.
/// Each step's p99 is printed as `<prefix>.<rate>.p99_ms`.
double climb_ladder(std::span<const double> ladder,
                    const std::function<LoadResult(double rate)>& phase,
                    double p99_limit_ms, const std::string& prefix,
                    Report& report) {
  std::vector<LadderStep> steps;
  for (const double rate : ladder) {
    const LoadResult r = phase(rate);
    // Past capacity, refused and late requests are what the climb looks
    // for; only a wrong answer fails the run.
    report.answers(r.count, r.wrong);
    LadderStep st;
    st.rate = rate;
    st.p99_ms = r.windowed_ms(1.0, 99).value;
    st.backlog = backlog_growing(r.in_flight_at_close, rate, kP99LimitMs);
    st.failures = r.failed > 0;
    steps.push_back(st);
    report.detail(prefix + "." + std::to_string(static_cast<int>(rate)) +
                      ".p99_ms",
                  st.p99_ms, "ms", r.count);
    if (!step_passes(st, p99_limit_ms)) break;
  }
  return ladder_max_rate(steps, p99_limit_ms);
}

/// max_rps: the served ladder.
void served_ladder(ServedSetup& s, Report& report) {
  const double max_rps = climb_ladder(
      kServedLadder,
      [&](double rate) { return served_phase(s, rate, kStepS, nullptr); },
      kP99LimitMs, "ladder", report);
  report.layer("max_rps", max_rps, "1/s");
  report.detail("max_rps", max_rps, "1/s");
}

}  // namespace

void run_served(const RunArgs& args, Tracer& tracer, Report& report) {
  ServedSetup s;
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    s.conns.clear();  // close the clients before their server stops
    s = ServedSetup{};
    const std::int64_t t0 = now_ns();
    build_served(s, args);
    setup.push_back(secs(t0, now_ns()));
  }
  report.e2e("setup_s", median(setup), "s");
  report.detail("setup_s", median(setup), "s", setup.size());
  const std::string shape = server_shape(lr90::NetServerOptions{}.serve);
  report.meta("server_shape", shape);
  report.meta("n", static_cast<double>(s.cases[0].list.size()));
  report.meta("light_rps", kLightRps);
  report.meta("heavy_rps", kHeavyRps);
  report.detail("n", static_cast<double>(s.cases[0].list.size()), "count");

  // Warm-up: pooled engines, loopback buffers; discarded.
  {
    LoadResult w = served_phase(s, kLightRps, 0.5, nullptr);
    report.answers(w.count, w.failed);
  }
  // Most of the run at the light rate, which gives the gated figures; the
  // heavy rate's are reported beside them.
  constexpr double window_s = 2.0;
  const double light_s = args.seconds * 3 / 4;
  const double heavy_s = args.seconds - light_s;
  double light_rss = 0.0;  // process peak at the end of a light phase
  auto both = [&](double scale, Tracer* t) {
    LoadResult light = served_phase(s, kLightRps, light_s * scale, t);
    light_rss = peak_rss_mib();
    LoadResult heavy = served_phase(s, kHeavyRps, heavy_s * scale, t);
    report.answers(light.count, light.failed);
    report.answers(heavy.count, heavy.failed);
    return std::make_pair(std::move(light), std::move(heavy));
  };
  if (!args.trace) {
    const auto [light, heavy] = both(1.0, nullptr);
    report_served(served_figures(s, light, heavy, window_s), report, "");
  } else {
    const auto [light0, heavy0] = both(0.5, nullptr);
    Report base;
    report_served(served_figures(s, light0, heavy0, window_s), base, "");
    const auto [light, heavy] = both(0.5, &tracer);
    const ServedFigures f = served_figures(s, light, heavy, window_s);
    report_served(f, report, "traced.");
    report_overhead(base, report);
    report.layer("light.p50_ms", f.light_p50.value, "ms");
    report.layer("light.p99_ms", f.light_p99.value, "ms");
    report.layer("heavy.p50_ms", f.heavy_p50.value, "ms");
    report.layer("heavy.p99_ms", f.heavy_p99.value, "ms");
    report.layer("client.lateness_p99_ms", f.lateness_p99_ms, "ms");
    report_net(
        *s.server, heavy,
        [&](std::vector<std::uint8_t>& f) {
          lr90::net::encode_rank_request(f, 1, s.cases[0].list);
        },
        s.cases[0].want, report);
    report_serve_counters(*s.server, report);
    std::vector<const LinkedList*> lists;
    for (std::size_t j = 0; j < 8 && j < s.cases.size(); ++j)
      lists.push_back(&s.cases[j].list);
    report_validate(lists, tracer, report);
    served_in_process(s, kLightRps, std::min(2.0, light_s / 2), tracer,
                      f.light_p50.value, report);
    served_ladder(s, report);
  }
  s.conns.clear();
  s.server->stop();
  // The gated peak is the light phase's, like the gated latencies: after a
  // stall of the machine the heavy phase's backlog swung the whole-run
  // peak by up to 2.4x between runs.
  report.e2e("peak_rss_mib", light_rss, "MiB");
  report.detail("light.peak_rss_mib", light_rss, "MiB");
  report.detail("peak_rss_mib", peak_rss_mib(), "MiB");
}

// -- snapshot ----------------------------------------------------------------

namespace {

/// Snapshot s serves this kind (reads uniform over ids give ½ rank,
/// ¼ plus-scan, ¼ affine-scan).
constexpr Kind kSnapKind[] = {Kind::kRank, Kind::kRank, Kind::kScan,
                              Kind::kWide};
constexpr std::size_t kSnaps = 4;
/// 2^18 elements per snapshot: a 2 MiB answer per read and a 4 MiB list
/// per update, so the O(n) validate+copy of an update shows on the loop.
constexpr std::size_t kSnapN = std::size_t{1} << 18;
/// Offered reads: about 22-33% of the 120-180 reads/s read.max_rps the
/// ladder below read on the 4-core machine the benchmark was sized on.
/// Each read's 2 MiB answer is encoded on the server's one loop thread,
/// which bounds that capacity.
constexpr double kReadRps = 40.0;
constexpr double kReadLadder[] = {60, 90, 120, 150, 180, 210, 240};
/// Offered updates: about 2-3% of the 120-215 updates/s update.max_hz read
/// there, and one update per ten reads, so about a tenth of the reads miss
/// the result cache and run the engine.
constexpr double kUpdateHz = 4.0;

struct SnapSetup {
  Case versions[kSnaps][2];  ///< generation g holds version (g - 1) % 2
  std::vector<std::uint8_t> update_frames[kSnaps][2];
  std::uint64_t ids[kSnaps] = {};
  std::unique_ptr<lr90::NetServer> server;
  std::vector<std::unique_ptr<Conn>> readers;
  std::unique_ptr<Conn> writer;
};

void build_snapshot(SnapSetup& s, const RunArgs& args) {
  lr90::Rng rng(args.seed);
  for (std::size_t k = 0; k < kSnaps; ++k)
    for (int v = 0; v < 2; ++v)
      s.versions[k][v] = make_case(kSnapN, kSnapKind[k], rng);
  s.server = start_server();
  s.writer = std::make_unique<Conn>(s.server->port());
  for (std::size_t k = 0; k < kSnaps; ++k) {
    std::vector<std::uint8_t> frame;
    lr90::net::encode_register_snapshot_request(frame, 1,
                                                s.versions[k][0].list);
    ResponseFrame r;
    if (!s.writer->send_all(frame) || !s.writer->read_response(r) ||
        r.status != WireStatus::kOk || r.generation != 1)
      throw std::runtime_error("snapshot registration failed");
    s.ids[k] = r.snapshot_id;
    for (int v = 0; v < 2; ++v)
      lr90::net::encode_update_snapshot_request(s.update_frames[k][v], 0,
                                                s.ids[k],
                                                s.versions[k][v].list);
  }
  for (int c = 0; c < 3; ++c)
    s.readers.push_back(std::make_unique<Conn>(s.server->port()));
}

/// Which snapshot read i addresses: uniform over ids, from the seed.
std::size_t read_target(std::uint64_t seed, std::size_t i) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + i;
  return static_cast<std::size_t>(lr90::splitmix64(x) % kSnaps);
}

struct UpdateLog {
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;  ///< send, ack
  std::vector<double> latency_ms;  ///< ack minus scheduled time
  std::uint64_t attempted = 0, failed = 0;
};

struct SnapPhase {
  LoadResult reads;
  UpdateLog updates;
  std::uint64_t stale = 0;
};

/// Replaces snapshot u % kSnaps with its other version over the writer
/// connection (closed loop: waits for the ack) and, once acknowledged,
/// advances gen[k] to the new generation.
bool update_once(SnapSetup& s, std::atomic<std::uint64_t>* gen,
                 std::size_t u) {
  const std::size_t k = u % kSnaps;
  const std::uint64_t next = gen[k].load() + 1;
  std::vector<std::uint8_t>& frame = s.update_frames[k][(next - 1) % 2];
  set_request_id(frame, static_cast<std::uint32_t>(u + 1));
  ResponseFrame r;
  const bool ok = s.writer->send_all(frame) && s.writer->read_response(r) &&
                  r.request_id == u + 1 && r.status == WireStatus::kOk &&
                  r.generation == next;
  if (ok) {
    gen[k].store(next);
  } else if (log_failure()) {
    std::fprintf(stderr, "snapshot: update %zu of id %zu failed\n", u, k);
  }
  return ok;
}

/// Reads at `read_rps` beside updates at `update_hz` (none at 0) for
/// `seconds`.
SnapPhase snapshot_phase(SnapSetup& s, std::atomic<std::uint64_t>* gen,
                         std::uint64_t seed, double read_rps,
                         double update_hz, double seconds, Tracer* tracer) {
  SnapPhase out;
  const auto count =
      std::max<std::size_t>(1, static_cast<std::size_t>(read_rps * seconds));
  auto pinned = std::make_unique<std::atomic<std::uint64_t>[]>(count);
  std::atomic<std::uint64_t> stale{0};
  auto encode_read = [&](std::size_t i, std::vector<std::uint8_t>& frame) {
    const std::size_t k = read_target(seed, i);
    frame.clear();
    const std::uint64_t g = pinned[i].load();
    if (kSnapKind[k] == Kind::kRank) {
      lr90::net::encode_snapshot_rank_request(frame, 0, s.ids[k], g);
    } else {
      lr90::net::encode_snapshot_scan_request(frame, 0, s.ids[k], g,
                                              op_of(kSnapKind[k]));
    }
  };
  OpenLoop spec;
  spec.rate = read_rps;
  spec.seconds = seconds;
  spec.tracer = tracer;
  spec.make = [&](std::size_t i, std::vector<std::uint8_t>& frame) {
    pinned[i].store(gen[read_target(seed, i)].load());
    encode_read(i, frame);
  };
  spec.check = [&](std::size_t i, const ResponseFrame& r,
                   std::vector<std::uint8_t>& frame) {
    const std::size_t k = read_target(seed, i);
    if (r.status == WireStatus::kStaleGeneration) {
      stale.fetch_add(1);
      pinned[i].store(r.generation);
      encode_read(i, frame);
      return Verdict::kResend;
    }
    const std::uint64_t g = pinned[i].load();
    const bool ok = r.status == WireStatus::kOk &&
                    r.body == BodyKind::kValues && g >= 1 &&
                    r.values == s.versions[k][(g - 1) % 2].want;
    if (!ok && log_failure())
      std::fprintf(stderr, "snapshot: read %zu of id %zu gen %llu answered "
                   "%s\n", i, k, static_cast<unsigned long long>(g),
                   lr90::net::wire_status_name(r.status));
    return ok ? Verdict::kOk : Verdict::kFail;
  };

  // The writer: one connection, closed loop on a fixed schedule.
  const auto updates = static_cast<std::size_t>(update_hz * seconds);
  std::thread writer([&] {
    if (updates == 0) return;
    const std::vector<std::int64_t> due =
        fixed_schedule(now_ns() + 50'000'000, update_hz, updates);
    for (std::size_t u = 0; u < updates; ++u) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due[u])));
      const std::int64_t t0 = now_ns();
      const bool ok = update_once(s, gen, u);
      const std::int64_t t1 = now_ns();
      ++out.updates.attempted;
      if (!ok) {
        ++out.updates.failed;
        continue;
      }
      out.updates.windows.emplace_back(t0, t1);
      out.updates.latency_ms.push_back(static_cast<double>(t1 - due[u]) /
                                       1e6);
      if (tracer != nullptr)
        tracer->record("net.update_snapshot", due[u], t1, -1, 0);
    }
  });
  out.reads = run_open_loop(s.readers, spec);
  writer.join();
  out.stale = stale.load();
  return out;
}

/// The capacities the snapshot rates are set from. read.max_rps: the
/// ladder over reads alone, held to throughput only (no growing backlog,
/// no failure): 2 MiB reads missed the 10 ms p99 even at 60 reads/s in
/// some runs. update.max_hz: updates sent back to back for kStepS, no
/// reads beside them; measured first, as the ladder's last step leaves
/// the server draining a backlog.
void snapshot_capacity(SnapSetup& s, std::atomic<std::uint64_t>* gen,
                       std::uint64_t seed, Report& report) {
  std::size_t done = 0, bad = 0;
  const std::int64_t t0 = now_ns();
  while (secs(t0, now_ns()) < kStepS)
    if (!update_once(s, gen, done++)) ++bad;
  const double hz = static_cast<double>(done) / secs(t0, now_ns());
  report.answers(done, bad);
  report.layer("update.max_hz", hz, "1/s");
  report.detail("update.max_hz", hz, "1/s", done);
  const double read_max = climb_ladder(
      kReadLadder,
      [&](double rate) {
        return snapshot_phase(s, gen, seed, rate, 0.0, kStepS, nullptr).reads;
      },
      std::numeric_limits<double>::infinity(), "read_ladder", report);
  report.layer("read.max_rps", read_max, "1/s");
  report.detail("read.max_rps", read_max, "1/s");
}

struct SnapFigures {
  double kind_ns[3] = {};
  Percentile read_p50, read_p99, update_p50, during_update_p99;
  WindowedTail read_tail;  ///< median of the 2 s window p90s
};

SnapFigures snapshot_figures(const SnapSetup& s, const SnapPhase& p,
                             std::uint64_t seed, double window_s) {
  SnapFigures f;
  f.read_tail = p.reads.windowed_ms(window_s, 90);
  const double n = static_cast<double>(s.versions[0][0].list.size());
  for (const Kind k : kKinds) {
    const auto ms = p.reads.latency_ms([&](std::size_t i) {
      return kSnapKind[read_target(seed, i)] == k;
    });
    f.kind_ns[static_cast<int>(k)] = median(ms) * 1e6 / n;
  }
  const auto all = p.reads.latency_ms();
  f.read_p50 = percentile(all, 50);
  f.read_p99 = percentile(all, 99);
  f.update_p50 = percentile(p.updates.latency_ms, 50);
  const auto during = p.reads.latency_ms([&](std::size_t i) {
    const Sent& r = p.reads.reqs[i];
    for (const auto& [a, b] : p.updates.windows)
      if (r.due_ns < b && r.done_ns.load() > a) return true;
    return false;
  });
  f.during_update_p99 = percentile(during, 99);
  return f;
}

void report_snapshot(const SnapFigures& f, Report& report,
                     const std::string& prefix) {
  for (int k = 0; k < 3; ++k) {
    report.e2e(kKindE2e[k], f.kind_ns[k], "ns");
    report.detail(prefix + kKindE2e[k], f.kind_ns[k], "ns");
  }
  report.e2e("p50_ms", f.read_p50.value, "ms");
  report.layer("tail.windowed_p90_ms", f.read_tail.value, "ms");
  report.detail(prefix + "read.windowed_p90_ms", f.read_tail.value, "ms",
                f.read_tail.samples);
  report.detail(prefix + "read.p50_ms", f.read_p50.value, "ms",
                f.read_p50.samples);
  report.detail(prefix + "read.p99_ms", f.read_p99.value, "ms",
                f.read_p99.samples);
  report.detail(prefix + "update.p50_ms", f.update_p50.value, "ms",
                f.update_p50.samples);
  report.detail(prefix + "read.p99_during_update_ms",
                f.during_update_p99.value, "ms", f.during_update_p99.samples);
}

void count_phase(const SnapPhase& p, Report& report) {
  report.answers(p.reads.count, p.reads.failed);
  report.answers(p.updates.attempted, p.updates.failed);
}

/// serve.update_ms and the in-process read latency: the same snapshots
/// on an EngineServer without the network.
void snapshot_in_process(const SnapSetup& s, Tracer& tracer,
                         Report& report) {
  lr90::serve::ServerOptions opt = lr90::NetServerOptions{}.serve;
  opt.reject_when_full = true;
  opt.engine.validate_input = true;
  lr90::EngineServer server(opt);
  std::uint64_t ids[kSnaps];
  for (std::size_t k = 0; k < kSnaps; ++k) {
    lr90::SnapshotHandle h;
    if (!server.register_snapshot(s.versions[k][0].list, h).ok())
      throw std::runtime_error("in-process snapshot registration failed");
    ids[k] = h.snapshot_id;
  }
  std::vector<double> update_ms, read_us;
  std::uint64_t attempted = 0, bad = 0;
  for (int u = 0; u < 8; ++u) {
    const std::size_t k = static_cast<std::size_t>(u) % kSnaps;
    const int v = (u / static_cast<int>(kSnaps) + 1) % 2;
    LinkedList copy = s.versions[k][v].list;
    lr90::SnapshotHandle h;
    const std::int64_t t0 = now_ns();
    const bool ok = server.update_snapshot(ids[k], std::move(copy), h).ok();
    const std::int64_t t1 = now_ns();
    tracer.record("serve.update_snapshot", t0, t1, -1, 0);
    update_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    // A miss then a hit on the new generation.
    for (int rep = 0; rep < 2; ++rep) {
      lr90::SnapshotRequest req;
      req.snapshot_id = ids[k];
      req.rank = kSnapKind[k] == Kind::kRank;
      req.op = op_of(kSnapKind[k]);
      const std::int64_t r0 = now_ns();
      lr90::RunResult r = server.submit(req).get();
      const std::int64_t r1 = now_ns();
      tracer.record("serve.EngineServer::submit", r0, r1, -1, 0);
      read_us.push_back(static_cast<double>(r1 - r0) / 1e3);
      ++attempted;
      if (!r.ok() || r.scan != s.versions[k][v].want) ++bad;
    }
    attempted += 1;
    if (!ok) ++bad;
  }
  server.shutdown();
  report.answers(attempted, bad);
  report.layer("serve.update_ms", median(update_ms), "ms");
  report.layer("serve.latency_p50_us", percentile(read_us, 50).value, "us");
  report.layer("serve.latency_p99_us", percentile(read_us, 99).value, "us");
}

}  // namespace

void run_snapshot(const RunArgs& args, Tracer& tracer, Report& report) {
  auto s = std::make_unique<SnapSetup>();
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    s = std::make_unique<SnapSetup>();
    const std::int64_t t0 = now_ns();
    build_snapshot(*s, args);
    setup.push_back(secs(t0, now_ns()));
  }
  report.e2e("setup_s", median(setup), "s");
  report.detail("setup_s", median(setup), "s", setup.size());
  const std::size_t n = s->versions[0][0].list.size();
  report.meta("server_shape", server_shape(lr90::NetServerOptions{}.serve));
  report.meta("n", static_cast<double>(n));
  report.meta("read_rps", kReadRps);
  report.meta("update_hz", kUpdateHz);
  report.detail("n", static_cast<double>(n), "count");

  constexpr double window_s = 2.0;
  std::atomic<std::uint64_t> gen[kSnaps];
  for (auto& g : gen) g.store(1);
  auto phase = [&](double seconds, Tracer* t) {
    return snapshot_phase(*s, gen, args.seed, kReadRps, kUpdateHz, seconds,
                          t);
  };
  count_phase(phase(0.5, nullptr), report);  // warm-up
  const lr90::ServerStats warm = s->server->serve_stats();
  if (!args.trace) {
    const SnapPhase p = phase(args.seconds, nullptr);
    count_phase(p, report);
    report_snapshot(snapshot_figures(*s, p, args.seed, window_s), report, "");
  } else {
    const SnapPhase p0 = phase(args.seconds / 2, nullptr);
    count_phase(p0, report);
    Report base;
    report_snapshot(snapshot_figures(*s, p0, args.seed, window_s), base, "");
    const SnapPhase p = phase(args.seconds / 2, &tracer);
    count_phase(p, report);
    const SnapFigures f = snapshot_figures(*s, p, args.seed, window_s);
    report_snapshot(f, report, "traced.");
    report_overhead(base, report);
    report.layer("read.p50_ms", f.read_p50.value, "ms");
    report.layer("read.p99_ms", f.read_p99.value, "ms");
    report.layer("update.p50_ms", f.update_p50.value, "ms");
    report.layer("net.read_p99_during_update_ms", f.during_update_p99.value,
                 "ms");
    report.layer("client.lateness_p99_ms",
                 p.reads.generator_lateness().p99_us / 1e3, "ms");
    // The update is this workload's heavy request to encode and decode.
    report_net(
        *s->server, p.reads,
        [&](std::vector<std::uint8_t>& f) {
          lr90::net::encode_update_snapshot_request(f, 1, s->ids[0],
                                                    s->versions[0][0].list);
        },
        s->versions[0][0].want, report);
    report_serve_counters(*s->server, report);
    const lr90::ServerStats ss = s->server->serve_stats();
    const double reads =
        static_cast<double>(p0.reads.count + p.reads.count + p0.stale +
                            p.stale);
    report.layer("serve.engine_runs_per_read",
                 static_cast<double>(ss.completed - warm.completed) / reads,
                 "ratio");
    std::vector<const LinkedList*> lists;
    for (std::size_t k = 0; k < kSnaps; ++k)
      lists.push_back(&s->versions[k][0].list);
    report_validate(lists, tracer, report);
    snapshot_in_process(*s, tracer, report);
    snapshot_capacity(*s, gen, args.seed, report);
  }
  s->readers.clear();
  s->writer.reset();
  s->server->stop();
  report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  report.detail("peak_rss_mib", peak_rss_mib(), "MiB");
}

}  // namespace perfbench
