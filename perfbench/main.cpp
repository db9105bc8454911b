// lr90bench -- the repository benchmark driver. Runs one workload from a
// seed, checks every answer bit-exact against an oracle built from the
// generating permutation, and prints its metrics; the last stdout line is
// the JSON result. Normally started through run.py, which builds it.
//
//   lr90bench --workload bulk --seed 1 --seconds 10 --trace 0
//             [--out DIR] [--scratch DIR]
//
// Exit status: 0 when every answer was right, 1 when any was wrong or
// failed, 2 on a usage or set-up error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "common.hpp"

namespace perfbench {

void seed_layer_metrics(Report& report) {
  for (const char* k : {"rank", "scan", "wide"}) {
    const std::string p = std::string("core.") + k + ".";
    for (const char* m : {"build_ns_per_elem", "phase1_ns_per_elem",
                          "phase2_ns_per_elem", "phase3_ns_per_elem",
                          "untimed_ns_per_elem"})
      report.layer(p + m, 0.0, "ns");
    report.layer(p + "threads", 0.0, "count");
    report.layer(p + "interleave", 0.0, "count");
    report.layer(p + "tier", 0.0, "code");
  }
  const std::pair<const char*, const char*> rest[] = {
      {"core.workspace_allocs", "count"},
      {"analysis.decide_us", "us"},
      {"analysis.plan_gap", "ratio"},
      {"analysis.best_threads", "count"},
      {"analysis.best_w", "count"},
      {"baselines.serial_ns_per_elem", "ns"},
      {"core.rank.speedup_vs_serial", "ratio"},
      {"lists.validate_ns_per_elem", "ns"},
      {"net.encode_request_us", "us"},
      {"net.decode_request_us", "us"},
      {"net.encode_response_us", "us"},
      {"net.decode_response_us", "us"},
      {"net.bytes_in_per_req", "bytes"},
      {"net.bytes_out_per_req", "bytes"},
      {"net.overhead_p50_us", "us"},
      {"net.retry_after_sent", "count"},
      {"net.protocol_errors", "count"},
      {"net.read_p99_during_update_ms", "ms"},
      {"serve.latency_p50_us", "us"},
      {"serve.latency_p99_us", "us"},
      {"serve.engine_wall_us", "us"},
      {"serve.queue_wait_us", "us"},
      {"serve.queue_depth_hwm", "count"},
      {"serve.intra_threads_peak", "count"},
      {"serve.batches_per_req", "ratio"},
      {"serve.result_hit_ratio", "ratio"},
      {"serve.slab_hit_ratio", "ratio"},
      {"serve.engine_runs_per_read", "ratio"},
      {"serve.stale_rejections", "count"},
      {"serve.update_ms", "ms"},
      {"shard.loads", "count"},
      {"shard.spills", "count"},
      {"shard.prefetch_hit_ratio", "ratio"},
      {"shard.segments", "count"},
      {"shard.spill_overhead", "ratio"},
      {"light.p50_ms", "ms"},
      {"light.p99_ms", "ms"},
      {"heavy.p50_ms", "ms"},
      {"heavy.p99_ms", "ms"},
      {"max_rps", "1/s"},
      {"read.max_rps", "1/s"},
      {"update.max_hz", "1/s"},
      {"read.p50_ms", "ms"},
      {"read.p99_ms", "ms"},
      {"update.p50_ms", "ms"},
      {"client.lateness_p99_ms", "ms"},
      {"trace.overhead.rank_ns_per_elem", "ns"},
      {"trace.overhead.scan_ns_per_elem", "ns"},
      {"trace.overhead.wide_scan_ns_per_elem", "ns"},
      {"trace.overhead.p50_ms", "ms"},
      {"tail.windowed_p90_ms", "ms"},
      {"trace.spans", "count"},
  };
  for (const auto& [name, unit] : rest) report.layer(name, 0.0, unit);
  for (const char* l : kLayers)
    report.layer(std::string("self_share.") + l, 0.0, "ratio");
}

void report_self_shares(const Tracer& tracer, Report& report) {
  const std::vector<Span> spans = tracer.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, double> by_layer;
  double roots = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    by_layer[name.substr(0, name.find('.'))] += static_cast<double>(self[i]);
    if (spans[i].parent < 0)
      roots += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  for (const char* l : kLayers)
    report.layer(std::string("self_share.") + l,
                 roots > 0.0 ? by_layer[l] / roots : 0.0, "ratio");
  report.layer("trace.spans", static_cast<double>(spans.size()), "count");
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "lr90bench: %s\nusage: lr90bench --workload "
               "bulk|served|snapshot|out_of_core --seed N --seconds S "
               "--trace 0|1 [--out DIR] [--scratch DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value after " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--out") {
      args.out_dir = v;
    } else if (a == "--scratch") {
      args.scratch = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (args.seconds <= 0.0) return usage("--seconds must be positive");

  Tracer tracer(args.trace);
  Report report;
  if (args.trace) seed_layer_metrics(report);
  try {
    if (args.workload == "bulk") {
      run_bulk(args, tracer, report);
    } else if (args.workload == "served") {
      run_served(args, tracer, report);
    } else if (args.workload == "snapshot") {
      run_snapshot(args, tracer, report);
    } else if (args.workload == "out_of_core") {
      run_out_of_core(args, tracer, report);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lr90bench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 2;
  }
  if (report.attempted() == 0) {
    std::fprintf(stderr, "lr90bench: no answer was attempted\n");
    return 2;
  }
  if (args.trace) report_self_shares(tracer, report);
  report.finish(args, tracer);
  return report.failed() == 0 ? 0 : 1;
}
