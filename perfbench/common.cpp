#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cpuid.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "lists/generators.hpp"
#include "lists/ops.hpp"
#include "support/bench_json.hpp"

namespace perfbench {

int Tracer::record(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, int parent, std::uint64_t request) {
  if (!on_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : all)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  return std::fclose(f) == 0;
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kRank: return "rank";
    case Kind::kScan: return "scan";
    case Kind::kWide: return "wide";
  }
  return "?";
}

std::vector<index_t> random_order(std::size_t n, lr90::Rng& rng) {
  std::vector<index_t> order(n);
  rng.permutation(order);
  return order;
}

std::vector<value_t> make_values(std::size_t n, Kind kind, lr90::Rng& rng) {
  std::vector<value_t> v(n, 1);
  if (kind == Kind::kScan) {
    for (auto& x : v) x = static_cast<value_t>(rng.uniform(1000)) - 500;
  } else if (kind == Kind::kWide) {
    for (auto& x : v) x = static_cast<value_t>(rng.next_u64());
  }
  return v;
}

std::vector<value_t> oracle(const std::vector<index_t>& order,
                            const std::vector<value_t>& values, Kind kind) {
  std::vector<value_t> want(order.size());
  if (kind == Kind::kRank) {
    for (std::size_t i = 0; i < order.size(); ++i)
      want[order[i]] = static_cast<value_t>(i);
    return want;
  }
  auto pass = [&](auto op) {
    value_t acc = decltype(op)::identity();
    for (const index_t v : order) {
      want[v] = acc;
      acc = op(acc, values[v]);
    }
  };
  if (kind == Kind::kScan) {
    pass(lr90::OpPlus{});
  } else {
    pass(lr90::OpAffine{});
  }
  return want;
}

Case make_case(std::size_t n, Kind kind, lr90::Rng& rng) {
  Case c;
  c.kind = kind;
  const std::vector<index_t> order = random_order(n, rng);
  c.list = lr90::list_from_order(order);
  c.list.value = make_values(n, kind, rng);
  c.want = oracle(order, c.list.value, kind);
  return c;
}

void build_list_input(ListInput& in, std::size_t n, std::uint64_t seed) {
  lr90::Rng rng(seed);
  const std::vector<index_t> order = random_order(n, rng);
  in.list = lr90::list_from_order(order);
  in.list.value = make_values(n, Kind::kScan, rng);
  in.wide_values = make_values(n, Kind::kWide, rng);
  in.want[0] = oracle(order, in.list.value, Kind::kRank);
  in.want[1] = oracle(order, in.list.value, Kind::kScan);
  in.want[2] = oracle(order, in.wide_values, Kind::kWide);
}

void setup_list_input(ListInput& in, std::size_t n, std::uint64_t seed,
                      Report& report) {
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    in = ListInput{};
    const std::int64_t t0 = now_ns();
    build_list_input(in, n, seed);
    setup.push_back(secs(t0, now_ns()));
  }
  report.e2e("setup_s", median(setup), "s");
  report.detail("setup_s", median(setup), "s", setup.size());
  // Links, values and one answer per element.
  const double ws = static_cast<double>(n) *
                    (sizeof(index_t) + 2 * sizeof(value_t));
  report.meta("n", static_cast<double>(n));
  report.meta("working_set_bytes", ws);
  report.detail("n", static_cast<double>(n), "count");
  report.detail("working_set_mib", ws / (1 << 20), "MiB");
  report.detail("l3_mib", static_cast<double>(l3_bytes()) / (1 << 20),
                "MiB");
}

namespace {

/// Calls whichever kind has used the least time so far, until every kind
/// has had a third of `seconds` and at least three calls: the kinds
/// interleave, and the fast ones get as many samples as the time allows.
std::vector<KindSamples> timed_rounds(const CallFn& call, double seconds,
                                      Tracer& tracer, Report& report) {
  std::vector<KindSamples> samples(3);
  double used[3] = {};
  std::uint64_t request = 0;
  for (;;) {
    int k = 0;
    for (int j = 1; j < 3; ++j)
      if (used[j] < used[k]) k = j;
    bool done = true;
    for (int j = 0; j < 3; ++j)
      done = done && used[j] >= seconds / 3 &&
             samples[j].ns_per_elem.size() >= 3;
    if (done) break;
    if (used[k] >= seconds / 3)  // time spent, but short of three calls
      for (int j = 0; j < 3; ++j)
        if (samples[j].ns_per_elem.size() < 3) k = j;
    const std::int64_t t0 = now_ns();
    report.answer(call(kKinds[k], tracer, ++request, &samples[k]));
    used[k] += secs(t0, now_ns());
  }
  return samples;
}

/// Reports the e2e figures of one phase into `report` (details carry
/// `prefix` so a traced phase is told apart).
void report_calls(const std::vector<KindSamples>& s, std::size_t n,
                  double seconds, Report& report, const char* prefix) {
  static const char* names[] = {"rank_ns_per_elem", "scan_ns_per_elem",
                                "wide_scan_ns_per_elem"};
  std::vector<double> ms;
  std::vector<std::pair<std::int64_t, double>> start_ms;
  for (const KindSamples& k : s)
    for (std::size_t i = 0; i < k.ns_per_elem.size(); ++i) {
      ms.push_back(k.ns_per_elem[i] * static_cast<double>(n) / 1e6);
      start_ms.emplace_back(k.start_ns[i], ms.back());
    }
  for (int k = 0; k < 3; ++k) {
    const double v = median(s[k].ns_per_elem);
    report.e2e(names[k], v, "ns");
    report.detail(std::string(prefix) + names[k], v, "ns",
                  s[k].ns_per_elem.size());
  }
  const Percentile p50 = percentile(ms, 50.0);
  const WindowedTail tail = windowed_percentile(
      start_ms, static_cast<std::int64_t>(seconds / 4 * 1e9), 90, 1);
  report.e2e("p50_ms", p50.value, "ms");
  report.layer("tail.windowed_p90_ms", tail.value, "ms");
  report.detail(std::string(prefix) + "p50_ms", p50.value, "ms", p50.samples);
  report.detail(std::string(prefix) + "windowed_p90_ms", tail.value, "ms",
                tail.samples);
}

}  // namespace

void report_overhead(const Report& untraced, Report& report) {
  for (const auto& [name, vu] : untraced.e2e()) {
    report.detail("untraced." + name, vu.first, vu.second);
    report.layer("trace.overhead." + name,
                 report.e2e().at(name).first - vu.first, vu.second);
  }
}

std::vector<KindSamples> measure_calls(const CallFn& call, std::size_t n,
                                       const RunArgs& args, Tracer& tracer,
                                       Report& report) {
  // Warm-up: whole rounds until kWarmupS has passed.
  Tracer off(false);
  const std::int64_t w0 = now_ns();
  do {
    for (const Kind k : kKinds) report.answer(call(k, off, 0, nullptr));
  } while (secs(w0, now_ns()) < kWarmupS);
  if (!args.trace) {
    auto s = timed_rounds(call, args.seconds, off, report);
    report_calls(s, n, args.seconds, report, "");
    return s;
  }
  Report base;
  report_calls(timed_rounds(call, args.seconds / 2, off, report), n,
               args.seconds / 2, base, "");
  auto s = timed_rounds(call, args.seconds / 2, tracer, report);
  report_calls(s, n, args.seconds / 2, report, "traced.");
  report_overhead(base, report);
  return s;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

long l3_bytes() { return sysconf(_SC_LEVEL3_CACHE_SIZE); }

std::string cpu_model() {
  unsigned r[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (__get_cpuid(0x80000002 + i, &r[4 * i], &r[4 * i + 1], &r[4 * i + 2],
                    &r[4 * i + 3]) == 0)
      return "unknown";
  char brand[49];
  std::memcpy(brand, r, 48);
  brand[48] = '\0';
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_[name] = {value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_[name] = {value, unit};
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  details_.push_back({name, value, unit, samples});
}

void Report::meta(const std::string& key, const std::string& value) {
  meta_s_.emplace_back(key, value);
}

void Report::meta(const std::string& key, double value) {
  meta_d_.emplace_back(key, value);
}

namespace {

/// Shortest text that reads back as exactly `v` (JSON has no NaN/inf).
std::string num_text(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(
    const std::map<std::string, std::pair<double, std::string>>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : m) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num_text(vu.first) +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  return out + "}";
}

}  // namespace

void Report::finish(const RunArgs& args, const Tracer& tracer) {
  std::printf("workload %s, seed %llu, %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");
  for (const Detail& d : details_) {
    if (d.samples > 0) {
      std::printf("  %-34s %14.4f %-6s (n=%zu)\n", d.name.c_str(), d.value,
                  d.unit.c_str(), d.samples);
    } else {
      std::printf("  %-34s %14.4f %s\n", d.name.c_str(), d.value,
                  d.unit.c_str());
    }
  }
  std::printf("  answers attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));

  lr90::BenchJson doc("perfbench");
  lr90::stamp_provenance(doc);
  doc.meta("workload", args.workload);
  doc.meta("seed", static_cast<double>(args.seed));
  doc.meta("seconds", args.seconds);
  doc.meta("trace", args.trace ? 1.0 : 0.0);
  doc.meta("cpu_model", cpu_model());
  doc.meta("l3_bytes", static_cast<double>(l3_bytes()));
  for (const auto& [k, v] : meta_s_) doc.meta(k, v);
  for (const auto& [k, v] : meta_d_) doc.meta(k, v);
  doc.meta("attempted", static_cast<double>(attempted_));
  doc.meta("failed", static_cast<double>(failed_));
  auto rows = [&doc](const auto& m, const char* kind) {
    for (const auto& [name, vu] : m) {
      doc.row();
      doc.field("metric", name);
      doc.field("kind", kind);
      doc.field("value", vu.first);
      doc.field("unit", vu.second);
    }
  };
  rows(e2e_, "end_to_end");
  rows(layer_, "per_layer");
  for (const Detail& d : details_) {
    doc.row();
    doc.field("metric", d.name);
    doc.field("kind", "detail");
    doc.field("value", d.value);
    doc.field("unit", d.unit);
    doc.field("samples", static_cast<double>(d.samples));
  }
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-traced" : "");
  if (doc.write(stem + ".json")) std::printf("  result file %s.json\n",
                                             stem.c_str());
  if (tracer.on() && tracer.write(stem + ".spans.jsonl"))
    std::printf("  spans file %s.spans.jsonl\n", stem.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed_ == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              metrics_json(args.trace ? layer_ : e2e_).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
