// Shared pieces of the benchmark driver: the clock, the in-memory span
// recorder, workload inputs with their oracles, and the report that
// prints every metric and writes the result file.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "arith.hpp"
#include "lists/linked_list.hpp"
#include "support/rng.hpp"

namespace perfbench {

using lr90::index_t;
using lr90::LinkedList;
using lr90::value_t;

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds between two now_ns() stamps.
inline double secs(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

/// What one run was asked to do (the command line).
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";   ///< where the result and span files go
  std::string scratch = ".";   ///< spill / temp space inside the checkout
};

/// Set-ups per run: setup_s is their median.
inline constexpr int kSetupReps = 3;
/// Warm-up before timing: the first calls run on cold pages and idle
/// cores and read several times slower.
inline constexpr double kWarmupS = 1.0;

/// Keeps spans in memory while a run is traced; a disabled recorder keeps
/// nothing and costs one branch per call. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  /// Records a finished span and returns its index (-1 when disabled).
  int record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
             int parent, std::uint64_t request);
  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;
  /// Writes the spans as JSON lines; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The three answer kinds every workload asks for: rank, plus-scan and
/// affine-scan (the "wide" kind: two packed 32-bit lanes per value).
enum class Kind { kRank = 0, kScan = 1, kWide = 2 };
inline constexpr Kind kKinds[] = {Kind::kRank, Kind::kScan, Kind::kWide};
const char* kind_name(Kind k);
/// ½ rank, ¼ plus-scan, ¼ affine-scan by a request's index.
inline Kind mix_kind(std::size_t i) {
  return i % 4 < 2 ? Kind::kRank : (i % 4 == 2 ? Kind::kScan : Kind::kWide);
}

/// A random-layout list together with the answer it must produce.
struct Case {
  LinkedList list;
  std::vector<value_t> want;  ///< exclusive rank or scan per vertex
  Kind kind = Kind::kRank;
};

/// Uniformly random traversal order of 0..n-1.
std::vector<index_t> random_order(std::size_t n, lr90::Rng& rng);
/// Per-vertex values for `kind`: ones for rank, small signed values for
/// plus-scan (they fit the packed kernels' 32-bit lane), random packed
/// (mul, add) maps for affine-scan.
std::vector<value_t> make_values(std::size_t n, Kind kind, lr90::Rng& rng);
/// The oracle: one pass over the generating order, accumulating `kind`'s
/// operator. No list walk, so it shares no code with what it checks.
std::vector<value_t> oracle(const std::vector<index_t>& order,
                            const std::vector<value_t>& values, Kind kind);
/// A fresh random Case of length n.
Case make_case(std::size_t n, Kind kind, lr90::Rng& rng);

class Report;

/// One long list asked for all three kinds: the plus-scan values live in
/// the list, the affine values beside it (swapped in for the wide kind).
struct ListInput {
  LinkedList list;
  std::vector<value_t> wide_values;
  std::vector<value_t> want[3];  ///< oracle per Kind
};
/// Generates a ListInput of length n from `seed`.
void build_list_input(ListInput& in, std::size_t n, std::uint64_t seed);
/// Builds the input kSetupReps times (freeing the previous copy first)
/// and reports the median as setup_s, with n and the working set against L3.
void setup_list_input(ListInput& in, std::size_t n, std::uint64_t seed,
                      Report& report);

/// Per-kind samples of in-process calls, per element of the list.
struct KindSamples {
  std::vector<double> ns_per_elem;  ///< wall time of the whole call
  std::vector<std::int64_t> start_ns;  ///< call start, for the tail windows
  std::vector<double> build, p1, p2, p3, untimed;  ///< RunStats phases
};
/// One call of `kind`: returns whether the answer was right and, when
/// `out` is non-null, appends its timings.
using CallFn = std::function<bool(Kind, Tracer&, std::uint64_t request,
                                  KindSamples* out)>;
/// Times `call` over the kinds, a third of the time each, after discarded
/// warm-up rounds (at least one, for kWarmupS). Untraced: for
/// args.seconds. Traced: half the time untraced, half traced, reporting
/// traced minus untraced as trace.overhead.*. Reports the per-kind
/// ns/elem, the pooled median call latency and the tail (the median over
/// four windows of each window's p90, which for so few calls is nearly
/// its slowest call), and returns the samples of the last phase.
std::vector<KindSamples> measure_calls(const CallFn& call, std::size_t n,
                                       const RunArgs& args, Tracer& tracer,
                                       Report& report);
/// Reports trace.overhead.<m> = traced minus untraced for every e2e metric
/// `untraced` holds (`report` holds the traced values).
void report_overhead(const Report& untraced, Report& report);

/// Peak resident set of this process so far, MiB.
double peak_rss_mib();
/// Last-level (L3) cache size in bytes as the C library reports it.
long l3_bytes();
/// CPU brand string.
std::string cpu_model();

/// Every number a run produces. End-to-end metrics are the BENCHMARK.json
/// names; per-layer metrics are zero where the workload leaves the layer
/// idle; details are the workload-specific figures printed by name.
class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  /// A named figure with its sample count, printed for humans.
  void detail(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
  void meta(const std::string& key, const std::string& value);
  void meta(const std::string& key, double value);

  /// Records one answer: attempted + 1, failed + 1 unless `ok`.
  void answer(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void answers(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, std::pair<double, std::string>>& e2e() const {
    return e2e_;
  }

  /// Prints the details, writes the result file, and prints the result
  /// line (end-to-end or per-layer metrics, per `trace`) last.
  void finish(const RunArgs& args, const Tracer& tracer);

 private:
  struct Detail {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::map<std::string, std::pair<double, std::string>> e2e_;
  std::map<std::string, std::pair<double, std::string>> layer_;
  std::vector<Detail> details_;
  std::vector<std::pair<std::string, std::string>> meta_s_;
  std::vector<std::pair<std::string, double>> meta_d_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The layers spans are named after ("layer.call"): the benchmark's own
/// client side, then the library's modules.
inline constexpr const char* kLayers[] = {
    "client", "core", "analysis", "baselines", "lists", "net", "serve",
    "shard"};

/// Per-layer self-time shares of a traced run: each layer's summed span
/// self time over the summed duration of the root spans.
void report_self_shares(const Tracer& tracer, Report& report);

/// The fixed per-layer metric names and units; every traced run emits all
/// of them (zeros first, then overwritten by what the workload measured).
void seed_layer_metrics(Report& report);

/// Workload entry points.
void run_bulk(const RunArgs& args, Tracer& tracer, Report& report);
void run_served(const RunArgs& args, Tracer& tracer, Report& report);
void run_snapshot(const RunArgs& args, Tracer& tracer, Report& report);
void run_out_of_core(const RunArgs& args, Tracer& tracer, Report& report);

}  // namespace perfbench
