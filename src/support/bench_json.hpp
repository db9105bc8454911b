// Minimal JSON emission for bench trajectories.
//
// Every bench that feeds the repo's perf record writes one JSON document
// per run -- BENCH_hotpath.json, BENCH_op_scan.json, BENCH_serve.json --
// so speedups are machine-readable across PRs instead of living only in
// stdout tables. The format is deliberately flat:
//
//   {
//     "bench": "interleave_sweep",
//     "meta": { "n_max": 4194304, "threads": 1, ... },
//     "results": [ { "n": 65536, "variant": "packed", "w": 8,
//                    "median_ms": 1.9, ... }, ... ]
//   }
//
// No external JSON dependency: the writer covers exactly what the benches
// need (string and finite-double fields, minimal escaping).
#pragma once

#include <string>
#include <vector>

namespace lr90 {

/// One bench run's JSON document: top-level metadata plus a flat list of
/// result rows. Build with meta()/row()/field(), then write().
class BenchJson {
 public:
  /// Starts a document for the bench named `bench_name`.
  explicit BenchJson(std::string bench_name);

  /// Adds a top-level metadata field (last write wins is NOT applied;
  /// callers add each key once).
  void meta(const std::string& key, const std::string& value);
  /// Numeric metadata overload.
  void meta(const std::string& key, double value);

  /// Opens a new result row; subsequent field() calls land in it.
  void row();
  /// Adds a numeric field to the open row (NaN/inf serialize as null).
  void field(const std::string& key, double value);
  /// Adds a string field to the open row.
  void field(const std::string& key, const std::string& value);

  /// The serialized document.
  std::string dump() const;
  /// Writes dump() to `path`; false (with a stderr report) on failure.
  bool write(const std::string& path) const;

 private:
  struct Field {
    std::string key;
    std::string str;
    double num = 0.0;
    bool is_num = false;
  };
  static void append_fields(std::string& out,
                            const std::vector<Field>& fields);

  std::string name_;
  std::vector<Field> meta_;
  std::vector<std::vector<Field>> rows_;
};

/// The output path for `default_name` ("BENCH_hotpath.json", ...):
/// the LR90_BENCH_JSON_PATH environment variable when set, else the
/// default in the current directory.
std::string bench_json_path(const char* default_name);

/// Stamps the standard provenance metadata every BENCH_*.json must carry
/// so tools/bench_compare.py can refuse cross-machine comparisons
/// instead of mis-flagging them:
///   git_sha      LR90_GIT_SHA or GITHUB_SHA env var, else the SHA CMake
///                captured at configure time, else "unknown"
///   compiler     compiler id + version the binary was built with
///   openmp       "on"/"off" (LISTRANK90_HAVE_OPENMP at build time)
///   hw_threads   std::thread::hardware_concurrency() at run time
///   thp          the transparent-huge-page mode at run time ("always",
///                "madvise", "never"), or "unavailable" when
///                /sys/kernel/mm/transparent_hugepage/enabled is unreadable;
///                bench_compare.py notes a difference but never refuses
/// Call once per document, before write().
void stamp_provenance(BenchJson& json);

}  // namespace lr90
