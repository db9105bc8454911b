// lr90::Engine -- the entry point of the listrank90 library: one facade
// over the simulated Cray C90 and the host's real cores.
//
//   Engine engine({.backend = BackendKind::kHost});
//   RunResult r = engine.rank(list);            // scan: engine.scan(list)
//   if (!r.ok()) report(r.status);              // typed errors, no aborts
//
// An Engine owns
//   * an ExecutionBackend -- SimBackend (wraps vm::Machine), HostBackend
//     (wraps the multi-threaded sublist kernel), or SerialBackend (the
//     degenerate single-walk case);
//   * a Planner that resolves Method::kAuto per backend by consulting the
//     paper's cost equations and tuner (analysis/cost_eqs, analysis/tuner)
//     instead of hard-coded crossovers;
//   * a Workspace of reusable scratch buffers, so repeated calls (and
//     run_batch) stop paying per-call allocation -- the paper's "assign
//     work once, balance locally" discipline applied to memory.
//
// Results carry one merged RunStats: wall-clock always, simulated
// cycles/ns when the backend simulates, AlgoStats always.
//
// Thread-safety contract: an Engine (its Workspace and backend scratch
// state) is confined to one thread at a time -- engines are cheap, use one
// per thread. The Planner is safe to share: decide() may be called
// concurrently (its tune memo is internally synchronized). For serving
// concurrent traffic through pooled engines, see serve/server.hpp
// (lr90::EngineServer).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/tuner.hpp"
#include "baselines/algo_stats.hpp"
#include "baselines/anderson_miller.hpp"
#include "core/kernel_tier.hpp"
#include "core/reid_miller.hpp"
#include "core/workspace.hpp"
#include "lists/linked_list.hpp"
#include "lists/ops.hpp"
#include "support/rng.hpp"
#include "vm/machine.hpp"

/// The listrank90 library: list ranking and list scan after Reid-Miller
/// (SPAA '94), on a simulated Cray C90 or the host's real cores.
namespace lr90 {

// -- methods ----------------------------------------------------------------

/// The list-ranking / list-scan algorithm families the backends can run.
enum class Method {
  kAuto,               ///< let the Planner pick from the cost model
  kSerial,             ///< single serial walk (the paper's baseline)
  kWyllie,             ///< Wyllie pointer jumping
  kMillerReif,         ///< Miller-Reif random mate
  kAndersonMiller,     ///< Anderson-Miller random mate
  kReidMiller,         ///< the paper's random-sublist algorithm
  kReidMillerEncoded,  ///< rank only: the single-gather packed fast path
};

/// Short stable name of `m` ("serial", "reid-miller", ...) for tables/CLIs.
const char* method_name(Method m);

// -- backends ---------------------------------------------------------------

/// Which execution substrate an Engine drives.
enum class BackendKind {
  kSerial,  ///< single serial walk on the host (degenerate reference)
  kSim,     ///< simulated Cray C90 (vm::Machine); reports cycles and ns
  kHost,    ///< real execution on the calling thread's worker team
};

/// Short stable name of `k` ("serial", "sim", "host").
const char* backend_name(BackendKind k);

// -- kernel tiers -----------------------------------------------------------
// lr90::KernelTier and kernel_tier_name() live in core/kernel_tier.hpp
// (included above) so the kernel layer can name tiers without the Engine
// facade; this header is their public home.

// -- status -----------------------------------------------------------------

/// Error taxonomy of a run; every failure is reported, never aborted on.
enum class StatusCode {
  kOk,            ///< the run succeeded
  kInvalidInput,  ///< malformed list / request
  kUnsupported,   ///< method or operator the backend cannot run
  kWrongAnswer,   ///< verify_output found a mismatch with the reference
  kUnavailable,   ///< the serving layer rejected the request (shutdown/full)
  kStaleGeneration,  ///< the addressed snapshot generation was superseded
  /// Kept as a wire code (net::WireStatus::kCorruptSlab); no run answers
  /// it: every run reads the resident list.
  kCorruptSlab,
  /// Kept as a wire code (net::WireStatus::kResourceExhausted); no run
  /// answers it.
  kResourceExhausted,
  kDeadlineExceeded,   ///< the request's deadline passed before it ran
};

/// Short stable name of `c` ("ok", "invalid-input", ...).
const char* status_code_name(StatusCode c);

/// A typed outcome: a code plus a human-readable detail message.
struct Status {
  StatusCode code = StatusCode::kOk;  ///< the outcome class
  std::string message;                ///< details when code != kOk

  /// True iff the operation succeeded.
  bool ok() const { return code == StatusCode::kOk; }
  /// The all-ok status.
  static Status success() { return {}; }
  /// A kInvalidInput status carrying `msg`.
  static Status invalid(std::string msg);
  /// A kUnsupported status carrying `msg`.
  static Status unsupported(std::string msg);
  /// A kWrongAnswer status carrying `msg`.
  static Status wrong_answer(std::string msg);
  /// A kUnavailable status carrying `msg`.
  static Status unavailable(std::string msg);
  /// A kStaleGeneration status carrying `msg`.
  static Status stale_generation(std::string msg);
  /// A kDeadlineExceeded status carrying `msg`.
  static Status deadline_exceeded(std::string msg);
};

// -- requests ---------------------------------------------------------------

// The runtime operator taxonomy (ScanOp, with_scan_op, op_cost_factor)
// lives with the operator layer in lists/ops.hpp; requests here carry a
// ScanOp value and the backends dispatch it onto the ListOp types once
// per run.

/// An exclusive list-rank request (number of predecessors per vertex).
struct RankRequest {
  const LinkedList* list = nullptr;  ///< the input; must outlive the run
  Method method = Method::kAuto;     ///< algorithm; kAuto = Planner's pick
};

/// An exclusive list-scan request under a runtime operator.
struct ScanRequest {
  const LinkedList* list = nullptr;  ///< the input; must outlive the run
  ScanOp op = ScanOp::kPlus;         ///< the scan's combining operator
  Method method = Method::kAuto;     ///< algorithm; kAuto = Planner's pick
};

/// A generic associative-operator scan request: any registered ScanOp
/// (including the packed segmented-sum / affine / max-plus operators),
/// any method, any backend. The preferred spelling for operator
/// workloads; one type with ScanRequest, so every Engine / EngineServer
/// entry point accepts either name.
using OpRequest = ScanRequest;

/// The unified request run_batch consumes; converts from any family.
struct Request {
  const LinkedList* list = nullptr;  ///< the input; must outlive the run
  bool rank = true;                  ///< rank (true) or scan (false)
  ScanOp op = ScanOp::kPlus;         ///< ignored when rank
  Method method = Method::kAuto;     ///< algorithm; kAuto = Planner's pick
  /// Relative deadline in milliseconds (0 = none). Carried through the
  /// wire header and the EngineServer queue: a request still queued when
  /// its deadline passes is answered kDeadlineExceeded without running.
  std::uint32_t deadline_ms = 0;

  Request() = default;  ///< an empty (listless) request; run() rejects it
  /// Converts a rank request.
  Request(const RankRequest& r)  // NOLINT(google-explicit-constructor)
      : list(r.list), rank(true), method(r.method) {}
  /// Converts a scan / operator-scan request.
  Request(const ScanRequest& s)  // NOLINT(google-explicit-constructor)
      : list(s.list), rank(false), op(s.op), method(s.method) {}
};

// -- results ----------------------------------------------------------------

/// Merged statistics: wall-clock and AlgoStats always; simulated figures
/// when the backend simulates (has_sim).
struct RunStats {
  AlgoStats algo;        ///< rounds / link steps / extra space
  double wall_ns = 0.0;  ///< host wall-clock of the execution

  bool has_sim = false;           ///< the sim_* fields below are meaningful
  double sim_cycles = 0.0;        ///< simulated machine cycles
  double sim_ns = 0.0;            ///< simulated wall time
  double sim_ns_per_vertex = 0.0; ///< sim_ns / n (0 for an empty list)
  vm::OpCounters ops;             ///< simulated data-movement counters

  // Host-backend execution shape (zero/false on the other backends), so
  // benches and the serving layer can report cursors-in-flight and
  // intra-request thread scaling.
  unsigned host_interleave = 0;   ///< cursors in flight per worker
  unsigned host_threads = 0;      ///< worker threads the run actually used
  /// Sublists the kernel actually walked: the plan's m, capped at n / 2
  /// (0 on the serial walk).
  std::size_t host_sublists = 0;
  /// What the host kernels walked (kAuto on the other backends and on
  /// runs that never reached the host kernels): kPackedCursors over the
  /// record slab on every sublist run, whatever the operator, and
  /// kListArrays on the serial walk.
  KernelTier kernel_tier = KernelTier::kAuto;

  // Per-phase wall clock of the host sublist kernel (zero on the serial
  // walk and other backends), so benches can compute per-phase parallel
  // efficiency E(T) = t_phase(1) / (T * t_phase(T)) across a thread sweep.
  double host_build_ns = 0.0;   ///< boundaries + heads + slab build
  double host_phase1_ns = 0.0;  ///< per-sublist inclusive scans
  double host_phase2_ns = 0.0;  ///< reduced-list scan over sublist sums
  double host_phase3_ns = 0.0;  ///< the array-order finishing pass
  /// Share of the phase wall clock spent in multi-worker phases (the
  /// Amdahl fraction); 0 when no phases were timed.
  double host_parallel_frac = 0.0;

  /// For snapshot-addressed serving requests (serve/server.hpp): the
  /// snapshot generation this result was computed against -- on a
  /// kStaleGeneration rejection, the CURRENT generation the client should
  /// retarget. 0 for non-snapshot runs.
  std::uint64_t snapshot_generation = 0;
};

/// The outcome of one run: typed status, the answer, and statistics.
struct RunResult {
  Status status;              ///< kOk, or why the run failed
  std::vector<value_t> scan;  ///< exclusive scan/rank per vertex index
  Method method_used = Method::kAuto;          ///< what actually ran
  BackendKind backend = BackendKind::kSerial;  ///< where it ran
  RunStats stats;             ///< merged wall-clock / simulated figures

  /// True iff the run succeeded (shorthand for status.ok()).
  bool ok() const { return status.ok(); }
};

// -- options ----------------------------------------------------------------

/// Accepted for source compatibility and otherwise ignored: no run is
/// split into shards, whatever these say (perfbench/out_of_core.cpp still
/// assigns them; shard/sharded.hpp lists every such name).
struct ShardOptions {
  unsigned shards = 0;          ///< ignored
  std::size_t byte_budget = 0;  ///< ignored
};

/// Everything an Engine is configured with; value-semantic and copyable
/// (an EngineServer stamps one per pooled worker engine).
struct EngineOptions {
  /// Which execution substrate to drive.
  BackendKind backend = BackendKind::kHost;
  /// Simulated processors (sim backend; overrides machine.processors).
  unsigned processors = 1;
  /// Host worker threads; 0 = auto: one worker below 2^17 vertices, else
  /// the hardware thread count. > 0 pins the cap explicitly.
  /// Either way a run sheds threads to its width before going serial
  /// (analysis/tuner.hpp plan_host).
  unsigned threads = 0;
  /// Accepted for source compatibility and otherwise ignored: every
  /// value plans alike, because every sublist run walks the record slab
  /// and only the serial walk reads the list arrays
  /// (RunStats::kernel_tier reports which one ran).
  KernelTier tier = KernelTier::kAuto;
  /// Cursors in flight per worker in the host kernel's hot phases. 0 =
  /// let the Planner pick by the run's footprint (analysis/tuner.hpp
  /// plan_host); 1..64 pins the width.
  unsigned interleave = 0;
  /// Seed of the per-run RNG reseeding (results are deterministic in it).
  std::uint64_t seed = kDefaultSeed;
  vm::MachineConfig machine;           ///< sim backend configuration
  ReidMillerOptions reid_miller;       ///< sim backend algorithm knobs
  AndersonMillerOptions anderson_miller;  ///< sim backend baseline knobs
  /// Run the O(n) structural validator on every input first; malformed
  /// lists yield StatusCode::kInvalidInput instead of undefined behaviour.
  /// The sim backend validates every input whatever this says.
  bool validate_input = false;
  /// Check every answer against the serial reference; mismatches yield
  /// StatusCode::kWrongAnswer. Costs one serial pass per run.
  bool verify_output = false;
  /// Ignored (see ShardOptions).
  ShardOptions shard;
};

// -- planner ----------------------------------------------------------------

/// Resolves Method::kAuto and picks the sublist count per backend.
///
/// Sim backend: chooses the cheapest of serial / Wyllie / Reid-Miller by
/// the paper's cost model -- the serial scalar line, a Wyllie estimate
/// built from the machine's vector costs (2 gathers + 1 combine per round
/// plus a barrier), and the tuner's Eq. 3 + Phase-2 minimum -- rather than
/// fixed size thresholds. Also reports the tuned m and S_1 so the
/// algorithm skips re-tuning.
///
/// Host backend: takes the whole execution shape from analysis/tuner
/// plan_host, the one host planning path: threads shed to a per-thread
/// break-even (the paper's Section 5 processor dimension), W stepped by
/// the run's footprint (its Section 3 vector length) and m from its
/// Section 4.4 scaling, m ~ sqrt(n ln n), unless EngineOptions pins a
/// knob. kAuto runs the sublist kernel on two or more threads, or on one
/// once the list outgrows L2; an explicit kReidMiller always does.
class Planner {
 public:
  /// Builds a planner for the given engine configuration.
  explicit Planner(const EngineOptions& opt);

  /// The planner's answer: resolved method plus tuned execution shape.
  struct Decision {
    Method method = Method::kSerial;  ///< resolved algorithm (never kAuto)
    /// m: the tuned Reid-Miller m (sim), or the host kernel's total
    /// sublist count (host_sublists).
    double sublists = 0.0;
    double s1 = 0.0;        ///< first balance interval (sim Reid-Miller)
    unsigned threads = 1;   ///< host worker threads (host backend only)
    /// Host cursor width W (cursors in flight per worker) of a
    /// reid-miller plan, from the host tune or the pinned
    /// EngineOptions::interleave; 0 on serial plans.
    unsigned interleave = 0;
    double predicted_cycles = 0.0;  ///< sim cost-model estimate; 0 if n/a
    /// Always 0: no run is split into shards. Kept because
    /// perfbench/out_of_core.cpp reads it (see shard/sharded.hpp).
    unsigned shard_count = 0;
  };

  /// Plans one run of length n. `requested` != kAuto is honoured verbatim
  /// (the backend may still reject it as unsupported). `op` feeds the
  /// operator's combine cost (op_cost_factor) into the model, so kAuto
  /// crossovers shift for the more expensive packed operators; ranking
  /// always plans as ScanOp::kPlus.
  Decision decide(std::size_t n, Method requested, bool rank,
                  ScanOp op = ScanOp::kPlus) const;

  /// Cost-model estimate behind the sim decision: cycles of the serial
  /// walk on the configured processor count (exposed for tests/benches).
  /// `op` scales the per-element terms by its combine cost.
  double serial_cycles(std::size_t n, bool rank,
                       ScanOp op = ScanOp::kPlus) const;
  /// Cost-model estimate of Wyllie pointer jumping (see serial_cycles).
  double wyllie_cycles(std::size_t n, bool rank,
                       ScanOp op = ScanOp::kPlus) const;
  /// Cost-model estimate of the Reid-Miller algorithm (see serial_cycles).
  double reid_miller_cycles(std::size_t n, bool rank,
                            ScanOp op = ScanOp::kPlus) const;

 private:
  TuneResult tuned(double n, bool rank_kernels, double op_factor) const;

  BackendKind backend_;
  unsigned processors_;
  HostPins pins_;     ///< caller-pinned host knobs (0 = auto)
  double pinned_m_;   ///< caller-pinned reid_miller.m (<= 0 = auto)
  double pinned_s1_;  ///< caller-pinned reid_miller.s1 (<= 0 = auto)
  double contention_;
  double sync_cycles_;
  vm::CostTable table_;
  /// tune() results memoized per (n, kernel family, operator cost factor).
  /// The memo is guarded by its own mutex so decide() is safe to call
  /// concurrently (the rest of the Planner is immutable after
  /// construction); it lives behind a unique_ptr to keep the Planner --
  /// and the Engine holding it -- movable.
  struct TuneMemo {
    /// One memo key: (n, rank-kernel family, op_cost_factor).
    using Key = std::tuple<double, bool, double>;
    std::mutex mu;                        ///< guards the cache
    std::map<Key, TuneResult> cache;      ///< per (n, family, op factor)
  };
  std::unique_ptr<TuneMemo> memo_;
};

// -- backend interface ------------------------------------------------------

/// What an Engine drives: one execution substrate behind a uniform
/// interface (SerialBackend / SimBackend / HostBackend in engine.cpp).
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;  ///< backends own their machines
  /// Which substrate this is.
  virtual BackendKind kind() const = 0;
  /// Executes the planned request into `result` (scan already sized).
  virtual Status execute(const Request& req, const Planner::Decision& plan,
                         Workspace& ws, RunResult& result) = 0;
  /// The simulated machine of the last run (sim backend only; null
  /// otherwise). Valid until the next execute().
  virtual const vm::Machine* machine() const { return nullptr; }
};

// -- engine -----------------------------------------------------------------

/// The unified entry point: one facade over the serial / simulated-C90 /
/// multi-threaded host execution paths. Confined to one thread at a time
/// (the Workspace and backend scratch are unsynchronized); for concurrent
/// traffic, pool engines behind an EngineServer (serve/server.hpp).
class Engine {
 public:
  /// Builds the backend, planner, and workspace for `opt`.
  explicit Engine(EngineOptions opt = {});
  ~Engine();  ///< releases the backend and all workspace memory
  Engine(Engine&&) noexcept;             ///< engines are movable...
  Engine& operator=(Engine&&) noexcept;  ///< ...but not copyable

  /// Exclusive list rank (number of predecessors per vertex).
  RunResult rank(const LinkedList& list, Method method = Method::kAuto);
  /// Exclusive list scan under `op`.
  RunResult scan(const LinkedList& list, ScanOp op = ScanOp::kPlus,
                 Method method = Method::kAuto);
  /// Runs one unified request.
  RunResult run(const Request& req);
  /// Runs a batch front to back on this engine's workspace, one run() per
  /// request; one result per request (failures are per-request, the batch
  /// never aborts).
  std::vector<RunResult> run_batch(std::span<const Request> requests);

  /// The options this engine was built with.
  const EngineOptions& options() const { return opt_; }
  /// The planner resolving Method::kAuto for this engine.
  const Planner& planner() const { return planner_; }
  /// This engine's reusable scratch memory.
  Workspace& workspace() { return ws_; }
  /// Read-only view of the scratch memory (for allocation counters).
  const Workspace& workspace() const { return ws_; }
  /// Simulated machine of the last run (sim backend only; null otherwise).
  /// For post-run introspection, e.g. per-kernel cycle breakdowns.
  const vm::Machine* sim_machine() const { return backend_->machine(); }

 private:
  EngineOptions opt_;
  Planner planner_;
  std::unique_ptr<ExecutionBackend> backend_;
  Workspace ws_;
};

}  // namespace lr90
