#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "analysis/cost_eqs.hpp"
#include "analysis/tuner.hpp"
#include "baselines/miller_reif.hpp"
#include "baselines/serial.hpp"
#include "baselines/wyllie.hpp"
#include "core/host_exec.hpp"
#include "lists/encode.hpp"
#include "lists/validate.hpp"
#include "shard/sharded.hpp"
#include "support/huge_pages.hpp"

namespace lr90 {

// -- names ------------------------------------------------------------------

const char* method_name(Method m) {
  switch (m) {
    case Method::kAuto: return "auto";
    case Method::kSerial: return "serial";
    case Method::kWyllie: return "wyllie";
    case Method::kMillerReif: return "miller-reif";
    case Method::kAndersonMiller: return "anderson-miller";
    case Method::kReidMiller: return "reid-miller";
    case Method::kReidMillerEncoded: return "reid-miller-encoded";
  }
  return "?";
}

const char* backend_name(BackendKind k) {
  switch (k) {
    case BackendKind::kSerial: return "serial";
    case BackendKind::kSim: return "sim";
    case BackendKind::kHost: return "host";
  }
  return "?";
}

const char* status_code_name(StatusCode c) {
  switch (c) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidInput: return "invalid-input";
    case StatusCode::kUnsupported: return "unsupported";
    case StatusCode::kWrongAnswer: return "wrong-answer";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kStaleGeneration: return "stale-generation";
    case StatusCode::kCorruptSlab: return "corrupt-slab";
    case StatusCode::kResourceExhausted: return "resource-exhausted";
    case StatusCode::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "?";
}

Status Status::invalid(std::string msg) {
  return Status{StatusCode::kInvalidInput, std::move(msg)};
}
Status Status::unsupported(std::string msg) {
  return Status{StatusCode::kUnsupported, std::move(msg)};
}
Status Status::wrong_answer(std::string msg) {
  return Status{StatusCode::kWrongAnswer, std::move(msg)};
}
Status Status::unavailable(std::string msg) {
  return Status{StatusCode::kUnavailable, std::move(msg)};
}
Status Status::stale_generation(std::string msg) {
  return Status{StatusCode::kStaleGeneration, std::move(msg)};
}
Status Status::resource_exhausted(std::string msg) {
  return Status{StatusCode::kResourceExhausted, std::move(msg)};
}
Status Status::deadline_exceeded(std::string msg) {
  return Status{StatusCode::kDeadlineExceeded, std::move(msg)};
}

// -- planner ----------------------------------------------------------------

Planner::Planner(const EngineOptions& opt)
    : backend_(opt.backend),
      processors_(std::max(1u, opt.processors)),
      pins_{.threads = opt.threads, .interleave = opt.interleave},
      shard_(opt.shard),
      pinned_m_(opt.reid_miller.m),
      pinned_s1_(opt.reid_miller.s1),
      sync_cycles_(opt.machine.sync_cycles),
      table_(vm::CostTable::cray_c90()),
      memo_(std::make_unique<TuneMemo>()) {
  vm::MachineConfig cfg = opt.machine;
  cfg.processors = processors_;
  contention_ = cfg.contention_factor();
}

TuneResult Planner::tuned(double n, bool rank_kernels,
                          double op_factor) const {
  const TuneMemo::Key key{n, rank_kernels, op_factor};
  {
    std::lock_guard<std::mutex> lock(memo_->mu);
    auto it = memo_->cache.find(key);
    if (it != memo_->cache.end()) return it->second;
  }
  // Tune outside the lock: tune() is pure and can take milliseconds, so
  // concurrent first-misses may duplicate work but never serialize on it.
  const CostConstants k =
      CostConstants::from(table_, rank_kernels).with_combine_factor(op_factor);
  const TuneResult r = tune(n, k, processors_, contention_);
  std::lock_guard<std::mutex> lock(memo_->mu);
  memo_->cache.emplace(key, r);
  return r;
}

double Planner::serial_cycles(std::size_t n, bool rank, ScanOp op) const {
  const double per_vertex =
      (rank ? table_.serial_rank_per_vertex : table_.serial_scan_per_vertex) *
      op_cost_factor(op);
  return per_vertex * static_cast<double>(n) + table_.serial_startup;
}

double Planner::wyllie_cycles(std::size_t n, bool /*rank*/, ScanOp op) const {
  // Mirrors the charges of wyllie_scan: per round, every processor issues
  // two gathers and one combine over its n/p chunk, then a barrier; setup
  // is one scatter + one gather chunked over processors plus one full-array
  // copy on processor 0. The operator's cost scales the combine only.
  const double nd = static_cast<double>(n);
  const double p = static_cast<double>(processors_);
  const double rounds = detail::wyllie_rounds(n);
  const double per_round =
      (2.0 * table_.gather.per_elem * contention_ +
       table_.map2.per_elem * op_cost_factor(op)) *
          nd / p +
      2.0 * table_.gather.startup + table_.map2.startup + sync_cycles_;
  const double setup =
      (table_.scatter.per_elem + table_.gather.per_elem) * contention_ * nd /
          p +
      table_.copy.per_elem * contention_ * nd + table_.scatter.startup +
      table_.gather.startup + table_.copy.startup + 2.0 * sync_cycles_;
  return rounds * per_round + setup;
}

double Planner::reid_miller_cycles(std::size_t n, bool /*rank*/,
                                   ScanOp op) const {
  // The unencoded rank path runs the scan kernels over all-ones values, so
  // both rank and scan plan with the scan-kernel constants. Roughly six
  // barriers frame the phases.
  if (n < 2) return serial_cycles(n, false, op);
  return tuned(static_cast<double>(n), /*rank_kernels=*/false,
               op_cost_factor(op))
             .cycles +
         6.0 * sync_cycles_;
}

Planner::Decision Planner::decide(std::size_t n, Method requested, bool rank,
                                  ScanOp op) const {
  Decision d;
  d.method = requested;
  if (rank) op = ScanOp::kPlus;  // ranking always combines by addition

  if (backend_ == BackendKind::kHost) {
    // Explicit kSerial/kWyllie requests are honoured unsharded.
    if (requested != Method::kAuto && requested != Method::kReidMiller)
      return d;
    // Sharding first: a pinned ShardOptions::shards, or enough shards
    // that two fit the resident byte budget, which then covers the mapped
    // shard (12 B a vertex) plus pass A's slab of it (8 B a vertex). Each
    // shard then runs the sublist kernel over its own slice, so the plan
    // is made for the shard width, not n.
    std::size_t width = n;
    std::size_t shards = shard_.shards;
    const std::size_t bytes = n * (sizeof(index_t) + sizeof(value_t));
    if (shards == 0 && shard_.byte_budget > 0 && bytes > shard_.byte_budget)
      shards = (2 * bytes + shard_.byte_budget - 1) / shard_.byte_budget;
    if (shards > 0 && n > 0) {
      d.shard_count = static_cast<unsigned>(
          std::min({shards, n, std::size_t{shard::kMaxShards}}));
      width = (n + d.shard_count - 1) / d.shard_count;
    }
    HostPins pins = pins_;
    pins.force_sublists =
        requested == Method::kReidMiller || d.shard_count > 0;
    const host_exec::HostPlan hp = plan_host(width, op, pins);
    if (!pins.force_sublists && hp.sublists < 2) {
      d.method = Method::kSerial;
      return d;
    }
    d.method = Method::kReidMiller;
    d.threads = hp.threads;
    d.interleave = hp.interleave;
    d.sublists = static_cast<double>(hp.sublists);
    return d;
  }

  if (backend_ == BackendKind::kSerial) {
    if (requested == Method::kAuto) d.method = Method::kSerial;
    return d;
  }

  // Sim backend: pick the model's cheapest of serial / Wyllie / Reid-Miller
  // (the same three the legacy thresholds chose between), and carry the
  // tuned m and S_1 so the algorithm does not re-tune.
  if (requested == Method::kAuto) {
    if (n <= 8) {
      d.method = Method::kSerial;
      d.predicted_cycles = serial_cycles(n, rank, op);
      return d;
    }
    const double serial = serial_cycles(n, rank, op);
    const double wyllie = wyllie_cycles(n, rank, op);
    const double rm = reid_miller_cycles(n, rank, op);
    if (serial <= wyllie && serial <= rm) {
      d.method = Method::kSerial;
      d.predicted_cycles = serial;
    } else if (wyllie <= rm) {
      d.method = Method::kWyllie;
      d.predicted_cycles = wyllie;
    } else {
      d.method = Method::kReidMiller;
      d.predicted_cycles = rm;
    }
  }

  if ((d.method == Method::kReidMiller ||
       d.method == Method::kReidMillerEncoded) &&
      n >= 2) {
    if (pinned_m_ > 0 && pinned_s1_ > 0) {
      // Both knobs pinned by the caller: nothing left to tune.
      d.sublists = pinned_m_;
      d.s1 = pinned_s1_;
    } else {
      const TuneResult t = tuned(static_cast<double>(n),
                                 d.method == Method::kReidMillerEncoded,
                                 op_cost_factor(op));
      d.sublists = pinned_m_ > 0 ? pinned_m_ : t.m;
      d.s1 = pinned_s1_ > 0 ? pinned_s1_ : t.s1;
      if (d.predicted_cycles == 0.0)
        d.predicted_cycles = t.cycles + 6.0 * sync_cycles_;
    }
  }
  return d;
}

// -- backends ---------------------------------------------------------------

namespace {

/// The answer of a serial or host run whose walk met no self-loop tail.
Status no_tail() {
  return Status::invalid(
      "invalid linked list: the walk from the head meets no self-loop tail");
}

class SerialBackend final : public ExecutionBackend {
 public:
  BackendKind kind() const override { return BackendKind::kSerial; }

  Status execute(const Request& req, const Planner::Decision& plan,
                 Workspace& /*ws*/, RunResult& out) override {
    if (plan.method != Method::kSerial) {
      return Status::unsupported(
          std::string("the serial backend only runs method 'serial', not '") +
          method_name(plan.method) + "'");
    }
    const LinkedList& list = *req.list;
    bool tailed = false;
    if (req.rank) {
      tailed = serial_rank_host(list, out.scan);
    } else {
      with_scan_op(req.op, [&](auto op) {
        tailed = serial_scan_host(list, std::span<value_t>(out.scan), op);
      });
    }
    if (!tailed) return no_tail();
    out.stats.algo.rounds = list.empty() ? 0 : 1;
    out.stats.algo.link_steps = list.size();
    return Status::success();
  }
};

class HostBackend final : public ExecutionBackend {
 public:
  /// Keeps a copy of the sharding knobs: backends must not point into the
  /// (movable) Engine.
  explicit HostBackend(const EngineOptions& opt) : shard_opts_(opt.shard) {}

  BackendKind kind() const override { return BackendKind::kHost; }

  Status execute(const Request& req, const Planner::Decision& plan,
                 Workspace& ws, RunResult& out) override {
    const LinkedList* list = req.list;
    if (plan.method != Method::kSerial &&
        plan.method != Method::kReidMiller) {
      return Status::unsupported(
          std::string("the host backend runs 'serial' or 'reid-miller', "
                      "not '") +
          method_name(plan.method) + "'");
    }
    if (plan.shard_count > 0) return execute_sharded(req, plan, ws, out);

    // A serial plan is a sublist count below 2: the kernel walks the
    // list once.
    host_exec::HostPlan hp;
    if (plan.method == Method::kReidMiller) {
      hp.threads = plan.threads;
      hp.sublists = static_cast<std::size_t>(plan.sublists);
      hp.interleave = plan.interleave;
    }
    host_exec::ExecInfo info;
    if (req.rank) {
      // Ranks as the all-ones scan without a ones copy.
      info = host_exec::rank_into(*list, hp, ws,
                                  std::span<value_t>(out.scan));
    } else {
      with_scan_op(req.op, [&](auto op) {
        info = host_exec::scan_into(*list, op, hp, ws,
                                    std::span<value_t>(out.scan));
      });
    }

    if (info.no_tail) return no_tail();
    const std::size_t n = req.list->size();
    const bool sublists_ran = info.sublists > 0;
    out.stats.algo.rounds = n == 0 ? 0 : (sublists_ran ? 3 : 1);
    // Phase 1 chases every link once; phase 3 streams in array order.
    out.stats.algo.link_steps = n;
    // The record slab (n words for a rank, 2n for a scan) plus
    // O(sublists) arrays.
    out.stats.algo.extra_words =
        sublists_ran ? (req.rank ? n : 2 * n) +
                           4 * static_cast<std::uint64_t>(info.sublists)
                     : 0;
    out.stats.host_interleave = info.interleave;
    out.stats.host_threads = info.threads;
    out.stats.host_sublists = info.sublists;
    out.stats.kernel_tier = info.tier;
    out.stats.host_build_ns = info.build_ns;
    out.stats.host_phase1_ns = info.phase1_ns;
    out.stats.host_phase2_ns = info.phase2_ns;
    out.stats.host_phase3_ns = info.phase3_ns;
    out.stats.host_parallel_frac = info.parallel_frac();
    return Status::success();
  }

 private:
  /// Routes a shard-planned run through the two-level sharded executor
  /// (shard/sharded.cpp) and folds its counters into RunStats.
  Status execute_sharded(const Request& req, const Planner::Decision& plan,
                         Workspace& ws, RunResult& out) {
    shard::ShardExec exec;
    exec.shards = plan.shard_count;
    exec.threads = std::max(1u, plan.threads);
    exec.interleave = plan.interleave;
    exec.byte_budget = shard_opts_.byte_budget;
    if (!shard_opts_.spill_dir.empty())
      exec.spill_dir = shard::fresh_spill_dir(shard_opts_.spill_dir);
    shard::ShardRunStats ss;
    const Status st =
        shard::sharded_scan(*req.list, req.rank, req.op, exec, ws,
                            std::span<value_t>(out.scan), ss);
    // Fold the store's failure/recovery counters even when the run failed
    // -- a typed answer should still report what was seen.
    out.stats.shard_corrupt_slabs = ss.store.corrupt_slabs;
    out.stats.shard_degraded = ss.store.degraded;
    if (!st.ok()) return st;
    const std::size_t n = req.list->size();
    out.stats.algo.rounds = n == 0 ? 0 : 3;
    // Pass A chases every link once; pass C streams in array order.
    out.stats.algo.link_steps = n;
    // Per-run reduced-list arrays (~4 words per segment), the 4 B/vertex
    // segment-id array (n/2 words), and one shard's record slab (one or
    // two words per vertex) resident at a time.
    const std::uint64_t width =
        ss.shards > 0 ? (n + ss.shards - 1) / ss.shards : 0;
    out.stats.algo.extra_words =
        4 * ss.segments + n / 2 + (req.rank ? width : 2 * width);
    out.stats.host_threads = exec.threads;
    out.stats.host_interleave = ss.interleave;
    out.stats.kernel_tier =
        n == 0 ? KernelTier::kAuto : KernelTier::kPackedCursors;
    out.stats.shard_count = ss.shards;
    out.stats.shard_segments = ss.segments;
    out.stats.shard_loads = ss.store.loads;
    out.stats.shard_spills = ss.store.spills;
    out.stats.shard_spilled = ss.store.spilled;
    return st;
  }

  ShardOptions shard_opts_;  ///< copied from EngineOptions at construction
};

class SimBackend final : public ExecutionBackend {
 public:
  explicit SimBackend(const EngineOptions& opt)
      : opt_(opt), machine_(make_config(opt)) {}

  BackendKind kind() const override { return BackendKind::kSim; }
  const vm::Machine* machine() const override { return &machine_; }

  Status execute(const Request& req, const Planner::Decision& plan,
                 Workspace& ws, RunResult& out) override {
    machine_.reset();
    const LinkedList& input = *req.list;
    const std::size_t n = input.size();
    std::span<value_t> scan(out.scan);
    Rng& rng = ws.rng;
    AlgoStats& stats = out.stats.algo;

    // Carry the planner's tuned parameters, each only where the caller
    // left the knob on auto.
    ReidMillerOptions rm = opt_.reid_miller;
    if (rm.m <= 0 && plan.sublists > 0) rm.m = plan.sublists;
    if (rm.s1 <= 0 && plan.s1 > 0) rm.s1 = plan.s1;

    switch (plan.method) {
      case Method::kSerial:
        if (req.rank) {
          stats = serial_rank(machine_, 0, input, scan);
        } else {
          with_scan_op(req.op, [&](auto op) {
            stats = serial_scan(machine_, 0, input, scan, op);
          });
        }
        break;
      case Method::kWyllie:
        if (req.rank) {
          stats = wyllie_rank(machine_, input, scan);
        } else {
          with_scan_op(req.op, [&](auto op) {
            stats = wyllie_scan(machine_, input, scan, op);
          });
        }
        break;
      case Method::kMillerReif:
        if (req.rank) {
          stats = miller_reif_rank(machine_, input, scan, rng);
        } else {
          with_scan_op(req.op, [&](auto op) {
            stats = miller_reif_scan(machine_, input, scan, rng, op);
          });
        }
        break;
      case Method::kAndersonMiller:
        if (req.rank) {
          stats = anderson_miller_rank(machine_, input, scan, rng,
                                       opt_.anderson_miller);
        } else {
          with_scan_op(req.op, [&](auto op) {
            stats = anderson_miller_scan(machine_, input, scan, rng, op,
                                         opt_.anderson_miller);
          });
        }
        break;
      case Method::kReidMiller: {
        // The algorithm mutates (and restores) the list; run on the
        // workspace copy so the input stays const for the caller.
        LinkedList& copy = ws.fit_list(input);
        if (req.rank) {
          stats = reid_miller_rank(machine_, copy, scan, rng, rm);
        } else {
          with_scan_op(req.op, [&](auto op) {
            stats = reid_miller_scan(machine_, copy, scan, rng, op, rm);
          });
        }
        break;
      }
      case Method::kReidMillerEncoded: {
        if (!req.rank) {
          return Status::unsupported(
              "the encoded single-gather path supports ranking only");
        }
        LinkedList& ones = ws.fit_ones(input);
        if (!can_encode(ones)) {
          return Status::invalid(
              "list too long for the (link,value) 64-bit encoding");
        }
        std::vector<packed_t> packed = encode_list(ones);
        stats = reid_miller_rank_encoded(machine_, packed, input.head, scan,
                                         rng, rm);
        break;
      }
      case Method::kAuto:
        return Status::invalid("the planner never returns kAuto");
    }

    out.stats.has_sim = true;
    out.stats.sim_cycles = machine_.max_cycles();
    out.stats.sim_ns = machine_.elapsed_ns();
    out.stats.sim_ns_per_vertex =
        n > 0 ? out.stats.sim_ns / static_cast<double>(n) : 0.0;
    out.stats.ops = machine_.ops();
    return Status::success();
  }

 private:
  static vm::MachineConfig make_config(const EngineOptions& opt) {
    vm::MachineConfig cfg = opt.machine;
    cfg.processors = std::max(1u, opt.processors);
    return cfg;
  }

  EngineOptions opt_;
  vm::Machine machine_;
};

std::unique_ptr<ExecutionBackend> make_backend(const EngineOptions& opt) {
  switch (opt.backend) {
    case BackendKind::kSerial: return std::make_unique<SerialBackend>();
    case BackendKind::kSim: return std::make_unique<SimBackend>(opt);
    case BackendKind::kHost: return std::make_unique<HostBackend>(opt);
  }
  return std::make_unique<SerialBackend>();
}

/// Checks `got` against a serial reference computed into ws.verify.
Status verify_result(const Request& req, Workspace& ws,
                     std::span<const value_t> got) {
  const LinkedList& list = *req.list;
  ws.fit(ws.verify, list.size(), value_t{0});
  std::span<value_t> want(ws.verify);
  if (req.rank) {
    serial_rank_host(list, want);
  } else {
    with_scan_op(req.op, [&](auto op) { serial_scan_host(list, want, op); });
  }
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (got[v] != want[v]) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "wrong answer at vertex %zu: got %lld, want %lld", v,
                    static_cast<long long>(got[v]),
                    static_cast<long long>(want[v]));
      return Status::wrong_answer(buf);
    }
  }
  return Status::success();
}

}  // namespace

// -- engine -----------------------------------------------------------------

Engine::Engine(EngineOptions opt)
    : opt_(std::move(opt)), planner_(opt_), backend_(make_backend(opt_)) {}

Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

RunResult Engine::rank(const LinkedList& list, Method method) {
  RankRequest req;
  req.list = &list;
  req.method = method;
  return run(req);
}

RunResult Engine::scan(const LinkedList& list, ScanOp op, Method method) {
  ScanRequest req;
  req.list = &list;
  req.op = op;
  req.method = method;
  return run(req);
}

RunResult Engine::run(const Request& req) {
  RunResult result;
  result.backend = opt_.backend;
  if (req.list == nullptr) {
    result.status = Status::invalid("request carries no list");
    return result;
  }
  // The sim backend's algorithms assume a well-formed list (a tail-less
  // one can crash or spin them), so it validates every input; the check
  // costs host time only, not simulated cycles.
  if (opt_.validate_input || opt_.backend == BackendKind::kSim) {
    if (const auto err = validate_list(*req.list)) {
      result.status = Status::invalid("invalid linked list: " + *err);
      return result;
    }
  }

  const Planner::Decision plan =
      planner_.decide(req.list->size(), req.method, req.rank, req.op);
  result.method_used = plan.method;
  // A large answer's first touch is this assign: advised first, it
  // faults in 2 MiB pages.
  reserve_huge(result.scan, req.list->size());
  result.scan.assign(req.list->size(), 0);
  // Per-run determinism: results depend on the options' seed, never on
  // what ran on this engine before.
  ws_.rng = Rng(opt_.seed);
  const auto t0 = std::chrono::steady_clock::now();
  result.status = backend_->execute(req, plan, ws_, result);
  const auto t1 = std::chrono::steady_clock::now();
  result.stats.wall_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count();

  if (result.ok() && opt_.verify_output) {
    result.status = verify_result(req, ws_, result.scan);
  }
  return result;
}

std::vector<RunResult> Engine::run_batch(std::span<const Request> requests) {
  std::vector<RunResult> results;
  results.reserve(requests.size());
  for (const Request& req : requests) results.push_back(run(req));
  return results;
}

}  // namespace lr90
