#include "serve/server.hpp"

#include <utility>

#include "lists/validate.hpp"
#include "shard/shard_file.hpp"
#include "support/faultpoint.hpp"

namespace lr90::serve {

namespace {

// Stalls a worker between popping a job and running it: the chaos
// harness's deterministic way to make queued jobs outlive their deadline
// (a slow engine run is timing-dependent; a fault-site sleep is not).
fault::FaultSite f_batch_stall{"serve.batch.stall",
                               "worker stalls 50ms before running a job"};

/// Number of workers actually started for a requested count.
unsigned resolve_workers(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// A result that never ran: the typed rejection the serving layer returns.
RunResult rejected_result(const ServerOptions& opt, const char* why) {
  RunResult r;
  r.backend = opt.engine.backend;
  r.status = Status::unavailable(why);
  return r;
}

}  // namespace

EngineServer::EngineServer(ServerOptions opt)
    : opt_([&] {
        opt.workers = resolve_workers(opt.workers);
        // Inter-request parallelism comes from the worker pool; an OpenMP
        // all-cores default per pooled engine would oversubscribe the
        // machine workers^2-fold (see ServerOptions::engine).
        if (opt.engine.backend == BackendKind::kHost &&
            opt.engine.threads == 0) {
          opt.engine.threads = 1;
        }
        return opt;
      }()),
      queue_(opt_.queue_capacity),
      pool_(opt_.engine, opt_.workers),
      slab_cache_(opt_.slab_cache_bytes),
      result_cache_(opt_.result_cache_bytes) {
  threads_.reserve(opt_.workers);
  for (unsigned i = 0; i < opt_.workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

EngineServer::~EngineServer() { shutdown(); }

std::future<RunResult> EngineServer::submit(const RankRequest& req) {
  return submit(Request(req));
}

std::future<RunResult> EngineServer::submit(const ScanRequest& req) {
  return submit(Request(req));
}

std::future<RunResult> EngineServer::submit(Request req) {
  Job job;
  job.req = req;
  return submit_job(std::move(job), /*has_future=*/true);
}

void EngineServer::submit(Request req,
                          std::function<void(RunResult&&)> done) {
  Job job;
  job.req = req;
  job.done = std::move(done);
  submit_job(std::move(job), /*has_future=*/false);
}

// -- snapshot-addressed serving ---------------------------------------------

Status EngineServer::register_snapshot(LinkedList list, SnapshotHandle& out) {
  if (opt_.engine.validate_input) {
    if (const auto err = validate_list(list))
      return Status::invalid("invalid linked list: " + *err);
  }
  out = registry_.register_snapshot(std::move(list));
  return Status::success();
}

Status EngineServer::update_snapshot(std::uint64_t id, LinkedList list,
                                     SnapshotHandle& out) {
  if (opt_.engine.validate_input) {
    if (const auto err = validate_list(list))
      return Status::invalid("invalid linked list: " + *err);
  }
  if (!registry_.update(id, std::move(list), out))
    return Status::invalid("unknown snapshot id");
  snapshot_updates_.fetch_add(1, std::memory_order_relaxed);
  // Reclaim space AFTER the generation bump: the bump alone already made
  // every old-generation key unreachable, so a racing worker re-inserting
  // an old-generation artifact merely wastes bytes until LRU'd.
  slab_cache_.invalidate(id);
  result_cache_.invalidate(id);
  // Same lifecycle for pinned shard spill files: the generation-stamped
  // directory name already keeps new runs off the stale bytes, so this is
  // a disk reclaim. An in-flight old-generation run that loses the race
  // keeps its already-mapped shards (POSIX unlink semantics) and at worst
  // resolves a not-yet-mapped shard to a typed kUnavailable.
  if (!opt_.shard_spill_root.empty()) {
    // ENOENT is the normal "already reclaimed" answer; anything else is
    // leaked spill space, surfaced as a counter an operator can alarm on.
    shard::ReclaimStats rs;
    shard::drop_snapshot_spill_dirs(opt_.shard_spill_root, id, &rs);
    if (rs.failed > 0)
      spill_reclaim_failures_.fetch_add(rs.failed,
                                        std::memory_order_relaxed);
  }
  return Status::success();
}

bool EngineServer::drop_snapshot(std::uint64_t id) {
  const bool known = registry_.drop(id);
  if (known) {
    slab_cache_.invalidate(id);
    result_cache_.invalidate(id);
    if (!opt_.shard_spill_root.empty()) {
      shard::ReclaimStats rs;
      shard::drop_snapshot_spill_dirs(opt_.shard_spill_root, id, &rs);
      if (rs.failed > 0)
        spill_reclaim_failures_.fetch_add(rs.failed,
                                          std::memory_order_relaxed);
    }
  }
  return known;
}

std::future<RunResult> EngineServer::submit(const SnapshotRequest& req) {
  return submit_snapshot(req, nullptr, /*has_future=*/true);
}

void EngineServer::submit(const SnapshotRequest& req,
                          std::function<void(RunResult&&)> done) {
  submit_snapshot(req, std::move(done), /*has_future=*/false);
}

std::future<RunResult> EngineServer::submit_snapshot(
    const SnapshotRequest& req, std::function<void(RunResult&&)> done,
    bool has_future) {
  Job job;
  job.done = std::move(done);
  std::future<RunResult> future;
  if (has_future) future = job.result.get_future();

  // Shutdown answers first, as for every other submit: the registry and
  // the result memo below would otherwise keep answering after it began.
  if (queue_.closed()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    job.fulfill(rejected_result(opt_, "server is shut down"));
    return future;
  }

  SnapshotHandle current;
  const SnapshotRegistry::Resolve found =
      registry_.resolve(req.snapshot_id, req.generation, job.pinned, current);
  if (found == SnapshotRegistry::Resolve::kUnknown) {
    RunResult r;
    r.backend = opt_.engine.backend;
    r.status = Status::invalid("unknown snapshot id");
    job.fulfill(std::move(r));
    return future;
  }
  if (found == SnapshotRegistry::Resolve::kStale) {
    stale_rejections_.fetch_add(1, std::memory_order_relaxed);
    RunResult r;
    r.backend = opt_.engine.backend;
    r.status = Status::stale_generation("snapshot generation superseded");
    r.stats.snapshot_generation = current.generation;  // retarget hint
    job.fulfill(std::move(r));
    return future;
  }

  // Memoized hot keys are answered inline, without ever touching the
  // queue or an engine: the steady state's "zero ranks".
  const CacheKey result_key{req.snapshot_id, current.generation,
                            request_flavor(req.rank, req.op, req.method)};
  std::shared_ptr<const RunResult> memo;
  if (result_cache_.lookup(result_key, memo)) {
    job.fulfill(RunResult(*memo));
    return future;
  }

  job.snapshot_id = req.snapshot_id;
  job.snapshot_generation = current.generation;
  job.req.list = job.pinned.get();
  job.req.rank = req.rank;
  job.req.op = req.op;
  job.req.method = req.method;
  job.req.deadline_ms = req.deadline_ms;
  // Pin the generation-stamped spill directory: a sharded run keeps its
  // shard files there, so repeat runs against the same generation reuse
  // them (header-validated) instead of rewriting the whole list.
  if (!opt_.shard_spill_root.empty()) {
    job.req.shard_spill_dir = shard::snapshot_spill_dir(
        opt_.shard_spill_root, req.snapshot_id, current.generation);
  }
  // Ride a cached slab when one exists for this generation; ranking packs
  // the constant 1 and lane-capable scans pack their values, so the two
  // slab flavors cover every packed-capable shape.
  if (req.rank || scan_op_lane32(req.op)) {
    const CacheKey slab_key{
        req.snapshot_id, current.generation,
        req.rank ? kSlabFlavorOnes : kSlabFlavorValues};
    std::shared_ptr<const PackedSlab> slab;
    if (slab_cache_.lookup(slab_key, slab)) job.req.slab = std::move(slab);
  }
  // The future (if any) is already retrieved above -- the promise travels
  // with the job and keeps feeding it, so submit_job must not re-retrieve.
  submit_job(std::move(job), /*has_future=*/false);
  return future;
}

void EngineServer::finish_snapshot_run(const Job& job, RunResult& r,
                                       Engine& engine) {
  const Request& req = job.req;
  r.stats.snapshot_generation = job.snapshot_generation;
  if (!r.ok()) return;
  // Export a freshly built slab for every other worker, so a hot key
  // exports once per generation. Only an unsharded run that built its own
  // slab exports: a run on a cached slab has nothing new, and a sharded
  // run packs per-shard scratch, leaving the workspace slab of whatever
  // list packed there last.
  if (r.stats.host_packed && !r.stats.host_packed_cached &&
      r.stats.shard_count == 0) {
    auto slab = engine.workspace().export_packed_slab(req.rank);
    const std::size_t bytes = slab->bytes();
    slab_cache_.insert(
        CacheKey{job.snapshot_id, job.snapshot_generation,
                 req.rank ? kSlabFlavorOnes : kSlabFlavorValues},
        std::move(slab), bytes);
  }
  // Memoize the full result for the next identical request. Keyed on the
  // generation the run used, so a result inserted after a concurrent
  // update() is simply unreachable -- never stale-served.
  auto memo = std::make_shared<const RunResult>(r);
  const std::size_t bytes = result_bytes(*memo);
  result_cache_.insert(
      CacheKey{job.snapshot_id, job.snapshot_generation,
               request_flavor(req.rank, req.op, req.method)},
      std::move(memo), bytes);
}

std::future<RunResult> EngineServer::submit_job(Job job, bool has_future) {
  std::future<RunResult> future;
  if (has_future) future = job.result.get_future();
  const bool rank = job.req.rank;
  // Stamp the absolute expiry now: queueing time counts against the
  // client's budget (that is the point of a deadline under congestion).
  if (job.req.deadline_ms > 0) {
    job.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(job.req.deadline_ms);
  }
  const bool accepted =
      opt_.reject_when_full ? queue_.try_push(job) : queue_.push(job);
  if (!accepted) {
    // The job was never enqueued, so the answer is still ours to give.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    job.fulfill(rejected_result(
        opt_, queue_.closed() ? "server is shut down" : "request queue full"));
    return future;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  (rank ? rank_requests_ : scan_requests_)
      .fetch_add(1, std::memory_order_relaxed);
  return future;
}

void EngineServer::worker_loop() {
  while (true) {
    Job job;  // one per iteration: its pinned list and callback go with it
    if (!queue_.pop(job)) break;  // closed and drained

    if (f_batch_stall.fire())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // A job whose deadline passed while it queued is answered
    // kDeadlineExceeded without running -- under overload this sheds
    // exactly the work whose answer nobody is waiting for anymore.
    if (job.deadline < std::chrono::steady_clock::now()) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      RunResult r;
      r.backend = opt_.engine.backend;
      r.status = Status::deadline_exceeded("deadline expired in queue");
      job.fulfill(std::move(r));
      completed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    WorkspacePool::Lease lease = pool_.acquire();
    bool answered = false;
    try {
      RunResult r = lease->run(job.req);
      // Track the intra-request thread peak: workers x this is the
      // machine parallelism actually used.
      std::uint64_t peak = intra_threads_peak_.load(std::memory_order_relaxed);
      while (r.stats.host_threads > peak &&
             !intra_threads_peak_.compare_exchange_weak(
                 peak, r.stats.host_threads, std::memory_order_relaxed)) {
      }
      // Which hop source actually ran (kAuto = the host kernels never
      // ran: empty lists, non-host backends).
      switch (r.stats.kernel_tier) {
        case KernelTier::kListArrays:
          tier_list_arrays_runs_.fetch_add(1, std::memory_order_relaxed);
          break;
        case KernelTier::kPackedCursors:
          tier_packed_runs_.fetch_add(1, std::memory_order_relaxed);
          break;
        case KernelTier::kAuto:
          break;
      }
      if (r.stats.shard_count > 0) {
        sharded_runs_.fetch_add(1, std::memory_order_relaxed);
        shard_spills_.fetch_add(r.stats.shard_spills,
                                std::memory_order_relaxed);
        shard_prefetch_hits_.fetch_add(r.stats.shard_prefetch_hits,
                                       std::memory_order_relaxed);
        shard_corrupt_slabs_.fetch_add(r.stats.shard_corrupt_slabs,
                                       std::memory_order_relaxed);
        shard_repacks_.fetch_add(r.stats.shard_repacks,
                                 std::memory_order_relaxed);
        shard_degraded_.fetch_add(r.stats.shard_degraded,
                                  std::memory_order_relaxed);
      }
      // Snapshot jobs stamp the generation and feed the caches first.
      if (job.snapshot_id != 0) finish_snapshot_run(job, r, *lease);
      answered = true;
      job.fulfill(std::move(r));
    } catch (...) {
      // run() only throws on resource exhaustion (e.g. bad_alloc). A
      // future job propagates the exception; a callback job (which has no
      // promise to carry it) gets a typed kUnavailable result instead.
      if (!answered) {
        if (job.done) {
          job.fulfill(rejected_result(opt_, "engine run threw"));
        } else {
          job.result.set_exception(std::current_exception());
        }
      }
    }

    batches_.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void EngineServer::join_workers(bool drain) {
  queue_.close();
  if (!drain) {
    for (Job& job : queue_.drain_now()) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      job.fulfill(rejected_result(opt_, "server is shutting down"));
    }
  }
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (joined_) return;
  joined_ = true;
  for (std::thread& t : threads_) t.join();
}

void EngineServer::shutdown() { join_workers(/*drain=*/true); }

void EngineServer::shutdown_now() { join_workers(/*drain=*/false); }

void EngineServer::reset_stats() {
  submitted_.store(0, std::memory_order_relaxed);
  rejected_.store(0, std::memory_order_relaxed);
  completed_.store(0, std::memory_order_relaxed);
  batches_.store(0, std::memory_order_relaxed);
  intra_threads_peak_.store(0, std::memory_order_relaxed);
  tier_list_arrays_runs_.store(0, std::memory_order_relaxed);
  tier_packed_runs_.store(0, std::memory_order_relaxed);
  rank_requests_.store(0, std::memory_order_relaxed);
  scan_requests_.store(0, std::memory_order_relaxed);
  snapshot_updates_.store(0, std::memory_order_relaxed);
  stale_rejections_.store(0, std::memory_order_relaxed);
  sharded_runs_.store(0, std::memory_order_relaxed);
  shard_spills_.store(0, std::memory_order_relaxed);
  shard_prefetch_hits_.store(0, std::memory_order_relaxed);
  shard_corrupt_slabs_.store(0, std::memory_order_relaxed);
  shard_repacks_.store(0, std::memory_order_relaxed);
  shard_degraded_.store(0, std::memory_order_relaxed);
  spill_reclaim_failures_.store(0, std::memory_order_relaxed);
  deadline_expired_.store(0, std::memory_order_relaxed);
  queue_.reset_size_hwm();
  pool_.reset_stats();
  // Cumulative cache counters restart; the caches themselves stay warm
  // (the resident gauges keep tracking the retained entries).
  slab_cache_.reset_counters();
  result_cache_.reset_counters();
}

ServerStats EngineServer::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.intra_threads_peak =
      intra_threads_peak_.load(std::memory_order_relaxed);
  s.tier_list_arrays_runs =
      tier_list_arrays_runs_.load(std::memory_order_relaxed);
  s.tier_packed_runs = tier_packed_runs_.load(std::memory_order_relaxed);
  s.queue_depth_hwm = queue_.size_hwm();
  s.rank_requests = rank_requests_.load(std::memory_order_relaxed);
  s.scan_requests = scan_requests_.load(std::memory_order_relaxed);
  s.pool = pool_.stats();
  const CacheStats slab = slab_cache_.stats();
  const CacheStats result = result_cache_.stats();
  s.slab_hits = slab.hits;
  s.slab_misses = slab.misses;
  s.slab_evictions = slab.evictions;
  s.result_hits = result.hits;
  s.result_misses = result.misses;
  s.result_evictions = result.evictions;
  s.cache_resident_bytes = slab.resident_bytes + result.resident_bytes;
  s.cache_resident_entries =
      slab.resident_entries + result.resident_entries;
  s.snapshots_live = registry_.size();
  s.snapshot_updates = snapshot_updates_.load(std::memory_order_relaxed);
  s.stale_rejections = stale_rejections_.load(std::memory_order_relaxed);
  s.sharded_runs = sharded_runs_.load(std::memory_order_relaxed);
  s.shard_spills = shard_spills_.load(std::memory_order_relaxed);
  s.shard_prefetch_hits =
      shard_prefetch_hits_.load(std::memory_order_relaxed);
  s.shard_corrupt_slabs =
      shard_corrupt_slabs_.load(std::memory_order_relaxed);
  s.shard_repacks = shard_repacks_.load(std::memory_order_relaxed);
  s.shard_degraded = shard_degraded_.load(std::memory_order_relaxed);
  s.spill_reclaim_failures =
      spill_reclaim_failures_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace lr90::serve
