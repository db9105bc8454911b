#include "serve/server.hpp"

#include <algorithm>
#include <utility>

#include "lists/validate.hpp"
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

/// The typed answer of a job the serving layer did not run.
RunResult unrun_result(const ServerOptions& opt, Status status) {
  RunResult r;
  r.backend = opt.engine.backend;
  r.status = std::move(status);
  return r;
}

/// The completion callback behind a future-returning submit: it fulfils
/// the promise whose future it stores in `future`.
std::function<void(RunResult&&)> fulfil(std::future<RunResult>& future) {
  auto promise = std::make_shared<std::promise<RunResult>>();
  future = promise->get_future();
  return [promise](RunResult&& r) { promise->set_value(std::move(r)); };
}

}  // namespace

EngineServer::EngineServer(ServerOptions opt)
    : opt_([&] {
        opt.workers = resolve_workers(opt.workers);
        // Inter-request parallelism comes from the worker pool; an
        // all-cores default per pooled engine would oversubscribe the
        // machine workers^2-fold (see ServerOptions::engine).
        if (opt.engine.backend == BackendKind::kHost &&
            opt.engine.threads == 0) {
          opt.engine.threads = 1;
        }
        return opt;
      }()),
      queue_(opt_.queue_capacity),
      // The server validates each list once, where it enters (check_list),
      // so its pooled engines never re-check an immutable snapshot.
      pool_([&] {
        EngineOptions engine = opt_.engine;
        engine.validate_input = false;
        return engine;
      }(), opt_.workers),
      result_cache_(opt_.result_cache_bytes) {
  threads_.reserve(opt_.workers);
  for (unsigned i = 0; i < opt_.workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

EngineServer::~EngineServer() { shutdown(); }

void EngineServer::count(std::uint64_t ServerStats::* field,
                         std::uint64_t by) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.*field += by;
}

Status EngineServer::check_list(const LinkedList& list) const {
  if (opt_.engine.validate_input) {
    if (const auto err = validate_list(list))
      return Status::invalid("invalid linked list: " + *err);
  }
  return Status::success();
}

std::future<RunResult> EngineServer::submit(Request req) {
  std::future<RunResult> future;
  submit(std::move(req), fulfil(future));
  return future;
}

void EngineServer::submit(Request req,
                          std::function<void(RunResult&&)> done) {
  Job job;
  job.req = std::move(req);
  job.done = std::move(done);
  enqueue(std::move(job));
}

// -- snapshot-addressed serving ---------------------------------------------

Status EngineServer::register_snapshot(LinkedList list, SnapshotHandle& out) {
  Status s = check_list(list);
  if (s.ok()) out = registry_.register_snapshot(std::move(list));
  return s;
}

Status EngineServer::update_snapshot(std::uint64_t id, LinkedList list,
                                     SnapshotHandle& out) {
  if (Status s = check_list(list); !s.ok()) return s;
  if (!registry_.update(id, std::move(list), out))
    return Status::invalid("unknown snapshot id");
  count(&ServerStats::snapshot_updates);
  // Reclaim space AFTER the registry change: the generation bump (or the
  // drop) alone already made every old key unreachable, so a racing
  // worker re-inserting an old-generation result merely wastes bytes
  // until LRU'd.
  result_cache_.invalidate(id);
  return Status::success();
}

bool EngineServer::drop_snapshot(std::uint64_t id) {
  const bool known = registry_.drop(id);
  if (known) result_cache_.invalidate(id);  // after the drop, as above
  return known;
}

std::future<RunResult> EngineServer::submit(const SnapshotRequest& req) {
  std::future<RunResult> future;
  submit(req, fulfil(future));
  return future;
}

void EngineServer::submit(const SnapshotRequest& req,
                          std::function<void(RunResult&&)> done) {
  // Shutdown answers first, as for every other submit: the registry and
  // the result memo below would otherwise keep answering after it began.
  if (queue_.closed()) {
    count(&ServerStats::rejected);
    done(unrun_result(opt_, Status::unavailable("server is shut down")));
    return;
  }

  Job job;
  SnapshotHandle current;
  const SnapshotRegistry::Resolve found =
      registry_.resolve(req.snapshot_id, req.generation, job.pinned, current);
  if (found == SnapshotRegistry::Resolve::kUnknown) {
    count(&ServerStats::rejected);
    done(unrun_result(opt_, Status::invalid("unknown snapshot id")));
    return;
  }
  if (found == SnapshotRegistry::Resolve::kStale) {
    count(&ServerStats::stale_rejections);
    RunResult r = unrun_result(
        opt_, Status::stale_generation("snapshot generation superseded"));
    r.stats.snapshot_generation = current.generation;  // retarget hint
    done(std::move(r));
    return;
  }

  // Memoized hot keys are answered inline, without ever touching the
  // queue or an engine: the steady state's "zero ranks".
  const CacheKey result_key{req.snapshot_id, current.generation,
                            request_flavor(req.rank, req.op, req.method)};
  std::shared_ptr<const RunResult> memo;
  if (result_cache_.lookup(result_key, memo)) {
    done(RunResult(*memo));
    return;
  }

  job.done = std::move(done);
  job.snapshot_id = req.snapshot_id;
  job.snapshot_generation = current.generation;
  job.req.list = job.pinned.get();
  job.req.rank = req.rank;
  job.req.op = req.op;
  job.req.method = req.method;
  job.req.deadline_ms = req.deadline_ms;
  enqueue(std::move(job));
}

void EngineServer::finish_snapshot_run(const Job& job, RunResult& r) {
  const Request& req = job.req;
  r.stats.snapshot_generation = job.snapshot_generation;
  if (!r.ok()) return;
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

void EngineServer::enqueue(Job job) {
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
    count(&ServerStats::rejected);
    job.done(unrun_result(opt_, Status::unavailable(
        queue_.closed() ? "server is shut down" : "request queue full")));
    return;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.submitted;
  ++(rank ? stats_.rank_requests : stats_.scan_requests);
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
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.deadline_expired;
        ++stats_.completed;
      }
      job.done(unrun_result(
          opt_, Status::deadline_exceeded("deadline expired in queue")));
      continue;
    }

    WorkspacePool::Lease lease = pool_.acquire();
    RunResult r;
    try {
      // A caller-owned list is checked here, once; a snapshot was checked
      // when it was registered or updated.
      Status checked;
      if (job.snapshot_id == 0 && job.req.list != nullptr)
        checked = check_list(*job.req.list);
      r = checked.ok() ? lease->run(job.req)
                       : unrun_result(opt_, std::move(checked));
      // Snapshot jobs stamp the generation and feed the memo.
      if (job.snapshot_id != 0) finish_snapshot_run(job, r);
    } catch (...) {
      // run() only throws on resource exhaustion (e.g. bad_alloc): every
      // caller gets the typed kUnavailable instead.
      r = unrun_result(opt_, Status::unavailable("engine run threw"));
    }

    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.batches;
      ++stats_.completed;
      // workers x the intra-request peak is the machine parallelism
      // actually used.
      stats_.intra_threads_peak =
          std::max<std::uint64_t>(stats_.intra_threads_peak,
                                  r.stats.host_threads);
      // Which hop source actually ran (kAuto = the host kernels never
      // ran: empty lists, non-host backends).
      if (r.stats.kernel_tier == KernelTier::kListArrays)
        ++stats_.tier_list_arrays_runs;
      if (r.stats.kernel_tier == KernelTier::kPackedCursors)
        ++stats_.tier_packed_runs;
      if (r.stats.shard_count > 0) ++stats_.sharded_runs;
    }
    job.done(std::move(r));
  }
}

void EngineServer::join_workers(bool drain) {
  queue_.close();
  if (!drain) {
    for (Job& job : queue_.drain_now()) {
      count(&ServerStats::rejected);
      job.done(
          unrun_result(opt_, Status::unavailable("server is shutting down")));
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
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = {};
  }
  queue_.reset_size_hwm();
  pool_.reset_stats();
  // Cumulative memo counters restart; the memo itself stays warm (the
  // resident gauges keep tracking the retained entries).
  result_cache_.reset_counters();
}

ServerStats EngineServer::stats() const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
  }
  s.queue_depth_hwm = queue_.size_hwm();
  s.pool = pool_.stats();
  const CacheStats result = result_cache_.stats();
  s.result_hits = result.hits;
  s.result_misses = result.misses;
  s.result_evictions = result.evictions;
  s.cache_resident_bytes = result.resident_bytes;
  s.cache_resident_entries = result.resident_entries;
  s.snapshots_live = registry_.size();
  return s;
}

}  // namespace lr90::serve
