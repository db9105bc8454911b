// lr90::EngineServer -- a thread-safe, multi-client serving layer over the
// Engine, turning the library's single-threaded facade into something that
// takes concurrent traffic.
//
//   EngineServer server({.engine = {.backend = BackendKind::kHost}});
//   std::future<RunResult> f = server.submit(RankRequest{&list});
//   RunResult r = f.get();              // typed Status, never throws: a
//                                       // rejection answers kUnavailable
//   server.shutdown();                  // graceful: drains, then joins
//
// Architecture (see docs/ARCHITECTURE.md):
//
//   clients --submit--> BoundedQueue --pop--> workers --> WorkspacePool
//      callback or future <---- one callback per job <-- Engine::run
//
//   * Each submit() enqueues a job (request + completion callback) onto a
//     bounded MPMC queue; back-pressure blocks producers when full (or
//     rejects with StatusCode::kUnavailable when reject_when_full is set).
//     The future-returning submits pass a callback that fulfils a promise.
//   * A fixed pool of worker threads pops one job at a time, runs it on an
//     Engine leased for that job, and answers it through its callback. A
//     caller-owned list is validated there, before its run; a snapshot
//     once, at register/update.
//   * Engines (and their warmed-up Workspaces) come from a WorkspacePool:
//     zero scratch allocations in steady state, observable via stats().
//   * shutdown() closes the queue, lets workers drain every queued job,
//     and joins; shutdown_now() fails queued-but-unstarted jobs with
//     kUnavailable instead. Submissions racing with either are answered
//     kUnavailable -- typed propagation, no exceptions, no deadlock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "serve/queue.hpp"
#include "serve/slab_cache.hpp"
#include "serve/snapshot.hpp"
#include "serve/workspace_pool.hpp"

namespace lr90::serve {

/// Configuration of an EngineServer.
struct ServerOptions {
  /// Per-worker engine configuration (backend, threads, verification...).
  /// A host-backend engine left at threads = 0 is resolved to threads = 1:
  /// a server gets its parallelism from the worker pool (one engine per
  /// worker), and the default of all-cores-per-engine would
  /// oversubscribe the machine workers^2-fold under load. Set threads
  /// explicitly for intra-request parallelism on top. validate_input is
  /// applied by the server, once per list where it enters (a caller's
  /// list on the worker before its run, a snapshot at register/update);
  /// the pooled engines never re-check.
  EngineOptions engine;
  /// Worker threads (each with its own pooled engine); 0 = one per
  /// hardware thread.
  unsigned workers = 0;
  /// Bounded request-queue capacity; a full queue back-pressures clients.
  std::size_t queue_capacity = 1024;
  /// When true, submit() on a full queue resolves immediately to
  /// StatusCode::kUnavailable instead of blocking for a slot.
  bool reject_when_full = false;
  /// Byte budget of the memoized-result cache (snapshot-addressed
  /// requests only). 0 disables result memoization.
  std::size_t result_cache_bytes = std::size_t{64} << 20;
};

/// A request addressed to a server-registered immutable snapshot
/// (EngineServer::register_snapshot) instead of a caller-owned list.
/// Pinning `generation` requests exactly that generation -- superseded
/// pins are rejected with StatusCode::kStaleGeneration carrying the
/// current generation in RunStats::snapshot_generation; generation 0
/// means "whatever is current". Snapshot requests are what the
/// cross-request result memo serves: hot keys in steady state do zero
/// engine runs.
struct SnapshotRequest {
  std::uint64_t snapshot_id = 0;  ///< handle from register_snapshot()
  std::uint64_t generation = 0;   ///< pinned generation; 0 = current
  bool rank = true;               ///< rank (true) or scan (false)
  ScanOp op = ScanOp::kPlus;      ///< the scan's operator; ignored for rank
  Method method = Method::kAuto;  ///< algorithm; kAuto = Planner's pick
  std::uint32_t deadline_ms = 0;  ///< relative deadline; 0 = none
};

/// Serving counters, monotonic since construction (or since the last
/// EngineServer::reset_stats()).
struct ServerStats {
  std::uint64_t submitted = 0;   ///< jobs accepted into the queue
  /// Refused unrun: queue full, shut down, drained by shutdown_now, or a
  /// snapshot request naming an unknown (never registered or dropped) id.
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;   ///< queued jobs a worker answered
  std::uint64_t batches = 0;     ///< jobs run on a leased engine
  /// Deepest request-queue backlog seen at any submit (BoundedQueue
  /// size_hwm): the congestion high-water behind capacity planning and
  /// the net layer's RETRY_AFTER hint.
  std::uint64_t queue_depth_hwm = 0;
  std::uint64_t rank_requests = 0;  ///< accepted jobs that were ranks
  std::uint64_t scan_requests = 0;  ///< accepted jobs that were scans
  /// Largest per-request host worker-thread count observed in any result
  /// (RunStats::host_threads): together with `workers()` this is the
  /// intra-request x inter-request parallelism the server actually ran
  /// (bench/serve_throughput reports the product).
  std::uint64_t intra_threads_peak = 0;
  // What actually served each completed run (RunStats::kernel_tier;
  // runs that never reached the host kernels -- empty lists, result-cache
  // hits -- count nowhere), surfaced as tier_* rows in the wire STATS
  // text.
  std::uint64_t tier_list_arrays_runs = 0;  ///< the serial walk
  std::uint64_t tier_packed_runs = 0;       ///< cursors over the slab
  PoolStats pool;                ///< aggregated workspace counters

  // Snapshot / result-memo counters (snapshot-addressed requests only).
  // The hit/miss/eviction tallies are cumulative since the last
  // reset_stats(); the resident figures are occupancy gauges that follow
  // the memo's actual content (reset_stats does NOT flush a warmed
  // memo). Memo hits are answered inline at submit() and never enter the
  // queue, so they appear in result_hits but not in submitted/completed.
  /// Always 0: a slab serves only the run that built it, since phase 1
  /// overwrites it. Kept, with slab_misses, only because the repo
  /// benchmark (perfbench/served.cpp) reads both.
  std::uint64_t slab_hits = 0;
  std::uint64_t slab_misses = 0;       ///< always 0; see slab_hits
  std::uint64_t result_hits = 0;       ///< memoized results served
  std::uint64_t result_misses = 0;     ///< memoization lookup misses
  std::uint64_t result_evictions = 0;  ///< memoized entries dropped
  std::uint64_t cache_resident_bytes = 0;    ///< the memo's bytes (gauge)
  std::uint64_t cache_resident_entries = 0;  ///< the memo's count (gauge)
  std::uint64_t snapshots_live = 0;     ///< registered snapshots (gauge)
  std::uint64_t snapshot_updates = 0;   ///< update_snapshot() generations
  std::uint64_t stale_rejections = 0;   ///< kStaleGeneration rejections

  /// Completed runs that took the sharded path (RunStats::shard_count > 0).
  std::uint64_t sharded_runs = 0;

  // Failure-model counters (the hardened paths; see ARCHITECTURE.md
  // "Failure model"): typed rejections the server survived, never aborts.
  /// Jobs answered kDeadlineExceeded because their deadline passed while
  /// they were still queued (the work never ran).
  std::uint64_t deadline_expired = 0;
};

/// Thread-safe multi-client server over pooled Engines. All public methods
/// may be called concurrently from any thread.
class EngineServer {
 public:
  /// Starts the worker pool immediately.
  explicit EngineServer(ServerOptions opt = {});
  /// Graceful: equivalent to shutdown().
  ~EngineServer();

  EngineServer(const EngineServer&) = delete;             ///< not copyable
  EngineServer& operator=(const EngineServer&) = delete;  ///< not copyable

  /// Submits a request -- a RankRequest, ScanRequest or OpRequest
  /// converts -- and answers it through `done`, exactly once: from a
  /// worker thread on completion, or inline from this call on rejection
  /// (full queue / shutdown, a kUnavailable result). A run that throws
  /// (resource exhaustion) answers kUnavailable "engine run threw". The
  /// callback must be cheap, non-blocking and must not throw (it runs on
  /// the worker that ran the job); hand heavy work to another thread.
  /// This is the network event loop's entry point, which must never block
  /// on a future.
  void submit(Request req, std::function<void(RunResult&&)> done);
  /// Future flavour of the submit above: the future resolves with the
  /// result `done` would have received, so it never throws.
  std::future<RunResult> submit(Request req);

  // -- snapshot-addressed serving (the cross-request cache path) ---------

  /// Registers `list` as an immutable server-owned snapshot (generation
  /// 1) and fills `out` with its handle. Validates the list first when
  /// the engine options request input validation; malformed lists are
  /// rejected with kInvalidInput and nothing is registered.
  Status register_snapshot(LinkedList list, SnapshotHandle& out);
  /// Replaces snapshot `id`'s list, bumps its generation, invalidates
  /// every cached artifact of the id, and fills `out` with the new
  /// handle. After this returns, no request observes the old bytes as
  /// current: in-flight runs against the old generation finish coherently
  /// on them, new requests resolve to the new generation, and pinned
  /// old-generation requests are rejected as stale.
  Status update_snapshot(std::uint64_t id, LinkedList list,
                         SnapshotHandle& out);
  /// Retires snapshot `id` and drops its cached artifacts. Returns false
  /// if `id` is unknown. In-flight runs keep the old bytes alive.
  bool drop_snapshot(std::uint64_t id);
  /// Submits a snapshot-addressed request, answered through `done` as
  /// the Request overload answers. A memoized result is answered inline,
  /// from this call; otherwise the job is queued like any other, carrying
  /// the pinned snapshot list. Once shutdown has begun it resolves to
  /// kUnavailable like every other submit; before that, stale pins and
  /// unknown ids resolve inline to kStaleGeneration / kInvalidInput.
  void submit(const SnapshotRequest& req,
              std::function<void(RunResult&&)> done);
  /// Future flavour of the snapshot submit (a future answered inline is
  /// already resolved on return).
  std::future<RunResult> submit(const SnapshotRequest& req);

  /// Stops accepting work, drains every queued job, joins the workers.
  /// Idempotent; concurrent callers all block until the drain finishes.
  void shutdown();
  /// Stops accepting work, fails queued-but-unstarted jobs with
  /// StatusCode::kUnavailable, joins the workers. Idempotent.
  void shutdown_now();

  /// True while the server accepts work; false once shutdown has begun
  /// (new submissions resolve to StatusCode::kUnavailable from then on).
  bool accepting() const { return !queue_.closed(); }
  /// Instantaneous queued-job count (telemetry; racy by nature).
  std::size_t queue_depth() const { return queue_.size(); }
  /// Number of worker threads serving this instance.
  std::size_t workers() const { return threads_.size(); }
  /// Snapshot of the serving counters, plus the queue, pool, cache and
  /// registry gauges read at the call.
  ServerStats stats() const;
  /// Zeroes every serving counter, including the pooled workspace
  /// allocation/reuse counters (which were monotonic-only before this
  /// existed) -- warmed buffers keep their capacity, so a reset never
  /// reintroduces allocations. Call at a quiescent point (no in-flight
  /// jobs); counts racing the reset may be lost, never corrupted.
  void reset_stats();
  /// The options the server was built with (workers resolved to >= 1).
  const ServerOptions& options() const { return opt_; }

 private:
  /// One queued unit of work: the request plus the one callback that
  /// answers it.
  struct Job {
    Request req;                            ///< what to run
    std::function<void(RunResult&&)> done;  ///< called once with the answer
    /// Snapshot jobs pin their immutable list here (req.list aliases it),
    /// so the bytes outlive update()/drop() races.
    std::shared_ptr<const LinkedList> pinned;
    std::uint64_t snapshot_id = 0;  ///< 0 = not a snapshot job
    std::uint64_t snapshot_generation = 0;  ///< generation req.list is
    /// Absolute expiry stamped at submit from req.deadline_ms (time_point
    /// max = no deadline). Workers answer kDeadlineExceeded without
    /// running when a popped job is already past it.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
  };

  void enqueue(Job job);
  Status check_list(const LinkedList& list) const;
  void finish_snapshot_run(const Job& job, RunResult& r);
  void worker_loop();
  void join_workers(bool drain);
  void count(std::uint64_t ServerStats::* field, std::uint64_t by = 1);

  ServerOptions opt_;            ///< resolved configuration
  BoundedQueue<Job> queue_;      ///< clients push, workers pop
  WorkspacePool pool_;           ///< one warmed engine per running job
  SnapshotRegistry registry_;    ///< immutable generation-stamped lists
  /// Memoized results per (snapshot, generation, request shape).
  LruCache<std::shared_ptr<const RunResult>> result_cache_;
  /// Guards stats_. Its gauge fields (queue_depth_hwm, pool, the memo
  /// and registry figures) stay zero here: stats() reads them live.
  mutable std::mutex stats_mu_;
  ServerStats stats_;             ///< the counters since the last reset

  std::mutex shutdown_mu_;        ///< serializes shutdown paths
  bool joined_ = false;           ///< workers already joined
  std::vector<std::thread> threads_;  ///< the worker pool
};

}  // namespace lr90::serve

namespace lr90 {
/// The serving layer's primary types, re-exported at the library root.
using serve::EngineServer;
using serve::ServerOptions;
using serve::ServerStats;
using serve::SnapshotHandle;
using serve::SnapshotRequest;
}  // namespace lr90
