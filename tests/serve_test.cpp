// Concurrency coverage for the serving layer (serve/server.hpp):
// N client threads x M mixed rank/scan requests produce results
// bit-identical to a serial Engine; shutdown while draining resolves every
// future with a typed Status (never a broken promise, never a deadlock);
// pooled workspaces stop allocating after warmup; a backlog runs every job
// on its own pop and engine lease. Runs under -fsanitize=thread in CI.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "apps/euler_tour.hpp"
#include "lists/generators.hpp"
#include "serve/queue.hpp"
#include "serve/workspace_pool.hpp"

namespace lr90 {
namespace {

std::vector<LinkedList> test_lists() {
  std::vector<LinkedList> lists;
  Rng rng(11);
  for (const std::size_t n : {1u, 7u, 100u, 1000u, 5000u, 20000u})
    lists.push_back(random_list(n, rng));
  return lists;
}

/// The mixed request stream of client `c`: alternating ranks and scans
/// over the shared lists, operator varying by index.
std::vector<Request> client_stream(const std::vector<LinkedList>& lists,
                                   std::size_t c, std::size_t m) {
  static constexpr ScanOp kOps[] = {ScanOp::kPlus, ScanOp::kMin, ScanOp::kMax,
                                    ScanOp::kXor};
  std::vector<Request> reqs;
  reqs.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    const LinkedList& list = lists[(c + i) % lists.size()];
    if ((c + i) % 2 == 0) {
      reqs.push_back(RankRequest{&list});
    } else {
      reqs.push_back(ScanRequest{&list, kOps[(c * 3 + i) % 4]});
    }
  }
  return reqs;
}

TEST(EngineServer, ConcurrentMixedRequestsMatchSerialEngine) {
  const std::vector<LinkedList> lists = test_lists();
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRequests = 40;

  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 4;
  EngineServer server(opt);

  std::vector<std::vector<RunResult>> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<Request> reqs = client_stream(lists, c, kRequests);
      std::vector<std::future<RunResult>> futures;
      futures.reserve(reqs.size());
      for (const Request& req : reqs) futures.push_back(server.submit(req));
      for (auto& f : futures) got[c].push_back(f.get());
    });
  }
  for (auto& t : clients) t.join();
  server.shutdown();

  // Every result must be bit-identical to a serial reference run.
  Engine serial({.backend = BackendKind::kSerial});
  for (std::size_t c = 0; c < kClients; ++c) {
    const std::vector<Request> reqs = client_stream(lists, c, kRequests);
    ASSERT_EQ(got[c].size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_TRUE(got[c][i].ok())
          << "client " << c << " request " << i << ": "
          << got[c][i].status.message;
      const RunResult want = serial.run(reqs[i]);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got[c][i].scan, want.scan) << "client " << c << " req " << i;
    }
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kClients * kRequests);
  EXPECT_EQ(stats.completed, kClients * kRequests);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(EngineServer, ShutdownDrainsEveryQueuedJob) {
  const std::vector<LinkedList> lists = test_lists();
  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 1;
  EngineServer server(opt);

  std::vector<std::future<RunResult>> futures;
  for (std::size_t i = 0; i < 200; ++i)
    futures.push_back(server.submit(RankRequest{&lists[i % lists.size()]}));
  server.shutdown();  // graceful: must run everything already accepted

  for (auto& f : futures) {
    const RunResult r = f.get();
    EXPECT_TRUE(r.ok()) << r.status.message;
  }
  EXPECT_EQ(server.stats().completed, 200u);
}

TEST(EngineServer, SubmitAfterShutdownResolvesUnavailable) {
  const std::vector<LinkedList> lists = test_lists();
  EngineServer server({.engine = {.backend = BackendKind::kHost},
                       .workers = 1});
  server.shutdown();
  EXPECT_FALSE(server.accepting());

  std::future<RunResult> f = server.submit(RankRequest{&lists[2]});
  const RunResult r = f.get();  // resolves immediately: typed, no throw
  EXPECT_EQ(r.status.code, StatusCode::kUnavailable);
  EXPECT_EQ(r.status.message, "server is shut down");
  EXPECT_GE(server.stats().rejected, 1u);
}

TEST(EngineServer, ShutdownNowFailsPendingJobsTyped) {
  const std::vector<LinkedList> lists = test_lists();
  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 1;
  EngineServer server(opt);

  std::vector<std::future<RunResult>> futures;
  for (std::size_t i = 0; i < 500; ++i)
    futures.push_back(server.submit(RankRequest{&lists.back()}));
  server.shutdown_now();

  std::size_t ran = 0, rejected = 0;
  for (auto& f : futures) {
    const RunResult r = f.get();  // every future resolves, none throws
    if (r.ok()) {
      ++ran;
    } else {
      ASSERT_EQ(r.status.code, StatusCode::kUnavailable);
      EXPECT_EQ(r.status.message, "server is shutting down");
      ++rejected;
    }
  }
  EXPECT_EQ(ran + rejected, 500u);
}

TEST(EngineServer, ConcurrentShutdownWithSubmittersNeverHangs) {
  // Clients keep submitting while another thread shuts the server down;
  // every future must still resolve (ok for drained jobs, kUnavailable for
  // rejected ones). Exercises the close/drain race under TSan.
  const std::vector<LinkedList> lists = test_lists();
  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 2;
  opt.queue_capacity = 8;  // small: submitters block on back-pressure
  EngineServer server(opt);

  constexpr std::size_t kClients = 4;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<RunResult>>> futures(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < 100; ++i)
        futures[c].push_back(server.submit(RankRequest{&lists[3]}));
    });
  }
  server.shutdown();  // races with the submitters by design
  for (auto& t : clients) t.join();

  for (auto& per_client : futures) {
    for (auto& f : per_client) {
      const RunResult r = f.get();
      EXPECT_TRUE(r.ok() || r.status.code == StatusCode::kUnavailable)
          << status_code_name(r.status.code);
    }
  }
}

TEST(EngineServer, RejectWhenFullResolvesUnavailable) {
  Rng rng(13);
  const LinkedList big = random_list(500000, rng);
  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 1;
  opt.queue_capacity = 1;
  opt.reject_when_full = true;
  EngineServer server(opt);

  std::vector<std::future<RunResult>> futures;
  for (std::size_t i = 0; i < 8; ++i)
    futures.push_back(server.submit(RankRequest{&big}));
  std::size_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    const RunResult r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(r.status.code, StatusCode::kUnavailable);
      EXPECT_EQ(r.status.message, "request queue full");
      ++rejected;
    }
  }
  EXPECT_GE(ok, 1u);        // the worker ran at least the first job
  EXPECT_GE(rejected, 1u);  // the burst outpaced a 1-deep queue
  EXPECT_EQ(server.stats().rejected, rejected);
}

TEST(EngineServer, BacklogRunsEveryJobOnItsOwnPop) {
  // One worker busy on a large rank while 128 ranks of one hot list queue
  // behind it: each queued job is popped, leased an engine and run on its
  // own, and every answer is bit-exact against the serial engine.
  Rng rng(17);
  const LinkedList big = random_list(300000, rng);
  const LinkedList hot = random_list(30000, rng);
  Engine serial({.backend = BackendKind::kSerial});
  const RunResult want_big = serial.rank(big);
  const RunResult want_hot = serial.rank(hot);
  ASSERT_TRUE(want_big.ok());
  ASSERT_TRUE(want_hot.ok());

  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 1;
  EngineServer server(opt);

  std::future<RunResult> head = server.submit(RankRequest{&big});
  std::vector<std::future<RunResult>> burst;
  for (std::size_t i = 0; i < 128; ++i)
    burst.push_back(server.submit(RankRequest{&hot}));
  const RunResult first = head.get();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.scan, want_big.scan);
  for (auto& f : burst) {
    const RunResult r = f.get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.scan, want_hot.scan);
  }
  server.shutdown();  // quiesce: job counters settle after the promises

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 129u);
  EXPECT_EQ(stats.batches, 129u) << "one engine run per job";
  EXPECT_EQ(stats.pool.leases, 129u) << "one engine lease per job";
}

TEST(EngineServer, PooledWorkspacesStopAllocatingAfterWarmup) {
  Rng rng(19);
  const LinkedList list = random_list(10000, rng);
  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.engine.threads = 2;  // force the sublist path so scratch is used
  opt.workers = 1;         // one engine: warmup deterministically covers it
  EngineServer server(opt);

  for (std::size_t i = 0; i < 8; ++i)
    ASSERT_TRUE(server.submit(RankRequest{&list}).get().ok());
  const std::uint64_t warm = server.stats().pool.allocations;

  for (std::size_t i = 0; i < 64; ++i)
    ASSERT_TRUE(server.submit(RankRequest{&list}).get().ok());
  server.shutdown();  // quiesce: job counters settle after the promises
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.pool.allocations, warm)
      << "steady-state requests must not grow any pooled workspace";
  EXPECT_GT(stats.pool.reuse_hits, 0u);
  EXPECT_EQ(stats.pool.leases, stats.batches);
}

TEST(EngineServer, ServesEulerTourTreeWorkloads) {
  // The ported apps/euler_tour runs through the Engine facade, so its
  // tour lists can be served as ordinary requests: depths computed from a
  // server-side scan match the direct helper.
  Rng rng(23);
  const RootedTree tree = random_tree(2000, rng);
  const EulerTour tour = build_euler_tour(tree);

  EngineServer server({.engine = {.backend = BackendKind::kHost}});
  const RunResult scan = server.submit(ScanRequest{&tour.arcs}).get();
  ASSERT_TRUE(scan.ok());

  std::vector<value_t> depth(tree.size(), 0);
  for (std::size_t v = 0; v < tree.size(); ++v) {
    if (tour.down[v] != kNoVertex) depth[v] = scan.scan[tour.down[v]] + 1;
  }
  EXPECT_EQ(depth, tree_depths(tree));
}

TEST(EngineServer, ResetStatsZeroesPoolCountersWithoutReallocating) {
  // Regression: the pooled workspace allocation counters used to be
  // monotonic-only -- reset_stats() must zero them (and every serving
  // counter) while keeping the warmed buffers, so a post-reset steady
  // state reads zero allocations, not a fresh warmup.
  Rng rng(37);
  const LinkedList list = random_list(10000, rng);
  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.engine.threads = 2;  // force the sublist path so scratch is used
  opt.workers = 1;
  EngineServer server(opt);

  for (std::size_t i = 0; i < 8; ++i)
    ASSERT_TRUE(server.submit(RankRequest{&list}).get().ok());
  // A resolved future precedes the worker's own bookkeeping; poll until
  // the counters stabilize so the reset is genuinely quiescent.
  ServerStats warm = server.stats();
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const ServerStats s = server.stats();
    if (s.completed == 8 && s.batches == warm.batches &&
        s.pool.leases == warm.pool.leases)
      break;
    warm = s;
  }
  EXPECT_GT(warm.submitted, 0u);
  EXPECT_GT(warm.pool.allocations, 0u);
  EXPECT_GT(warm.pool.leases, 0u);

  server.reset_stats();  // quiescent: counters stable, futures resolved
  const ServerStats zeroed = server.stats();
  EXPECT_EQ(zeroed.submitted, 0u);
  EXPECT_EQ(zeroed.completed, 0u);
  EXPECT_EQ(zeroed.batches, 0u);
  EXPECT_EQ(zeroed.pool.allocations, 0u);
  EXPECT_EQ(zeroed.pool.reuse_hits, 0u);
  EXPECT_EQ(zeroed.pool.leases, 0u);

  // Same-shaped traffic after the reset counts from zero -- and the kept
  // warmed buffers mean it allocates nothing.
  for (std::size_t i = 0; i < 8; ++i)
    ASSERT_TRUE(server.submit(RankRequest{&list}).get().ok());
  server.shutdown();
  const ServerStats after = server.stats();
  EXPECT_EQ(after.submitted, 8u);
  EXPECT_EQ(after.completed, 8u);
  EXPECT_EQ(after.pool.allocations, 0u)
      << "reset must not throw away the warmed buffers";
  EXPECT_GT(after.pool.reuse_hits, 0u);
}

TEST(EngineServer, ReportsIntraRequestThreadPeak) {
  // The intra-request axis: every result's RunStats::host_threads feeds
  // the server's peak, so serve_throughput can report
  // workers x intra-threads as the parallelism actually used.
  Rng rng(43);
  const LinkedList list = random_list(20000, rng);
  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.engine.threads = 2;  // pinned intra-request parallelism
  opt.workers = 1;
  EngineServer server(opt);

  for (std::size_t i = 0; i < 4; ++i)
    ASSERT_TRUE(server.submit(RankRequest{&list}).get().ok());
  EXPECT_EQ(server.stats().intra_threads_peak, 2u);

  server.reset_stats();
  EXPECT_EQ(server.stats().intra_threads_peak, 0u);
  ASSERT_TRUE(server.submit(RankRequest{&list}).get().ok());
  server.shutdown();
  EXPECT_EQ(server.stats().intra_threads_peak, 2u);
}

TEST(EngineServer, QueueDepthHighWaterAndPerKindCounters) {
  // The counters the network front door surfaces on its stats endpoint:
  // queue_depth_hwm is tracked under the queue lock at push time, so a
  // single successful submit guarantees hwm >= 1 (deterministically --
  // no race against the worker draining it first), and rank/scan submits
  // are counted per kind. reset_stats() re-bases all of them.
  Rng rng(51);
  const LinkedList list = random_list(2000, rng);
  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 1;
  EngineServer server(opt);

  ASSERT_TRUE(server.submit(RankRequest{&list}).get().ok());
  ASSERT_TRUE(server.submit(RankRequest{&list}).get().ok());
  ASSERT_TRUE(server.submit(ScanRequest{&list, ScanOp::kXor}).get().ok());
  ServerStats s = server.stats();
  EXPECT_GE(s.queue_depth_hwm, 1u);
  EXPECT_EQ(s.rank_requests, 2u);
  EXPECT_EQ(s.scan_requests, 1u);

  server.reset_stats();
  s = server.stats();
  EXPECT_EQ(s.queue_depth_hwm, 0u) << "reset must re-base the high water";
  EXPECT_EQ(s.rank_requests, 0u);
  EXPECT_EQ(s.scan_requests, 0u);

  ASSERT_TRUE(server.submit(ScanRequest{&list, ScanOp::kMin}).get().ok());
  server.shutdown();
  s = server.stats();
  EXPECT_GE(s.queue_depth_hwm, 1u);
  EXPECT_EQ(s.rank_requests, 0u);
  EXPECT_EQ(s.scan_requests, 1u);
}

TEST(EngineServer, TierCountersFollowTheHopSourceThatRan) {
  // tier_packed_runs / tier_list_arrays_runs count what each run actually
  // walked: every sublist run walks the slab -- rank, max, affine and a
  // plus scan with one value past 32 bits alike -- and only the serial
  // walk reads the list arrays. reset_stats() re-bases both.
  Rng rng(53);
  const LinkedList list = random_list(20000, rng, ValueInit::kSigned);
  LinkedList wide = list;
  wide.value[17] = value_t{1} << 40;
  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.engine.threads = 2;
  opt.workers = 1;
  EngineServer server(opt);

  const auto run = [&](const Request& req) {
    const RunResult r = server.submit(req).get();
    EXPECT_TRUE(r.ok()) << r.status.message;
    return r.stats.kernel_tier;
  };
  EXPECT_EQ(run(RankRequest{&list}), KernelTier::kPackedCursors);
  EXPECT_EQ(run(ScanRequest{&list, ScanOp::kMax}),
            KernelTier::kPackedCursors);
  EXPECT_EQ(run(ScanRequest{&list, ScanOp::kAffine}),
            KernelTier::kPackedCursors);
  EXPECT_EQ(run(ScanRequest{&wide, ScanOp::kPlus}),
            KernelTier::kPackedCursors);
  EXPECT_EQ(run(RankRequest{&list, Method::kSerial}),
            KernelTier::kListArrays);
  ServerStats s = server.stats();
  EXPECT_EQ(s.tier_packed_runs, 4u);
  EXPECT_EQ(s.tier_list_arrays_runs, 1u);

  server.reset_stats();
  s = server.stats();
  EXPECT_EQ(s.tier_packed_runs, 0u);
  EXPECT_EQ(s.tier_list_arrays_runs, 0u);
  EXPECT_EQ(run(ScanRequest{&list, ScanOp::kSegSum}),
            KernelTier::kPackedCursors);
  EXPECT_EQ(run(ScanRequest{&list, ScanOp::kSegSum, Method::kSerial}),
            KernelTier::kListArrays);
  server.shutdown();
  s = server.stats();
  EXPECT_EQ(s.tier_packed_runs, 1u);
  EXPECT_EQ(s.tier_list_arrays_runs, 1u);
}

TEST(EngineServer, CallbackSubmitMatchesFutureSubmit) {
  // The callback flavour of submit() -- the event loop's integration
  // point -- must deliver exactly the result the future flavour does,
  // exactly once, including on the rejection paths.
  Rng rng(52);
  const LinkedList list = random_list(5000, rng);
  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 2;
  EngineServer server(opt);

  const RunResult want = server.submit(RankRequest{&list}).get();
  ASSERT_TRUE(want.ok());

  constexpr std::size_t kJobs = 16;
  std::mutex mu;
  std::vector<RunResult> got;
  std::condition_variable cv;
  for (std::size_t i = 0; i < kJobs; ++i) {
    server.submit(RankRequest{&list}, [&](RunResult&& r) {
      std::lock_guard<std::mutex> lock(mu);
      got.push_back(std::move(r));
      cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return got.size() == kJobs; }));
  }
  for (const RunResult& r : got) {
    ASSERT_TRUE(r.ok()) << r.status.message;
    EXPECT_EQ(r.scan, want.scan);
  }

  // Rejection after shutdown still invokes the callback (exactly once,
  // inline) with a typed kUnavailable.
  server.shutdown();
  bool called = false;
  server.submit(RankRequest{&list}, [&](RunResult&& r) {
    called = true;
    EXPECT_EQ(r.status.code, StatusCode::kUnavailable);
  });
  EXPECT_TRUE(called);
}

/// Holds a server's only worker inside a plug job's callback until
/// release() (or destruction), so later jobs queue behind it.
class Plug {
 public:
  Plug(EngineServer& server, const LinkedList& list)
      : state_(std::make_shared<State>()) {
    std::future<void> held = state_->held.get_future();
    server.submit(RankRequest{&list}, [state = state_](RunResult&&) {
      state->held.set_value();
      state->gate.wait();
    });
    held.wait();
  }
  ~Plug() { release(); }
  Plug(const Plug&) = delete;
  Plug& operator=(const Plug&) = delete;

  void release() {
    if (released_) return;
    released_ = true;
    state_->release.set_value();
  }

 private:
  struct State {
    std::promise<void> held;
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
  };
  std::shared_ptr<State> state_;
  bool released_ = false;
};

/// Submits jobs alternately through the future and the callback flavour
/// and gathers every answer in submit order, counting callback calls.
class MixedSubmits {
 public:
  explicit MixedSubmits(EngineServer& server) : server_(server) {}
  MixedSubmits(const MixedSubmits&) = delete;
  MixedSubmits& operator=(const MixedSubmits&) = delete;

  template <class Req>
  void submit(const Req& req) {
    const std::size_t i = futures_.size();
    {
      std::lock_guard<std::mutex> lock(mu_);
      calls_.push_back(0);
      results_.emplace_back();
    }
    if (i % 2 == 0) {
      futures_.push_back(server_.submit(req));
      return;
    }
    futures_.emplace_back();  // answered through the callback
    server_.submit(req, [this, i](RunResult&& r) {
      std::lock_guard<std::mutex> lock(mu_);
      ++calls_[i];
      results_[i] = std::move(r);
      cv_.notify_all();
    });
  }

  /// Every answer in submit order, once each job resolved (or 30 s).
  std::vector<RunResult> wait() {
    for (; gathered_ < futures_.size(); ++gathered_) {
      const std::size_t i = gathered_;
      if (i % 2 != 0) continue;
      EXPECT_EQ(futures_[i].wait_for(std::chrono::seconds(30)),
                std::future_status::ready)
          << "future " << i << " never resolved";
      RunResult r = futures_[i].get();
      std::lock_guard<std::mutex> lock(mu_);
      results_[i] = std::move(r);
    }
    std::unique_lock<std::mutex> lock(mu_);
    EXPECT_TRUE(cv_.wait_for(lock, std::chrono::seconds(30), [&] {
      for (std::size_t i = 1; i < calls_.size(); i += 2)
        if (calls_[i] == 0) return false;
      return true;
    })) << "a callback was never invoked";
    return results_;
  }

  /// Callbacks invoked more than once (call at quiescence).
  std::size_t repeated_callbacks() {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::size_t>(std::count_if(
        calls_.begin(), calls_.end(), [](int c) { return c > 1; }));
  }

 private:
  EngineServer& server_;
  std::vector<std::future<RunResult>> futures_;  ///< even jobs only
  std::size_t gathered_ = 0;  ///< futures_ already read by wait()
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> calls_;          ///< callback calls per job
  std::vector<RunResult> results_;  ///< answers per job
};

TEST(EngineServer, EveryJobEndsInExactlyOneCounter) {
  // Every submit ends in exactly one place: a run on a leased engine
  // (batches), a deadline that expired in the queue (deadline_expired), or
  // a refusal -- at the door, after shutdown, or drained by shutdown_now
  // (rejected). One worker is held in a plug job's callback so the burst
  // queues behind it deterministically; futures and callbacks alternate.
  Rng rng(83);
  const LinkedList list = random_list(3000, rng);
  LinkedList cycle;  // malformed: a 2-cycle, so no vertex is the tail
  cycle.next = {1, 0};
  cycle.value = {1, 1};
  cycle.head = 0;
  const auto expiring = [](Request r) {
    r.deadline_ms = 1;
    return r;
  };

  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.engine.validate_input = true;
  opt.workers = 1;
  opt.queue_capacity = 6;
  opt.reject_when_full = true;

  {
    EngineServer server(opt);
    MixedSubmits jobs(server);
    Plug plug(server, list);
    jobs.submit(RankRequest{&cycle});
    jobs.submit(expiring(RankRequest{&list}));
    jobs.submit(expiring(ScanRequest{&list, ScanOp::kMax}));
    jobs.submit(RankRequest{&list});
    jobs.submit(ScanRequest{&list, ScanOp::kPlus});
    jobs.submit(ScanRequest{&list, ScanOp::kXor});
    for (int i = 0; i < 3; ++i) jobs.submit(RankRequest{&list});  // full
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    plug.release();
    const std::vector<RunResult> got = jobs.wait();
    server.shutdown();  // quiescent from here on

    ASSERT_EQ(got.size(), 9u);
    EXPECT_EQ(got[0].status.code, StatusCode::kInvalidInput);
    EXPECT_EQ(got[0].status.message.rfind("invalid linked list: ", 0), 0u)
        << got[0].status.message;
    for (std::size_t i : {1u, 2u})
      EXPECT_EQ(got[i].status.code, StatusCode::kDeadlineExceeded) << i;
    for (std::size_t i : {3u, 4u, 5u})
      EXPECT_TRUE(got[i].ok()) << i << ": " << got[i].status.message;
    for (std::size_t i : {6u, 7u, 8u}) {
      EXPECT_EQ(got[i].status.code, StatusCode::kUnavailable) << i;
      EXPECT_EQ(got[i].status.message, "request queue full") << i;
    }
    jobs.submit(RankRequest{&list});  // after shutdown: refused inline
    const RunResult late = jobs.wait().back();
    EXPECT_EQ(late.status.code, StatusCode::kUnavailable);
    EXPECT_EQ(late.status.message, "server is shut down");
    EXPECT_EQ(jobs.repeated_callbacks(), 0u);

    const ServerStats s = server.stats();
    EXPECT_EQ(s.submitted, 7u);  // the plug and the six queued jobs
    EXPECT_EQ(s.rank_requests, 4u);
    EXPECT_EQ(s.scan_requests, 3u);
    EXPECT_EQ(s.batches, 5u) << "the malformed list still takes a run";
    EXPECT_EQ(s.deadline_expired, 2u);
    EXPECT_EQ(s.rejected, 4u) << "three at the door, one after shutdown";
    EXPECT_EQ(s.completed, s.batches + s.deadline_expired);
    EXPECT_EQ(s.pool.leases, s.batches);
    EXPECT_EQ(s.rank_requests + s.scan_requests, s.submitted);
    EXPECT_EQ(s.submitted, s.completed);
  }

  {
    opt.queue_capacity = 16;
    EngineServer server(opt);
    MixedSubmits jobs(server);
    Plug plug(server, list);
    constexpr std::size_t kBacklog = 8;
    for (std::size_t i = 0; i < kBacklog; ++i) {
      jobs.submit(i % 3 == 0 ? Request(ScanRequest{&list, ScanOp::kMin})
                             : Request(RankRequest{&list}));
    }
    // shutdown_now answers the backlog, then waits on the plugged worker.
    std::thread stopper([&] { server.shutdown_now(); });
    const std::vector<RunResult> got = jobs.wait();
    plug.release();
    stopper.join();

    ASSERT_EQ(got.size(), kBacklog);
    for (const RunResult& r : got) {
      EXPECT_EQ(r.status.code, StatusCode::kUnavailable);
      EXPECT_EQ(r.status.message, "server is shutting down");
    }
    EXPECT_EQ(jobs.repeated_callbacks(), 0u);

    const ServerStats s = server.stats();
    EXPECT_EQ(s.submitted, 1 + kBacklog);
    EXPECT_EQ(s.rank_requests, 6u);
    EXPECT_EQ(s.scan_requests, 3u);
    EXPECT_EQ(s.batches, 1u) << "only the plug ran";
    EXPECT_EQ(s.deadline_expired, 0u);
    EXPECT_EQ(s.rejected, kBacklog) << "every drained job, nothing else";
    EXPECT_EQ(s.completed, s.batches + s.deadline_expired);
    EXPECT_EQ(s.pool.leases, s.batches);
    EXPECT_EQ(s.rank_requests + s.scan_requests, s.submitted);
    EXPECT_EQ(s.submitted, s.completed + kBacklog);
  }
}

TEST(EngineServer, TaillessListIsRefusedWithValidationOff) {
  // validate_input is off by default: a 2-cycle reaches the worker, whose
  // serial walk stops after n hops and answers kInvalidInput -- through
  // the future and the callback alike -- so shutdown() can join it.
  LinkedList cycle;
  cycle.next = {1, 0};
  cycle.value = {1, 1};
  cycle.head = 0;
  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 1;
  ASSERT_FALSE(opt.engine.validate_input);
  EngineServer server(opt);
  MixedSubmits jobs(server);
  jobs.submit(RankRequest{&cycle});
  jobs.submit(RankRequest{&cycle});
  jobs.submit(ScanRequest{&cycle, ScanOp::kAffine});
  jobs.submit(ScanRequest{&cycle, ScanOp::kPlus});
  for (const RunResult& r : jobs.wait())
    EXPECT_EQ(r.status.code, StatusCode::kInvalidInput)
        << status_code_name(r.status.code);
  EXPECT_EQ(jobs.repeated_callbacks(), 0u);
  server.shutdown();
  EXPECT_EQ(server.stats().completed, 4u);
}

TEST(EngineServer, EverySnapshotSubmitEndsInExactlyOneCounter) {
  // A snapshot submit ends in exactly one outcome counter: a memo hit in
  // result_hits (answered inline), a miss that runs in batches, a pinned
  // superseded generation in stale_rejections, an unknown id in rejected.
  // Futures and callbacks alternate.
  Rng rng(91);
  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 1;
  EngineServer server(opt);
  SnapshotHandle first;
  ASSERT_TRUE(server.register_snapshot(random_list(3000, rng), first).ok());
  SnapshotHandle second;
  ASSERT_TRUE(server
                  .update_snapshot(first.snapshot_id,
                                   random_list(3000, rng), second)
                  .ok());

  SnapshotRequest miss;
  miss.snapshot_id = first.snapshot_id;
  SnapshotRequest stale = miss;
  stale.generation = first.generation;
  SnapshotRequest unknown;
  unknown.snapshot_id = first.snapshot_id + 1000;

  const auto outcomes = [](const ServerStats& s) {
    return std::vector<std::uint64_t>{s.result_hits, s.batches,
                                      s.stale_rejections, s.rejected,
                                      s.deadline_expired};
  };
  struct Case {
    const char* name;
    SnapshotRequest req;
    std::size_t counter;  // index into outcomes()
    StatusCode code;
  };
  const Case cases[] = {{"miss", miss, 1, StatusCode::kOk},
                        {"hit", miss, 0, StatusCode::kOk},
                        {"stale", stale, 2, StatusCode::kStaleGeneration},
                        {"unknown", unknown, 3, StatusCode::kInvalidInput}};
  MixedSubmits jobs(server);
  for (int round = 0; round < 2; ++round) {
    for (const Case& c : cases) {
      if (round == 1 && c.counter == 1) continue;  // the memo now answers
      SCOPED_TRACE(std::string(c.name) + " round " + std::to_string(round));
      const ServerStats before = server.stats();
      jobs.submit(c.req);
      const RunResult r = jobs.wait().back();
      EXPECT_EQ(r.status.code, c.code) << status_code_name(r.status.code);
      const ServerStats after = server.stats();
      std::vector<std::uint64_t> want = outcomes(before);
      ++want[c.counter];
      EXPECT_EQ(outcomes(after), want);
      EXPECT_EQ(after.completed - before.completed,
                after.batches - before.batches);
    }
  }
  EXPECT_EQ(jobs.repeated_callbacks(), 0u);
  server.shutdown();
}

TEST(EngineServer, UnknownSnapshotIdEndsInRejected) {
  // A snapshot request naming an id the registry does not hold -- one
  // never registered, or one dropped after it warmed the memo -- is
  // refused unrun, through the future and the callback flavour alike. It
  // ends in `rejected` alone: it never enters the queue, never runs, and
  // never reaches the result memo.
  Rng rng(89);
  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 1;
  EngineServer server(opt);

  SnapshotHandle dropped;
  ASSERT_TRUE(server.register_snapshot(random_list(3000, rng), dropped).ok());
  SnapshotRequest warm;
  warm.snapshot_id = dropped.snapshot_id;
  ASSERT_TRUE(server.submit(warm).get().ok());
  ASSERT_TRUE(server.drop_snapshot(dropped.snapshot_id));

  for (const std::uint64_t id :
       {dropped.snapshot_id, dropped.snapshot_id + 1000}) {
    for (const bool future : {true, false}) {
      SCOPED_TRACE(future ? "future" : "callback");
      SnapshotRequest req;
      req.snapshot_id = id;
      const ServerStats before = server.stats();
      RunResult r;
      if (future) {
        r = server.submit(req).get();
      } else {
        std::promise<RunResult> answer;
        std::atomic<int> calls{0};
        server.submit(req, [&](RunResult&& got) {
          if (calls.fetch_add(1) == 0) answer.set_value(std::move(got));
        });
        r = answer.get_future().get();
        EXPECT_EQ(calls.load(), 1);
      }
      EXPECT_EQ(r.status.code, StatusCode::kInvalidInput)
          << status_code_name(r.status.code);
      EXPECT_EQ(r.status.message, "unknown snapshot id");
      EXPECT_TRUE(r.scan.empty());

      const ServerStats after = server.stats();
      EXPECT_EQ(after.rejected, before.rejected + 1);
      EXPECT_EQ(after.submitted, before.submitted);
      EXPECT_EQ(after.completed, before.completed);
      EXPECT_EQ(after.stale_rejections, before.stale_rejections);
      EXPECT_EQ(after.result_hits, before.result_hits);
      EXPECT_EQ(after.result_misses, before.result_misses);
      EXPECT_EQ(after.result_evictions, before.result_evictions);
    }
  }
  server.shutdown();
}

TEST(EngineServer, MixedOperatorBacklogOnOneListIsBitExact) {
  // A hot key served under two different operators from one backlog:
  // every answer is the one its own operator gives, and seg-sum answers
  // are not plus answers. Occupy the worker so the mixed burst queues.
  Rng rng(41);
  const LinkedList big = random_list(300000, rng);
  LinkedList hot = random_list(20000, rng, ValueInit::kSigned);

  Engine serial({.backend = BackendKind::kSerial});
  const RunResult want_plus = serial.run(OpRequest{&hot, ScanOp::kPlus});
  const RunResult want_seg = serial.run(OpRequest{&hot, ScanOp::kSegSum});
  ASSERT_TRUE(want_plus.ok());
  ASSERT_TRUE(want_seg.ok());

  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 1;
  EngineServer server(opt);

  std::future<RunResult> head = server.submit(RankRequest{&big});
  std::vector<std::future<RunResult>> plus, seg;
  for (std::size_t i = 0; i < 32; ++i) {
    plus.push_back(server.submit(OpRequest{&hot, ScanOp::kPlus}));
    seg.push_back(server.submit(OpRequest{&hot, ScanOp::kSegSum}));
  }
  ASSERT_TRUE(head.get().ok());
  for (auto& f : plus) {
    const RunResult r = f.get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.scan, want_plus.scan);
  }
  for (auto& f : seg) {
    const RunResult r = f.get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.scan, want_seg.scan);
  }
  server.shutdown();
}

TEST(EngineServer, SnapshotHotKeySteadyStateDoesZeroPacksAndZeroRuns) {
  // The tentpole gate at unit level: once a snapshot-addressed hot key is
  // warm, repeats are answered from the memoized-result cache inline at
  // submit() -- zero queue traffic, zero engine runs, zero packed-slab
  // builds. reset_stats() must zero the cumulative cache counters while
  // keeping the warmed entries resident (gauges follow content).
  Rng rng(61);
  const LinkedList list = random_list(20000, rng);
  Engine serial({.backend = BackendKind::kSerial});
  const RunResult want = serial.rank(list);
  ASSERT_TRUE(want.ok());

  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 1;
  EngineServer server(opt);

  SnapshotHandle handle;
  ASSERT_TRUE(server.register_snapshot(list, handle).ok());
  SnapshotRequest hot;
  hot.snapshot_id = handle.snapshot_id;
  hot.rank = true;

  // Warm: the first request is the one real engine run.
  const RunResult first = server.submit(hot).get();
  ASSERT_TRUE(first.ok()) << first.status.message;
  EXPECT_EQ(first.scan, want.scan);
  // A resolved future precedes the worker's bookkeeping (including the
  // post-run cache inserts); poll until the memo landed.
  while (server.stats().completed != 1 ||
         server.stats().cache_resident_entries == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ServerStats warm = server.stats();
  EXPECT_EQ(warm.result_misses, 1u);
  EXPECT_EQ(warm.result_hits, 0u);
  EXPECT_GT(warm.cache_resident_entries, 0u);
  EXPECT_GT(warm.cache_resident_bytes, 0u);
  EXPECT_EQ(warm.snapshots_live, 1u);

  server.reset_stats();
  const ServerStats zeroed = server.stats();
  EXPECT_EQ(zeroed.result_hits, 0u);
  EXPECT_EQ(zeroed.result_misses, 0u);
  EXPECT_EQ(zeroed.result_evictions, 0u);
  EXPECT_EQ(zeroed.slab_hits, 0u);
  EXPECT_EQ(zeroed.slab_misses, 0u);
  EXPECT_EQ(zeroed.snapshot_updates, 0u);
  EXPECT_EQ(zeroed.stale_rejections, 0u);
  EXPECT_EQ(zeroed.pool.packed_builds, 0u);
  EXPECT_EQ(zeroed.cache_resident_entries, warm.cache_resident_entries)
      << "a stats reset must not cool the warmed caches";
  EXPECT_EQ(zeroed.cache_resident_bytes, warm.cache_resident_bytes);
  EXPECT_EQ(zeroed.snapshots_live, 1u) << "gauges follow content";

  // Steady state: every repeat is an inline memo hit.
  constexpr std::size_t kRepeats = 16;
  for (std::size_t i = 0; i < kRepeats; ++i) {
    const RunResult r = server.submit(hot).get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.scan, want.scan);
    EXPECT_EQ(r.stats.snapshot_generation, handle.generation);
  }
  server.shutdown();
  const ServerStats steady = server.stats();
  EXPECT_EQ(steady.result_hits, kRepeats);
  EXPECT_EQ(steady.result_misses, 0u);
  EXPECT_EQ(steady.submitted, 0u) << "memo hits must never enter the queue";
  EXPECT_EQ(steady.completed, 0u) << "steady state runs zero engine jobs";
  EXPECT_EQ(steady.pool.packed_builds, 0u)
      << "steady state builds zero packed slabs";
}

TEST(EngineServer, SnapshotSubmitAfterShutdownResolvesUnavailable) {
  // Regression: snapshot submits answered from the registry and the
  // result memo before they reached the queue, so a memoized key kept
  // answering ok, and a stale pin stale-generation, after shutdown began.
  // Once shutdown starts every submit resolves to kUnavailable.
  Rng rng(59);
  const LinkedList list = random_list(20000, rng);
  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 1;
  EngineServer server(opt);

  SnapshotHandle first;
  ASSERT_TRUE(server.register_snapshot(list, first).ok());
  SnapshotHandle current;
  ASSERT_TRUE(
      server.update_snapshot(first.snapshot_id, list, current).ok());
  SnapshotRequest memoized;
  memoized.snapshot_id = current.snapshot_id;
  SnapshotRequest stale = memoized;
  stale.generation = first.generation;

  // Warm the memo (the cache insert precedes the answer), and check both
  // requests take the inline paths while the server is up.
  ASSERT_TRUE(server.submit(memoized).get().ok());
  EXPECT_TRUE(server.submit(memoized).get().ok());
  EXPECT_EQ(server.stats().result_hits, 1u);
  EXPECT_EQ(server.submit(stale).get().status.code,
            StatusCode::kStaleGeneration);

  server.shutdown();
  const ServerStats before = server.stats();
  for (const SnapshotRequest& req : {memoized, stale}) {
    const RunResult r = server.submit(req).get();
    EXPECT_EQ(r.status.code, StatusCode::kUnavailable)
        << status_code_name(r.status.code);
    EXPECT_EQ(r.status.message, "server is shut down");
    EXPECT_TRUE(r.scan.empty());
  }
  const ServerStats after = server.stats();
  EXPECT_EQ(after.rejected, before.rejected + 2);
  EXPECT_EQ(after.result_hits, before.result_hits);
  EXPECT_EQ(after.stale_rejections, before.stale_rejections);
}

TEST(EngineServer, ConcurrentWorkersWithPinnedShardsAnswerExactly) {
  // Four workers run concurrent plus-scans of four distinct lists of one
  // length on engines with a shard count and a byte budget pinned, both
  // ignored: every answer is bit-exact, and all 128 runs complete.
  Rng rng(79);
  EngineOptions serial_opt;
  serial_opt.backend = BackendKind::kSerial;
  Engine serial(serial_opt);
  std::vector<LinkedList> lists;
  std::vector<std::vector<value_t>> want;
  for (int i = 0; i < 4; ++i) {
    lists.push_back(random_list(20000, rng, ValueInit::kSigned));
    want.push_back(serial.scan(lists.back(), ScanOp::kPlus).scan);
  }

  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 4;
  opt.engine.shard.shards = 4;
  opt.engine.shard.byte_budget = 1;
  EngineServer server(opt);

  std::vector<std::future<RunResult>> futures;
  for (int i = 0; i < 128; ++i)
    futures.push_back(server.submit(OpRequest{&lists[i % 4], ScanOp::kPlus}));
  for (int i = 0; i < 128; ++i) {
    const RunResult r = futures[i].get();
    ASSERT_TRUE(r.ok()) << i << ": " << r.status.message;
    EXPECT_EQ(r.scan, want[i % 4]) << "request " << i;
  }
  server.shutdown();
  EXPECT_EQ(server.stats().completed, 128u);
}

TEST(EngineServer, SnapshotRunWithAByteBudgetCachesOnlyItsResult) {
  // A snapshot run on an engine with a byte budget far below the list
  // walks the slab like any sublist run, and the slab holds whatever
  // the engine's last run left there. Here a plus-scan of another list
  // runs first on the one engine; its slab must not reach the cache
  // under the snapshot's key. Only the memoized result is cached, and a
  // later min-scan of the snapshot finds no slab.
  Rng rng(71);
  const LinkedList snap = random_list(1u << 16, rng, ValueInit::kSigned);
  const LinkedList other = random_list(20000, rng, ValueInit::kSigned);
  Engine serial({.backend = BackendKind::kSerial});

  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.engine.shard.byte_budget = std::size_t{700} << 10;
  opt.workers = 1;
  EngineServer server(opt);
  SnapshotHandle handle;
  ASSERT_TRUE(server.register_snapshot(snap, handle).ok());
  SnapshotRequest req;
  req.snapshot_id = handle.snapshot_id;
  req.rank = false;
  req.op = ScanOp::kPlus;

  // Hold the worker inside a first job's callback so the next two jobs
  // queue up and run back to back, the plain list's scan first.
  std::promise<void> held;
  std::future<void> worker_held = held.get_future();
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  server.submit(RankRequest{&other, Method::kSerial}, [&](RunResult&&) {
    held.set_value();
    gate.wait();
  });
  worker_held.wait();
  std::future<RunResult> plain =
      server.submit(ScanRequest{&other, ScanOp::kPlus, Method::kReidMiller});
  std::future<RunResult> snapped = server.submit(req);
  release.set_value();

  const RunResult p = plain.get();
  ASSERT_TRUE(p.ok()) << p.status.message;
  EXPECT_EQ(p.stats.kernel_tier, KernelTier::kPackedCursors);
  const RunResult s = snapped.get();
  ASSERT_TRUE(s.ok()) << s.status.message;
  EXPECT_EQ(s.stats.kernel_tier, KernelTier::kPackedCursors);
  EXPECT_EQ(s.scan, serial.run(OpRequest{&snap, ScanOp::kPlus}).scan);
  EXPECT_EQ(server.stats().cache_resident_entries, 1u)
      << "the memoized result only, no slab";

  req.op = ScanOp::kMin;
  const RunResult m = server.submit(req).get();
  ASSERT_TRUE(m.ok()) << m.status.message;
  EXPECT_EQ(m.scan, serial.run(OpRequest{&snap, ScanOp::kMin}).scan);
  server.shutdown();
  EXPECT_EQ(server.stats().slab_hits, 0u);
}

TEST(EngineServer, SnapshotUpdateRaceNeverServesAStaleGeneration) {
  // The TSan battery: 8 clients hammer one hot snapshot key while a
  // writer loops update(). Coherence contract under race: once update()
  // to generation G has RETURNED, every later response is stamped >= G,
  // and every response's payload is bit-exact for its stamped generation
  // -- never a torn slab read, never old bytes under a new stamp. The
  // per-generation value sets make any cross-generation mixing visible:
  // generation g's list holds the constant value g, so its plus-scan is
  // exactly g * rank, elementwise.
  Rng rng(67);
  const LinkedList base = random_list(2000, rng, ValueInit::kOnes);
  Engine serial({.backend = BackendKind::kSerial});
  const RunResult base_rank = serial.rank(base);
  ASSERT_TRUE(base_rank.ok());

  ServerOptions opt;
  opt.engine.backend = BackendKind::kHost;
  opt.workers = 2;
  EngineServer server(opt);

  SnapshotHandle handle;
  ASSERT_TRUE(server.register_snapshot(base, handle).ok());
  const std::uint64_t id = handle.snapshot_id;
  constexpr std::uint64_t kGenerations = 8;

  // The writer publishes its floor only AFTER update() returns: readers
  // that observe floor F must never be answered by a generation < F.
  std::atomic<std::uint64_t> floor{1};
  std::thread writer([&] {
    for (std::uint64_t g = 2; g <= kGenerations; ++g) {
      LinkedList next = base;
      for (value_t& v : next.value) v = static_cast<value_t>(g);
      SnapshotHandle h;
      ASSERT_TRUE(server.update_snapshot(id, next, h).ok());
      ASSERT_EQ(h.generation, g);
      floor.store(g, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRequestsPerClient = 40;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        const std::uint64_t seen = floor.load(std::memory_order_acquire);
        SnapshotRequest req;
        req.snapshot_id = id;
        req.rank = false;
        req.op = ScanOp::kPlus;  // current generation, whatever it is
        const RunResult r = server.submit(req).get();
        ASSERT_TRUE(r.ok()) << r.status.message;
        const std::uint64_t g = r.stats.snapshot_generation;
        ASSERT_GE(g, seen) << "a generation published before the submit "
                              "must never be un-observed";
        ASSERT_LE(g, kGenerations);
        ASSERT_EQ(r.scan.size(), base_rank.scan.size());
        for (std::size_t v = 0; v < r.scan.size(); ++v) {
          ASSERT_EQ(r.scan[v],
                    static_cast<value_t>(g) * base_rank.scan[v])
              << "stamped generation " << g << " with foreign bytes at "
              << v;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  writer.join();
  server.shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.snapshot_updates, kGenerations - 1);
  EXPECT_GT(stats.result_hits + stats.slab_hits, 0u)
      << "the hot key must have been served from the caches at least once";
}

TEST(BoundedQueue, PopIsFifoAndDrainsAfterClose) {
  serve::BoundedQueue<int> q(16);
  for (int i = 0; i < 10; ++i) {
    int x = i;
    ASSERT_TRUE(q.push(x));
  }
  std::vector<int> out;
  int item = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.pop(item));
    out.push_back(item);
  }
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  q.close();
  int rejected = 99;
  EXPECT_FALSE(q.push(rejected));
  EXPECT_EQ(rejected, 99);  // rejected items stay with the caller
  // Drain continues after close...
  while (q.pop(item)) out.push_back(item);
  EXPECT_EQ(out.size(), 10u);  // ...until every queued item came out
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i);
  EXPECT_EQ(item, 9) << "a pop on a closed, drained queue leaves out alone";
}

TEST(BoundedQueue, CapacityOneBackpressuresAndDeliversInOrder) {
  // The degenerate bound: every push after the first must wait for a pop,
  // and try_push must observe the single slot exactly.
  serve::BoundedQueue<int> q(1);
  EXPECT_EQ(q.capacity(), 1u);
  int first = 0;
  ASSERT_TRUE(q.push(first));
  int probe = 99;
  EXPECT_FALSE(q.try_push(probe));  // full at depth 1
  EXPECT_EQ(probe, 99);             // rejected items stay with the caller

  std::vector<int> got;
  std::thread producer([&] {
    for (int i = 1; i <= 50; ++i) {
      int x = i;
      ASSERT_TRUE(q.push(x));  // blocks whenever the slot is taken
    }
    q.close();
  });
  std::vector<int> out;
  for (int x; q.pop(x);) out.push_back(x);
  producer.join();
  ASSERT_EQ(out.size(), 51u);  // the pre-filled 0 plus 1..50
  for (int i = 0; i <= 50; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i);
}

TEST(BoundedQueue, TryPushUnderContentionConservesEveryItem) {
  // reject_when_full semantics under real contention: several producers
  // spin on try_push against a tiny queue while one consumer drains.
  // Every accepted item must come out exactly once; rejections must only
  // ever happen at observed-full, and nothing deadlocks.
  serve::BoundedQueue<int> q(4);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int item = p * kPerProducer + i;
        if (q.try_push(item)) {
          accepted.fetch_add(1);
        } else {
          rejected.fetch_add(1);
          std::this_thread::yield();  // full: give the consumer a turn
        }
      }
    });
  }
  std::vector<int> out;
  std::thread consumer([&] {
    for (int x; q.pop(x);) out.push_back(x);
  });
  for (auto& t : producers) t.join();
  q.close();
  consumer.join();
  EXPECT_EQ(accepted.load() + rejected.load(), kProducers * kPerProducer);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(accepted.load()));
  std::sort(out.begin(), out.end());
  EXPECT_EQ(std::adjacent_find(out.begin(), out.end()), out.end())
      << "an item was delivered twice";
}

TEST(BoundedQueue, DrainNowRacingPopLosesNothing) {
  // Non-graceful shutdown steals the backlog out from under a consumer
  // blocked in (or racing into) pop: every pushed item must end up
  // in exactly one of the two, and the consumer must observe termination.
  for (int round = 0; round < 20; ++round) {
    serve::BoundedQueue<int> q(64);
    for (int i = 0; i < 32; ++i) {
      int x = i;
      ASSERT_TRUE(q.push(x));
    }
    std::vector<int> popped;
    std::thread consumer([&] {
      // Keeps popping until close-and-drained.
      for (int x; q.pop(x);) popped.push_back(x);
    });
    q.close();
    const std::vector<int> drained = q.drain_now();
    consumer.join();
    EXPECT_EQ(popped.size() + drained.size(), 32u);
    std::vector<int> all(popped);
    all.insert(all.end(), drained.begin(), drained.end());
    std::sort(all.begin(), all.end());
    for (int i = 0; i < 32; ++i) EXPECT_EQ(all[static_cast<size_t>(i)], i);
  }

  // And a consumer already asleep on an empty queue wakes on close.
  serve::BoundedQueue<int> empty(4);
  int none = -1;
  std::thread sleeper([&] { EXPECT_FALSE(empty.pop(none)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  empty.close();
  sleeper.join();
  EXPECT_EQ(none, -1);
}

TEST(WorkspacePool, LeasesBlockAndAggregateStats) {
  // threads = 2 with n >= 4096 forces the sublist path even on a 1-core
  // machine, so the engines actually exercise their workspaces.
  serve::WorkspacePool pool({.backend = BackendKind::kHost, .threads = 2}, 2);
  EXPECT_EQ(pool.size(), 2u);
  Rng rng(29);
  const LinkedList list = random_list(10000, rng);
  {
    auto a = pool.acquire();
    auto b = pool.acquire();
    EXPECT_TRUE(a->rank(list).ok());
    EXPECT_TRUE(b->rank(list).ok());
  }
  auto c = pool.acquire();  // released leases are reacquirable
  EXPECT_TRUE(c->rank(list).ok());
  const serve::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.leases, 3u);
  EXPECT_GT(stats.reuse_hits + stats.allocations, 0u);
}

}  // namespace
}  // namespace lr90
