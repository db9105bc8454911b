// Chaos harness for the fault-injection framework (support/faultpoint.hpp)
// and the end-to-end failure hardening of the spill/serve/net path:
//
//   * the registry + trigger contract: every site is enumerable, the
//     disabled fast path observes nothing, fail-Nth / probability / budget
//     triggers are deterministic under a fixed seed;
//   * the spill tier's one recovery path: a shard whose write fails
//     (ENOSPC/EIO/short write) or whose file cannot be opened, mapped or
//     verified is served from the resident source within the run,
//     counted, and the run stays bit-exact; a store opens only the shard
//     files it serves; a failed unlink at teardown is never fatal;
//   * the full sweep: every registered site armed in turn under 8-client
//     concurrent load through a real NetServer -- no crash, every answer
//     kOk-and-bit-exact or a typed failure status, and full recovery
//     (bit-exact answers) once the fault is disarmed. The sweep also IS
//     the coverage check CI relies on: each site must record >= 1
//     injected fire during its round.
#include "support/faultpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/workspace.hpp"
#include "lists/generators.hpp"
#include "lists/ops.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "shard/shard_file.hpp"
#include "shard/shard_store.hpp"
#include "shard/sharded.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace lr90 {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// Every fault site this binary is expected to register, by layer.
const char* const kExpectedSites[] = {
    "shard.write.open",   "shard.write.io",    "shard.write.nospc",
    "shard.write.short",  "shard.map.open",    "shard.map.mmap",
    "shard.map.checksum", "shard.reclaim.unlink", "shard.scratch.alloc",
    "serve.batch.stall",  "net.recv.io",       "net.send.io",
    "net.send.stall",
};

/// A fresh empty directory under the test temp root.
std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "lr90_fault_" + tag;
  fs::remove_all(dir);
  return dir;
}

/// Oracle exclusive scan under a runtime operator.
std::vector<value_t> oracle(const LinkedList& list, bool rank, ScanOp op) {
  if (rank) {
    LinkedList ones = list;
    for (auto& v : ones.value) v = 1;
    return testutil::expected_scan(ones, OpPlus{});
  }
  return with_scan_op(
      op, [&](auto o) { return testutil::expected_scan(list, o); });
}

/// Arms `name` (which must exist) with `t`; returns the site.
fault::FaultSite* arm(const std::string& name, const fault::Trigger& t) {
  fault::FaultSite* site = fault::find_site(name);
  EXPECT_NE(site, nullptr) << name;
  if (site != nullptr) site->arm(t);
  return site;
}

/// RAII guard: whatever a test armed is disarmed on every exit path.
struct DisarmGuard {
  ~DisarmGuard() { fault::disarm_all(); }
};

// -- the registry and trigger contract --------------------------------------

TEST(FaultRegistry, EverySiteIsRegisteredAndSilentWhenDisabled) {
  DisarmGuard guard;
  fault::disarm_all();
  fault::reset_stats();
  for (const char* name : kExpectedSites) {
    fault::FaultSite* site = fault::find_site(name);
    ASSERT_NE(site, nullptr) << name << " is not registered";
    EXPECT_STREQ(site->name(), name);
    EXPECT_NE(site->effect()[0], '\0') << name << " has no effect doc";
    EXPECT_FALSE(site->armed());
  }
  EXPECT_GE(fault::registered_sites().size(),
            std::size(kExpectedSites));
  EXPECT_FALSE(fault::enabled());

  // The disabled fast path injects nothing and observes nothing.
  fault::FaultSite* site = fault::find_site(kExpectedSites[0]);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(site->fire());
  EXPECT_EQ(site->stats().hits, 0u);
  EXPECT_EQ(site->stats().fires, 0u);
}

TEST(FaultRegistry, FailNthFiresExactlyOnTheNthHit) {
  DisarmGuard guard;
  fault::FaultSite* site = fault::find_site("shard.write.io");
  ASSERT_NE(site, nullptr);
  fault::Trigger t;
  t.fail_nth = 3;
  t.max_fires = 1;
  site->arm(t);
  EXPECT_TRUE(site->armed());
  EXPECT_TRUE(fault::enabled());
  for (int i = 1; i <= 10; ++i)
    EXPECT_EQ(site->fire(), i == 3) << "hit " << i;
  EXPECT_EQ(site->stats().hits, 10u);
  EXPECT_EQ(site->stats().fires, 1u);
  // An unarmed sibling never fires even while the global gate is up.
  fault::FaultSite* other = fault::find_site("shard.map.open");
  EXPECT_FALSE(other->fire());
  EXPECT_EQ(other->stats().fires, 0u);
}

TEST(FaultRegistry, SeededProbabilityIsDeterministicAndBudgeted) {
  DisarmGuard guard;
  fault::FaultSite* site = fault::find_site("shard.map.checksum");
  ASSERT_NE(site, nullptr);
  fault::Trigger t;
  t.probability = 0.5;
  t.seed = 20260809;

  auto pattern = [&] {
    site->arm(t);  // arm() resets the stream: identical every time
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(site->fire());
    return fired;
  };
  const std::vector<bool> a = pattern();
  const std::vector<bool> b = pattern();
  EXPECT_EQ(a, b) << "same seed must replay the same coin flips";
  const auto fires = static_cast<std::size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 50u);  // a fair-ish coin over 200 flips
  EXPECT_LT(fires, 150u);

  // The fire budget caps injections regardless of the coin.
  t.probability = 1.0;
  t.max_fires = 2;
  site->arm(t);
  int count = 0;
  for (int i = 0; i < 10; ++i) count += site->fire() ? 1 : 0;
  EXPECT_EQ(count, 2);

  site->disarm();
  EXPECT_FALSE(site->armed());
}

// -- the spill tier's degraded path -----------------------------------------

/// A spill-heavy exec: every shard written to the run's own directory
/// `dir` and reloaded on acquire (byte budget of one byte spills
/// everything).
shard::ShardExec spill_exec(const std::string& dir, unsigned shards = 4) {
  shard::ShardExec exec;
  exec.shards = shards;
  exec.threads = 2;
  exec.byte_budget = 1;
  exec.spill_dir = dir;
  return exec;
}

Status run_sharded(const LinkedList& list, const shard::ShardExec& exec,
                   std::vector<value_t>& out, shard::ShardRunStats& stats) {
  Workspace ws;
  out.assign(list.size(), 0);
  stats = shard::ShardRunStats{};
  return shard::sharded_scan(list, /*rank=*/true, ScanOp::kPlus, exec, ws,
                             std::span<value_t>(out), stats);
}

TEST(ShardFault, CorruptSlabDegradesWithinTheRunAndBitExact) {
  // A slab that fails its checksum on load (ShardFile's tests show a
  // flipped or truncated payload does) is counted and its shard is served
  // from the resident source in the same run, with no second load: the
  // answer stays bit-exact.
  DisarmGuard guard;
  const std::string dir = fresh_dir("corrupt_once");
  Rng rng(101);
  const LinkedList list = random_list(4000, rng, ValueInit::kSigned);
  const std::vector<value_t> want = oracle(list, true, ScanOp::kPlus);

  fault::Trigger t;
  t.fail_nth = 1;
  t.max_fires = 1;
  arm("shard.map.checksum", t);
  std::vector<value_t> out;
  shard::ShardRunStats stats;
  ASSERT_TRUE(run_sharded(list, spill_exec(dir), out, stats).ok());
  EXPECT_EQ(out, want);
  ASSERT_TRUE(stats.store.spilled);
  EXPECT_EQ(stats.store.corrupt_slabs, 1u);
  EXPECT_EQ(stats.store.degraded, 1u);
  fault::disarm_all();

  // Undisturbed, a run of the same list sees no corruption at all.
  ASSERT_TRUE(run_sharded(list, spill_exec(dir), out, stats).ok());
  EXPECT_EQ(out, want);
  EXPECT_EQ(stats.store.corrupt_slabs, 0u);
  EXPECT_EQ(stats.store.degraded, 0u);
  EXPECT_FALSE(fs::exists(dir));
}

TEST(ShardFault, WriteFailureDegradesCounted) {
  DisarmGuard guard;
  Rng rng(103);
  const LinkedList list = random_list(2500, rng, ValueInit::kSigned);
  const std::vector<value_t> want = oracle(list, true, ScanOp::kPlus);

  for (const char* site : {"shard.write.nospc", "shard.write.io",
                           "shard.write.short", "shard.write.open"}) {
    // Spill writes fail: the affected shards are served from the
    // always-resident source arrays, the run is counted and still
    // bit-exact.
    fault::Trigger t;
    t.probability = 1.0;
    arm(site, t);
    const std::string dir = fresh_dir(std::string("wdeg_") + site);
    shard::ShardExec exec = spill_exec(dir);
    std::vector<value_t> out;
    shard::ShardRunStats stats;
    ASSERT_TRUE(run_sharded(list, exec, out, stats).ok()) << site;
    EXPECT_EQ(out, want) << site;
    EXPECT_GE(stats.store.degraded, 1u) << site;
    EXPECT_GE(stats.store.write_errors, 1u) << site;
    fault::disarm_all();
    shard::drop_spill_dir(dir);
  }
}

TEST(ShardFault, UnrecoverableCorruptionDegradesCounted) {
  DisarmGuard guard;
  Rng rng(104);
  const LinkedList list = random_list(2500, rng, ValueInit::kSigned);
  const std::vector<value_t> want = oracle(list, true, ScanOp::kPlus);
  const std::string dir = fresh_dir("corrupt_forever");

  // A healthy first run.
  shard::ShardExec exec = spill_exec(dir);
  std::vector<value_t> out;
  shard::ShardRunStats stats;
  ASSERT_TRUE(run_sharded(list, exec, out, stats).ok());

  // Every checksum verification fails: each shard degrades -> counted +
  // bit-exact.
  fault::Trigger t;
  t.probability = 1.0;
  arm("shard.map.checksum", t);
  ASSERT_TRUE(run_sharded(list, exec, out, stats).ok());
  EXPECT_EQ(out, want);
  EXPECT_GE(stats.store.corrupt_slabs, 1u);
  EXPECT_GE(stats.store.degraded, 1u);
  fault::disarm_all();
  shard::drop_spill_dir(dir);
}

TEST(ShardFault, MmapFailureDegradesCounted) {
  // A shard that cannot be mapped is served from the resident source:
  // counted as degraded, not as corrupt, and still bit-exact.
  DisarmGuard guard;
  Rng rng(105);
  const LinkedList list = random_list(2000, rng, ValueInit::kSigned);
  const std::vector<value_t> want = oracle(list, true, ScanOp::kPlus);
  const std::string dir = fresh_dir("mmap_fails");

  fault::Trigger t;
  t.probability = 1.0;
  fault::FaultSite* site = arm("shard.map.mmap", t);
  const shard::ShardExec exec = spill_exec(dir);
  std::vector<value_t> out;
  shard::ShardRunStats stats;
  ASSERT_TRUE(run_sharded(list, exec, out, stats).ok());
  EXPECT_EQ(out, want);
  EXPECT_GE(site->stats().fires, 1u);
  EXPECT_EQ(stats.store.degraded, exec.shards);
  EXPECT_EQ(stats.store.corrupt_slabs, 0u);
  EXPECT_EQ(stats.store.loads, 0u);
  fault::disarm_all();
  shard::drop_spill_dir(dir);
}

TEST(ShardFault, ScratchAllocationFailureIsTypedResourceExhausted) {
  DisarmGuard guard;
  Rng rng(106);
  const LinkedList list = random_list(1500, rng, ValueInit::kSigned);
  fault::Trigger t;
  t.fail_nth = 1;
  t.max_fires = 1;
  arm("shard.scratch.alloc", t);
  const std::string dir = fresh_dir("alloc");
  std::vector<value_t> out;
  shard::ShardRunStats stats;
  const Status st = run_sharded(list, spill_exec(dir), out, stats);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code, StatusCode::kResourceExhausted) << st.message;
  fault::disarm_all();
  // The fault fired after prepare had written the shard files and before
  // pass A acquired any, so no load was in flight; the store removed its
  // directory before the run returned.
  EXPECT_FALSE(fs::exists(dir));
  shard::drop_spill_dir(dir);

  // And the very next run succeeds: the fault budget was one.
  shard::ShardRunStats stats2;
  ASSERT_TRUE(run_sharded(list, spill_exec(dir), out, stats2).ok());
  EXPECT_EQ(out, oracle(list, true, ScanOp::kPlus));
  shard::drop_spill_dir(dir);
}

TEST(ShardFault, StoreOpensOnlyTheShardsItServes) {
  // A store maps a shard's file only when that shard is acquired: one
  // torn down after k of its P shards has opened k files and loaded k
  // shards, and it still removes its directory. The gate is up with no
  // site armed, so shard.map.open counts every open and fires on none.
  DisarmGuard guard;
  fault::set_enabled(true);
  fault::FaultSite* site = fault::find_site("shard.map.open");
  ASSERT_NE(site, nullptr);
  Rng rng(108);
  const LinkedList list = random_list(2000, rng, ValueInit::kSigned);
  constexpr unsigned P = 4;
  Workspace ws;
  const shard::ShardedList sharded =
      shard::ShardedList::build(list, P, 1, ws);
  for (unsigned k = 0; k <= P; ++k) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const std::string dir = fresh_dir("opens_" + std::to_string(k));
    fault::reset_stats();
    shard::StoreStats stats;
    {
      shard::ShardStore store;
      store.prepare(list, sharded, /*spill=*/true, dir, /*threads=*/2);
      for (unsigned p = 0; p < k; ++p) {
        const shard::ShardView view = store.acquire(p);
        EXPECT_TRUE(std::equal(view.next, view.next + view.size(),
                               list.next.begin() + view.begin));
        store.release(p);
      }
      stats = store.stats();
    }
    EXPECT_EQ(site->stats().hits, k);
    EXPECT_EQ(site->stats().fires, 0u);
    EXPECT_EQ(stats.loads, k);
    EXPECT_FALSE(fs::exists(dir));
  }
}

TEST(ShardFault, FailedTeardownUnlinkIsNeverFatal) {
  // A shard file that refuses to go at run teardown leaves it and its
  // directory behind; the answer is already out and exact. The next run
  // into that directory rewrites every shard, so another list of the
  // same shape is still bit-exact, and it removes the directory.
  DisarmGuard guard;
  const std::string dir = fresh_dir("reclaim");
  Rng rng(107);
  const LinkedList first = random_list(2000, rng, ValueInit::kSigned);
  const LinkedList second = random_list(2000, rng, ValueInit::kSigned);
  fault::Trigger t;
  t.probability = 1.0;
  fault::FaultSite* site = arm("shard.reclaim.unlink", t);
  std::vector<value_t> out;
  shard::ShardRunStats stats;
  ASSERT_TRUE(run_sharded(first, spill_exec(dir), out, stats).ok());
  EXPECT_EQ(out, oracle(first, true, ScanOp::kPlus));
  EXPECT_GE(site->stats().fires, 1u);
  EXPECT_TRUE(fs::exists(dir + "/" + shard::shard_file_name(0)));
  fault::disarm_all();

  ASSERT_TRUE(run_sharded(second, spill_exec(dir), out, stats).ok());
  EXPECT_EQ(out, oracle(second, true, ScanOp::kPlus));
  EXPECT_FALSE(fs::exists(dir));
}

// -- the full chaos sweep ---------------------------------------------------

/// One sweep round: every worker sends `iters` rank/scan requests and
/// checks kOk answers bit-exactly; anything else must be a typed wire
/// status. Transport failures (a fault tore the connection down) are
/// recovered by reconnecting. Returns the number of wrong answers.
struct SweepFixture {
  /// Root of every run's spill directory; an armed shard.reclaim.unlink
  /// leaves a run's directory behind, so the fixture removes the root.
  std::string spill_root = fresh_dir("sweep");
  net::NetServer server;
  std::vector<LinkedList> lists;
  std::vector<std::vector<value_t>> rank_oracle;
  std::vector<std::vector<value_t>> scan_oracle;

  static net::NetServerOptions options(const std::string& spill_root) {
    net::NetServerOptions opt;
    opt.port = 0;
    opt.serve.workers = 2;
    opt.serve.engine.threads = 2;
    // Every request takes the sharded spill path: tiny byte budget,
    // pinned shard count, a fresh spill dir per run under the root (so
    // the reclaim site fires on every run teardown too).
    opt.serve.engine.shard.shards = 3;
    opt.serve.engine.shard.byte_budget = 1;
    opt.serve.engine.shard.spill_dir = spill_root;
    return opt;
  }

  SweepFixture() : server(options(spill_root)) {
    Rng rng(20260101);
    for (int i = 0; i < 4; ++i) {
      lists.push_back(random_list(600 + 97 * i, rng, ValueInit::kSigned));
      rank_oracle.push_back(oracle(lists.back(), true, ScanOp::kPlus));
      scan_oracle.push_back(oracle(lists.back(), false, ScanOp::kPlus));
    }
  }

  ~SweepFixture() {
    server.stop();
    fs::remove_all(spill_root);
  }

  /// Runs `iters` requests on one connection; reconnects on transport
  /// errors. Bumps `wrong` for any kOk answer that is not bit-exact and
  /// `untyped` for any response carrying an out-of-range status (the
  /// decoder rejects those as kBadPayload transport errors).
  void worker(unsigned seed, int iters, std::atomic<int>& wrong,
              std::atomic<int>& ok_answers) {
    Rng rng(seed);
    net::NetClient client;
    (void)client.connect_to("127.0.0.1", server.port());
    for (int i = 0; i < iters; ++i) {
      const std::size_t which = rng.next_u64() % lists.size();
      const bool rank = (rng.next_u64() & 1) != 0;
      net::ResponseFrame resp;
      Status s;
      if (rank) {
        s = client.rank(lists[which], resp);
      } else {
        s = client.scan(lists[which], ScanOp::kPlus, resp);
      }
      if (!s.ok()) {
        // Transport torn down by an injected socket fault: reconnect
        // and keep going. Never a crash, never a hang.
        client.close();
        (void)client.connect_to("127.0.0.1", server.port());
        continue;
      }
      if (resp.status == net::WireStatus::kOk) {
        const auto& want = rank ? rank_oracle[which] : scan_oracle[which];
        if (resp.values != want) wrong.fetch_add(1);
        ok_answers.fetch_add(1);
      }
      // Any non-kOk decode already proved the status byte was in range
      // (decode_response types out-of-range bytes as kBadPayload).
    }
  }
};

TEST(ChaosSweep, EverySiteUnderConcurrentLoadIsTypedAndRecovers) {
  DisarmGuard guard;
  SweepFixture fx;
  ASSERT_TRUE(fx.server.start().ok());

  constexpr int kClients = 8;
  constexpr int kItersPerClient = 3;

  fault::reset_stats();
  for (const char* name : kExpectedSites) {
    fault::FaultSite* site = fault::find_site(name);
    ASSERT_NE(site, nullptr) << name;
    fault::Trigger t;
    t.fail_nth = 1;   // first hit fires...
    t.max_fires = 3;  // ...and a couple more, then the site goes quiet
    t.probability = 0.25;
    t.seed = 0xfeedULL;
    site->arm(t);

    std::atomic<int> wrong{0};
    std::atomic<int> ok_answers{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([&fx, &wrong, &ok_answers, c] {
        fx.worker(1000u + static_cast<unsigned>(c), kItersPerClient,
                  wrong, ok_answers);
      });
    for (auto& th : threads) th.join();

    EXPECT_EQ(wrong.load(), 0)
        << name << ": a fault must never produce a wrong answer";
    EXPECT_GE(site->stats().fires, 1u)
        << name << " was never triggered by the sweep workload "
        << "(coverage regression: the site is wired to a dead edge)";
    fault::disarm_all();
  }

  // Recovery: with every fault gone, each client gets a bit-exact
  // answer (bounded retries ride out residual RETRY_AFTER baking off).
  std::atomic<int> wrong{0};
  std::atomic<int> recovered{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&fx, &wrong, &recovered, c] {
      net::NetClient client;
      ASSERT_TRUE(client.connect_to("127.0.0.1", fx.server.port()).ok());
      for (int attempt = 0; attempt < 50; ++attempt) {
        net::ResponseFrame resp;
        const std::size_t which =
            static_cast<std::size_t>(c) % fx.lists.size();
        const Status s = client.rank(fx.lists[which], resp);
        if (!s.ok()) {
          client.close();
          (void)client.connect_to("127.0.0.1", fx.server.port());
          continue;
        }
        if (resp.status == net::WireStatus::kRetryAfter) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(resp.retry_after_ms));
          continue;
        }
        if (resp.status == net::WireStatus::kOk) {
          if (resp.values != fx.rank_oracle[which]) wrong.fetch_add(1);
          recovered.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(recovered.load(), kClients)
      << "every client must get a bit-exact answer after disarm";

  // The server survived the entire sweep with its counters intact.
  const serve::ServerStats stats = fx.server.serve_stats();
  EXPECT_GT(stats.completed, 0u);
  fx.server.stop();
}

}  // namespace
}  // namespace lr90
