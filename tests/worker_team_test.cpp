// The worker team behind host_exec::run_workers (core/worker_team.cpp):
// a call runs its body at most once per worker it asks for, and on every
// one of them while its caller's share lasts, however large the team has
// grown; a helper that misses a region never runs its body; teams of
// different threads run side by side; and a thread's team goes when the
// thread does.
#include "core/host_exec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lists/generators.hpp"
#include "test_util.hpp"

namespace lr90 {
namespace {

/// The `Threads:` line of /proc/self/status, or -1 where there is none.
int process_threads() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

TEST(WorkerTeam, EveryCallRunsItsBodyOncePerRequestedWorker) {
  // T cycles so the team grows to 7 helpers early and most later calls
  // leave some of them idle: a helper beyond the call's T must not run
  // the body, and a helper still idling from an earlier call must not
  // run a later call's body twice. A region waits only for the helpers
  // that entered it before the caller finished its share, so the
  // caller's share here waits for T arrivals: every signalled helper then
  // enters. Each call counts into its own slot; every slot is checked
  // when its call returns and again at the end.
  constexpr unsigned kCycle[] = {4, 2, 8, 1, 3, 8, 2};
  constexpr std::size_t kCalls = 1000;
  std::vector<std::atomic<unsigned>> runs(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    const unsigned t = kCycle[i % std::size(kCycle)];
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex seen_mu;
    std::set<std::thread::id> seen;
    std::atomic<unsigned>* slot = &runs[i];
    host_exec::run_workers(t, [&] {
      slot->fetch_add(1, std::memory_order_relaxed);
      {
        const std::lock_guard<std::mutex> lock(seen_mu);
        seen.insert(std::this_thread::get_id());
      }
      if (std::this_thread::get_id() == caller)
        while (slot->load(std::memory_order_relaxed) < t)
          std::this_thread::yield();
    });
    ASSERT_EQ(runs[i].load(), t) << "call " << i;
    ASSERT_EQ(seen.size(), t) << "call " << i;
    ASSERT_EQ(seen.count(caller), 1u) << "call " << i;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (std::size_t i = 0; i < kCalls; ++i)
    ASSERT_EQ(runs[i].load(), kCycle[i % std::size(kCycle)]) << "call " << i;
}

TEST(WorkerTeam, AHelperThatMissesARegionNeverRunsItsBody) {
  // The caller's share claims all the work and returns at once, so most
  // helpers find the region closed when they wake. The body runs on the
  // caller and on at most T - 1 helpers, never after the call returns.
  constexpr std::size_t kCalls = 2000;
  std::vector<std::atomic<unsigned>> runs(kCalls);
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t i = 0; i < kCalls; ++i) {
    std::atomic<bool> caller_ran{false};
    std::atomic<unsigned>* slot = &runs[i];
    host_exec::run_workers(4, [&] {
      slot->fetch_add(1, std::memory_order_relaxed);
      if (std::this_thread::get_id() == caller)
        caller_ran.store(true, std::memory_order_relaxed);
    });
    ASSERT_TRUE(caller_ran.load());
    ASSERT_GE(runs[i].load(), 1u);
    ASSERT_LE(runs[i].load(), 4u);
  }
  const std::vector<unsigned> at_return = [&] {
    std::vector<unsigned> v;
    for (const auto& r : runs) v.push_back(r.load());
    return v;
  }();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (std::size_t i = 0; i < kCalls; ++i)
    ASSERT_EQ(runs[i].load(), at_return[i]) << "call " << i;
}

TEST(WorkerTeam, ARegionInsideARegionRunsItsBodyAlone) {
  // Every worker of a T = 3 region, once all three have entered, asks for
  // 4 more; each nested call runs its body on the worker that made it,
  // once.
  std::atomic<unsigned> outer{0}, inner{0};
  host_exec::run_workers(3, [&] {
    outer.fetch_add(1, std::memory_order_relaxed);
    while (outer.load(std::memory_order_relaxed) < 3)
      std::this_thread::yield();
    const std::thread::id me = std::this_thread::get_id();
    host_exec::run_workers(4, [&] {
      EXPECT_EQ(std::this_thread::get_id(), me);
      inner.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(outer.load(), 3u);
  EXPECT_EQ(inner.load(), 3u);
}

TEST(WorkerTeam, FourThreadsRankConcurrentlyOnTheirOwnTeams) {
  // Four callers, each with its own T = 4 team, rank and scan at once;
  // every answer is bit-exact against the serial oracle.
  constexpr std::size_t n = 1u << 15;
  Rng rng(0x7ea);
  const LinkedList list = random_list(n, rng, ValueInit::kSigned);
  const std::vector<value_t> want_rank = testutil::expected_scan(
      [&] {
        LinkedList ones = list;
        ones.value.assign(n, 1);
        return ones;
      }(),
      OpPlus{});
  const std::vector<value_t> want_max = testutil::expected_scan(list, OpMax{});
  host_exec::HostPlan plan;
  plan.threads = 4;
  plan.sublists = 256;
  plan.interleave = 8;
  std::vector<std::vector<value_t>> ranks(4), maxes(4);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < 4; ++c)
    callers.emplace_back([&, c] {
      Workspace ws;
      ranks[c].assign(n, -1);
      maxes[c].assign(n, -1);
      for (int rep = 0; rep < 20; ++rep) {
        host_exec::rank_into(list, plan, ws, ranks[c]);
        host_exec::scan_into(list, OpMax{}, plan, ws,
                             std::span<value_t>(maxes[c]));
      }
    });
  for (std::thread& t : callers) t.join();
  for (std::size_t c = 0; c < 4; ++c) {
    SCOPED_TRACE("caller " + std::to_string(c));
    testutil::expect_scan_eq(ranks[c], want_rank);
    testutil::expect_scan_eq(maxes[c], want_max);
  }
}

TEST(WorkerTeam, AThreadsTeamIsJoinedWhenTheThreadExits) {
  const int before = process_threads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status Threads: line";
  std::thread caller([&] {
    host_exec::run_workers(4, [] {});
    EXPECT_EQ(process_threads(), before + 4);  // the caller and 3 helpers
  });
  caller.join();
  // A joined thread leaves the kernel's count a moment after join returns.
  int after = process_threads();
  for (int i = 0; i < 500 && after != before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = process_threads();
  }
  EXPECT_EQ(after, before);
}

}  // namespace
}  // namespace lr90
