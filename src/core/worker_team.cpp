// The worker team behind host_exec::run_workers: one persistent team per
// calling thread, grown on demand to the helpers a call needs, and joined
// when the thread exits.
//
// Each helper owns a ticket word. A call publishes its body, opens a gate
// with one place per helper it wants, and writes the region's id into
// exactly those helpers' tickets, so a helper beyond the call's thread
// count is never woken. A woken helper runs the body only after taking a
// place at the gate of the region its ticket names. The caller runs its
// own share first; by the time it returns, every unit of work has been
// claimed (the kernels claim work dynamically), so the caller then closes
// the gate and waits only for the helpers that entered. A helper that was
// asleep or descheduled when the region ran finds the gate closed and
// goes back to waiting: it can neither delay the region nor run a body
// after its call returned, and the next call cannot publish over a body
// a helper is still running.
//
// An idle helper spins on std::this_thread::yield() for kSpin, then parks
// on std::atomic::wait. The yield keeps the next region's start cheap on
// an idle machine while handing the core to any other runnable thread at
// once; parking bounds what an idle team costs. Beside one busy thread
// the closed gate is what keeps a T = 4 rank near its idle time: a helper
// that shares a core with the co-tenant misses regions instead of
// stalling them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <system_error>
#include <thread>
#include <vector>

#include "core/host_exec.hpp"

namespace lr90::host_exec {

namespace {

using Clock = std::chrono::steady_clock;

/// How long an idle helper, and a caller waiting for the helpers that
/// entered its region, yields before parking.
constexpr auto kSpin = std::chrono::milliseconds(5);

/// True on a team's helpers, and on a caller while it runs its share: a
/// run_workers call from inside a region runs its body alone.
thread_local bool t_in_region = false;

/// Waits until `word` no longer reads `old`: yields for kSpin, then parks.
/// Returns the new value.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word,
                           std::uint32_t old) {
  std::uint32_t now = word.load(std::memory_order_acquire);
  const Clock::time_point deadline = Clock::now() + kSpin;
  while (now == old && Clock::now() < deadline) {
    std::this_thread::yield();
    now = word.load(std::memory_order_acquire);
  }
  while (now == old) {
    word.wait(old, std::memory_order_acquire);
    now = word.load(std::memory_order_acquire);
  }
  return now;
}

class Team {
 public:
  Team() = default;
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  ~Team() {
    stop_.store(true, std::memory_order_relaxed);
    for (const std::unique_ptr<Helper>& h : helpers_) {
      h->ticket.fetch_add(1, std::memory_order_release);
      h->ticket.notify_one();
    }
    for (const std::unique_ptr<Helper>& h : helpers_) h->thread.join();
  }

  void run(unsigned threads, void (*body)(void*) noexcept, void* ctx) {
    grow(threads - 1);
    const auto helpers = static_cast<std::uint32_t>(
        std::min<std::size_t>(threads - 1, helpers_.size()));
    if (++region_ == 0) ++region_;  // 0 is every helper's first `seen`
    body_ = body;
    ctx_ = ctx;
    done_.store(0, std::memory_order_relaxed);
    gate_.store(pack(region_, helpers), std::memory_order_release);
    for (std::uint32_t i = 0; i < helpers; ++i) {
      helpers_[i]->ticket.store(region_, std::memory_order_release);
      helpers_[i]->ticket.notify_one();
    }
    t_in_region = true;
    body(ctx);
    t_in_region = false;
    // Close the region: every unit of work has been claimed by now, so a
    // helper that has not entered yet (asleep, or descheduled) never will,
    // and only those that did are waited for.
    const std::uint64_t gate =
        gate_.exchange(pack(region_, 0), std::memory_order_acq_rel);
    const std::uint32_t entered =
        helpers - static_cast<std::uint32_t>(gate & kOpenMask);
    for (std::uint32_t done = done_.load(std::memory_order_acquire);
         done != entered;)
      done = await_change(done_, done);
  }

 private:
  struct Helper {
    alignas(64) std::atomic<std::uint32_t> ticket{0};
    std::thread thread;
  };

  static constexpr std::uint64_t kOpenMask = 0xffffffffu;

  static std::uint64_t pack(std::uint32_t region, std::uint32_t open) {
    return std::uint64_t{region} << 32 | open;
  }

  /// Starts helpers until there are `want`. A helper that cannot be
  /// started leaves the team smaller, which run_workers allows.
  void grow(std::size_t want) {
    while (helpers_.size() < want) {
      auto h = std::make_unique<Helper>();
      try {
        h->thread = std::thread(&Team::serve, this, h.get());
      } catch (const std::system_error&) {
        return;
      }
      helpers_.push_back(std::move(h));
    }
  }

  /// Takes one of `region`'s open places, if it is still open.
  bool enter(std::uint32_t region) {
    std::uint64_t gate = gate_.load(std::memory_order_acquire);
    do {
      if (gate >> 32 != region || (gate & kOpenMask) == 0) return false;
    } while (!gate_.compare_exchange_weak(gate, gate - 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire));
    return true;
  }

  void serve(Helper* h) {
    t_in_region = true;
    for (std::uint32_t seen = 0;;) {
      seen = await_change(h->ticket, seen);
      if (stop_.load(std::memory_order_relaxed)) return;
      if (!enter(seen)) continue;  // a region closed before this helper woke
      body_(ctx_);
      done_.fetch_add(1, std::memory_order_acq_rel);
      done_.notify_one();
    }
  }

  // The published region. The caller writes body_ and ctx_ before it
  // opens the gate; a helper reads them only after entering, and the
  // caller rewrites them only once every helper that entered is done.
  void (*body_)(void*) noexcept = nullptr;
  void* ctx_ = nullptr;
  std::uint32_t region_ = 0;  ///< the caller's region count
  std::atomic<bool> stop_{false};
  /// The open region: its id (high half) and the places still open.
  alignas(64) std::atomic<std::uint64_t> gate_{0};
  alignas(64) std::atomic<std::uint32_t> done_{0};  ///< entered and done
  std::vector<std::unique_ptr<Helper>> helpers_;
};

}  // namespace

void run_on_team(unsigned threads, void (*body)(void*) noexcept, void* ctx) {
  if (t_in_region) {
    body(ctx);
    return;
  }
  thread_local Team team;
  team.run(threads, body, ctx);
}

}  // namespace lr90::host_exec
