// shard::sharded_scan keeps all of its O(n + m) scratch in the Workspace
// it is given: the record slab, the sublist picks, heads, tails and sums
// the host kernel fits there. A warm Workspace therefore serves ranks
// and scans, whatever the ignored shard count and byte budget say,
// without one large heap allocation. Freeing and re-allocating those
// arrays on every call would make the run's speed depend on where the
// allocator's heap happens to end.
//
// This file replaces the global operator new to count allocations of 64
// KiB or more, so it is its own test binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/workspace.hpp"
#include "lists/generators.hpp"
#include "lists/ops.hpp"
#include "lists/validate.hpp"
#include "shard/sharded.hpp"
#include "test_util.hpp"

namespace {

constexpr std::size_t kLarge = std::size_t{64} << 10;
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_large{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (size >= kLarge && g_counting.load(std::memory_order_relaxed))
    g_large.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size == 0 ? 1 : size);
  } else if (::posix_memalign(&p, align, size == 0 ? 1 : size) != 0) {
    p = nullptr;
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size, 0)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lr90 {
namespace {

TEST(ShardScratch, WarmWorkspaceRunsWithoutLargeAllocations) {
  // 2^16 vertices: the answer (512 KiB), the rank's one-word slab (512
  // KiB) and a scan's two-word slab (1 MiB) are all past 64 KiB.
  constexpr std::size_t kN = std::size_t{1} << 16;
  Rng rng(0x5c7a);
  const LinkedList list = random_list(kN, rng, ValueInit::kSigned);
  struct Case {
    const char* name;
    bool rank;
    ScanOp op;
    std::vector<value_t> want;
  };
  std::vector<Case> cases;
  cases.push_back({"rank", true, ScanOp::kPlus, reference_rank(list)});
  cases.push_back({"plus", false, ScanOp::kPlus,
                   testutil::expected_scan(list, OpPlus{})});
  cases.push_back({"affine", false, ScanOp::kAffine,
                   testutil::expected_scan(list, OpAffine{})});

  shard::ShardExec ram;
  ram.shards = 8;
  ram.threads = 2;
  ram.interleave = 8;
  shard::ShardExec budget = ram;
  budget.byte_budget = 2 * kN * (sizeof(index_t) + sizeof(value_t)) / 8;
  const std::pair<const char*, const shard::ShardExec*> pins[] = {
      {"ram", &ram}, {"budget", &budget}};

  Workspace ws;
  std::vector<value_t> out(kN);
  const auto run = [&](const Case& c, const char* pin,
                       const shard::ShardExec& exec) {
    SCOPED_TRACE(std::string(c.name) + " " + pin);
    shard::ShardRunStats stats;
    const Status st =
        shard::sharded_scan(list, c.rank, c.op, exec, ws, out, stats);
    ASSERT_TRUE(st.ok()) << st.message;
    EXPECT_EQ(stats.interleave, 8u);
    EXPECT_TRUE(out == c.want) << "answer differs from the serial oracle";
  };
  // Warm the Workspace (and this thread's worker team) on every shape
  // once.
  for (const auto& [pin, exec] : pins)
    for (const Case& c : cases) run(c, pin, *exec);

  g_large.store(0);
  g_counting.store(true);
  for (int round = 0; round < 3; ++round)
    for (const auto& [pin, exec] : pins)
      for (const Case& c : cases) run(c, pin, *exec);
  g_counting.store(false);
  EXPECT_EQ(g_large.load(), 0u)
      << "allocations of 64 KiB or more in 18 warm calls";
}

}  // namespace
}  // namespace lr90
