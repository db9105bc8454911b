// Property tests for the shared LRU slab/result cache
// (serve/slab_cache.hpp): byte-budget admission and eviction, recency
// order, generation-bump unreachability, one-walk invalidation, and
// counter conservation (hits + misses == lookups, always) -- checked
// directly and against a shadow LRU model under a seeded operation sweep.
#include "serve/slab_cache.hpp"

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace lr90::serve {
namespace {

using IntCache = LruCache<int>;

CacheKey key(std::uint64_t id, std::uint64_t gen, std::uint64_t flavor = 0) {
  return CacheKey{id, gen, flavor};
}

TEST(LruCache, InsertLookupEvictUnderByteBudget) {
  IntCache cache(/*byte_budget=*/100, /*shards=*/1);
  cache.insert(key(1, 1, 0), 10, 30);
  cache.insert(key(1, 1, 1), 11, 30);
  cache.insert(key(1, 1, 2), 12, 30);

  int got = 0;
  EXPECT_TRUE(cache.lookup(key(1, 1, 0), got));
  EXPECT_EQ(got, 10);
  CacheStats s = cache.stats();
  EXPECT_EQ(s.inserts, 3u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.resident_bytes, 90u);
  EXPECT_EQ(s.resident_entries, 3u);

  // The fourth entry pushes the shard to 120 > 100: evict from the LRU
  // back until under budget again.
  cache.insert(key(1, 1, 3), 13, 30);
  s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.resident_bytes, 90u);
  EXPECT_EQ(s.resident_entries, 3u);
  EXPECT_LE(s.resident_bytes, 100u) << "resident bytes must obey the budget";
}

TEST(LruCache, EvictionOrderMatchesRecency) {
  IntCache cache(/*byte_budget=*/100, /*shards=*/1);
  cache.insert(key(1, 1, 0), 100, 30);  // A
  cache.insert(key(1, 1, 1), 101, 30);  // B
  cache.insert(key(1, 1, 2), 102, 30);  // C

  // Touch A: recency becomes A > C > B, so B is the eviction victim.
  int got = 0;
  ASSERT_TRUE(cache.lookup(key(1, 1, 0), got));
  cache.insert(key(1, 1, 3), 103, 30);  // D evicts B

  EXPECT_TRUE(cache.lookup(key(1, 1, 0), got));
  EXPECT_EQ(got, 100);
  EXPECT_FALSE(cache.lookup(key(1, 1, 1), got))
      << "the least recently used entry must be the one evicted";
  EXPECT_TRUE(cache.lookup(key(1, 1, 2), got));
  EXPECT_TRUE(cache.lookup(key(1, 1, 3), got));

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 1u);
}

TEST(LruCache, GenerationBumpMakesEveryPriorEntryUnreachable) {
  IntCache cache(/*byte_budget=*/1 << 20, /*shards=*/4);
  for (std::uint64_t flavor = 0; flavor < 8; ++flavor)
    cache.insert(key(7, /*gen=*/1, flavor), static_cast<int>(flavor), 100);

  // The generation is part of the key: after a bump every old-generation
  // key simply never matches again -- no flush required for correctness.
  int got = 0;
  for (std::uint64_t flavor = 0; flavor < 8; ++flavor)
    EXPECT_FALSE(cache.lookup(key(7, /*gen=*/2, flavor), got));
  CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 8u);
  EXPECT_EQ(s.resident_entries, 8u) << "stale entries linger until reclaimed";

  // invalidate() is the space reclaim: all generations and flavors of the
  // snapshot drop in one walk, counted as evictions.
  EXPECT_EQ(cache.invalidate(7), 8u);
  s = cache.stats();
  EXPECT_EQ(s.evictions, 8u);
  EXPECT_EQ(s.resident_entries, 0u);
  EXPECT_EQ(s.resident_bytes, 0u);
  for (std::uint64_t flavor = 0; flavor < 8; ++flavor)
    EXPECT_FALSE(cache.lookup(key(7, /*gen=*/1, flavor), got));
}

TEST(LruCache, InvalidateDropsOnlyTheNamedSnapshot) {
  IntCache cache(/*byte_budget=*/1 << 20, /*shards=*/1);  // force sharing
  cache.insert(key(1, 1, 0), 10, 50);
  cache.insert(key(2, 1, 0), 20, 50);
  cache.insert(key(1, 2, 0), 11, 50);
  EXPECT_EQ(cache.invalidate(1), 2u);  // both generations of snapshot 1
  int got = 0;
  EXPECT_FALSE(cache.lookup(key(1, 1, 0), got));
  EXPECT_FALSE(cache.lookup(key(1, 2, 0), got));
  EXPECT_TRUE(cache.lookup(key(2, 1, 0), got));
  EXPECT_EQ(got, 20);
}

TEST(LruCache, ReplaceInPlaceIsAnInsertNotAnEviction) {
  IntCache cache(/*byte_budget=*/100, /*shards=*/1);
  cache.insert(key(1, 1, 0), 10, 40);
  cache.insert(key(1, 1, 0), 99, 60);  // refresh under the same key
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.inserts, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.resident_entries, 1u);
  EXPECT_EQ(s.resident_bytes, 60u) << "the new charge replaces the old";
  int got = 0;
  ASSERT_TRUE(cache.lookup(key(1, 1, 0), got));
  EXPECT_EQ(got, 99);
}

TEST(LruCache, EntryLargerThanShardSliceIsRefusedResidency) {
  // A single entry above the per-shard budget slice must not pin the
  // cache over budget: it is refused outright (one insert, one eviction).
  IntCache cache(/*byte_budget=*/100, /*shards=*/1);
  cache.insert(key(1, 1, 0), 10, 150);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.resident_entries, 0u);
  EXPECT_EQ(s.resident_bytes, 0u);
  int got = 0;
  EXPECT_FALSE(cache.lookup(key(1, 1, 0), got));
}

TEST(LruCache, OverSliceInsertLeavesResidentEntriesUntouched) {
  // Regression: the over-slice refusal used to be implemented by admitting
  // the entry and then evicting from the LRU back until under budget --
  // which flushed every innocent resident before reaching the oversized
  // entry itself. The refusal must not perturb the resident set or its
  // byte accounting.
  IntCache cache(/*byte_budget=*/100, /*shards=*/1);
  cache.insert(key(1, 1, 0), 10, 30);
  cache.insert(key(1, 1, 1), 11, 30);
  cache.insert(key(1, 1, 2), 12, 30);

  cache.insert(key(1, 1, 3), 13, 150);  // over-slice: refused, not admitted

  CacheStats s = cache.stats();
  EXPECT_EQ(s.inserts, 4u);
  EXPECT_EQ(s.evictions, 1u) << "only the oversized entry is dropped";
  EXPECT_EQ(s.resident_entries, 3u) << "innocent residents must survive";
  EXPECT_EQ(s.resident_bytes, 90u) << "byte accounting must be unperturbed";
  int got = 0;
  EXPECT_TRUE(cache.lookup(key(1, 1, 0), got));
  EXPECT_EQ(got, 10);
  EXPECT_TRUE(cache.lookup(key(1, 1, 1), got));
  EXPECT_TRUE(cache.lookup(key(1, 1, 2), got));
  EXPECT_FALSE(cache.lookup(key(1, 1, 3), got));

  // A refused re-insert of an existing key keeps the prior (fitting)
  // value resident -- artifacts are deterministic per key.
  cache.insert(key(1, 1, 0), 99, 500);
  ASSERT_TRUE(cache.lookup(key(1, 1, 0), got));
  EXPECT_EQ(got, 10);
  s = cache.stats();
  EXPECT_EQ(s.resident_bytes, 90u);
}

TEST(LruCache, ResetCountersKeepsResidentEntries) {
  IntCache cache(/*byte_budget=*/1 << 20, /*shards=*/2);
  cache.insert(key(1, 1, 0), 10, 100);
  int got = 0;
  ASSERT_TRUE(cache.lookup(key(1, 1, 0), got));
  ASSERT_FALSE(cache.lookup(key(1, 1, 1), got));

  cache.reset_counters();
  CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.inserts, 0u);
  EXPECT_EQ(s.resident_entries, 1u) << "a stats reset must not cool the cache";
  EXPECT_EQ(s.resident_bytes, 100u);

  // The retained entry still answers -- and counts from zero.
  ASSERT_TRUE(cache.lookup(key(1, 1, 0), got));
  EXPECT_EQ(got, 10);
  s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 0u);
}

// Shadow LRU with the cache's exact semantics (single shard): refuse an
// over-budget entry outright, replace in place on a duplicate key,
// push-front on insert/hit, evict from the back while over budget. The
// seeded sweep below compares every lookup outcome and the final
// occupancy against it.
class ShadowLru {
 public:
  explicit ShadowLru(std::size_t budget) : budget_(budget) {}

  bool lookup(const CacheKey& k, int& out) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->first == k) {
        out = it->second.first;
        lru_.splice(lru_.begin(), lru_, it);
        return true;
      }
    }
    return false;
  }

  void insert(const CacheKey& k, int value, std::size_t bytes) {
    if (bytes > budget_) return;  // over-slice refusal, residents untouched
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->first == k) {
        bytes_ -= it->second.second;
        lru_.erase(it);
        break;
      }
    }
    lru_.emplace_front(k, std::make_pair(value, bytes));
    bytes_ += bytes;
    while (bytes_ > budget_ && !lru_.empty()) {
      bytes_ -= lru_.back().second.second;
      lru_.pop_back();
    }
  }

  std::size_t bytes() const { return bytes_; }
  std::size_t entries() const { return lru_.size(); }

 private:
  std::size_t budget_;
  std::size_t bytes_ = 0;
  std::list<std::pair<CacheKey, std::pair<int, std::size_t>>> lru_;
};

class LruCacheSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruCacheSweep, SeededOpsMatchShadowModelAndConserveCounters) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  constexpr std::size_t kBudget = 500;
  IntCache cache(kBudget, /*shards=*/1);
  ShadowLru shadow(kBudget);

  std::uint64_t lookups = 0;
  for (int step = 0; step < 2000; ++step) {
    SCOPED_TRACE("repro: seed=" + std::to_string(seed) +
                 " step=" + std::to_string(step));
    const CacheKey k = key(rng.uniform(3) + 1, rng.uniform(3) + 1,
                           rng.uniform(6));
    if (rng.coin(0.6)) {
      int got = -1, want = -1;
      const bool hit = cache.lookup(k, got);
      const bool shadow_hit = shadow.lookup(k, want);
      ++lookups;
      ASSERT_EQ(hit, shadow_hit) << "hit/miss diverged from the LRU model";
      if (hit) ASSERT_EQ(got, want);
    } else {
      const int value = static_cast<int>(rng.uniform(1 << 20));
      // Occasionally above the 500-byte budget, so the sweep also
      // exercises the over-slice refusal path against the model.
      const std::size_t bytes = rng.uniform(600) + 1;
      cache.insert(k, value, bytes);
      shadow.insert(k, value, bytes);
    }
    const CacheStats s = cache.stats();
    ASSERT_EQ(s.hits + s.misses, lookups)
        << "counters must conserve: hits + misses == lookups";
    ASSERT_LE(s.resident_bytes, kBudget);
  }

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.resident_bytes, shadow.bytes());
  EXPECT_EQ(s.resident_entries, shadow.entries());
  EXPECT_GT(s.hits, 0u) << "a 2000-step sweep over 54 keys must hit";
  EXPECT_GT(s.evictions, 0u) << "a 500-byte budget must evict";
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruCacheSweep,
                         ::testing::Values(1, 7, 42, 1234, 99991));

TEST(SlabCacheKeying, RequestFlavorsNeverCollide) {
  // Every (rank, op, method) request shape must key a distinct result
  // slot; rank ignores the operator so every rank of one method shares one.
  std::vector<std::uint64_t> seen;
  for (const Method m : {Method::kAuto, Method::kSerial, Method::kReidMiller,
                         Method::kReidMillerEncoded}) {
    seen.push_back(request_flavor(/*rank=*/true, ScanOp::kPlus, m));
    for (const ScanOp op : kAllScanOps)
      seen.push_back(request_flavor(/*rank=*/false, op, m));
  }
  for (std::size_t i = 0; i < seen.size(); ++i)
    for (std::size_t j = i + 1; j < seen.size(); ++j)
      EXPECT_NE(seen[i], seen[j]) << "flavors " << i << " and " << j;
  EXPECT_EQ(request_flavor(true, ScanOp::kPlus, Method::kAuto),
            request_flavor(true, ScanOp::kXor, Method::kAuto))
      << "rank must ignore the scan operator";
}

}  // namespace
}  // namespace lr90::serve
