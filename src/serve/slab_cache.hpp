// A bounded, sharded LRU cache keyed on snapshot generations -- the
// cross-request caching layer of the serving stack.
//
// The packed hot word (lists/encode.hpp) makes the O(n) slab build the
// dominant fixed cost per request once traversal is latency-hidden; a run
// over a caller-owned list pays it every time, because arbitrary callers
// can mutate arrays between runs. The SnapshotRegistry
// (serve/snapshot.hpp) removes that caveat -- server-registered lists are
// immutable and generation-stamped -- so cached artifacts keyed on
// (snapshot_id, generation) can outlive a run, a worker, and a client.
//
// One template, two instantiations in EngineServer:
//
//   * the SLAB cache: shared_ptr<const PackedSlab> per (snapshot,
//     generation, ones-flag) -- any pooled worker reuses any other
//     worker's build; steady-state hot keys do ZERO packs.
//   * the RESULT cache: shared_ptr<const RunResult> per (snapshot,
//     generation, request shape) -- repeated hot-key requests are
//     answered without touching an engine at all; steady state does ZERO
//     ranks.
//
// Eviction is LRU under a byte budget, split evenly across lock shards
// (all generations of one snapshot land in one shard, so invalidation is
// one shard walk). Generation bumps alone already make stale entries
// unreachable -- the generation is in the key -- so invalidate() is a
// space reclaim, not a correctness requirement.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "lists/ops.hpp"

namespace lr90::serve {

// -- keying helpers (the cache-keying contract; see ARCHITECTURE.md) -------

/// Slab-cache flavor for a slab whose value lane carries list values
/// (lane-capable scans).
inline constexpr std::uint64_t kSlabFlavorValues = 0;
/// Slab-cache flavor for a slab whose value lane is the constant 1
/// (ranking).
inline constexpr std::uint64_t kSlabFlavorOnes = 1;

/// Result-cache flavor: the request shape (rank-or-scan, operator,
/// method) packed into one word, so distinct shapes never collide.
std::uint64_t request_flavor(bool rank, ScanOp op, Method method);

/// Admission charge of a memoized RunResult (the scan vector plus the
/// struct itself), for byte-budget accounting.
std::size_t result_bytes(const RunResult& r);

/// Identity of a cached artifact: which immutable snapshot generation it
/// was derived from, plus a flavor word distinguishing artifact shapes
/// (the ones-flag for slabs; the packed request shape for results).
struct CacheKey {
  std::uint64_t snapshot_id = 0;  ///< registry-issued snapshot id
  std::uint64_t generation = 0;   ///< generation the artifact was built at
  std::uint64_t flavor = 0;       ///< artifact shape discriminator
  /// Field-wise equality.
  bool operator==(const CacheKey&) const = default;
};

/// Hash for CacheKey (splitmix64 over the three words).
struct CacheKeyHash {
  /// The hash value.
  std::size_t operator()(const CacheKey& k) const {
    auto mix = [](std::uint64_t x) {
      x += 0x9e3779b97f4a7c15ULL;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return x ^ (x >> 31);
    };
    return static_cast<std::size_t>(
        mix(k.snapshot_id ^ mix(k.generation ^ mix(k.flavor))));
  }
};

/// Counter snapshot of one LruCache. The first four are cumulative since
/// the last reset_counters(); the last two are gauges of current
/// occupancy (never reset -- they follow the cache's actual content).
/// Conservation: hits + misses == lookups, always.
struct CacheStats {
  std::uint64_t hits = 0;        ///< lookups served from the cache
  std::uint64_t misses = 0;      ///< lookups that found nothing
  std::uint64_t evictions = 0;   ///< entries dropped (budget or invalidate)
  std::uint64_t inserts = 0;     ///< entries admitted
  std::uint64_t resident_bytes = 0;    ///< bytes currently held (gauge)
  std::uint64_t resident_entries = 0;  ///< entries currently held (gauge)
};

/// A bounded LRU map from CacheKey to a value, sharded by snapshot id so
/// concurrent workers rarely contend and invalidation of one snapshot
/// walks one shard. The byte budget is split evenly across shards; an
/// insert evicts least-recently-used entries of its shard until the shard
/// is back under its slice (an entry larger than the slice is refused
/// outright, leaving the resident set untouched -- resident bytes never
/// exceed the budget).
///
/// `Value` must be cheap to copy out under the shard lock; the serving
/// layer instantiates it with shared_ptr-to-const artifacts.
template <class Value>
class LruCache {
 public:
  /// A cache holding at most `byte_budget` bytes across `shards` lock
  /// shards (clamped to >= 1).
  explicit LruCache(std::size_t byte_budget, unsigned shards = 8)
      : budget_per_shard_(byte_budget / (shards < 1 ? 1 : shards)),
        shards_(shards < 1 ? 1 : shards) {}

  /// Looks `key` up; on a hit copies the value into `out`, marks the
  /// entry most-recently-used, and returns true.
  bool lookup(const CacheKey& key, Value& out) {
    Shard& s = shard_of(key.snapshot_id);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(key);
    if (it == s.index.end()) {
      ++s.misses;
      return false;
    }
    ++s.hits;
    s.lru.splice(s.lru.begin(), s.lru, it->second);  // touch: most recent
    out = it->second->value;
    return true;
  }

  /// Admits (key -> value) charged at `bytes`, replacing any previous
  /// entry under the same key, then evicts least-recently-used entries
  /// until the shard is back under its budget slice. An entry that alone
  /// exceeds the slice is refused up front (counted as one insert plus
  /// one eviction) without touching the entries already resident.
  void insert(const CacheKey& key, Value value, std::size_t bytes) {
    Shard& s = shard_of(key.snapshot_id);
    std::lock_guard<std::mutex> lock(s.mu);
    if (bytes > budget_per_shard_) {
      // Admitting this entry and letting the LRU walk reclaim space would
      // evict every innocent resident before reaching the oversized entry
      // itself -- a cache wipe with nothing to show for it. Refuse it
      // outright: the books record an admission and an immediate drop,
      // and the shard's resident set and byte accounting are untouched.
      // (Any prior entry under the same key stays: artifacts are
      // deterministic per key, so it is the same value at a size that
      // already fit.)
      ++s.inserts;
      ++s.evictions;
      return;
    }
    auto it = s.index.find(key);
    if (it != s.index.end()) {  // replace in place (refresh, not eviction)
      s.bytes -= it->second->bytes;
      s.lru.erase(it->second);
      s.index.erase(it);
    }
    s.lru.push_front(Entry{key, std::move(value), bytes});
    s.index.emplace(key, s.lru.begin());
    s.bytes += bytes;
    ++s.inserts;
    while (s.bytes > budget_per_shard_ && !s.lru.empty()) {
      const Entry& victim = s.lru.back();
      s.bytes -= victim.bytes;
      s.index.erase(victim.key);
      s.lru.pop_back();
      ++s.evictions;
    }
  }

  /// Drops every entry of `snapshot_id` -- all generations, all flavors
  /// (one shard walk; counted as evictions). Returns how many were
  /// dropped. A space reclaim after update()/drop(): the generation key
  /// already makes stale entries unreachable.
  std::size_t invalidate(std::uint64_t snapshot_id) {
    Shard& s = shard_of(snapshot_id);
    std::lock_guard<std::mutex> lock(s.mu);
    std::size_t dropped = 0;
    for (auto it = s.lru.begin(); it != s.lru.end();) {
      if (it->key.snapshot_id == snapshot_id) {
        s.bytes -= it->bytes;
        s.index.erase(it->key);
        it = s.lru.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    s.evictions += dropped;
    return dropped;
  }

  /// Sums the per-shard counters into one CacheStats snapshot.
  CacheStats stats() const {
    CacheStats out;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      out.hits += s.hits;
      out.misses += s.misses;
      out.evictions += s.evictions;
      out.inserts += s.inserts;
      out.resident_bytes += s.bytes;
      out.resident_entries += s.lru.size();
    }
    return out;
  }

  /// Zeroes the cumulative counters (hits/misses/evictions/inserts).
  /// Resident entries -- and therefore the occupancy gauges -- are
  /// untouched: a stats reset must not cool a warmed cache.
  void reset_counters() {
    for (Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      s.hits = s.misses = s.evictions = s.inserts = 0;
    }
  }

 private:
  struct Entry {
    CacheKey key;       ///< the entry's identity (for reverse erase)
    Value value;        ///< the cached artifact
    std::size_t bytes;  ///< admission charge
  };
  struct Shard {
    mutable std::mutex mu;  ///< guards everything below
    std::list<Entry> lru;   ///< front = most recently used
    std::unordered_map<CacheKey, typename std::list<Entry>::iterator,
                       CacheKeyHash>
        index;                  ///< key -> LRU position
    std::size_t bytes = 0;      ///< resident charge of this shard
    std::uint64_t hits = 0;       ///< cumulative lookup hits
    std::uint64_t misses = 0;     ///< cumulative lookup misses
    std::uint64_t evictions = 0;  ///< cumulative drops (budget/invalidate)
    std::uint64_t inserts = 0;    ///< cumulative admissions
  };

  Shard& shard_of(std::uint64_t snapshot_id) {
    // All generations/flavors of one snapshot share a shard (one-walk
    // invalidation); mix so consecutive ids spread across shards.
    return shards_[CacheKeyHash{}(CacheKey{snapshot_id, 0, 0}) %
                   shards_.size()];
  }

  std::size_t budget_per_shard_;  ///< byte budget / shard count
  std::vector<Shard> shards_;    ///< fixed after construction
};

}  // namespace lr90::serve
