#include "shard/shard_store.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <system_error>

#include "core/host_exec.hpp"

namespace lr90::shard {

ShardedList ShardedList::build(const LinkedList& list, unsigned shards,
                               unsigned threads) {
  ShardedList s;
  s.n = list.size();
  if (s.n == 0) {
    s.heads_of.resize(1);
    s.seg_base.assign(1, 0);
    return s;
  }
  const std::size_t cap = std::min<std::size_t>(s.n, kMaxShards);
  s.shards = static_cast<unsigned>(
      std::clamp<std::size_t>(shards == 0 ? 1 : shards, 1, cap));
  s.width = (s.n + s.shards - 1) / s.shards;
  s.heads_of.resize(s.shards);
  s.seg_base.resize(s.shards);
  // A vertex heads a segment when it is the global head or the target of
  // a link that leaves its source's shard. Every pass below runs one shard
  // per claimed block: clear the shard's seg_of slice; mark the targets of
  // the shard's outgoing cross-shard links (the one pass that writes other
  // slices; atomic stores, since a malformed list may mark a vertex from
  // two shards); collect the marked vertices of the slice in id order;
  // then, once the prefix sums give each shard its first id, number them.
  constexpr index_t kMarked = 0;
  s.seg_of.resize(s.n);
  index_t* seg_of = s.seg_of.data();
  const index_t* nx = list.next.data();
  const auto each_shard = [&](auto&& body) {
    host_exec::claim_blocks(threads, s.shards, [&](std::size_t p) {
      const auto [b, e] = s.range(static_cast<unsigned>(p));
      body(p, b, e);
    });
  };
  each_shard([&](std::size_t, std::size_t b, std::size_t e) {
    std::fill(seg_of + b, seg_of + e, kNoVertex);
  });
  seg_of[list.head] = kMarked;
  each_shard([&](std::size_t, std::size_t b, std::size_t e) {
    for (std::size_t v = b; v < e; ++v) {
      const index_t t = nx[v];
      if (t - b >= e - b)  // unsigned: t lies outside [b, e)
        std::atomic_ref<index_t>(seg_of[t]).store(kMarked,
                                                  std::memory_order_relaxed);
    }
  });
  each_shard([&](std::size_t p, std::size_t b, std::size_t e) {
    std::vector<index_t>& heads = s.heads_of[p];
    for (std::size_t v = b; v < e; ++v)
      if (seg_of[v] != kNoVertex) heads.push_back(static_cast<index_t>(v));
  });
  std::size_t m = 0;
  for (unsigned p = 0; p < s.shards; ++p) {
    s.seg_base[p] = m;
    m += s.heads_of[p].size();
  }
  s.segments = m;
  each_shard([&](std::size_t p, std::size_t, std::size_t) {
    const std::vector<index_t>& heads = s.heads_of[p];
    for (std::size_t i = 0; i < heads.size(); ++i)
      seg_of[heads[i]] = static_cast<index_t>(s.seg_base[p] + i);
  });
  return s;
}

ShardStore::~ShardStore() {
  if (prefetcher_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    prefetcher_.join();
  }
  resident_.clear();
  if (spill_) drop_spill_dir(dir_);
}

void ShardStore::prepare(const LinkedList& list, const ShardedList& sharded,
                         bool spill, const std::string& dir,
                         unsigned threads) {
  list_ = &list;
  sharded_ = &sharded;
  spill_ = spill && sharded.n > 0;
  dir_ = dir;
  if (!spill_) return;
  degraded_.assign(sharded.shards, 0);
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // Each shard's file is independent: write them one shard per claimed
  // block, then fold the outcomes into the counters in shard order.
  std::vector<char> written(sharded.shards, 0);
  host_exec::claim_blocks(threads, sharded.shards, [&](std::size_t p) {
    written[p] = write_shard(static_cast<unsigned>(p));
  });
  for (unsigned p = 0; p < sharded.shards; ++p) {
    if (written[p]) {
      const auto [b, e] = sharded.range(p);
      stats_.spill_bytes += sizeof(ShardHeader) + shard_payload_bytes(e - b);
      continue;
    }
    // ENOSPC/EIO mid-spill. The source list is resident by contract, so
    // the shard can always be served from RAM: degrade it (counted)
    // instead of failing the whole run.
    ++stats_.write_errors;
    degraded_[p] = 1;
    ++stats_.degraded;
  }
  stats_.spilled = true;
  if (sharded.shards > 1) {
    target_ = 0;  // prime: fault shard 0 in while the caller finishes setup
    prefetcher_ = std::thread([this] { prefetch_loop(); });
  }
}

bool ShardStore::write_shard(unsigned p) const {
  const auto [b, e] = sharded_->range(p);
  ShardHeader h;
  h.shard_index = p;
  h.begin = b;
  h.end = e;
  h.total_n = sharded_->n;
  h.payload_bytes = shard_payload_bytes(e - b);
  return write_shard_file(dir_ + "/" + shard_file_name(p), h,
                          list_->next.data() + b, list_->value.data() + b);
}

ShardStore::LoadOutcome ShardStore::load_shard(unsigned p) {
  const auto [b, e] = sharded_->range(p);
  const std::string path = dir_ + "/" + shard_file_name(p);
  LoadOutcome out;
  if (out.map.open(path, p, b, e, sharded_->n)) return out;
  if (out.map.error() == ShardLoadError::kCorrupt) out.corrupt = true;
  // Recovery: whatever broke the slab (torn write, bit rot, a vanished
  // file), the source arrays are resident -- re-pack and retry once. A
  // second failure falls through empty; the caller degrades the shard.
  if (write_shard(p)) {
    out.repacked = true;
    out.map.open(path, p, b, e, sharded_->n);
  }
  return out;
}

ShardView ShardStore::resident_view(unsigned p) const {
  const auto [b, e] = sharded_->range(p);
  return ShardView{list_->next.data() + b, list_->value.data() + b, b, e};
}

ShardView ShardStore::acquire(unsigned p) {
  const auto [b, e] = sharded_->range(p);
  if (!spill_) return resident_view(p);
  std::unique_lock<std::mutex> lk(mu_);
  // Depth-1 lookahead: pass A visits shards in ascending order, so the
  // next shard is always p + 1.
  const auto hint_next_locked = [&] {
    if (prefetcher_.joinable() && p + 1 < sharded_->shards &&
        !degraded_[p + 1] &&
        resident_.find(p + 1) == resident_.end() && in_flight_ != p + 1) {
      target_ = p + 1;
      cv_.notify_all();
    }
  };
  for (;;) {
    if (degraded_[p]) {
      // The spill tier is broken for this shard; serve it straight from
      // the resident source arrays (nothing to unmap on release).
      hint_next_locked();
      return resident_view(p);
    }
    auto it = resident_.find(p);
    if (it == resident_.end()) {
      if (in_flight_ == p || target_ == p) {
        cv_.wait(lk);  // the prefetcher is on it; re-check on wake
        continue;
      }
      // Synchronous load. Drop the lock for the I/O: the prefetcher may be
      // mapping a different shard concurrently. Only this (orchestrator)
      // thread sets target_, so nobody else can start loading p meanwhile.
      lk.unlock();
      LoadOutcome lo = load_shard(p);
      lk.lock();
      if (lo.corrupt) ++stats_.corrupt_slabs;
      if (lo.repacked) ++stats_.repacks;
      if (!lo.map) {
        degraded_[p] = 1;
        ++stats_.degraded;
        continue;  // served by the degraded branch above
      }
      ++stats_.loads;
      it = resident_.emplace(p, Resident{std::move(lo.map)}).first;
    }
    Resident& res = it->second;
    if (res.from_prefetch) {
      res.from_prefetch = false;
      ++stats_.prefetch_hits;
    }
    hint_next_locked();
    return ShardView{res.map.next(), res.map.value(), b, e};
  }
}

void ShardStore::release(unsigned p) {
  if (!spill_) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (resident_.erase(p) > 0) ++stats_.spills;  // a degraded shard maps none
}

StoreStats ShardStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void ShardStore::prefetch_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [this] { return shutdown_ || target_.has_value(); });
    if (shutdown_) return;
    const unsigned p = *target_;
    target_.reset();
    if (resident_.find(p) != resident_.end() || degraded_[p]) continue;
    in_flight_ = p;
    lk.unlock();
    LoadOutcome lo = load_shard(p);
    // The actual prefetch: pages resident on arrival (the checksum pass
    // in open() already faulted them; this keeps them warm).
    if (lo.map) lo.map.touch_pages();
    lk.lock();
    in_flight_.reset();
    if (lo.corrupt) ++stats_.corrupt_slabs;
    if (lo.repacked) ++stats_.repacks;
    // A failed prefetch is NOT degraded here: the acquire path retries
    // synchronously and owns the degrade decision.
    if (!shutdown_ && lo.map && resident_.find(p) == resident_.end()) {
      ++stats_.loads;
      resident_.emplace(p, Resident{std::move(lo.map), true});
    }
    cv_.notify_all();  // an acquire may be blocked on this shard
  }
}

}  // namespace lr90::shard
