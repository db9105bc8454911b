#include "shard/shard_store.hpp"

#include <algorithm>
#include <atomic>

#include "core/host_exec.hpp"

namespace lr90::shard {

ShardedList ShardedList::build(const LinkedList& list, unsigned shards,
                               unsigned threads, Workspace& ws) {
  ShardedList s;
  s.n = list.size();
  if (s.n == 0) {
    s.seg_base.assign(2, 0);
    return s;
  }
  const std::size_t cap = std::min<std::size_t>(s.n, kMaxShards);
  s.shards = static_cast<unsigned>(
      std::clamp<std::size_t>(shards == 0 ? 1 : shards, 1, cap));
  s.width = (s.n + s.shards - 1) / s.shards;
  s.seg_base.assign(s.shards + 1, 0);
  // A vertex heads a segment when it is the global head or the target of
  // a link that leaves its source's shard. Every pass below runs one shard
  // per claimed block: clear the shard's seg_of slice; mark the targets of
  // the shard's outgoing cross-shard links (the one pass that writes other
  // slices; atomic stores, since a malformed list may mark a vertex from
  // two shards); count the marked vertices of the slice; then, once the
  // prefix sums give each shard its first id, number and collect them.
  constexpr index_t kMarked = 0;
  s.seg_of = ws.fit_uninit(ws.seg_of, s.n);
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
    s.seg_base[p + 1] = static_cast<std::size_t>(
        std::count_if(seg_of + b, seg_of + e,
                      [](index_t x) { return x != kNoVertex; }));
  });
  for (unsigned p = 0; p < s.shards; ++p) s.seg_base[p + 1] += s.seg_base[p];
  s.segments = s.seg_base[s.shards];
  index_t* heads = ws.fit_uninit(ws.seg_heads, s.segments).data();
  each_shard([&](std::size_t p, std::size_t b, std::size_t e) {
    std::size_t id = s.seg_base[p];
    for (std::size_t v = b; v < e; ++v) {
      if (seg_of[v] == kNoVertex) continue;
      heads[id] = static_cast<index_t>(v);
      seg_of[v] = static_cast<index_t>(id++);
    }
  });
  s.heads = {heads, s.segments};
  return s;
}

}  // namespace lr90::shard
