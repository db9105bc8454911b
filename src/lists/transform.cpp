#include "lists/transform.hpp"

#include <cassert>
#include <utility>

#include "lists/generators.hpp"

namespace lr90 {

namespace {

/// Rank of `list` on an Engine configured by `opt`.
std::vector<value_t> engine_rank(const LinkedList& list,
                                 const EngineOptions& opt) {
  Engine engine(opt);
  RunResult r = engine.run(RankRequest{&list});
  assert(r.ok());
  return std::move(r.scan);
}

std::vector<value_t> rank_or(const LinkedList& list,
                             std::span<const value_t> rank) {
  if (!rank.empty()) {
    assert(rank.size() == list.size());
    return std::vector<value_t>(rank.begin(), rank.end());
  }
  return engine_rank(list, EngineOptions{});
}

}  // namespace

std::vector<value_t> list_to_array(const LinkedList& list,
                                   std::span<const value_t> rank) {
  const std::vector<value_t> r = rank_or(list, rank);
  std::vector<value_t> out(list.size());
  for (std::size_t v = 0; v < list.size(); ++v)
    out[static_cast<std::size_t>(r[v])] = list.value[v];
  return out;
}

std::vector<index_t> order_permutation(const LinkedList& list,
                                       std::span<const value_t> rank) {
  const std::vector<value_t> r = rank_or(list, rank);
  std::vector<index_t> out(list.size());
  for (std::size_t v = 0; v < list.size(); ++v)
    out[static_cast<std::size_t>(r[v])] = static_cast<index_t>(v);
  return out;
}

LinkedList reverse_list(const LinkedList& list) {
  LinkedList rev;
  rev.value = list.value;
  rev.next.assign(list.size(), 0);
  if (list.empty()) {
    rev.head = kNoVertex;
    return rev;
  }
  // pred links: rev.next[next[v]] = v; old head becomes the new tail
  // (self-loop), old tail the new head.
  index_t tail = list.head;
  for (std::size_t v = 0; v < list.size(); ++v) {
    if (list.next[v] == static_cast<index_t>(v)) {
      rev.head = static_cast<index_t>(v);
    } else {
      rev.next[list.next[v]] = static_cast<index_t>(v);
    }
  }
  rev.next[tail] = tail;
  rev.tail = tail;
  return rev;
}

std::vector<LinkedList> split_list(const LinkedList& list,
                                   std::span<const index_t> cut_after) {
  std::vector<LinkedList> parts;
  if (list.empty()) return parts;
  std::vector<std::uint8_t> is_cut(list.size(), 0);
  for (const index_t c : cut_after) {
    assert(c < list.size());
    is_cut[c] = 1;
  }

  LinkedList cur;
  std::vector<index_t> order;  // original indices of the current part
  auto flush = [&]() {
    const std::size_t k = order.size();
    cur.next.resize(k);
    cur.value.resize(k);
    cur.head = 0;
    cur.tail = k > 0 ? static_cast<index_t>(k - 1) : kNoVertex;
    for (std::size_t i = 0; i < k; ++i) {
      cur.next[i] = static_cast<index_t>(i + 1 < k ? i + 1 : i);
      cur.value[i] = list.value[order[i]];
    }
    parts.push_back(std::move(cur));
    cur = LinkedList{};
    order.clear();
  };

  for_each_in_order(list, [&](index_t v, std::size_t) {
    order.push_back(v);
    if (is_cut[v] && list.next[v] != v) flush();
  });
  flush();  // the final part (always ends at the global tail)
  return parts;
}

LinkedList concat_lists(std::span<const LinkedList> lists) {
  LinkedList out;
  std::size_t total = 0;
  for (const auto& l : lists) total += l.size();
  out.next.reserve(total);
  out.value.reserve(total);

  std::size_t base = 0;
  index_t prev_tail = kNoVertex;
  for (const auto& l : lists) {
    if (l.empty()) continue;
    for (std::size_t v = 0; v < l.size(); ++v) {
      const bool self = l.next[v] == static_cast<index_t>(v);
      out.next.push_back(static_cast<index_t>(
          self ? base + v : base + l.next[v]));
      out.value.push_back(l.value[v]);
    }
    const index_t head_here = static_cast<index_t>(base + l.head);
    if (prev_tail == kNoVertex) {
      out.head = head_here;
    } else {
      out.next[prev_tail] = head_here;
    }
    prev_tail = static_cast<index_t>(base + l.find_tail());
    base += l.size();
  }
  if (out.next.empty()) out.head = kNoVertex;
  out.tail = prev_tail;  // kNoVertex when every input was empty
  return out;
}

std::vector<std::vector<value_t>> rank_many(std::span<const LinkedList> lists,
                                            const EngineOptions& opt) {
  const LinkedList joined = concat_lists(lists);
  const std::vector<value_t> rank = engine_rank(joined, opt);
  std::vector<std::vector<value_t>> out;
  out.reserve(lists.size());
  std::size_t base_index = 0;   // vertex-id offset of this part in `joined`
  value_t base_rank = 0;        // traversal offset of this part
  for (const auto& l : lists) {
    std::vector<value_t> part(l.size());
    for (std::size_t v = 0; v < l.size(); ++v)
      part[v] = rank[base_index + v] - base_rank;
    out.push_back(std::move(part));
    base_index += l.size();
    base_rank += static_cast<value_t>(l.size());
  }
  return out;
}

LinkedList list_of_permutation(std::span<const index_t> perm) {
  std::vector<index_t> order(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    assert(perm[i] < perm.size());
    order[i] = perm[i];
  }
  return list_from_order(order, ValueInit::kOnes, nullptr);
}

}  // namespace lr90
