#include "lists/generators.hpp"

#include <cassert>
#include <numeric>

#include "support/huge_pages.hpp"

namespace lr90 {

void init_values(LinkedList& list, ValueInit init, Rng* rng) {
  switch (init) {
    case ValueInit::kOnes:
      for (auto& v : list.value) v = 1;
      break;
    case ValueInit::kIndex:
      std::iota(list.value.begin(), list.value.end(), value_t{0});
      break;
    case ValueInit::kUniformSmall:
      assert(rng && "kUniformSmall requires an Rng");
      for (auto& v : list.value)
        v = static_cast<value_t>(rng->uniform(1000));
      break;
    case ValueInit::kSigned:
      assert(rng && "kSigned requires an Rng");
      for (auto& v : list.value)
        v = static_cast<value_t>(rng->uniform(1000)) - 500;
      break;
  }
}

LinkedList list_from_order(std::span<const index_t> order, ValueInit init,
                           Rng* rng) {
  LinkedList list;
  const std::size_t n = order.size();
  reserve_huge(list.next, n);
  reserve_huge(list.value, n);
  list.next.assign(n, 0);
  list.value.assign(n, 0);
  if (n == 0) return list;
  list.head = order[0];
  for (std::size_t i = 0; i + 1 < n; ++i) {
    assert(order[i] < n);
    list.next[order[i]] = order[i + 1];
  }
  list.next[order[n - 1]] = order[n - 1];  // tail self-loop
  list.tail = order[n - 1];
  init_values(list, init, rng);
  return list;
}

LinkedList random_list(std::size_t n, Rng& rng, ValueInit init) {
  std::vector<index_t> order(n);
  rng.permutation(order);
  return list_from_order(order, init, &rng);
}

LinkedList sequential_list(std::size_t n, ValueInit init, Rng* rng) {
  std::vector<index_t> order(n);
  std::iota(order.begin(), order.end(), index_t{0});
  return list_from_order(order, init, rng);
}

LinkedList reversed_list(std::size_t n, ValueInit init, Rng* rng) {
  std::vector<index_t> order(n);
  for (std::size_t i = 0; i < n; ++i)
    order[i] = static_cast<index_t>(n - 1 - i);
  return list_from_order(order, init, rng);
}

LinkedList blocked_list(std::size_t n, std::size_t block, Rng& rng,
                        ValueInit init) {
  assert(block > 0);
  const std::size_t nblocks = (n + block - 1) / block;
  std::vector<index_t> border(nblocks);
  rng.permutation(border);
  std::vector<index_t> order;
  order.reserve(n);
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t start = static_cast<std::size_t>(border[b]) * block;
    const std::size_t end = std::min(start + block, n);
    for (std::size_t i = start; i < end; ++i)
      order.push_back(static_cast<index_t>(i));
  }
  assert(order.size() == n);
  return list_from_order(order, init, &rng);
}

}  // namespace lr90
