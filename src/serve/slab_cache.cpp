#include "serve/slab_cache.hpp"

namespace lr90::serve {

std::uint64_t request_flavor(bool rank, ScanOp op, Method method) {
  // Rank ignores the operator (it always combines by addition), so every
  // rank request of one method shares a flavor -- one memoized result
  // answers them all -- while scans key on their operator.
  const std::uint64_t op_word =
      rank ? 0 : static_cast<std::uint64_t>(op) + 1;
  return (rank ? 1ULL : 0ULL) | (op_word << 1) |
         (static_cast<std::uint64_t>(method) << 32);
}

std::size_t result_bytes(const RunResult& r) {
  return r.scan.capacity() * sizeof(value_t) + r.status.message.capacity() +
         sizeof(RunResult);
}

}  // namespace lr90::serve
