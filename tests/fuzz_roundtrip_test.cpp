// Fuzz-style round-trip and corruption coverage for lists/encode.hpp and
// lists/validate.hpp: seeded random lists survive encode/decode
// bit-exactly, and every class of structural corruption -- out-of-range
// next-pointers, planted self-loops, removed tails, multi-head splits,
// short cycles, mismatched arrays -- is rejected by the validator and
// surfaces from the Engine as typed StatusCode::kInvalidInput, never as
// undefined behaviour (the asan-ubsan CI job runs this suite). Every
// assertion carries the reproducing seed.
#include <gtest/gtest.h>

#include <sstream>

#include "core/engine.hpp"
#include "lists/encode.hpp"
#include "lists/generators.hpp"
#include "lists/validate.hpp"
#include "test_util.hpp"

namespace lr90 {
namespace {

// ---------------------------------------------------------------------
// Encode/decode round trips.
// ---------------------------------------------------------------------
TEST(EncodeFuzz, RandomListsRoundTripBitExactly) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("repro: seed=" + std::to_string(seed));
    Rng rng(seed);
    const std::size_t n = rng.uniform(2000);
    const LinkedList l = random_list(n, rng, ValueInit::kUniformSmall);
    ASSERT_TRUE(can_encode(l));
    const LinkedList back = decode_list(encode_list(l), l.head);
    EXPECT_TRUE(lists_equal(l, back));
    EXPECT_TRUE(is_valid_list(back));
  }
}

TEST(EncodeFuzz, ArbitraryWordsRoundTripTheirLanes) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto link = static_cast<index_t>(rng.uniform(1ULL << 32));
    const auto value = static_cast<std::uint32_t>(rng.uniform(1ULL << 32));
    const packed_t w = pack_link_value(link, value);
    ASSERT_EQ(packed_link(w), link);
    ASSERT_EQ(packed_value(w), value);
  }
}

TEST(EncodeFuzz, OutOfLaneValuesAreRejectedNotTruncated) {
  Rng rng(11);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("repro: seed=" + std::to_string(seed));
    Rng r(seed);
    LinkedList l = random_list(16 + r.uniform(64), r);
    const std::size_t victim = r.uniform(l.size());
    l.value[victim] = r.coin() ? -static_cast<value_t>(1 + r.uniform(100))
                               : (static_cast<value_t>(1) << 32) +
                                     static_cast<value_t>(r.uniform(100));
    EXPECT_FALSE(can_encode(l));
  }
}

// ---------------------------------------------------------------------
// Corruption fuzzing: every corruption class must be named by the
// validator and rejected typed by the Engine.
// ---------------------------------------------------------------------

/// The corruption classes; each guarantees structural invalidity on a
/// list of >= 4 vertices.
enum class Corruption {
  kOutOfRangeNext,   // next[v] = n + junk
  kPlantedSelfLoop,  // a second self-loop at a non-tail vertex
  kUnloopedTail,     // next[tail] = head: no self-loop remains
  kMultiHead,        // shortcut a mid-list vertex to the tail: the skipped
                     // suffix becomes a second, unreachable "head"
  kShortCycle,       // next[v] = head: the walk revisits the head
  kHeadOutOfRange,   // head = n
  kArrayMismatch,    // value array shorter than next array
};

constexpr Corruption kAllCorruptions[] = {
    Corruption::kOutOfRangeNext, Corruption::kPlantedSelfLoop,
    Corruption::kUnloopedTail,   Corruption::kMultiHead,
    Corruption::kShortCycle,     Corruption::kHeadOutOfRange,
    Corruption::kArrayMismatch,
};

/// Applies the corruption to a valid list of >= 4 vertices.
void corrupt(LinkedList& l, Corruption kind, Rng& rng) {
  const std::size_t n = l.size();
  const index_t tail = l.find_tail();
  // A non-tail victim vertex.
  auto non_tail = [&] {
    while (true) {
      const auto v = static_cast<index_t>(rng.uniform(n));
      if (v != tail) return v;
    }
  };
  switch (kind) {
    case Corruption::kOutOfRangeNext:
      l.next[non_tail()] = static_cast<index_t>(n + rng.uniform(1000));
      break;
    case Corruption::kPlantedSelfLoop: {
      const index_t v = non_tail();
      l.next[v] = v;
      break;
    }
    case Corruption::kUnloopedTail:
      l.next[tail] = l.head;
      break;
    case Corruption::kMultiHead: {
      // A vertex whose successor is not already the tail.
      index_t v = non_tail();
      while (l.next[v] == tail) v = non_tail();
      l.next[v] = tail;
      break;
    }
    case Corruption::kShortCycle:
      l.next[non_tail()] = l.head;
      break;
    case Corruption::kHeadOutOfRange:
      l.head = static_cast<index_t>(n);
      break;
    case Corruption::kArrayMismatch:
      l.value.pop_back();
      break;
  }
}

TEST(ValidateFuzz, EveryCorruptionClassIsNamedByTheValidator) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    for (const Corruption kind : kAllCorruptions) {
      std::ostringstream repro;
      repro << "repro: seed=" << seed << " corruption="
            << static_cast<int>(kind);
      SCOPED_TRACE(repro.str());
      Rng rng(seed);
      LinkedList l = random_list(4 + rng.uniform(500), rng);
      ASSERT_FALSE(validate_list(l).has_value());
      corrupt(l, kind, rng);
      const auto err = validate_list(l);
      ASSERT_TRUE(err.has_value()) << "corruption went undetected";
      EXPECT_FALSE(err->empty());
    }
  }
}

TEST(ValidateFuzz, EngineRejectsEveryCorruptionTyped) {
  // validate_input = true must turn every corruption into a typed
  // kInvalidInput on every backend -- no crash, no UB, no wrong answer.
  for (const BackendKind backend :
       {BackendKind::kSerial, BackendKind::kSim, BackendKind::kHost}) {
    EngineOptions opt;
    opt.backend = backend;
    opt.validate_input = true;
    Engine engine(opt);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      for (const Corruption kind : kAllCorruptions) {
        std::ostringstream repro;
        repro << "repro: seed=" << seed << " corruption="
              << static_cast<int>(kind) << " backend="
              << backend_name(backend);
        SCOPED_TRACE(repro.str());
        Rng rng(seed);
        LinkedList l = random_list(4 + rng.uniform(200), rng);
        corrupt(l, kind, rng);
        const RunResult r = engine.rank(l);
        EXPECT_EQ(r.status.code, StatusCode::kInvalidInput);
        const RunResult s = engine.run(OpRequest{&l, ScanOp::kMaxPlus});
        EXPECT_EQ(s.status.code, StatusCode::kInvalidInput);
      }
    }
  }
}

TEST(ValidateFuzz, ValidListsStayValidThroughEveryEngineRun) {
  // The algorithms promise to restore any list they mutate; fuzz that the
  // input is bit-identical after every method that accepts it.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("repro: seed=" + std::to_string(seed));
    Rng rng(seed);
    const LinkedList l = random_list(64 + rng.uniform(1000), rng,
                                     ValueInit::kSigned);
    const LinkedList before = l;
    Engine sim({.backend = BackendKind::kSim});
    for (const Method m : {Method::kSerial, Method::kWyllie,
                           Method::kMillerReif, Method::kAndersonMiller,
                           Method::kReidMiller}) {
      ASSERT_TRUE(sim.scan(l, ScanOp::kPlus, m).ok()) << method_name(m);
      ASSERT_TRUE(lists_equal(l, before)) << method_name(m);
    }
    Engine host({.backend = BackendKind::kHost, .threads = 4});
    ASSERT_TRUE(host.scan(l, ScanOp::kPlus, Method::kReidMiller).ok());
    ASSERT_TRUE(lists_equal(l, before)) << "host";
  }
}

}  // namespace
}  // namespace lr90
