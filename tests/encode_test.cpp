#include "lists/encode.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "lists/generators.hpp"
#include "lists/validate.hpp"

namespace lr90 {
namespace {

TEST(Encode, PackUnpackRoundTrip) {
  const packed_t w = pack_link_value(0xdeadbeefu, 0x12345678u);
  EXPECT_EQ(packed_link(w), 0xdeadbeefu);
  EXPECT_EQ(packed_value(w), 0x12345678u);
}

TEST(Encode, ExtremesRoundTrip) {
  const packed_t w = pack_link_value(0xffffffffu, 0xffffffffu);
  EXPECT_EQ(packed_link(w), 0xffffffffu);
  EXPECT_EQ(packed_value(w), 0xffffffffu);
  const packed_t z = pack_link_value(0, 0);
  EXPECT_EQ(packed_link(z), 0u);
  EXPECT_EQ(packed_value(z), 0u);
}

TEST(Encode, ListRoundTrip) {
  Rng rng(1);
  const LinkedList l = random_list(50, rng, ValueInit::kUniformSmall);
  const auto packed = encode_list(l);
  const LinkedList back = decode_list(packed, l.head);
  EXPECT_TRUE(lists_equal(l, back));
}

TEST(Encode, EmptyList) {
  LinkedList l;
  const auto packed = encode_list(l);
  EXPECT_TRUE(packed.empty());
  const LinkedList back = decode_list(packed, 0);
  EXPECT_EQ(back.head, kNoVertex);
}

TEST(Encode, CanEncodeAcceptsSmallNonNegative) {
  Rng rng(2);
  const LinkedList l = random_list(10, rng, ValueInit::kOnes);
  EXPECT_TRUE(can_encode(l));
}

TEST(Encode, CanEncodeRejectsNegativeValues) {
  Rng rng(3);
  LinkedList l = random_list(10, rng);
  l.value[3] = -1;
  EXPECT_FALSE(can_encode(l));
}

TEST(Encode, CanEncodeRejectsHugeValues) {
  Rng rng(4);
  LinkedList l = random_list(10, rng);
  l.value[0] = static_cast<value_t>(1) << 33;
  EXPECT_FALSE(can_encode(l));
}

TEST(Encode, SelfLoopSurvivesEncoding) {
  Rng rng(5);
  const LinkedList l = random_list(20, rng);
  const auto packed = encode_list(l);
  const index_t tail = l.find_tail();
  EXPECT_EQ(packed_link(packed[tail]), tail);
}

// -- the host record's word 0 ----------------------------------------------

TEST(HotWord, PackUnpackRoundTrip) {
  for (const bool tail : {false, true}) {
    for (const std::uint32_t sublist :
         {0u, 1u, 12345u, kHotNoSublist - 1, kHotNoSublist}) {
      for (const std::uint32_t low :
           {0u, 1u, 12345u, 0x7fffffffu, 0x80000000u, 0xffffffffu}) {
        const packed_t w = hot_pack(tail, sublist, low);
        EXPECT_EQ(hot_tail(w), tail);
        EXPECT_EQ(hot_sublist(w), sublist);
        EXPECT_EQ(hot_link(w), low) << "the low lane keeps all 32 bits";
      }
    }
  }
}

TEST(HotWord, TailFlagDoesNotLeakIntoLinkOrValue) {
  // The flag sits above the 31-bit sublist id: flipping it must change
  // nothing else, and a full id and a full low lane must not reach it.
  const packed_t off = hot_pack(false, kHotNoSublist, 0xffffffffu);
  const packed_t on = hot_pack(true, kHotNoSublist, 0xffffffffu);
  EXPECT_EQ(hot_sublist(off), hot_sublist(on));
  EXPECT_EQ(hot_link(off), hot_link(on));
  EXPECT_FALSE(hot_tail(off));
  EXPECT_TRUE(hot_tail(on));
  EXPECT_EQ(on, off | kHotTailBit);
  EXPECT_EQ(hot_pack(true, 0, 0), kHotTailBit);
}

TEST(HotWord, RandomRoundTrips) {
  Rng rng(0x407);
  for (int i = 0; i < 5000; ++i) {
    const bool tail = rng.coin();
    const auto sublist = static_cast<std::uint32_t>(rng.uniform(1ull << 31));
    const auto low = static_cast<std::uint32_t>(rng.next_u64());
    const packed_t w = hot_pack(tail, sublist, low);
    ASSERT_EQ(hot_tail(w), tail);
    ASSERT_EQ(hot_sublist(w), sublist);
    ASSERT_EQ(hot_link(w), low);
  }
}

TEST(HotWord, EveryLinkAndSublistCountFits) {
  // Links take the whole low lane, so every index a list can hold (up to
  // kNoVertex itself) round-trips, and the build's sublist id is at least
  // any sublist count a run can have (k <= n / 2 with n <= 2^32 - 1), so
  // phase 3 always skips a vertex no head reached.
  for (const index_t link :
       {index_t{0}, index_t{1} << 31, kNoVertex - 1, kNoVertex}) {
    EXPECT_EQ(hot_link(hot_pack(false, kHotNoSublist, link)), link);
  }
  const std::size_t max_k = std::size_t{kNoVertex} / 2;
  EXPECT_GE(std::size_t{kHotNoSublist}, max_k);
  EXPECT_EQ(hot_sublist(hot_pack(false, kHotNoSublist, 0)), kHotNoSublist);
}

TEST(HotWord, CachedTailIsUsedAndGuarded) {
  Rng rng(6);
  LinkedList l = random_list(100, rng);
  const index_t scan_tail = [&] {
    for (std::size_t v = 0; v < l.size(); ++v)
      if (l.next[v] == static_cast<index_t>(v))
        return static_cast<index_t>(v);
    return kNoVertex;
  }();
  // The generator caches the tail at build time.
  EXPECT_EQ(l.tail, scan_tail);
  EXPECT_EQ(l.find_tail(), scan_tail);
  // A stale cache (links edited by hand) degrades to the scan, never a
  // wrong answer.
  l.tail = (scan_tail + 1) % static_cast<index_t>(l.size());
  EXPECT_EQ(l.find_tail(), scan_tail);
  l.tail = kNoVertex;
  EXPECT_EQ(l.find_tail(), scan_tail);
}

}  // namespace
}  // namespace lr90
