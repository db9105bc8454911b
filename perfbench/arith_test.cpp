// Tests of the benchmark's own arithmetic (arith.hpp): percentiles with
// their sample counts, open-loop lateness, the ladder search, and span
// self time. Run with `python3 perfbench/run.py --selftest`.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "arith.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

using namespace perfbench;

void test_percentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  const Percentile p50 = percentile(v, 50);
  CHECK(p50.value == 50 && p50.samples == 100 && p50.beyond == 50);
  const Percentile p99 = percentile(v, 99);
  CHECK(p99.value == 99 && p99.beyond == 1);
  CHECK(percentile(v, 100).value == 100 && percentile(v, 100).beyond == 0);
  // Nearest rank never interpolates: p99 of 10 samples is the maximum.
  const Percentile small = percentile({3, 1, 2, 5, 4, 9, 8, 7, 6, 10}, 99);
  CHECK(small.value == 10 && small.samples == 10 && small.beyond == 0);
  CHECK(percentile({}, 50).samples == 0);
  CHECK(median({4, 1, 3, 2}) == 2);  // lower middle of an even set
  CHECK(median({7}) == 7);
}

void test_windowed_tail() {
  // Five one-second windows of 100 latencies 1..100 ms; a stall in one
  // window pushes all of its latencies to 500 ms. The pooled p99 jumps to
  // 500, the median of the window p99s stays at 99.
  std::vector<std::pair<std::int64_t, double>> dl;
  for (int w = 0; w < 5; ++w)
    for (int i = 1; i <= 100; ++i)
      dl.push_back({w * 1'000'000'000LL + i * 1'000'000LL,
                    w == 2 ? 500.0 : static_cast<double>(i)});
  std::vector<double> pooled;
  for (const auto& p : dl) pooled.push_back(p.second);
  CHECK(percentile(pooled, 99).value == 500.0);
  WindowedTail t = windowed_percentile(dl, 1'000'000'000LL, 99);
  CHECK(t.value == 99.0 && t.windows == 5 && t.samples == 500);
  // A ragged last window below min_samples is left out.
  dl.push_back({5'500'000'000LL, 1000.0});
  t = windowed_percentile(dl, 1'000'000'000LL, 99);
  CHECK(t.windows == 5 && t.samples == 500 && t.value == 99.0);
  CHECK(windowed_percentile({}, 1, 99).windows == 0);
  // The percentile is per window: p90 of 1..100 is 90 in every quiet one.
  CHECK(windowed_percentile(dl, 1'000'000'000LL, 90).value == 90.0);
}

void test_lateness() {
  const std::vector<std::int64_t> due = fixed_schedule(1000, 1000.0, 4);
  CHECK(due.size() == 4 && due[0] == 1000 && due[3] == 1000 + 3000000);
  // Early sends count as on time; late ones by how late they were.
  const std::vector<std::int64_t> sent = {900, due[1] + 2000, due[2],
                                          due[3] + 10000};
  const Lateness l = lateness(due, sent);
  CHECK(l.max_us == 10.0);
  CHECK(l.p50_us == 0.0);  // {0, 2, 0, 10} -> lower middle 0
  CHECK(l.p99_us == 10.0);
}

void test_ladder() {
  const double limit = 10.0;
  std::vector<LadderStep> steps = {
      {100, 2.0, false, false},
      {200, 4.0, false, false},
      {400, 12.0, false, false},  // misses the p99 limit
      {800, 5.0, false, false},   // passes, but above a failure
  };
  CHECK(ladder_max_rate(steps, limit) == 200);
  steps[1].backlog = true;
  CHECK(ladder_max_rate(steps, limit) == 100);
  steps[0].failures = true;  // a refused request fails the step
  CHECK(ladder_max_rate(steps, limit) == 0);
  CHECK(ladder_max_rate({}, limit) == 0);
  CHECK(!backlog_growing(2, 100, 10));  // floor of two in flight
  CHECK(backlog_growing(3, 100, 10));
  CHECK(!backlog_growing(50, 1000, 100));
  CHECK(backlog_growing(101, 1000, 100));
}

void test_self_time() {
  // root [0,100] with children [10,30] and [20,50] (overlapping: the
  // union covers 40) and a grandchild [12,18] inside the first child.
  std::vector<Span> spans = {
      {"client.request", 0, 100, -1, 1},
      {"net.wait", 10, 30, 0, 1},
      {"serve.run", 20, 50, 0, 1},
      {"core.run", 12, 18, 1, 1},
  };
  std::vector<std::int64_t> self = self_times(spans);
  CHECK(self[0] == 60);
  CHECK(self[1] == 14);
  CHECK(self[2] == 30);
  CHECK(self[3] == 6);
  // A child sticking out of its parent is clipped to the parent.
  spans = {{"a", 0, 10, -1, 0}, {"b", 5, 20, 0, 0}};
  self = self_times(spans);
  CHECK(self[0] == 5 && self[1] == 15);
  // Self times of a tree add up to the root's duration.
  spans = {{"r", 0, 1000, -1, 0}, {"x", 100, 400, 0, 0},
           {"y", 500, 900, 0, 0}, {"z", 150, 250, 1, 0}};
  self = self_times(spans);
  CHECK(self[0] + self[1] + self[2] + self[3] == 1000);
}

}  // namespace

int main() {
  test_percentile();
  test_windowed_tail();
  test_lateness();
  test_ladder();
  test_self_time();
  if (failures == 0) std::puts("arith_test: all checks passed");
  return failures == 0 ? 0 : 1;
}
