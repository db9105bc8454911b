// The benchmark's own arithmetic: percentiles with their sample counts,
// open-loop schedule lateness, the rate-ladder search, and span self time.
// Pure functions over plain vectors, so arith_test.cpp can pin each one.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One percentile read off a sample set, with the counts that say how far
/// it can be trusted: `beyond` samples lie strictly above the reported rank.
struct Percentile {
  double value = 0.0;       ///< the sample at the nearest rank
  std::size_t samples = 0;  ///< size of the sample set
  std::size_t beyond = 0;   ///< samples ranked above the reported one
};

/// Nearest-rank percentile `p` (0 < p <= 100) of `v`: the smallest sample
/// with at least p% of the set at or below it. Empty input gives a zero
/// Percentile with samples == 0.
inline Percentile percentile(std::vector<double> v, double p) {
  Percentile out;
  out.samples = v.size();
  if (v.empty()) return out;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  out.value = v[rank - 1];
  out.beyond = v.size() - rank;
  return out;
}

/// Median by nearest rank (the lower middle of an even set).
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0).value;
}

/// The tail of a long phase, made robust to one stall of a shared
/// machine: the phase is cut into windows by scheduled send time, each
/// window's nearest-rank percentile is taken, and the median over the
/// windows is reported. Windows with fewer than `min_samples` latencies
/// (a ragged last window) are left out.
struct WindowedTail {
  double value = 0.0;       ///< median of the per-window percentiles
  std::size_t windows = 0;  ///< windows that entered the median
  std::size_t samples = 0;  ///< latencies in those windows
};

/// `due_latency` pairs each request's scheduled send (ns) with its
/// latency; `p` is the percentile taken in each window.
inline WindowedTail windowed_percentile(
    const std::vector<std::pair<std::int64_t, double>>& due_latency,
    std::int64_t window_ns, double p, std::size_t min_samples = 20) {
  WindowedTail out;
  if (due_latency.empty() || window_ns <= 0) return out;
  std::int64_t start = due_latency.front().first;
  for (const auto& [due, lat] : due_latency) start = std::min(start, due);
  std::vector<std::vector<double>> windows;
  for (const auto& [due, lat] : due_latency) {
    const auto w = static_cast<std::size_t>((due - start) / window_ns);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(lat);
  }
  std::vector<double> tails;
  for (auto& w : windows) {
    if (w.size() < min_samples) continue;
    out.samples += w.size();
    tails.push_back(percentile(std::move(w), p).value);
  }
  out.windows = tails.size();
  if (!tails.empty()) out.value = median(std::move(tails));
  return out;
}

/// How late an open-loop generator ran: per request, actual send start
/// minus the scheduled send time (never negative: an early send is 0).
struct Lateness {
  double p50_us = 0.0;  ///< median lateness
  double p99_us = 0.0;  ///< 99th-percentile lateness
  double max_us = 0.0;  ///< worst lateness
};

/// Lateness of a schedule, both arrays in nanoseconds on one clock.
inline Lateness lateness(const std::vector<std::int64_t>& scheduled_ns,
                         const std::vector<std::int64_t>& sent_ns) {
  std::vector<double> late;
  const std::size_t n = std::min(scheduled_ns.size(), sent_ns.size());
  late.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    late.push_back(
        std::max<double>(0.0, static_cast<double>(sent_ns[i] -
                                                  scheduled_ns[i])) /
        1e3);
  Lateness out;
  if (late.empty()) return out;
  out.max_us = *std::max_element(late.begin(), late.end());
  out.p50_us = percentile(late, 50.0).value;
  out.p99_us = percentile(std::move(late), 99.0).value;
  return out;
}

/// Send times of an open loop at a fixed rate: request i is due at
/// start + i / rate. Fixed spacing, so a seed changes the inputs but never
/// the offered load.
inline std::vector<std::int64_t> fixed_schedule(std::int64_t start_ns,
                                                double rate_per_s,
                                                std::size_t count) {
  std::vector<std::int64_t> due(count);
  for (std::size_t i = 0; i < count; ++i)
    due[i] = start_ns +
             static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                       rate_per_s);
  return due;
}

/// One measured step of a rate ladder.
struct LadderStep {
  double rate = 0.0;       ///< offered requests per second
  double p99_ms = 0.0;     ///< tail latency at that rate
  bool backlog = false;    ///< the backlog grew during the step
  bool failures = false;   ///< any request failed or was refused
};

/// A step passes when its p99 meets the limit with no growing backlog and
/// no failed request (a refused request misses every latency limit).
inline bool step_passes(const LadderStep& s, double p99_limit_ms) {
  return !s.backlog && !s.failures && s.p99_ms <= p99_limit_ms;
}

/// The highest rate on an ascending ladder that passes, scanning upward
/// and stopping at the first failing step (a rate above a failure does not
/// count even if it happens to pass). 0 when the first step fails.
inline double ladder_max_rate(const std::vector<LadderStep>& steps,
                              double p99_limit_ms) {
  double best = 0.0;
  for (const LadderStep& s : steps) {
    if (!step_passes(s, p99_limit_ms)) break;
    best = s.rate;
  }
  return best;
}

/// A backlog grows when requests still in flight when the send window
/// closes exceed what the offered rate delivers in `slack_ms`.
inline bool backlog_growing(std::size_t in_flight_at_close, double rate,
                            double slack_ms) {
  return static_cast<double>(in_flight_at_close) >
         std::max(2.0, rate * slack_ms / 1e3);
}

/// A traced interval. `parent` is the index of the enclosing span in the
/// same vector, or -1 for a root.
struct Span {
  const char* name = "";      ///< the layer call, "layer.call"
  std::int64_t start_ns = 0;  ///< steady-clock start
  std::int64_t end_ns = 0;    ///< steady-clock end
  int parent = -1;            ///< index of the parent span; -1 = root
  std::uint64_t request = 0;  ///< spans of one request share this id
};

/// Self time of every span: its duration minus the part of it covered by
/// the union of its children (each clipped to the parent's interval).
/// Overlapping children are counted once.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::clamp(a, lo, hi);
      b = std::clamp(b, lo, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max<std::int64_t>(0, hi - lo - covered);
  }
  return self;
}

}  // namespace perfbench
