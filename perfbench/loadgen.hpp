// Open-loop load over loopback TCP, speaking the wire protocol through
// net/wire.hpp. One sender (the calling thread) sends each request at its
// scheduled time whatever the state of earlier ones; one receiver thread
// polls every connection, decodes responses and hands them to a checker.
// Latency runs from the scheduled send, so a stall is charged to every
// request it delays.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common.hpp"
#include "net/wire.hpp"

namespace perfbench {

/// A blocking loopback TCP connection; sends are serialized by a mutex so
/// the receiver may resend on the same socket.
class Conn {
 public:
  explicit Conn(std::uint16_t port);  ///< connects; throws on failure
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Sends the whole buffer; false when the socket failed.
  bool send_all(std::span<const std::uint8_t> bytes);
  /// Blocks for one response frame (for closed-loop callers such as the
  /// snapshot writer); false on a transport or protocol failure.
  bool read_response(lr90::net::ResponseFrame& out);
  int fd() const { return fd_; }

  std::vector<std::uint8_t> in;  ///< receive buffer (one reader)
  std::size_t in_len = 0;        ///< bytes of `in` received
  std::size_t in_off = 0;        ///< framed bytes at the front of `in`

 private:
  int fd_ = -1;
  std::mutex send_mu_;
};

/// Writes `id` into the request-id field of an encoded frame.
void set_request_id(std::vector<std::uint8_t>& frame, std::uint32_t id);

/// Request i's id on attempt a (a retargeted resend is a new attempt) in
/// phase `epoch`: 5 bits of attempt, 3 of epoch, 24 of index + 1, so a
/// straggler answer from an earlier phase is never taken for this one's.
inline std::uint32_t wire_id(std::size_t i, unsigned attempt,
                             unsigned epoch) {
  return static_cast<std::uint32_t>(((attempt & 0x1fu) << 27) |
                                    ((epoch & 0x7u) << 24) |
                                    ((i + 1) & 0xffffffu));
}
inline std::size_t wire_index(std::uint32_t id) {
  return (id & 0xffffffu) - 1;
}
inline unsigned wire_attempt(std::uint32_t id) { return id >> 27; }
inline unsigned wire_epoch(std::uint32_t id) { return (id >> 24) & 0x7u; }

/// True for the first few failures of a run only, so a broken server
/// cannot flood stderr.
inline bool log_failure() {
  static std::atomic<int> logged{0};
  return logged.fetch_add(1) < 8;
}

/// What the checker says about one response.
enum class Verdict { kOk, kFail, kResend };

/// One open-loop phase.
struct OpenLoop {
  double rate = 100.0;    ///< requests per second
  double seconds = 1.0;   ///< send window
  /// Fills `frame` with request i's encoded frame (its id is set after).
  std::function<void(std::size_t i, std::vector<std::uint8_t>& frame)> make;
  /// Judges request i's response; on kResend, `frame` holds the frame to
  /// send next (its id is set after).
  std::function<Verdict(std::size_t i, const lr90::net::ResponseFrame& r,
                        std::vector<std::uint8_t>& frame)>
      check;
  /// Tracer for the per-request spans (may be disabled).
  Tracer* tracer = nullptr;
};

/// Per-request record of a phase.
struct Sent {
  std::int64_t due_ns = 0;
  std::atomic<std::int64_t> send_start{0};
  std::atomic<std::int64_t> send_end{0};
  std::atomic<std::int64_t> done_ns{0};  ///< 0 while outstanding
  std::atomic<bool> ok{false};
};

/// Outcome of a phase.
struct LoadResult {
  std::size_t count = 0;
  std::unique_ptr<Sent[]> reqs;
  std::size_t in_flight_at_close = 0;  ///< sent, unanswered at window end
  std::size_t failed = 0;         ///< wrong, refused, or never answered
  std::size_t wrong = 0;          ///< of those, answered OK but wrong
  std::vector<double> decode_us;  ///< decode_response per response

  /// Latencies (ms from the scheduled send) of answered requests that
  /// pass `pick`; nullptr picks all.
  std::vector<double> latency_ms(
      const std::function<bool(std::size_t)>& pick = nullptr) const;
  /// The median over `window_s` windows of each window's percentile p of
  /// the latency (ms).
  WindowedTail windowed_ms(double window_s, double p) const;
  Lateness generator_lateness() const;
};

/// Runs one phase over `conns` (request i goes to conns[i % size]).
LoadResult run_open_loop(std::vector<std::unique_ptr<Conn>>& conns,
                         const OpenLoop& spec);

}  // namespace perfbench
