#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

namespace perfbench {

using lr90::net::FrameView;
using lr90::net::ResponseFrame;
using lr90::net::WireError;

Conn::Conn(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket: " + std::string(
                                            std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    throw std::runtime_error("connect: " + why);
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{10, 0};  // a dead server fails the closed-loop reads
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::send_all(std::span<const std::uint8_t> bytes) {
  const std::lock_guard<std::mutex> lock(send_mu_);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t k =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    off += static_cast<std::size_t>(k);
  }
  return true;
}

namespace {

/// Appends whatever the socket has (one recv); 0 on close, -1 on error,
/// -2 when nothing was ready (nonblocking only). The buffer keeps its size
/// between calls, so a large answer costs no zero-filling per recv.
ssize_t recv_some(Conn& c, bool nonblocking) {
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  if (c.in_off > 0 && c.in_off * 2 >= c.in_len) {
    std::memmove(c.in.data(), c.in.data() + c.in_off, c.in_len - c.in_off);
    c.in_len -= c.in_off;
    c.in_off = 0;
  }
  if (c.in.size() < c.in_len + kChunk) c.in.resize(c.in_len + kChunk);
  ssize_t k;
  do {
    k = ::recv(c.fd(), c.in.data() + c.in_len, kChunk,
               nonblocking ? MSG_DONTWAIT : 0);
  } while (k < 0 && errno == EINTR);
  if (k > 0) c.in_len += static_cast<std::size_t>(k);
  if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return -2;
  return k;
}

/// Frames and decodes the next response in `c.in`: kOk (consumed),
/// kNeedMore, or a protocol error.
WireError next_response(Conn& c, ResponseFrame& out, double* decode_us) {
  FrameView view;
  std::size_t len = 0;
  const WireError e = lr90::net::parse_frame(
      c.in.data() + c.in_off, c.in_len - c.in_off, view, len);
  if (e != WireError::kOk) return e;
  const std::int64_t t0 = now_ns();
  const WireError d = lr90::net::decode_response(view, out);
  if (decode_us != nullptr)
    *decode_us = static_cast<double>(now_ns() - t0) / 1e3;
  c.in_off += len;
  return d;
}

}  // namespace

bool Conn::read_response(ResponseFrame& out) {
  for (;;) {
    const WireError e = next_response(*this, out, nullptr);
    if (e == WireError::kOk) return true;
    if (e != WireError::kNeedMore) return false;
    if (recv_some(*this, false) <= 0) return false;
  }
}

void set_request_id(std::vector<std::uint8_t>& frame, std::uint32_t id) {
  for (int b = 0; b < 4; ++b)
    frame[4 + b] = static_cast<std::uint8_t>(id >> (8 * b));
}

std::vector<double> LoadResult::latency_ms(
    const std::function<bool(std::size_t)>& pick) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < count; ++i) {
    const Sent& s = reqs[i];
    if (!s.ok.load() || (pick && !pick(i))) continue;
    out.push_back(static_cast<double>(s.done_ns.load() - s.due_ns) / 1e6);
  }
  return out;
}

WindowedTail LoadResult::windowed_ms(double window_s, double p) const {
  std::vector<std::pair<std::int64_t, double>> dl;
  for (std::size_t i = 0; i < count; ++i) {
    const Sent& s = reqs[i];
    if (s.ok.load())
      dl.emplace_back(s.due_ns,
                      static_cast<double>(s.done_ns.load() - s.due_ns) / 1e6);
  }
  return windowed_percentile(dl, static_cast<std::int64_t>(window_s * 1e9),
                             p);
}

Lateness LoadResult::generator_lateness() const {
  std::vector<std::int64_t> due(count), sent(count);
  for (std::size_t i = 0; i < count; ++i) {
    due[i] = reqs[i].due_ns;
    sent[i] = reqs[i].send_start.load();
  }
  return lateness(due, sent);
}

LoadResult run_open_loop(std::vector<std::unique_ptr<Conn>>& conns,
                         const OpenLoop& spec) {
  static std::atomic<unsigned> next_epoch{0};
  const unsigned epoch = next_epoch.fetch_add(1) & 0x7u;
  LoadResult r;
  r.count = std::min<std::size_t>(
      0xfffffe, std::max<std::size_t>(
                    1, static_cast<std::size_t>(spec.rate * spec.seconds)));
  r.reqs = std::make_unique<Sent[]>(r.count);
  const std::int64_t start = now_ns() + 2'000'000;
  const std::vector<std::int64_t> due =
      fixed_schedule(start, spec.rate, r.count);
  for (std::size_t i = 0; i < r.count; ++i) r.reqs[i].due_ns = due[i];
  const std::int64_t window_end =
      start + static_cast<std::int64_t>(spec.seconds * 1e9);
  std::atomic<std::int64_t> hard_deadline{INT64_MAX};
  Tracer off(false);
  Tracer& tracer = spec.tracer != nullptr ? *spec.tracer : off;

  std::thread receiver([&] {
    std::vector<pollfd> pfds;
    for (const auto& c : conns) pfds.push_back({c->fd(), POLLIN, 0});
    std::vector<std::uint8_t> frame;
    ResponseFrame resp;  // reused: its values keep their allocation
    std::size_t answered = 0;
    while (answered < r.count && now_ns() < hard_deadline.load()) {
      if (::poll(pfds.data(), pfds.size(), 20) <= 0) continue;
      for (std::size_t ci = 0; ci < pfds.size(); ++ci) {
        if ((pfds[ci].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        Conn& c = *conns[ci];
        const ssize_t got = recv_some(c, true);
        if (got == 0 || got == -1) pfds[ci].fd = -1;  // closed: stop polling
        for (;;) {
          double dec_us = 0.0;
          const std::int64_t t_frame = now_ns();
          const WireError e = next_response(c, resp, &dec_us);
          if (e == WireError::kNeedMore) break;
          if (e != WireError::kOk) {  // framing lost: the connection is done
            pfds[ci].fd = -1;
            break;
          }
          r.decode_us.push_back(dec_us);
          const std::size_t i = wire_index(resp.request_id);
          if (wire_epoch(resp.request_id) != epoch || i >= r.count ||
              r.reqs[i].done_ns.load() != 0)
            continue;
          Sent& s = r.reqs[i];
          // The answer is complete once decoded: the check below is the
          // benchmark's own cost and stays out of the latency.
          const std::int64_t t_dec = now_ns();
          Verdict v = spec.check(i, resp, frame);
          const unsigned attempt = wire_attempt(resp.request_id) + 1;
          if (v == Verdict::kResend && attempt < 16) {
            set_request_id(frame, wire_id(i, attempt, epoch));
            if (c.send_all(frame)) continue;
            v = Verdict::kFail;
          } else if (v == Verdict::kResend) {
            v = Verdict::kFail;
          }
          if (v == Verdict::kFail && resp.status == lr90::net::WireStatus::kOk)
            ++r.wrong;
          s.ok.store(v == Verdict::kOk);
          s.done_ns.store(t_dec);
          ++answered;
          if (tracer.on()) {
            const std::int64_t checked = now_ns();
            const std::int64_t s0 = std::min(s.send_start.load(), t_frame);
            std::int64_t s1 = s.send_end.load();
            if (s1 == 0 || s1 > t_frame) s1 = t_frame;
            // The request span runs to the end of the check, which the
            // receiver thread spends before it reads the next response.
            const int root =
                tracer.record("client.request", s.due_ns, checked, -1, i + 1);
            tracer.record("client.lateness", s.due_ns, s0, root, i + 1);
            tracer.record("net.send", s0, s1, root, i + 1);
            tracer.record("net.wait", s1, t_frame, root, i + 1);
            tracer.record("net.decode_response", t_frame, t_dec, root, i + 1);
            tracer.record("client.check", t_dec, checked, root, i + 1);
          }
        }
      }
    }
  });

  std::vector<std::uint8_t> frame;
  for (std::size_t i = 0; i < r.count; ++i) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due[i])));
    spec.make(i, frame);
    set_request_id(frame, wire_id(i, 0, epoch));
    Sent& s = r.reqs[i];
    s.send_start.store(now_ns());
    if (!conns[i % conns.size()]->send_all(frame)) {
      s.done_ns.store(now_ns());  // counted failed: ok stays false
      continue;
    }
    s.send_end.store(now_ns());
  }
  // Stragglers get 3 s after the window; later ones count as failed.
  hard_deadline.store(std::max(now_ns(), window_end) + 3'000'000'000LL);
  receiver.join();

  for (std::size_t i = 0; i < r.count; ++i) {
    const Sent& s = r.reqs[i];
    const std::int64_t done = s.done_ns.load();
    if (!s.ok.load()) ++r.failed;
    if (s.send_start.load() <= window_end && (done == 0 || done > window_end))
      ++r.in_flight_at_close;
  }
  return r;
}

}  // namespace perfbench
