#include "net/server.hpp"

#include <arpa/inet.h>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <utility>

#include "support/faultpoint.hpp"

namespace lr90::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Longest plaintext command line accepted before the connection is
/// declared a protocol error ("STATS\r\n" is 7 bytes; 64 leaves slack).
constexpr std::size_t kMaxPlainLine = 64;

/// Hard cap on buffered-but-unparsed input: one maximal frame plus its
/// header. More than this without a parsable frame is a protocol error.
constexpr std::size_t kMaxInBuffer = kHeaderSize + kMaxPayload;

// Fault-injection sites at the socket edges (tests/fault_test.cpp).
fault::FaultSite f_recv_io{"net.recv.io",
                           "recv() fails with EIO: connection torn down"};
fault::FaultSite f_send_io{"net.send.io",
                           "send() fails with EIO: connection torn down"};
fault::FaultSite f_send_stall{
    "net.send.stall",
    "peer stops draining its socket: queued bytes make no progress"};

}  // namespace

NetServer::NetServer(NetServerOptions opt) : opt_(std::move(opt)) {
  // The loop must never block in submit(), and wire input is untrusted:
  // force the two engine-side settings the protocol depends on.
  opt_.serve.reject_when_full = true;
  opt_.serve.engine.validate_input = true;
  retry_ = RetryPolicy(opt_.retry_min_ms, opt_.retry_max_ms);
}

NetServer::~NetServer() { stop(); }

Status NetServer::start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire))
    return Status::success();  // idempotent

  // A peer that disappears mid-write must surface as EPIPE on the send,
  // not kill the process. Belt (process-wide ignore) and suspenders
  // (MSG_NOSIGNAL on every send).
  std::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    return Status::unavailable("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opt_.port);
  if (::inet_pton(AF_INET, opt_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::invalid("bad bind address: " + opt_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, opt_.backlog) < 0 || !set_nonblocking(listen_fd_)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::unavailable("bind/listen failed on " + opt_.bind_address +
                               ":" + std::to_string(opt_.port));
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::unavailable("pipe2() failed");
  }
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];

  engine_ = std::make_unique<serve::EngineServer>(opt_.serve);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { loop(); });
  return Status::success();
}

void NetServer::stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  // Wake the loop out of poll() so it notices the stop request now.
  if (wake_w_ >= 0) {
    const char byte = 0;
    [[maybe_unused]] const ssize_t rc = ::write(wake_w_, &byte, 1);
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  engine_->shutdown();
  // Close the wake pipe only after the engine workers are gone: a late
  // completion callback may still poke it during the drain.
  ::close(wake_r_);
  ::close(wake_w_);
  wake_r_ = wake_w_ = -1;
  running_.store(false, std::memory_order_release);
}

void NetServer::bump(std::uint64_t NetStats::* field, std::uint64_t by) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.*field += by;
}

NetStats NetServer::net_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

serve::ServerStats NetServer::serve_stats() const {
  return engine_ ? engine_->stats() : serve::ServerStats{};
}

std::string NetServer::health_text() const {
  const bool serving = running_.load(std::memory_order_acquire) &&
                       !stopping_.load(std::memory_order_acquire);
  return serving ? "ok\n" : "draining\n";
}

std::string NetServer::stats_text() const {
  const serve::ServerStats s = serve_stats();
  const NetStats n = net_stats();
  std::ostringstream out;
  out << "health " << (health_text() == "ok\n" ? 1 : 0) << '\n'
      << "workers " << (engine_ ? engine_->workers() : 0) << '\n'
      << "queue_depth " << (engine_ ? engine_->queue_depth() : 0) << '\n'
      << "queue_capacity " << opt_.serve.queue_capacity << '\n'
      << "queue_depth_hwm " << s.queue_depth_hwm << '\n'
      << "submitted " << s.submitted << '\n'
      << "completed " << s.completed << '\n'
      << "rejected " << s.rejected << '\n'
      << "batches " << s.batches << '\n'
      << "rank_requests " << s.rank_requests << '\n'
      << "scan_requests " << s.scan_requests << '\n'
      << "intra_threads_peak " << s.intra_threads_peak << '\n'
      << "tier_list_arrays_runs " << s.tier_list_arrays_runs << '\n'
      << "tier_packed_runs " << s.tier_packed_runs << '\n'
      << "packed_builds " << s.pool.packed_builds << '\n'
      << "snapshots_live " << s.snapshots_live << '\n'
      << "snapshot_updates " << s.snapshot_updates << '\n'
      << "stale_rejections " << s.stale_rejections << '\n'
      << "slab_hits " << s.slab_hits << '\n'
      << "slab_misses " << s.slab_misses << '\n'
      << "result_hits " << s.result_hits << '\n'
      << "result_misses " << s.result_misses << '\n'
      << "result_evictions " << s.result_evictions << '\n'
      << "cache_resident_bytes " << s.cache_resident_bytes << '\n'
      << "cache_resident_entries " << s.cache_resident_entries << '\n'
      << "deadline_expired " << s.deadline_expired << '\n'
      << "net_accepted " << n.accepted << '\n'
      << "net_closed " << n.closed << '\n'
      << "net_refused_over_cap " << n.refused_over_cap << '\n'
      << "net_idle_closed " << n.idle_closed << '\n'
      << "net_peer_resets " << n.peer_resets << '\n'
      << "net_protocol_errors " << n.protocol_errors << '\n'
      << "net_frames_in " << n.frames_in << '\n'
      << "net_responses_out " << n.responses_out << '\n'
      << "net_retry_after_sent " << n.retry_after_sent << '\n'
      << "net_req_rank " << n.req_rank << '\n'
      << "net_req_scan " << n.req_scan << '\n'
      << "net_req_stats " << n.req_stats << '\n'
      << "net_req_health " << n.req_health << '\n'
      << "net_req_snapshot_admin " << n.req_snapshot_admin << '\n'
      << "net_req_snapshot_rank " << n.req_snapshot_rank << '\n'
      << "net_req_snapshot_scan " << n.req_snapshot_scan << '\n'
      << "net_stale_generation_sent " << n.stale_generation_sent << '\n'
      << "net_bytes_in " << n.bytes_in << '\n'
      << "net_bytes_out " << n.bytes_out << '\n'
      << "net_write_timeouts " << n.write_timeouts << '\n'
      << "net_partial_frame_aborts " << n.partial_frame_aborts << '\n'
      << "net_deadline_exceeded_sent " << n.deadline_exceeded_sent << '\n';
  return out.str();
}

// -- the event loop ---------------------------------------------------------

void NetServer::loop() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0 = not a conn)
  const Clock::time_point start_time = Clock::now();
  Clock::time_point drain_deadline{};
  bool draining = false;

  while (true) {
    // Graceful-stop transition: close the listener so no new connections
    // arrive, then give in-flight responses drain_timeout_s to flush.
    if (stopping_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      drain_deadline = Clock::now() + std::chrono::duration_cast<
          Clock::duration>(std::chrono::duration<double>(
              std::max(0.0, opt_.drain_timeout_s)));
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      for (auto& [id, c] : conns_) c.closing = true;
    }

    if (draining) {
      // Reap every connection that is fully answered; force the rest
      // once the deadline passes.
      std::vector<std::uint64_t> done;
      const bool expired = Clock::now() >= drain_deadline;
      for (auto& [id, c] : conns_)
        if (expired || c.drained()) done.push_back(id);
      for (const std::uint64_t id : done)
        close_connection(id, /*counted_reset=*/false);
      if (conns_.empty()) break;
    }

    fds.clear();
    fd_conn.clear();
    fds.push_back({wake_r_, POLLIN, 0});
    fd_conn.push_back(0);
    if (listen_fd_ >= 0) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (auto& [id, c] : conns_) {
      short events = POLLIN;
      if (c.wants_write()) events |= POLLOUT;
      fds.push_back({c.fd, events, 0});
      fd_conn.push_back(id);
    }

    int timeout_ms = draining ? 20 : 200;
    if (!draining && opt_.idle_timeout_s > 0 && !conns_.empty()) {
      // Wake in time to close whichever connection idles out first.
      double soonest = opt_.idle_timeout_s;
      const auto now = Clock::now();
      for (auto& [id, c] : conns_) {
        if (!c.drained()) continue;
        const double idle =
            std::chrono::duration<double>(now - c.last_activity).count();
        soonest = std::min(soonest, opt_.idle_timeout_s - idle);
      }
      timeout_ms = std::clamp(static_cast<int>(soonest * 1000.0) + 1, 1,
                              timeout_ms);
    }

    ::poll(fds.data(), fds.size(), timeout_ms);

    // Feed the back-pressure policy one (time, completed) sample per
    // iteration; the RETRY_AFTER hint tracks the real drain rate.
    retry_.observe(seconds_since(start_time), engine_->stats().completed);

    // Wake pipe first: completed engine runs become queued responses
    // before this iteration's writability is acted on.
    if (fds[0].revents & POLLIN) {
      char buf[256];
      while (::read(wake_r_, buf, sizeof(buf)) > 0) {
      }
    }
    drain_completions();

    std::size_t idx = 1;
    if (listen_fd_ >= 0) {
      if (fds[idx].revents & POLLIN) {
        while (true) {
          const int fd =
              ::accept4(listen_fd_, nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (fd < 0) break;
          if (conns_.size() >= opt_.max_connections) {
            ::close(fd);
            bump(&NetStats::refused_over_cap);
            continue;
          }
          const int one = 1;
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          Connection c;
          c.fd = fd;
          c.id = next_conn_id_++;
          c.last_activity = Clock::now();
          const std::uint64_t id = c.id;
          conns_.emplace(id, std::move(c));
          bump(&NetStats::accepted);
        }
      }
      ++idx;
    }

    for (; idx < fds.size(); ++idx) {
      const std::uint64_t id = fd_conn[idx];
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier this iteration
      if (fds[idx].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // POLLHUP with pending input still delivers POLLIN first on
        // Linux; by the time only HUP/ERR remains the peer is gone.
        close_connection(id, /*counted_reset=*/false);
        continue;
      }
      if (fds[idx].revents & POLLIN) on_readable(it->second);
      it = conns_.find(id);
      if (it == conns_.end()) continue;
      if (fds[idx].revents & POLLOUT) on_writable(it->second);
    }

    // A completion handled above may have queued bytes on a socket that
    // is writable right now; opportunistically flush instead of waiting
    // one poll round trip.
    std::vector<std::uint64_t> flush;
    for (auto& [id, c] : conns_)
      if (c.wants_write()) flush.push_back(id);
    for (const std::uint64_t id : flush) {
      auto it = conns_.find(id);
      if (it != conns_.end()) on_writable(it->second);
    }

    // Closing connections with nothing left to say close now; idle ones
    // time out; connections whose queued response bytes stall (peer
    // stopped draining its socket) are cut off after write_timeout_s so
    // a dead reader can never pin loop-side buffer memory forever.
    std::vector<std::uint64_t> to_close;
    const auto now = Clock::now();
    for (auto& [id, c] : conns_) {
      if (opt_.write_timeout_s > 0 && c.pending_out() > 0) {
        if (c.write_stalled_since == Clock::time_point{}) {
          c.write_stalled_since = now;  // arm: bytes queued, none moving
        } else if (std::chrono::duration<double>(now - c.write_stalled_since)
                       .count() > opt_.write_timeout_s) {
          bump(&NetStats::write_timeouts);
          to_close.push_back(id);
          continue;
        }
      }
      if (c.closing && c.drained()) {
        to_close.push_back(id);
      } else if (!draining && opt_.idle_timeout_s > 0 && c.drained() &&
                 std::chrono::duration<double>(now - c.last_activity)
                         .count() > opt_.idle_timeout_s) {
        bump(&NetStats::idle_closed);
        to_close.push_back(id);
      }
    }
    for (const std::uint64_t id : to_close)
      close_connection(id, /*counted_reset=*/false);
  }
}

void NetServer::close_connection(std::uint64_t id, bool counted_reset) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& c = it->second;
  // A teardown holding an unconsumed partial request frame means the
  // peer died mid-frame (e.g. halfway through a snapshot REGISTER body).
  // Count it and free the half-parsed bytes explicitly: nothing of the
  // partial body was dispatched, so the registry and the engine never
  // saw it -- the frame either parsed completely or not at all.
  if (!c.plaintext && !c.in.empty() && c.in[0] == kMagic0)
    bump(&NetStats::partial_frame_aborts);
  std::vector<std::uint8_t>().swap(c.in);
  ::close(c.fd);
  conns_.erase(it);
  if (counted_reset) bump(&NetStats::peer_resets);
  bump(&NetStats::closed);
}

void NetServer::on_readable(Connection& c) {
  if (c.closing) {  // no longer parsing; swallow and wait for the drain
    char buf[4096];
    while (::recv(c.fd, buf, sizeof(buf), 0) > 0) {
    }
    return;
  }
  if (f_recv_io.fire()) {  // injected read-side I/O failure
    close_connection(c.id, /*counted_reset=*/true);
    return;
  }
  char buf[64 * 1024];
  bool got_bytes = false;
  while (true) {
    const ssize_t k = ::recv(c.fd, buf, sizeof(buf), 0);
    if (k > 0) {
      c.in.insert(c.in.end(), buf, buf + k);
      bump(&NetStats::bytes_in, static_cast<std::uint64_t>(k));
      got_bytes = true;
      if (c.in.size() > kMaxInBuffer) {
        bump(&NetStats::protocol_errors);
        close_connection(c.id, /*counted_reset=*/false);
        return;
      }
      continue;
    }
    if (k == 0) {  // orderly EOF from the peer
      close_connection(c.id, /*counted_reset=*/false);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(c.id, /*counted_reset=*/errno == ECONNRESET);
    return;
  }
  if (!got_bytes) return;
  c.last_activity = Clock::now();
  parse_input(c);
}

void NetServer::parse_input(Connection& c) {
  std::size_t off = 0;
  while (off < c.in.size()) {
    FrameView frame;
    std::size_t frame_len = 0;
    const WireError e =
        parse_frame(c.in.data() + off, c.in.size() - off, frame, frame_len);
    if (e == WireError::kNeedMore) break;
    if (e == WireError::kBadMagic && off == 0 && !c.plaintext) {
      // Not the frame protocol: maybe a human with netcat, or an HTTP
      // client asking `GET /stats`. Only the first line matters (bounded
      // by kMaxPlainLine); anything after it -- HTTP request headers,
      // say -- is discarded because the reply closes the connection.
      const auto nl =
          std::find(c.in.begin(), c.in.end(), std::uint8_t('\n'));
      if (nl != c.in.end() &&
          static_cast<std::size_t>(nl - c.in.begin()) <= kMaxPlainLine) {
        handle_plaintext(c);
        return;
      }
      break;  // need the rest of the line, or oversized: refused below
    }
    if (e != WireError::kOk) {
      // Unrecoverable framing error: answer with the typed reason (best
      // effort -- the request id is 0 unless the header parsed) and
      // close after the flush.
      bump(&NetStats::protocol_errors);
      encode_text_response(c.out, 0, WireStatus::kBadRequest,
                           std::string("protocol error: ") +
                               wire_error_name(e) + "\n");
      bump(&NetStats::responses_out);
      c.closing = true;
      break;
    }
    bump(&NetStats::frames_in);
    RequestFrame req;
    const WireError de = decode_request(frame, req);
    if (de != WireError::kOk) {
      bump(&NetStats::protocol_errors);
      encode_text_response(c.out, frame.request_id, WireStatus::kBadRequest,
                           std::string("bad request: ") +
                               wire_error_name(de) + "\n");
      bump(&NetStats::responses_out);
      c.closing = true;
      break;
    }
    dispatch(c, req);
    off += frame_len;
    if (c.closing) break;
  }
  if (off > 0) c.in.erase(c.in.begin(), c.in.begin() + off);
  if (c.in.size() > kMaxPlainLine && !c.in.empty() &&
      c.in[0] != kMagic0 && !c.closing) {
    // A non-frame stream that never produced a newline within the line
    // budget: refuse it.
    bump(&NetStats::protocol_errors);
    c.closing = true;
  }
}

void NetServer::handle_plaintext(Connection& c) {
  auto nl = std::find(c.in.begin(), c.in.end(), std::uint8_t('\n'));
  std::string line(c.in.begin(), nl);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  c.in.clear();
  c.plaintext = true;
  c.closing = true;  // one-shot: answer, flush, close
  if (line.rfind("GET ", 0) == 0) {
    // A minimal HTTP/1.0 adapter over the same one-shot line protocol, so
    // `curl http://host:port/stats` scrapes the counters without a wire
    // client. The connection is already closing: any request headers
    // still in flight are swallowed by on_readable until the flush.
    std::string path = line.substr(4);
    if (const auto sp = path.find(' '); sp != std::string::npos)
      path.resize(sp);
    std::string status = "200 OK";
    std::string body;
    if (path == "/stats") {
      bump(&NetStats::req_stats);
      body = stats_text();
    } else if (path == "/health") {
      bump(&NetStats::req_health);
      body = health_text();
    } else {
      status = "404 Not Found";
      body = "not found\n";
    }
    std::string resp;
    resp.reserve(body.size() + 128);
    resp += "HTTP/1.0 ";
    resp += status;
    resp += "\r\nContent-Type: text/plain; charset=utf-8\r\n"
            "Content-Length: ";
    resp += std::to_string(body.size());
    resp += "\r\nConnection: close\r\n\r\n";
    resp += body;
    c.out.insert(c.out.end(), resp.begin(), resp.end());
    if (path == "/stats" || path == "/health") {
      bump(&NetStats::responses_out);
    } else {
      bump(&NetStats::protocol_errors);
    }
  } else if (line == "STATS") {
    bump(&NetStats::req_stats);
    const std::string text = stats_text();
    c.out.insert(c.out.end(), text.begin(), text.end());
    bump(&NetStats::responses_out);
  } else if (line == "HEALTH") {
    bump(&NetStats::req_health);
    const std::string text = health_text();
    c.out.insert(c.out.end(), text.begin(), text.end());
    bump(&NetStats::responses_out);
  } else {
    bump(&NetStats::protocol_errors);
    const std::string text = "bad request\n";
    c.out.insert(c.out.end(), text.begin(), text.end());
  }
}

void NetServer::dispatch(Connection& c, RequestFrame& req) {
  switch (req.kind) {
    case MsgKind::kStatsRequest:
      bump(&NetStats::req_stats);
      encode_text_response(c.out, req.request_id, WireStatus::kOk,
                           stats_text());
      bump(&NetStats::responses_out);
      return;
    case MsgKind::kHealthRequest:
      bump(&NetStats::req_health);
      encode_text_response(c.out, req.request_id, WireStatus::kOk,
                           health_text());
      bump(&NetStats::responses_out);
      return;
    case MsgKind::kRegisterSnapshotRequest:
    case MsgKind::kUpdateSnapshotRequest:
    case MsgKind::kReleaseSnapshotRequest:
      dispatch_snapshot_admin(c, req);
      return;
    case MsgKind::kRankRequest:
      bump(&NetStats::req_rank);
      break;
    case MsgKind::kScanRequest:
      bump(&NetStats::req_scan);
      break;
    case MsgKind::kSnapshotRankRequest:
      bump(&NetStats::req_snapshot_rank);
      break;
    case MsgKind::kSnapshotScanRequest:
      bump(&NetStats::req_snapshot_scan);
      break;
    case MsgKind::kResponse:
      return;  // unreachable: decode_request rejected it
  }
  if (stopping_.load(std::memory_order_acquire)) {
    encode_status_response(c.out, req.request_id,
                           WireStatus::kShuttingDown);
    bump(&NetStats::responses_out);
    return;
  }

  const bool snapshot = req.kind == MsgKind::kSnapshotRankRequest ||
                        req.kind == MsgKind::kSnapshotScanRequest;
  const bool rank = req.kind == MsgKind::kRankRequest ||
                    req.kind == MsgKind::kSnapshotRankRequest;
  Completion pending;
  pending.conn_id = c.id;
  pending.request_id = req.request_id;
  if (req.deadline_ms > 0) {
    pending.deadline =
        Clock::now() + std::chrono::milliseconds(req.deadline_ms);
  }
  if (snapshot) {
    pending.snapshot_id = req.snapshot_id;
  } else {
    // The engine borrows the list by pointer for the whole run; move the
    // decoded copy into shared ownership that the completion keeps alive.
    pending.list = std::make_shared<LinkedList>(std::move(req.list));
  }
  const LinkedList* list = pending.list.get();

  c.in_flight += 1;
  // The callback runs on an EngineServer worker thread, or inline right
  // here for the answers that never queue (a full queue; an unknown,
  // stale or memoized snapshot): it enqueues the completion and pokes the
  // wake pipe, and the loop encodes on its next drain.
  auto done = [this, pending = std::move(pending)](RunResult&& r) mutable {
    pending.result = std::move(r);
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(std::move(pending));
    }
    const char byte = 0;
    [[maybe_unused]] const ssize_t rc = ::write(wake_w_, &byte, 1);
  };
  if (snapshot) {
    engine_->submit(serve::SnapshotRequest{.snapshot_id = req.snapshot_id,
                                           .generation = req.generation,
                                           .rank = rank,
                                           .op = req.op,
                                           .method = req.method,
                                           .deadline_ms = req.deadline_ms},
                    std::move(done));
    return;
  }
  Request run;
  run.list = list;
  run.rank = rank;
  run.op = req.op;
  run.method = req.method;
  run.deadline_ms = req.deadline_ms;
  engine_->submit(run, std::move(done));
}

void NetServer::dispatch_snapshot_admin(Connection& c, RequestFrame& req) {
  bump(&NetStats::req_snapshot_admin);
  if (stopping_.load(std::memory_order_acquire)) {
    encode_status_response(c.out, req.request_id,
                           WireStatus::kShuttingDown);
    bump(&NetStats::responses_out);
    return;
  }
  // Registration is control-plane work (rare, client-paced): the O(n)
  // validate + copy runs inline on the loop thread rather than costing a
  // queue round trip.
  if (req.kind == MsgKind::kReleaseSnapshotRequest) {
    if (engine_->drop_snapshot(req.snapshot_id)) {
      encode_snapshot_response(c.out, req.request_id, WireStatus::kOk,
                               req.snapshot_id, 0);
    } else {
      encode_text_response(c.out, req.request_id, WireStatus::kInvalidInput,
                           "unknown snapshot id\n");
    }
    bump(&NetStats::responses_out);
    return;
  }
  serve::SnapshotHandle handle;
  const Status s =
      req.kind == MsgKind::kRegisterSnapshotRequest
          ? engine_->register_snapshot(std::move(req.list), handle)
          : engine_->update_snapshot(req.snapshot_id, std::move(req.list),
                                     handle);
  if (s.ok()) {
    encode_snapshot_response(c.out, req.request_id, WireStatus::kOk,
                             handle.snapshot_id, handle.generation);
  } else {
    encode_text_response(c.out, req.request_id, wire_status_of(s.code),
                         s.message + "\n");
  }
  bump(&NetStats::responses_out);
}

void NetServer::drain_completions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    done.swap(completions_);
  }
  for (Completion& comp : done) {
    auto it = conns_.find(comp.conn_id);
    if (it == conns_.end()) continue;  // connection died while running
    finish_completion(it->second, comp);
  }
}

void NetServer::finish_completion(Connection& c, const Completion& done) {
  if (c.in_flight > 0) c.in_flight -= 1;
  const RunResult& r = done.result;
  if (r.ok()) {
    encode_values_response(c.out, done.request_id, WireStatus::kOk,
                           std::span<const value_t>(r.scan));
  } else if (r.status.code == StatusCode::kStaleGeneration) {
    // The snapshot was superseded while the request named an old
    // generation: the typed refusal carries the CURRENT generation so
    // the client can retarget without a round trip to stats.
    encode_snapshot_response(c.out, done.request_id,
                             WireStatus::kStaleGeneration, done.snapshot_id,
                             r.stats.snapshot_generation);
    bump(&NetStats::stale_generation_sent);
  } else if (r.status.code == StatusCode::kUnavailable) {
    // The serving layer's back-pressure, made explicit on the wire: a
    // full queue earns a retry hint from the live depth and drain rate;
    // a shutdown tells the client not to bother. A request with a wire
    // deadline clamps the hint to its remaining budget -- and a budget
    // already spent gets DEADLINE_EXCEEDED: telling that client to
    // retry would only buy a second guaranteed failure.
    if (engine_->accepting() &&
        !stopping_.load(std::memory_order_acquire)) {
      std::uint32_t budget_ms = 0;  // 0 = no deadline
      bool expired = false;
      if (done.deadline != Clock::time_point::max()) {
        const auto left = done.deadline - Clock::now();
        const auto left_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(left)
                .count();
        if (left_ms <= 0) {
          expired = true;
        } else {
          budget_ms = static_cast<std::uint32_t>(std::min<long long>(
              left_ms, std::numeric_limits<std::uint32_t>::max()));
        }
      }
      if (expired) {
        encode_status_response(c.out, done.request_id,
                               WireStatus::kDeadlineExceeded);
        bump(&NetStats::deadline_exceeded_sent);
      } else {
        encode_retry_response(
            c.out, done.request_id,
            retry_.hint_ms(engine_->queue_depth(), budget_ms));
        bump(&NetStats::retry_after_sent);
      }
    } else {
      encode_status_response(c.out, done.request_id,
                             WireStatus::kShuttingDown);
    }
  } else {
    if (r.status.code == StatusCode::kDeadlineExceeded)
      bump(&NetStats::deadline_exceeded_sent);
    encode_text_response(c.out, done.request_id,
                         wire_status_of(r.status.code),
                         r.status.message + "\n");
  }
  bump(&NetStats::responses_out);
  c.last_activity = Clock::now();
}

void NetServer::on_writable(Connection& c) {
  if (f_send_stall.fire()) return;  // injected stall: bytes stay queued
  while (c.pending_out() > 0) {
    if (f_send_io.fire()) {  // injected write-side I/O failure
      close_connection(c.id, /*counted_reset=*/true);
      return;
    }
    const ssize_t k =
        ::send(c.fd, c.out.data() + c.out_off, c.pending_out(),
               MSG_NOSIGNAL);
    if (k > 0) {
      c.out_off += static_cast<std::size_t>(k);
      bump(&NetStats::bytes_out, static_cast<std::uint64_t>(k));
      // Progress re-arms the stalled-write clock.
      c.write_stalled_since = Clock::time_point{};
      continue;
    }
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (k < 0 && errno == EINTR) continue;
    // EPIPE / ECONNRESET: the peer went away mid-response. A clean,
    // counted teardown -- never a signal, never a crash.
    close_connection(c.id,
                     /*counted_reset=*/errno == EPIPE ||
                         errno == ECONNRESET);
    return;
  }
  c.compact_out();
  c.last_activity = Clock::now();
}

}  // namespace lr90::net
