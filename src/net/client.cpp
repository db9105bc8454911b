#include "net/client.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <utility>

namespace lr90::net {

namespace {

timeval timeval_of(double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(
                                             tv.tv_sec)) * 1e6);
  return tv;
}

/// Refuses a list too large for one frame before anything is encoded or
/// sent; the server would take the frame as a protocol error and close
/// the connection.
Status fits_one_frame(const LinkedList& list) {
  if (list.size() <= kMaxListVertices) return Status::success();
  return Status::invalid("a list of " + std::to_string(list.size()) +
                         " vertices does not fit one frame (at most " +
                         std::to_string(kMaxListVertices) + ")");
}

}  // namespace

NetClient::~NetClient() { close(); }

NetClient::NetClient(NetClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_id_(other.next_id_),
      in_(std::move(other.in_)) {}

NetClient& NetClient::operator=(NetClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    next_id_ = other.next_id_;
    in_ = std::move(other.in_);
  }
  return *this;
}

Status NetClient::connect_to(const std::string& host, std::uint16_t port,
                             double timeout_s) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::unavailable("socket() failed");
  const timeval tv = timeval_of(timeout_s);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    return Status::invalid("bad host address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    close();
    return Status::unavailable("connect to " + host + ":" +
                               std::to_string(port) + " failed: " +
                               std::strerror(errno));
  }
  in_.clear();
  return Status::success();
}

void NetClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status NetClient::send_raw(const void* data, std::size_t len) {
  if (fd_ < 0) return Status::unavailable("not connected");
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t off = 0;
  while (off < len) {
    const ssize_t k = ::send(fd_, p + off, len - off, MSG_NOSIGNAL);
    if (k > 0) {
      off += static_cast<std::size_t>(k);
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    close();
    return Status::unavailable(std::string("send failed: ") +
                               std::strerror(errno));
  }
  return Status::success();
}

Status NetClient::fill_input() {
  std::uint8_t buf[64 * 1024];
  const ssize_t k = ::recv(fd_, buf, sizeof(buf), 0);
  if (k > 0) {
    in_.insert(in_.end(), buf, buf + k);
    return Status::success();
  }
  if (k == 0) {
    close();
    return Status::unavailable("server closed the connection");
  }
  if (errno == EINTR) return Status::success();
  close();
  return Status::unavailable(std::string("recv failed: ") +
                             std::strerror(errno));
}

Status NetClient::read_response(ResponseFrame& out) {
  if (fd_ < 0) return Status::unavailable("not connected");
  while (true) {
    FrameView frame;
    std::size_t frame_len = 0;
    const WireError e =
        parse_frame(in_.data(), in_.size(), frame, frame_len);
    if (e == WireError::kOk) {
      const WireError de = decode_response(frame, out);
      in_.erase(in_.begin(), in_.begin() + frame_len);
      if (de != WireError::kOk)
        return Status::invalid(std::string("bad response frame: ") +
                               wire_error_name(de));
      return Status::success();
    }
    if (e != WireError::kNeedMore)
      return Status::invalid(std::string("bad response frame: ") +
                             wire_error_name(e));
    const Status s = fill_input();
    if (!s.ok()) return s;
  }
}

Status NetClient::round_trip(const std::vector<std::uint8_t>& frame,
                             std::uint32_t request_id, ResponseFrame& out) {
  Status s = send_raw(frame.data(), frame.size());
  if (!s.ok()) return s;
  s = read_response(out);
  if (!s.ok()) return s;
  if (out.request_id != request_id)
    return Status::invalid("response id " + std::to_string(out.request_id) +
                           " does not match request id " +
                           std::to_string(request_id));
  return Status::success();
}

Status NetClient::send_rank(const LinkedList& list,
                            std::uint32_t& request_id, Method method) {
  if (Status fits = fits_one_frame(list); !fits.ok()) return fits;
  request_id = next_id_++;
  std::vector<std::uint8_t> frame;
  encode_rank_request(frame, request_id, list, method);
  return send_raw(frame.data(), frame.size());
}

Status NetClient::send_scan(const LinkedList& list, ScanOp op,
                            std::uint32_t& request_id, Method method) {
  if (Status fits = fits_one_frame(list); !fits.ok()) return fits;
  request_id = next_id_++;
  std::vector<std::uint8_t> frame;
  encode_scan_request(frame, request_id, list, op, method);
  return send_raw(frame.data(), frame.size());
}

Status NetClient::rank(const LinkedList& list, ResponseFrame& out,
                       Method method, std::uint32_t deadline_ms) {
  if (Status fits = fits_one_frame(list); !fits.ok()) return fits;
  const std::uint32_t id = next_id_++;
  std::vector<std::uint8_t> frame;
  encode_rank_request(frame, id, list, method, deadline_ms);
  return round_trip(frame, id, out);
}

Status NetClient::scan(const LinkedList& list, ScanOp op,
                       ResponseFrame& out, Method method,
                       std::uint32_t deadline_ms) {
  if (Status fits = fits_one_frame(list); !fits.ok()) return fits;
  const std::uint32_t id = next_id_++;
  std::vector<std::uint8_t> frame;
  encode_scan_request(frame, id, list, op, method, deadline_ms);
  return round_trip(frame, id, out);
}

Status NetClient::register_snapshot(const LinkedList& list,
                                    ResponseFrame& out) {
  if (Status fits = fits_one_frame(list); !fits.ok()) return fits;
  const std::uint32_t id = next_id_++;
  std::vector<std::uint8_t> frame;
  encode_register_snapshot_request(frame, id, list);
  return round_trip(frame, id, out);
}

Status NetClient::update_snapshot(std::uint64_t snapshot_id,
                                  const LinkedList& list,
                                  ResponseFrame& out) {
  if (Status fits = fits_one_frame(list); !fits.ok()) return fits;
  const std::uint32_t id = next_id_++;
  std::vector<std::uint8_t> frame;
  encode_update_snapshot_request(frame, id, snapshot_id, list);
  return round_trip(frame, id, out);
}

Status NetClient::release_snapshot(std::uint64_t snapshot_id,
                                   ResponseFrame& out) {
  const std::uint32_t id = next_id_++;
  std::vector<std::uint8_t> frame;
  encode_release_snapshot_request(frame, id, snapshot_id);
  return round_trip(frame, id, out);
}

Status NetClient::snapshot_rank(std::uint64_t snapshot_id,
                                std::uint64_t generation, ResponseFrame& out,
                                Method method, std::uint32_t deadline_ms) {
  const std::uint32_t id = next_id_++;
  std::vector<std::uint8_t> frame;
  encode_snapshot_rank_request(frame, id, snapshot_id, generation, method,
                               deadline_ms);
  return round_trip(frame, id, out);
}

Status NetClient::snapshot_scan(std::uint64_t snapshot_id,
                                std::uint64_t generation, ScanOp op,
                                ResponseFrame& out, Method method,
                                std::uint32_t deadline_ms) {
  const std::uint32_t id = next_id_++;
  std::vector<std::uint8_t> frame;
  encode_snapshot_scan_request(frame, id, snapshot_id, generation, op,
                               method, deadline_ms);
  return round_trip(frame, id, out);
}

Status NetClient::stats_text(std::string& out) {
  const std::uint32_t id = next_id_++;
  std::vector<std::uint8_t> frame;
  encode_plain_request(frame, MsgKind::kStatsRequest, id);
  ResponseFrame resp;
  const Status s = round_trip(frame, id, resp);
  if (!s.ok()) return s;
  out = resp.text;
  return Status::success();
}

Status NetClient::health_text(std::string& out) {
  const std::uint32_t id = next_id_++;
  std::vector<std::uint8_t> frame;
  encode_plain_request(frame, MsgKind::kHealthRequest, id);
  ResponseFrame resp;
  const Status s = round_trip(frame, id, resp);
  if (!s.ok()) return s;
  out = resp.text;
  return Status::success();
}

Status NetClient::read_until_eof(std::string& out) {
  if (fd_ < 0) return Status::unavailable("not connected");
  out.assign(in_.begin(), in_.end());
  in_.clear();
  std::uint8_t buf[4096];
  while (true) {
    const ssize_t k = ::recv(fd_, buf, sizeof(buf), 0);
    if (k > 0) {
      out.append(reinterpret_cast<const char*>(buf),
                 static_cast<std::size_t>(k));
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    if (k == 0) {
      close();
      return Status::success();
    }
    close();
    return Status::unavailable(std::string("recv failed: ") +
                               std::strerror(errno));
  }
}

}  // namespace lr90::net
