#include "net/wire.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace lr90::net {

namespace {

// -- little-endian primitives ----------------------------------------------

// Arrays cross the wire as their memory image: one block copy each way.
// That is only the little-endian wire format on a little-endian host, so
// the codec refuses to build anywhere else rather than carry a
// byte-swapping path no build exercises.
static_assert(std::endian::native == std::endian::little,
              "the wire codec copies arrays in host byte order");

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<std::uint8_t>(v >> shift));
}

/// Appends `len` bytes from `src` in one copy.
void put_bytes(std::vector<std::uint8_t>& out, const void* src,
               std::size_t len) {
  if (len == 0) return;  // an empty array's data() may be null
  const auto* p = static_cast<const std::uint8_t*>(src);
  out.insert(out.end(), p, p + len);
}

/// A strict cursor over a payload: every read checks the remaining
/// length first, so a malformed frame can never walk past the buffer.
class Reader {
 public:
  Reader(const std::uint8_t* p, std::size_t n) : p_(p), n_(n) {}

  bool u8(std::uint8_t& v) {
    if (n_ < 1) return false;
    v = p_[0];
    advance(1);
    return true;
  }

  bool u32(std::uint32_t& v) {
    if (n_ < 4) return false;
    v = static_cast<std::uint32_t>(p_[0]) |
        static_cast<std::uint32_t>(p_[1]) << 8 |
        static_cast<std::uint32_t>(p_[2]) << 16 |
        static_cast<std::uint32_t>(p_[3]) << 24;
    advance(4);
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (n_ < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
    advance(8);
    return true;
  }

  /// Copies the next `len` bytes into `dst` in one block.
  bool copy(void* dst, std::size_t len) {
    if (n_ < len) return false;
    if (len != 0) std::memcpy(dst, p_, len);  // dst may be null when empty
    advance(len);
    return true;
  }

  std::size_t remaining() const { return n_; }

 private:
  void advance(std::size_t k) {
    p_ += k;
    n_ -= k;
  }
  const std::uint8_t* p_;
  std::size_t n_;
};

/// Appends a frame header and reserves room for the whole frame, so the
/// payload that follows is appended without reallocating. The length is
/// computed in size_t; the header field is its low 32 bits (callers keep
/// lists within kMaxListVertices).
void put_header(std::vector<std::uint8_t>& out, MsgKind kind,
                std::uint32_t request_id, std::size_t payload_len,
                std::uint32_t deadline_ms = 0) {
  const std::size_t need = out.size() + kHeaderSize + payload_len;
  if (need > out.capacity()) out.reserve(std::max(need, 2 * out.capacity()));
  put_u8(out, kMagic0);
  put_u8(out, kMagic1);
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(kind));
  put_u32(out, request_id);
  put_u32(out, static_cast<std::uint32_t>(payload_len));
  put_u32(out, deadline_ms);
}

/// Payload bytes of a list body: n, head, next[], value[].
std::size_t list_body_len(const LinkedList& list) {
  return 4 + 4 + list.size() * (sizeof(index_t) + sizeof(value_t));
}

void put_list(std::vector<std::uint8_t>& out, const LinkedList& list) {
  put_u32(out, static_cast<std::uint32_t>(list.size()));
  put_u32(out, list.head);
  put_bytes(out, list.next.data(), list.next.size() * sizeof(index_t));
  put_bytes(out, list.value.data(), list.value.size() * sizeof(value_t));
}

/// Decodes a list body; checks head range and exact length consumption.
WireError read_list(Reader& r, LinkedList& list) {
  std::uint32_t n = 0;
  std::uint32_t head = 0;
  if (!r.u32(n) || !r.u32(head)) return WireError::kBadLength;
  // The element arrays must fit the remaining payload exactly; a count
  // that claims more than the frame carries is rejected before any
  // allocation sized from it.
  const std::size_t next_bytes = static_cast<std::size_t>(n) * sizeof(index_t);
  const std::size_t value_bytes =
      static_cast<std::size_t>(n) * sizeof(value_t);
  if (r.remaining() != next_bytes + value_bytes) return WireError::kBadLength;
  if (n == 0) {
    if (head != kNoVertex) return WireError::kBadPayload;
  } else if (head >= n) {
    return WireError::kBadPayload;
  }
  list.next.resize(n);
  list.value.resize(n);
  list.head = head;
  list.tail = kNoVertex;  // recomputed lazily server-side (find_tail)
  if (!r.copy(list.next.data(), next_bytes) ||
      !r.copy(list.value.data(), value_bytes))
    return WireError::kBadLength;
  return WireError::kOk;
}

bool valid_kind(std::uint8_t k) {
  switch (static_cast<MsgKind>(k)) {
    case MsgKind::kRankRequest:
    case MsgKind::kScanRequest:
    case MsgKind::kStatsRequest:
    case MsgKind::kHealthRequest:
    case MsgKind::kRegisterSnapshotRequest:
    case MsgKind::kReleaseSnapshotRequest:
    case MsgKind::kUpdateSnapshotRequest:
    case MsgKind::kSnapshotRankRequest:
    case MsgKind::kSnapshotScanRequest:
    case MsgKind::kResponse:
      return true;
  }
  return false;
}

constexpr std::uint8_t kMaxMethod =
    static_cast<std::uint8_t>(Method::kReidMillerEncoded);
constexpr std::uint8_t kMaxOp = static_cast<std::uint8_t>(ScanOp::kMaxPlus);
constexpr std::uint8_t kMaxWireStatus =
    static_cast<std::uint8_t>(WireStatus::kDeadlineExceeded);

}  // namespace

const char* wire_status_name(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kInvalidInput: return "invalid-input";
    case WireStatus::kUnsupported: return "unsupported";
    case WireStatus::kWrongAnswer: return "wrong-answer";
    case WireStatus::kRetryAfter: return "retry-after";
    case WireStatus::kShuttingDown: return "shutting-down";
    case WireStatus::kBadRequest: return "bad-request";
    case WireStatus::kInternalError: return "internal-error";
    case WireStatus::kStaleGeneration: return "stale-generation";
    case WireStatus::kCorruptSlab: return "corrupt-slab";
    case WireStatus::kResourceExhausted: return "resource-exhausted";
    case WireStatus::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "unknown";
}

const char* wire_error_name(WireError e) {
  switch (e) {
    case WireError::kOk: return "ok";
    case WireError::kNeedMore: return "need-more";
    case WireError::kBadMagic: return "bad-magic";
    case WireError::kBadVersion: return "bad-version";
    case WireError::kBadKind: return "bad-kind";
    case WireError::kOversized: return "oversized";
    case WireError::kBadLength: return "bad-length";
    case WireError::kBadPayload: return "bad-payload";
  }
  return "unknown";
}

WireError parse_frame(const std::uint8_t* data, std::size_t len,
                      FrameView& out, std::size_t& frame_len) {
  // Reject garbage as early as the bytes allow: magic and version are
  // checked on whatever prefix has arrived, so a misdirected HTTP client
  // is refused after one byte instead of after a 16-byte header.
  if (len >= 1 && data[0] != kMagic0) return WireError::kBadMagic;
  if (len >= 2 && data[1] != kMagic1) return WireError::kBadMagic;
  if (len >= 3 && data[2] != kWireVersion) return WireError::kBadVersion;
  if (len >= 4 && !valid_kind(data[3])) return WireError::kBadKind;
  if (len < kHeaderSize) return WireError::kNeedMore;

  Reader r(data, len);
  std::uint8_t b = 0;
  std::uint32_t request_id = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t deadline_ms = 0;
  r.u8(b); r.u8(b); r.u8(b);  // magic + version, already validated
  r.u8(b);
  const auto kind = static_cast<MsgKind>(b);
  r.u32(request_id);
  r.u32(payload_len);
  r.u32(deadline_ms);
  if (payload_len > kMaxPayload) return WireError::kOversized;
  if (r.remaining() < payload_len) return WireError::kNeedMore;

  out.kind = kind;
  out.request_id = request_id;
  out.deadline_ms = deadline_ms;
  out.payload = std::span<const std::uint8_t>(data + kHeaderSize,
                                              payload_len);
  frame_len = kHeaderSize + payload_len;
  return WireError::kOk;
}

WireError decode_request(const FrameView& frame, RequestFrame& out) {
  out.kind = frame.kind;
  out.request_id = frame.request_id;
  out.deadline_ms = frame.deadline_ms;
  Reader r(frame.payload.data(), frame.payload.size());
  switch (frame.kind) {
    case MsgKind::kStatsRequest:
    case MsgKind::kHealthRequest:
      return frame.payload.empty() ? WireError::kOk : WireError::kBadLength;
    case MsgKind::kRankRequest: {
      std::uint8_t method = 0;
      if (!r.u8(method)) return WireError::kBadLength;
      if (method > kMaxMethod) return WireError::kBadPayload;
      out.method = static_cast<Method>(method);
      return read_list(r, out.list);
    }
    case MsgKind::kScanRequest: {
      std::uint8_t method = 0;
      std::uint8_t op = 0;
      if (!r.u8(method) || !r.u8(op)) return WireError::kBadLength;
      if (method > kMaxMethod || op > kMaxOp) return WireError::kBadPayload;
      out.method = static_cast<Method>(method);
      out.op = static_cast<ScanOp>(op);
      return read_list(r, out.list);
    }
    case MsgKind::kRegisterSnapshotRequest:
      return read_list(r, out.list);
    case MsgKind::kReleaseSnapshotRequest: {
      if (!r.u64(out.snapshot_id)) return WireError::kBadLength;
      return r.remaining() == 0 ? WireError::kOk : WireError::kBadLength;
    }
    case MsgKind::kUpdateSnapshotRequest: {
      if (!r.u64(out.snapshot_id)) return WireError::kBadLength;
      return read_list(r, out.list);
    }
    case MsgKind::kSnapshotRankRequest: {
      std::uint8_t method = 0;
      if (!r.u8(method)) return WireError::kBadLength;
      if (method > kMaxMethod) return WireError::kBadPayload;
      out.method = static_cast<Method>(method);
      if (!r.u64(out.snapshot_id) || !r.u64(out.generation))
        return WireError::kBadLength;
      return r.remaining() == 0 ? WireError::kOk : WireError::kBadLength;
    }
    case MsgKind::kSnapshotScanRequest: {
      std::uint8_t method = 0;
      std::uint8_t op = 0;
      if (!r.u8(method) || !r.u8(op)) return WireError::kBadLength;
      if (method > kMaxMethod || op > kMaxOp) return WireError::kBadPayload;
      out.method = static_cast<Method>(method);
      out.op = static_cast<ScanOp>(op);
      if (!r.u64(out.snapshot_id) || !r.u64(out.generation))
        return WireError::kBadLength;
      return r.remaining() == 0 ? WireError::kOk : WireError::kBadLength;
    }
    case MsgKind::kResponse:
      return WireError::kBadKind;  // a response is not a request
  }
  return WireError::kBadKind;
}

void encode_rank_request(std::vector<std::uint8_t>& out,
                         std::uint32_t request_id, const LinkedList& list,
                         Method method, std::uint32_t deadline_ms) {
  put_header(out, MsgKind::kRankRequest, request_id,
             1 + list_body_len(list), deadline_ms);
  put_u8(out, static_cast<std::uint8_t>(method));
  put_list(out, list);
}

void encode_scan_request(std::vector<std::uint8_t>& out,
                         std::uint32_t request_id, const LinkedList& list,
                         ScanOp op, Method method,
                         std::uint32_t deadline_ms) {
  put_header(out, MsgKind::kScanRequest, request_id,
             2 + list_body_len(list), deadline_ms);
  put_u8(out, static_cast<std::uint8_t>(method));
  put_u8(out, static_cast<std::uint8_t>(op));
  put_list(out, list);
}

void encode_plain_request(std::vector<std::uint8_t>& out, MsgKind kind,
                          std::uint32_t request_id) {
  put_header(out, kind, request_id, 0);
}

void encode_register_snapshot_request(std::vector<std::uint8_t>& out,
                                      std::uint32_t request_id,
                                      const LinkedList& list) {
  put_header(out, MsgKind::kRegisterSnapshotRequest, request_id,
             list_body_len(list));
  put_list(out, list);
}

void encode_update_snapshot_request(std::vector<std::uint8_t>& out,
                                    std::uint32_t request_id,
                                    std::uint64_t snapshot_id,
                                    const LinkedList& list) {
  put_header(out, MsgKind::kUpdateSnapshotRequest, request_id,
             8 + list_body_len(list));
  put_u64(out, snapshot_id);
  put_list(out, list);
}

void encode_release_snapshot_request(std::vector<std::uint8_t>& out,
                                     std::uint32_t request_id,
                                     std::uint64_t snapshot_id) {
  put_header(out, MsgKind::kReleaseSnapshotRequest, request_id, 8);
  put_u64(out, snapshot_id);
}

void encode_snapshot_rank_request(std::vector<std::uint8_t>& out,
                                  std::uint32_t request_id,
                                  std::uint64_t snapshot_id,
                                  std::uint64_t generation, Method method,
                                  std::uint32_t deadline_ms) {
  put_header(out, MsgKind::kSnapshotRankRequest, request_id, 1 + 16,
             deadline_ms);
  put_u8(out, static_cast<std::uint8_t>(method));
  put_u64(out, snapshot_id);
  put_u64(out, generation);
}

void encode_snapshot_scan_request(std::vector<std::uint8_t>& out,
                                  std::uint32_t request_id,
                                  std::uint64_t snapshot_id,
                                  std::uint64_t generation, ScanOp op,
                                  Method method,
                                  std::uint32_t deadline_ms) {
  put_header(out, MsgKind::kSnapshotScanRequest, request_id, 2 + 16,
             deadline_ms);
  put_u8(out, static_cast<std::uint8_t>(method));
  put_u8(out, static_cast<std::uint8_t>(op));
  put_u64(out, snapshot_id);
  put_u64(out, generation);
}

WireError decode_response(const FrameView& frame, ResponseFrame& out) {
  if (frame.kind != MsgKind::kResponse) return WireError::kBadKind;
  out.request_id = frame.request_id;
  Reader r(frame.payload.data(), frame.payload.size());
  std::uint8_t status = 0;
  std::uint8_t body = 0;
  if (!r.u8(status) || !r.u8(body)) return WireError::kBadLength;
  if (status > kMaxWireStatus) return WireError::kBadPayload;
  out.status = static_cast<WireStatus>(status);
  out.values.clear();
  out.text.clear();
  out.retry_after_ms = 0;
  out.snapshot_id = 0;
  out.generation = 0;
  switch (static_cast<BodyKind>(body)) {
    case BodyKind::kNone:
      out.body = BodyKind::kNone;
      return r.remaining() == 0 ? WireError::kOk : WireError::kBadLength;
    case BodyKind::kValues: {
      out.body = BodyKind::kValues;
      std::uint32_t count = 0;
      if (!r.u32(count)) return WireError::kBadLength;
      const std::size_t bytes =
          static_cast<std::size_t>(count) * sizeof(value_t);
      if (r.remaining() != bytes) return WireError::kBadLength;
      out.values.resize(count);
      return r.copy(out.values.data(), bytes) ? WireError::kOk
                                              : WireError::kBadLength;
    }
    case BodyKind::kText: {
      out.body = BodyKind::kText;
      std::uint32_t len = 0;
      if (!r.u32(len)) return WireError::kBadLength;
      if (r.remaining() != len) return WireError::kBadLength;
      out.text.resize(len);
      return r.copy(out.text.data(), len) ? WireError::kOk
                                          : WireError::kBadLength;
    }
    case BodyKind::kRetry: {
      out.body = BodyKind::kRetry;
      if (!r.u32(out.retry_after_ms)) return WireError::kBadLength;
      return r.remaining() == 0 ? WireError::kOk : WireError::kBadLength;
    }
    case BodyKind::kSnapshot: {
      out.body = BodyKind::kSnapshot;
      if (!r.u64(out.snapshot_id) || !r.u64(out.generation))
        return WireError::kBadLength;
      return r.remaining() == 0 ? WireError::kOk : WireError::kBadLength;
    }
  }
  return WireError::kBadPayload;  // unknown body kind
}

void encode_values_response(std::vector<std::uint8_t>& out,
                            std::uint32_t request_id, WireStatus status,
                            std::span<const value_t> values) {
  const std::size_t bytes = values.size() * sizeof(value_t);
  put_header(out, MsgKind::kResponse, request_id, 2 + 4 + bytes);
  put_u8(out, static_cast<std::uint8_t>(status));
  put_u8(out, static_cast<std::uint8_t>(BodyKind::kValues));
  put_u32(out, static_cast<std::uint32_t>(values.size()));
  put_bytes(out, values.data(), bytes);
}

void encode_text_response(std::vector<std::uint8_t>& out,
                          std::uint32_t request_id, WireStatus status,
                          std::string_view text) {
  put_header(out, MsgKind::kResponse, request_id, 2 + 4 + text.size());
  put_u8(out, static_cast<std::uint8_t>(status));
  put_u8(out, static_cast<std::uint8_t>(BodyKind::kText));
  put_u32(out, static_cast<std::uint32_t>(text.size()));
  put_bytes(out, text.data(), text.size());
}

void encode_retry_response(std::vector<std::uint8_t>& out,
                           std::uint32_t request_id,
                           std::uint32_t retry_after_ms) {
  put_header(out, MsgKind::kResponse, request_id, 2 + 4);
  put_u8(out, static_cast<std::uint8_t>(WireStatus::kRetryAfter));
  put_u8(out, static_cast<std::uint8_t>(BodyKind::kRetry));
  put_u32(out, retry_after_ms);
}

void encode_status_response(std::vector<std::uint8_t>& out,
                            std::uint32_t request_id, WireStatus status) {
  put_header(out, MsgKind::kResponse, request_id, 2);
  put_u8(out, static_cast<std::uint8_t>(status));
  put_u8(out, static_cast<std::uint8_t>(BodyKind::kNone));
}

void encode_snapshot_response(std::vector<std::uint8_t>& out,
                              std::uint32_t request_id, WireStatus status,
                              std::uint64_t snapshot_id,
                              std::uint64_t generation) {
  put_header(out, MsgKind::kResponse, request_id, 2 + 16);
  put_u8(out, static_cast<std::uint8_t>(status));
  put_u8(out, static_cast<std::uint8_t>(BodyKind::kSnapshot));
  put_u64(out, snapshot_id);
  put_u64(out, generation);
}

WireStatus wire_status_of(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return WireStatus::kOk;
    case StatusCode::kInvalidInput: return WireStatus::kInvalidInput;
    case StatusCode::kUnsupported: return WireStatus::kUnsupported;
    case StatusCode::kWrongAnswer: return WireStatus::kWrongAnswer;
    case StatusCode::kUnavailable: return WireStatus::kInternalError;
    case StatusCode::kStaleGeneration: return WireStatus::kStaleGeneration;
    case StatusCode::kCorruptSlab: return WireStatus::kCorruptSlab;
    case StatusCode::kResourceExhausted:
      return WireStatus::kResourceExhausted;
    case StatusCode::kDeadlineExceeded:
      return WireStatus::kDeadlineExceeded;
  }
  return WireStatus::kInternalError;
}

}  // namespace lr90::net
