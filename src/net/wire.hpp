// The listrank90 wire protocol: a compact length-prefixed binary codec
// for carrying Rank/Scan/OpRequest and RunResult over a byte stream.
//
// Every message is one frame:
//
//   offset  size  field
//   0       2     magic      "LR" (0x4C 0x52)
//   2       1     version    kWireVersion (2)
//   3       1     kind       MsgKind
//   4       4     request id little-endian; echoed verbatim in the response
//   8       4     payload length in bytes, little-endian, <= kMaxPayload
//   12      4     deadline   relative deadline in ms, little-endian; 0 =
//                            none. On requests: the client's remaining
//                            budget, carried into Request::deadline_ms
//                            (expired-in-queue jobs answer
//                            kDeadlineExceeded without running). On
//                            responses: 0.
//   16      len   payload    kind-specific (layouts below)
//
// Request payloads (all integers little-endian; "list body" =
// u32 n; u32 head; n x u32 next; n x i64 value):
//   kRankRequest             u8 method; list body
//   kScanRequest             u8 method; u8 op; list body
//   kStatsRequest            (empty)
//   kHealthRequest           (empty)
//   kRegisterSnapshotRequest list body
//   kUpdateSnapshotRequest   u64 snapshot_id; list body
//   kReleaseSnapshotRequest  u64 snapshot_id
//   kSnapshotRankRequest     u8 method; u64 snapshot_id; u64 generation
//   kSnapshotScanRequest     u8 method; u8 op; u64 snapshot_id;
//                            u64 generation
//
// Response payload (kResponse):
//   u8 status (WireStatus); u8 body (BodyKind); then
//     kValues   u32 count; count x i64   -- the scan/rank answer
//     kText     u32 len; len bytes       -- stats/health text, error detail
//     kRetry    u32 retry_after_ms       -- back-pressure hint (kRetryAfter)
//     kSnapshot u64 snapshot_id; u64 generation -- a snapshot handle: the
//               registered/updated handle on kOk, the CURRENT generation
//               to retarget on kStaleGeneration
//     kNone     (nothing)
//
// Arrays (next[], value[] and the kValues answer) move as one block copy
// each: the wire is little-endian and so is the host (wire.cpp asserts it
// at compile time), so an array's memory image is its wire image.
// Encoders size the frame once from the payload length in the header;
// scalar fields are written byte by byte. List-carrying encoders expect
// at most kMaxListVertices vertices (NetClient refuses a larger list
// before encoding); a peer refuses a larger frame as kOversized.
//
// Decoding is strict and bounds-checked: every read is validated against
// the remaining buffer, and a declared count (n, count, len) is checked
// once against the payload length -- which must match it exactly --
// before the array is sized and copied. Every malformed-frame class maps
// to a typed WireError -- truncation is kNeedMore (feed more bytes),
// everything else is a hard protocol error the server answers with
// kBadRequest and a close. No decode ever reads past the supplied buffer
// (tests/net_wire_test.cpp runs the corruption harness under ASan/UBSan
// to keep that true). tests/golden/wire_v2/ pins the bytes of one frame
// per request kind and response body (tests/wire_golden_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "lists/linked_list.hpp"
#include "lists/ops.hpp"

/// The network front door: wire codec, event-loop TCP server, and the
/// blocking client used by the benches and tests.
namespace lr90::net {

inline constexpr std::uint8_t kMagic0 = 0x4C;  ///< 'L'
inline constexpr std::uint8_t kMagic1 = 0x52;  ///< 'R'
/// Current frame version. v2 widened the header with the deadline field
/// (v1 peers are refused with kBadVersion -- no silent misparse).
inline constexpr std::uint8_t kWireVersion = 2;
inline constexpr std::size_t kHeaderSize = 16;   ///< bytes before payload
/// Largest accepted payload (64 MiB, ~5.6M-vertex lists): a declared
/// length beyond this is rejected before any allocation, so a corrupt or
/// hostile length prefix cannot balloon server memory.
inline constexpr std::uint32_t kMaxPayload = 64u << 20;
/// Most vertices one list-carrying request holds: a vertex is 12 payload
/// bytes (u32 next, i64 value), and the list body's n and head plus the
/// widest field ahead of it (an update's u64 snapshot id) are 16 more.
/// Every list-carrying kind fits this many and none fits one more.
inline constexpr std::size_t kMaxListVertices = (kMaxPayload - 16) / 12;
static_assert(16 + 12 * kMaxListVertices == kMaxPayload &&
              8 + 12 * (kMaxListVertices + 1) > kMaxPayload);

/// Frame kinds. Requests are < 0x80; responses have the top bit set.
enum class MsgKind : std::uint8_t {
  kRankRequest = 1,    ///< exclusive list rank
  kScanRequest = 2,    ///< exclusive list scan under any ScanOp
  kStatsRequest = 3,   ///< plaintext serving counters (body kText)
  kHealthRequest = 4,  ///< plaintext liveness probe (body kText)
  kRegisterSnapshotRequest = 5,  ///< register an immutable list snapshot
  kReleaseSnapshotRequest = 6,   ///< drop a registered snapshot
  kUpdateSnapshotRequest = 7,    ///< replace a snapshot (generation bump)
  kSnapshotRankRequest = 8,      ///< rank a registered snapshot
  kSnapshotScanRequest = 9,      ///< scan a registered snapshot
  kResponse = 0x81,    ///< the one response kind; the id names the request
};

/// Response status on the wire. Mirrors lr90::StatusCode where a run
/// actually happened, plus the serving-layer outcomes that never reach an
/// engine (back-pressure, shutdown, protocol errors).
enum class WireStatus : std::uint8_t {
  kOk = 0,            ///< the request ran; body carries the answer
  kInvalidInput = 1,  ///< malformed list (StatusCode::kInvalidInput)
  kUnsupported = 2,   ///< method/operator combo (StatusCode::kUnsupported)
  kWrongAnswer = 3,   ///< verify_output mismatch (StatusCode::kWrongAnswer)
  kRetryAfter = 4,    ///< queue full; body kRetry carries the wait hint
  kShuttingDown = 5,  ///< server draining; do not retry here
  kBadRequest = 6,    ///< protocol error; the connection will close
  kInternalError = 7, ///< engine failure that produced no typed status
  /// The addressed snapshot generation was superseded; the kSnapshot
  /// body carries the current generation to retarget.
  kStaleGeneration = 8,
  kCorruptSlab = 9,         ///< kept for the pinned format; never answered
  kResourceExhausted = 10,  ///< kept for the pinned format; never answered
  kDeadlineExceeded = 11,   ///< deadline passed before the work ran
};

/// Short stable name of `s` ("ok", "retry-after", ...).
const char* wire_status_name(WireStatus s);

/// Typed decode outcome. kNeedMore is the streaming signal (an honest
/// prefix of a valid frame); every other non-kOk value is a protocol
/// error -- the frame can never become valid with more bytes.
enum class WireError : std::uint8_t {
  kOk = 0,        ///< a complete, well-formed frame
  kNeedMore,      ///< valid so far, but the buffer ends mid-frame
  kBadMagic,      ///< first bytes are not "LR"
  kBadVersion,    ///< version byte != kWireVersion
  kBadKind,       ///< kind byte names no MsgKind
  kOversized,     ///< declared payload length > kMaxPayload
  kBadLength,     ///< payload length inconsistent with the kind's layout
  kBadPayload,    ///< payload content out of range (method/op/head/body)
};

/// Short stable name of `e` ("ok", "need-more", "bad-magic", ...).
const char* wire_error_name(WireError e);

/// Body discriminator of a response payload.
enum class BodyKind : std::uint8_t {
  kNone = 0,    ///< no body
  kValues = 1,  ///< the scan/rank vector
  kText = 2,    ///< plaintext (stats/health) or an error detail
  kRetry = 3,   ///< a retry-after hint in milliseconds
  kSnapshot = 4,  ///< a snapshot handle (id + generation)
};

/// A parsed frame header plus a view of its payload bytes (borrowed from
/// the caller's buffer; valid only while that buffer is).
struct FrameView {
  MsgKind kind = MsgKind::kResponse;  ///< what the frame is
  std::uint32_t request_id = 0;       ///< correlation id (echoed back)
  std::uint32_t deadline_ms = 0;      ///< relative deadline; 0 = none
  std::span<const std::uint8_t> payload;  ///< kind-specific bytes
};

/// Parses one frame from the front of [data, data+len). On kOk fills
/// `out` and sets `frame_len` to the bytes consumed (header + payload).
/// On kNeedMore nothing is consumed; call again with more bytes. Any
/// other error is fatal for the stream (resynchronization is not
/// attempted -- a binary framing error closes the connection).
WireError parse_frame(const std::uint8_t* data, std::size_t len,
                      FrameView& out, std::size_t& frame_len);

// -- requests ---------------------------------------------------------------

/// A decoded request frame: the engine-facing request fields plus an
/// owned copy of the list (the wire buffer is transient; the engine run
/// is not).
struct RequestFrame {
  MsgKind kind = MsgKind::kRankRequest;  ///< rank/scan/stats/health/...
  std::uint32_t request_id = 0;          ///< echoed in the response
  Method method = Method::kAuto;         ///< requested algorithm
  ScanOp op = ScanOp::kPlus;             ///< scan operator (kScanRequest)
  LinkedList list;                       ///< decoded list (rank/scan/
                                         ///< register/update)
  std::uint64_t snapshot_id = 0;   ///< snapshot kinds: the addressed id
  std::uint64_t generation = 0;    ///< snapshot rank/scan: pinned gen
  std::uint32_t deadline_ms = 0;   ///< header deadline field; 0 = none
};

/// Decodes a request frame's payload. Strict: the payload length must
/// match the declared n exactly (kBadLength), method/op bytes must name
/// registered enumerators and head must be in range (kBadPayload).
/// Structural list validity (every next in range, one tail...) is NOT
/// checked here -- the serving layer runs the engine with
/// validate_input, which types malformed lists as kInvalidInput.
WireError decode_request(const FrameView& frame, RequestFrame& out);

/// Appends a rank-request frame for `list` to `out`.
void encode_rank_request(std::vector<std::uint8_t>& out,
                         std::uint32_t request_id, const LinkedList& list,
                         Method method = Method::kAuto,
                         std::uint32_t deadline_ms = 0);
/// Appends a scan-request frame for `list` under `op` to `out`.
void encode_scan_request(std::vector<std::uint8_t>& out,
                         std::uint32_t request_id, const LinkedList& list,
                         ScanOp op, Method method = Method::kAuto,
                         std::uint32_t deadline_ms = 0);
/// Appends an empty-payload request frame (stats/health) to `out`.
void encode_plain_request(std::vector<std::uint8_t>& out, MsgKind kind,
                          std::uint32_t request_id);
/// Appends a register-snapshot request frame for `list` to `out`.
void encode_register_snapshot_request(std::vector<std::uint8_t>& out,
                                      std::uint32_t request_id,
                                      const LinkedList& list);
/// Appends an update-snapshot request frame (new `list` under
/// `snapshot_id`) to `out`.
void encode_update_snapshot_request(std::vector<std::uint8_t>& out,
                                    std::uint32_t request_id,
                                    std::uint64_t snapshot_id,
                                    const LinkedList& list);
/// Appends a release-snapshot request frame to `out`.
void encode_release_snapshot_request(std::vector<std::uint8_t>& out,
                                     std::uint32_t request_id,
                                     std::uint64_t snapshot_id);
/// Appends a snapshot-addressed rank request frame to `out`
/// (generation 0 = current).
void encode_snapshot_rank_request(std::vector<std::uint8_t>& out,
                                  std::uint32_t request_id,
                                  std::uint64_t snapshot_id,
                                  std::uint64_t generation,
                                  Method method = Method::kAuto,
                                  std::uint32_t deadline_ms = 0);
/// Appends a snapshot-addressed scan request frame to `out`.
void encode_snapshot_scan_request(std::vector<std::uint8_t>& out,
                                  std::uint32_t request_id,
                                  std::uint64_t snapshot_id,
                                  std::uint64_t generation, ScanOp op,
                                  Method method = Method::kAuto,
                                  std::uint32_t deadline_ms = 0);

// -- responses --------------------------------------------------------------

/// A decoded response frame; which member is meaningful follows `body`.
struct ResponseFrame {
  std::uint32_t request_id = 0;          ///< which request this answers
  WireStatus status = WireStatus::kOk;   ///< outcome class
  BodyKind body = BodyKind::kNone;       ///< which member below is set
  std::vector<value_t> values;           ///< kValues: the answer vector
  std::string text;                      ///< kText: stats/health/detail
  std::uint32_t retry_after_ms = 0;      ///< kRetry: back-pressure hint
  std::uint64_t snapshot_id = 0;   ///< kSnapshot: the handle's id
  std::uint64_t generation = 0;    ///< kSnapshot: the handle's generation
};

/// Decodes a response frame's payload (strict, like decode_request).
WireError decode_response(const FrameView& frame, ResponseFrame& out);

/// Appends a kValues response frame to `out`.
void encode_values_response(std::vector<std::uint8_t>& out,
                            std::uint32_t request_id, WireStatus status,
                            std::span<const value_t> values);
/// Appends a kText response frame to `out`.
void encode_text_response(std::vector<std::uint8_t>& out,
                          std::uint32_t request_id, WireStatus status,
                          std::string_view text);
/// Appends a kRetry response frame (status kRetryAfter) to `out`.
void encode_retry_response(std::vector<std::uint8_t>& out,
                           std::uint32_t request_id,
                           std::uint32_t retry_after_ms);
/// Appends a bodyless response frame to `out`.
void encode_status_response(std::vector<std::uint8_t>& out,
                            std::uint32_t request_id, WireStatus status);
/// Appends a kSnapshot response frame (a handle) to `out`: the
/// registered/updated handle on kOk, the current generation to retarget
/// on kStaleGeneration.
void encode_snapshot_response(std::vector<std::uint8_t>& out,
                              std::uint32_t request_id, WireStatus status,
                              std::uint64_t snapshot_id,
                              std::uint64_t generation);

/// Maps an engine StatusCode onto the wire. kUnavailable is deliberately
/// absent from the mapping: the serving layer distinguishes queue-full
/// (kRetryAfter + hint) from shutdown (kShuttingDown) before encoding.
WireStatus wire_status_of(StatusCode code);

}  // namespace lr90::net
