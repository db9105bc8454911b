// A small blocking client for the listrank90 wire protocol -- the
// counterpart the benches, tests, and the net_demo example drive against
// NetServer. One connection per client, synchronous round trips by
// default, with the send/receive halves exposed separately so callers
// can pipeline several requests down one socket before reading.
//
//   NetClient client;
//   if (!client.connect_to("127.0.0.1", port).ok()) ...
//   ResponseFrame resp;
//   Status s = client.rank(list, resp);       // transport-level status
//   if (resp.status == WireStatus::kOk) use(resp.values);
//   if (resp.status == WireStatus::kRetryAfter) wait(resp.retry_after_ms);
//
// The Status return reports the TRANSPORT outcome (connected, framed,
// decoded); the server's answer -- including RETRY_AFTER back-pressure --
// arrives typed in ResponseFrame::status for the caller to act on. A list
// too large for one frame (more than kMaxListVertices = 5,592,404
// vertices) is refused kInvalidInput before anything is sent, and the
// connection stays usable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace lr90::net {

/// Blocking wire-protocol client; confined to one thread at a time.
class NetClient {
 public:
  NetClient() = default;
  ~NetClient();  ///< closes the socket

  NetClient(const NetClient&) = delete;             ///< not copyable
  NetClient& operator=(const NetClient&) = delete;  ///< not copyable
  NetClient(NetClient&& other) noexcept;            ///< movable
  NetClient& operator=(NetClient&& other) noexcept;  ///< movable

  /// Connects to host:port (dotted-quad host). `timeout_s` bounds every
  /// subsequent send/receive, so a dead server fails typed instead of
  /// hanging the caller.
  Status connect_to(const std::string& host, std::uint16_t port,
                    double timeout_s = 5.0);
  /// Closes the connection (idempotent).
  void close();
  /// True while the socket is open.
  bool connected() const { return fd_ >= 0; }

  /// One rank round trip: encodes, sends, waits for the response.
  /// `deadline_ms` > 0 rides the wire header: a job still queued when
  /// the budget expires is answered kDeadlineExceeded without running,
  /// and a back-pressure RETRY_AFTER hint is clamped to the remainder.
  Status rank(const LinkedList& list, ResponseFrame& out,
              Method method = Method::kAuto, std::uint32_t deadline_ms = 0);
  /// One scan round trip under `op`.
  Status scan(const LinkedList& list, ScanOp op, ResponseFrame& out,
              Method method = Method::kAuto, std::uint32_t deadline_ms = 0);
  /// Fetches the plaintext serving counters (framed kStatsRequest).
  Status stats_text(std::string& out);
  /// Fetches the plaintext liveness probe (framed kHealthRequest).
  Status health_text(std::string& out);

  // -- snapshot round trips ------------------------------------------------
  // On kOk the server's answer carries a kSnapshot body: read the handle
  // from out.snapshot_id / out.generation. A snapshot-addressed run that
  // names a superseded generation comes back kStaleGeneration with the
  // CURRENT generation in out.generation -- retarget and resend.

  /// Registers `list` as an immutable server-side snapshot.
  Status register_snapshot(const LinkedList& list, ResponseFrame& out);
  /// Replaces the list behind `snapshot_id`, bumping its generation.
  Status update_snapshot(std::uint64_t snapshot_id, const LinkedList& list,
                         ResponseFrame& out);
  /// Drops the snapshot (its caches invalidate server-side).
  Status release_snapshot(std::uint64_t snapshot_id, ResponseFrame& out);
  /// One snapshot-addressed rank round trip. `generation` 0 = current.
  Status snapshot_rank(std::uint64_t snapshot_id, std::uint64_t generation,
                       ResponseFrame& out, Method method = Method::kAuto,
                       std::uint32_t deadline_ms = 0);
  /// One snapshot-addressed scan round trip under `op`.
  Status snapshot_scan(std::uint64_t snapshot_id, std::uint64_t generation,
                       ScanOp op, ResponseFrame& out,
                       Method method = Method::kAuto,
                       std::uint32_t deadline_ms = 0);

  // -- pipelining primitives (N sends, then N reads, one socket) ----------

  /// Sends a rank request without waiting; returns its request id.
  Status send_rank(const LinkedList& list, std::uint32_t& request_id,
                   Method method = Method::kAuto);
  /// Sends a scan request without waiting; returns its request id.
  Status send_scan(const LinkedList& list, ScanOp op,
                   std::uint32_t& request_id, Method method = Method::kAuto);
  /// Blocks for the next response frame on the socket (any request id).
  Status read_response(ResponseFrame& out);

  /// Sends raw bytes verbatim (tests: corrupt frames, plaintext probes).
  Status send_raw(const void* data, std::size_t len);
  /// Reads everything until the server closes the connection (tests:
  /// the plaintext STATS/HEALTH one-shot path).
  Status read_until_eof(std::string& out);

 private:
  Status round_trip(const std::vector<std::uint8_t>& frame,
                    std::uint32_t request_id, ResponseFrame& out);
  Status fill_input();  ///< one recv into in_, typed errors

  int fd_ = -1;                    ///< the blocking socket
  std::uint32_t next_id_ = 1;      ///< request-id counter
  std::vector<std::uint8_t> in_;   ///< bytes received, not yet framed
};

}  // namespace lr90::net

namespace lr90 {
/// The client type, re-exported at the library root.
using net::NetClient;
}  // namespace lr90
