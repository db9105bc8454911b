// lr90::net::NetServer -- the network front door: a single-threaded
// nonblocking event-loop TCP server (poll, level-triggered) fronting an
// EngineServer, so out-of-process clients can rank and scan lists over
// the wire protocol defined in net/wire.hpp.
//
//   NetServer server({.port = 0});            // 0 = ephemeral
//   Status s = server.start();                // binds, listens, spawns loop
//   ... clients connect to 127.0.0.1:server.port() ...
//   server.stop();                            // drains, then closes
//
// Design (the Gigablast TcpServer/Loop request-state idiom):
//   * ONE loop thread multiplexes every socket with poll(); no thread per
//     connection, so the intra-request (threads x W) engine hot path
//     keeps the cores. Each Connection (net/connection.hpp) is a little
//     state machine: read -> parse -> dispatch -> write.
//   * Engine work never runs on the loop thread: requests are submitted
//     to the EngineServer with the callback flavour of submit(); worker
//     threads push completions onto a queue and poke a wake pipe, and
//     the loop marries results back to connections and encodes responses.
//   * Back-pressure maps to the wire: the EngineServer runs
//     reject_when_full, and a queue-full rejection becomes an explicit
//     RETRY_AFTER response carrying a hint computed by RetryPolicy from
//     the live queue depth and the observed drain rate -- never a hung
//     connection, never a silent drop.
//   * stop() is graceful: the listener closes first, in-flight requests
//     finish and their responses flush (bounded by drain_timeout_s),
//     then connections close and the EngineServer shuts down.
//   * SIGPIPE is ignored (plus MSG_NOSIGNAL on every send); a peer that
//     vanishes mid-write (EPIPE/ECONNRESET) is a counted, clean teardown.
//   * A plaintext escape hatch: a connection whose first bytes are not
//     the frame magic may say "STATS\n" or "HEALTH\n" (netcat-friendly)
//     and gets the same text a framed kStatsRequest/kHealthRequest
//     returns, then a close.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/connection.hpp"
#include "net/retry.hpp"
#include "net/wire.hpp"
#include "serve/server.hpp"

namespace lr90::net {

/// Configuration of a NetServer.
struct NetServerOptions {
  /// The EngineServer beneath the loop. reject_when_full is forced ON
  /// (the loop must never block in submit) and validate_input is forced
  /// ON (wire input is untrusted; malformed lists must come back
  /// kInvalidInput, not corrupt a kernel). The EngineServer checks each
  /// wire list once: a run's list on its worker, a snapshot's at
  /// REGISTER/UPDATE.
  serve::ServerOptions serve;
  std::string bind_address = "127.0.0.1";  ///< dotted-quad listen address
  std::uint16_t port = 0;  ///< listen port; 0 = ephemeral (see port())
  int backlog = 128;       ///< listen(2) backlog
  std::size_t max_connections = 256;  ///< accepted sockets beyond this are
                                      ///< immediately closed (counted)
  /// Connections idle (no traffic, nothing in flight) longer than this
  /// are closed; <= 0 disables the timeout.
  double idle_timeout_s = 30.0;
  /// Bound on how long stop() waits for in-flight responses to flush
  /// before closing connections anyway.
  double drain_timeout_s = 5.0;
  /// A connection whose queued response bytes make no progress for this
  /// long (peer stopped draining its socket) is closed and counted
  /// (write_timeouts); <= 0 disables the timeout. Progress -- any send()
  /// that moves bytes -- re-arms the clock.
  double write_timeout_s = 10.0;
  /// RETRY_AFTER hint clamp (RetryPolicy min/max milliseconds).
  std::uint32_t retry_min_ms = 1;
  std::uint32_t retry_max_ms = 2000;  ///< hint ceiling
};

/// Event-loop counters, all monotonic since start(). Written only by the
/// loop thread; readable from any thread via NetServer::net_stats().
struct NetStats {
  std::uint64_t accepted = 0;         ///< connections accepted
  std::uint64_t closed = 0;           ///< connections fully torn down
  std::uint64_t refused_over_cap = 0; ///< accepts dropped at max_connections
  std::uint64_t idle_closed = 0;      ///< closes by idle timeout
  std::uint64_t peer_resets = 0;      ///< EPIPE/ECONNRESET teardowns
  std::uint64_t protocol_errors = 0;  ///< malformed frames / bad plaintext
  std::uint64_t frames_in = 0;        ///< well-formed request frames
  std::uint64_t responses_out = 0;    ///< response frames fully encoded
  std::uint64_t retry_after_sent = 0; ///< back-pressure RETRY_AFTER answers
  std::uint64_t req_rank = 0;         ///< per-kind request counters...
  std::uint64_t req_scan = 0;         ///< ...
  std::uint64_t req_stats = 0;        ///< ...(plaintext STATS included)
  std::uint64_t req_health = 0;       ///< ...(plaintext HEALTH included)
  std::uint64_t req_snapshot_admin = 0;  ///< register/update/release frames
  std::uint64_t req_snapshot_rank = 0;   ///< snapshot-addressed rank frames
  std::uint64_t req_snapshot_scan = 0;   ///< snapshot-addressed scan frames
  std::uint64_t stale_generation_sent = 0;  ///< STALE_GENERATION responses
  std::uint64_t bytes_in = 0;         ///< payload bytes read
  std::uint64_t bytes_out = 0;        ///< payload bytes written
  // Failure-model counters (docs/ARCHITECTURE.md, "Failure model").
  std::uint64_t write_timeouts = 0;   ///< closes by stalled-write timeout
  /// Connections torn down holding a partial request frame (peer died
  /// mid-frame); the half-parsed body is freed with the connection and
  /// nothing of it reaches the registry or the engine.
  std::uint64_t partial_frame_aborts = 0;
  std::uint64_t deadline_exceeded_sent = 0;  ///< DEADLINE_EXCEEDED answers
};

/// The event-loop TCP server. start()/stop() and the stats accessors may
/// be called from any thread; everything socket-facing runs on the one
/// internal loop thread.
class NetServer {
 public:
  /// Stores the options; no sockets are touched until start().
  explicit NetServer(NetServerOptions opt = {});
  ~NetServer();  ///< stop()

  NetServer(const NetServer&) = delete;             ///< not copyable
  NetServer& operator=(const NetServer&) = delete;  ///< not copyable

  /// Binds, listens, spawns the loop thread and the EngineServer.
  /// Typed failure (kUnavailable) when the address cannot be bound.
  Status start();
  /// Graceful shutdown: close the listener, drain in-flight responses
  /// (bounded by drain_timeout_s), close connections, stop the engine
  /// workers. Idempotent; safe from any thread except the loop itself.
  void stop();

  /// True between a successful start() and stop().
  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (the ephemeral pick when options.port was 0);
  /// 0 before start().
  std::uint16_t port() const { return port_; }
  /// Snapshot of the event-loop counters.
  NetStats net_stats() const;
  /// Snapshot of the EngineServer counters beneath the loop (empty
  /// before start()).
  serve::ServerStats serve_stats() const;
  /// The resolved options.
  const NetServerOptions& options() const { return opt_; }

  /// The plaintext stats/health body (exposed for tests: the framed and
  /// netcat paths return exactly this text).
  std::string stats_text() const;
  std::string health_text() const;  ///< "ok\n" serving, "draining\n" not

 private:
  /// A finished engine run travelling from a worker thread to the loop:
  /// built at dispatch for list and snapshot runs alike, answered by the
  /// run's one completion callback.
  struct Completion {
    std::uint64_t conn_id = 0;   ///< which connection asked
    std::uint32_t request_id = 0;  ///< which of its requests
    RunResult result;            ///< the engine's answer
    /// Keeps the decoded list alive until the run has completed (the
    /// engine borrows it by pointer). Null for snapshot-addressed runs
    /// (the registry pins the list).
    std::shared_ptr<LinkedList> list;
    /// Nonzero for snapshot-addressed runs: lets a kStaleGeneration
    /// result be answered with a kSnapshot body naming the snapshot and
    /// its CURRENT generation (from RunStats::snapshot_generation).
    std::uint64_t snapshot_id = 0;
    /// Absolute deadline carried from the wire header (max() = none):
    /// lets a queue-full RETRY_AFTER hint be clamped to the remaining
    /// budget -- a hint past the client's own deadline guarantees a
    /// wasted retry -- and an already-spent budget answer
    /// DEADLINE_EXCEEDED instead.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
  };

  void loop();
  void on_readable(Connection& c);
  void on_writable(Connection& c);
  void parse_input(Connection& c);
  void dispatch(Connection& c, RequestFrame& req);
  void dispatch_snapshot_admin(Connection& c, RequestFrame& req);
  void handle_plaintext(Connection& c);
  void drain_completions();
  void finish_completion(Connection& c, const Completion& done);
  void close_connection(std::uint64_t id, bool counted_reset);
  void bump(std::uint64_t NetStats::* field, std::uint64_t by = 1);

  NetServerOptions opt_;                    ///< resolved configuration
  std::unique_ptr<serve::EngineServer> engine_;  ///< the serving layer
  std::thread loop_thread_;                 ///< the one event-loop thread
  std::atomic<bool> running_{false};        ///< between start() and stop()
  std::atomic<bool> stopping_{false};       ///< stop() requested
  std::uint16_t port_ = 0;                  ///< bound port
  int listen_fd_ = -1;                      ///< listening socket
  int wake_r_ = -1;                         ///< completion wake pipe (read)
  int wake_w_ = -1;                         ///< completion wake pipe (write)

  std::map<std::uint64_t, Connection> conns_;  ///< loop thread only
  std::uint64_t next_conn_id_ = 1;             ///< loop thread only
  RetryPolicy retry_;                          ///< loop thread only

  std::mutex completions_mu_;               ///< guards completions_
  std::vector<Completion> completions_;     ///< worker -> loop hand-off

  mutable std::mutex stats_mu_;  ///< guards stats_ for cross-thread reads
  NetStats stats_;               ///< counters (loop writes, others read)

  std::mutex lifecycle_mu_;  ///< serializes start()/stop()
};

}  // namespace lr90::net

namespace lr90 {
/// The network layer's primary types, re-exported at the library root.
using net::NetServer;
using net::NetServerOptions;
using net::NetStats;
}  // namespace lr90
