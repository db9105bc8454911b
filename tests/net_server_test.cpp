// Loopback integration for the network front door (net/server.hpp):
// a real NetServer on an ephemeral 127.0.0.1 port, driven by NetClient
// over real sockets. Covers lifecycle, bit-exactness against a direct
// Engine run, concurrent connections, pipelining, the RETRY_AFTER
// back-pressure path, protocol-error teardown, the netcat plaintext
// escape, idle timeouts, the connection cap, abrupt peer resets,
// graceful-shutdown draining of in-flight responses, and the client's
// refusal of lists too large for one frame.
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "lists/generators.hpp"
#include "net/client.hpp"
#include "support/faultpoint.hpp"

namespace lr90::net {
namespace {

using namespace std::chrono_literals;

/// Server options every test starts from: ephemeral port, two engine
/// workers, single-threaded engines (the tests measure correctness, not
/// speed, and CI runs this under TSan).
NetServerOptions base_options() {
  NetServerOptions opt;
  opt.port = 0;
  opt.serve.workers = 2;
  opt.serve.engine.backend = BackendKind::kHost;
  opt.serve.engine.threads = 1;
  return opt;
}

/// A client connected to `server`, asserting the transport came up.
NetClient connect_client(const NetServer& server) {
  NetClient client;
  const Status s = client.connect_to("127.0.0.1", server.port());
  EXPECT_TRUE(s.ok()) << s.message;
  return client;
}

TEST(NetServer, StartsStopsAndReportsHealth) {
  NetServer server(base_options());
  ASSERT_TRUE(server.start().ok());
  EXPECT_TRUE(server.running());
  EXPECT_NE(server.port(), 0);

  NetClient client = connect_client(server);
  std::string health;
  ASSERT_TRUE(client.health_text(health).ok());
  EXPECT_EQ(health, "ok\n");

  server.stop();
  EXPECT_FALSE(server.running());
  // Idempotent: a second stop is a no-op, and start()/stop() again works.
  server.stop();
  ASSERT_TRUE(server.start().ok());
  server.stop();
}

TEST(NetServer, RankAndScanMatchDirectEngineBitExact) {
  NetServer server(base_options());
  ASSERT_TRUE(server.start().ok());
  NetClient client = connect_client(server);

  // Reference: a direct single-threaded host engine -- the same
  // configuration the server's pooled workers run.
  Engine direct(server.options().serve.engine);

  Rng rng(2024);
  for (const std::size_t n : {1u, 2u, 57u, 1000u, 30000u}) {
    const LinkedList list = random_list(n, rng);

    ResponseFrame resp;
    ASSERT_TRUE(client.rank(list, resp).ok());
    ASSERT_EQ(resp.status, WireStatus::kOk) << resp.text;
    const RunResult want_rank = direct.run(RankRequest{&list});
    ASSERT_TRUE(want_rank.ok());
    EXPECT_EQ(resp.values, want_rank.scan) << "rank n=" << n;

    for (const ScanOp op : {ScanOp::kPlus, ScanOp::kMin, ScanOp::kMaxPlus}) {
      ASSERT_TRUE(client.scan(list, op, resp).ok());
      ASSERT_EQ(resp.status, WireStatus::kOk) << resp.text;
      const RunResult want = direct.run(ScanRequest{&list, op});
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(resp.values, want.scan)
          << "scan op=" << scan_op_name(op) << " n=" << n;
    }
  }
  server.stop();
}

TEST(NetServer, FourConcurrentConnectionsStayBitExact) {
  NetServer server(base_options());
  ASSERT_TRUE(server.start().ok());

  // Shared inputs with precomputed references.
  Rng rng(7);
  std::vector<LinkedList> lists;
  for (const std::size_t n : {3u, 64u, 1000u, 4096u})
    lists.push_back(random_list(n, rng));
  Engine direct(server.options().serve.engine);
  std::vector<std::vector<value_t>> want_rank, want_scan;
  for (const LinkedList& list : lists) {
    want_rank.push_back(direct.run(RankRequest{&list}).scan);
    want_scan.push_back(direct.run(ScanRequest{&list, ScanOp::kMin}).scan);
  }

  constexpr int kClients = 4;
  constexpr int kRounds = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      NetClient client;
      if (!client.connect_to("127.0.0.1", server.port()).ok()) {
        mismatches.fetch_add(1000);
        return;
      }
      for (int i = 0; i < kRounds; ++i) {
        const std::size_t which = (t + i) % lists.size();
        ResponseFrame resp;
        if ((t + i) % 2 == 0) {
          if (!client.rank(lists[which], resp).ok() ||
              resp.status != WireStatus::kOk ||
              resp.values != want_rank[which])
            mismatches.fetch_add(1);
        } else {
          if (!client.scan(lists[which], ScanOp::kMin, resp).ok() ||
              resp.status != WireStatus::kOk ||
              resp.values != want_scan[which])
            mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const NetStats stats = server.net_stats();
  EXPECT_GE(stats.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.frames_in, static_cast<std::uint64_t>(kClients * kRounds));
  server.stop();
}

TEST(NetServer, PipelinedRequestsAnswerInOrderOnOneSocket) {
  NetServer server(base_options());
  ASSERT_TRUE(server.start().ok());
  NetClient client = connect_client(server);

  Rng rng(12);
  const LinkedList list = random_list(500, rng);
  Engine direct(server.options().serve.engine);
  const std::vector<value_t> want = direct.run(RankRequest{&list}).scan;

  // Burst of sends, then the matching reads. Responses for one
  // connection come back in submission order (the loop encodes
  // completions into a single ordered output buffer per connection --
  // but engine completion order is not submission order, so ids matter).
  constexpr int kDepth = 16;
  std::vector<std::uint32_t> ids(kDepth);
  for (int i = 0; i < kDepth; ++i)
    ASSERT_TRUE(client.send_rank(list, ids[i]).ok());
  std::vector<bool> seen(kDepth, false);
  for (int i = 0; i < kDepth; ++i) {
    ResponseFrame resp;
    ASSERT_TRUE(client.read_response(resp).ok());
    ASSERT_EQ(resp.status, WireStatus::kOk) << resp.text;
    EXPECT_EQ(resp.values, want);
    bool matched = false;
    for (int j = 0; j < kDepth; ++j) {
      if (ids[j] == resp.request_id) {
        EXPECT_FALSE(seen[j]) << "duplicate response for id " << ids[j];
        seen[j] = matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "unknown response id " << resp.request_id;
  }
  server.stop();
}

TEST(NetServer, FullQueueAnswersRetryAfterAndNeverHangs) {
  // The back-pressure scenario: one worker, a one-slot queue -- then a
  // pipelined burst far deeper than the queue. Every request gets an
  // answer (kOk or kRetryAfter with a usable hint); nothing blocks,
  // nothing is silently dropped.
  NetServerOptions opt = base_options();
  opt.serve.workers = 1;
  opt.serve.queue_capacity = 1;
  NetServer server(opt);
  ASSERT_TRUE(server.start().ok());
  NetClient client = connect_client(server);

  // A large "plug" request occupies the single worker for many
  // milliseconds; the burst behind it is tiny, so the event loop decodes
  // and submits all of it while the plug is still ranking -- regardless
  // of how much a sanitizer slows either side down. Capacity 1 then
  // admits exactly one burst request; the rest must be refused.
  Rng rng(5);
  const LinkedList plug = random_list(400000, rng);
  const LinkedList list = random_list(64, rng);
  Engine direct(server.options().serve.engine);
  const std::vector<value_t> want_plug = direct.run(RankRequest{&plug}).scan;
  const std::vector<value_t> want = direct.run(RankRequest{&list}).scan;

  std::uint32_t plug_id = 0;
  ASSERT_TRUE(client.send_rank(plug, plug_id).ok());

  constexpr int kBurst = 24;
  std::vector<std::uint32_t> ids(kBurst);
  for (int i = 0; i < kBurst; ++i)
    ASSERT_TRUE(client.send_rank(list, ids[i]).ok());

  // Rejections are answered immediately by the loop, completions when
  // the worker finishes, so responses interleave -- match by request id.
  int ok = 0, retry = 0;
  bool plug_answered = false;
  for (int i = 0; i < kBurst + 1; ++i) {
    ResponseFrame resp;
    ASSERT_TRUE(client.read_response(resp).ok()) << "response " << i;
    if (resp.request_id == plug_id) {
      ASSERT_EQ(resp.status, WireStatus::kOk) << resp.text;
      EXPECT_EQ(resp.values, want_plug);
      plug_answered = true;
      continue;
    }
    if (resp.status == WireStatus::kOk) {
      EXPECT_EQ(resp.values, want);
      ++ok;
    } else {
      ASSERT_EQ(resp.status, WireStatus::kRetryAfter) << resp.text;
      EXPECT_EQ(resp.body, BodyKind::kRetry);
      EXPECT_GE(resp.retry_after_ms, opt.retry_min_ms);
      EXPECT_LE(resp.retry_after_ms, opt.retry_max_ms);
      ++retry;
    }
  }
  EXPECT_TRUE(plug_answered);
  EXPECT_EQ(ok + retry, kBurst);
  // With the worker pinned on the plug and the queue holding one slot,
  // rejection is structurally guaranteed: at most one burst request is
  // admitted before the submit path starts refusing. (Whether even that
  // one gets in depends on when the worker dequeues the plug, so ok may
  // legitimately be zero -- acceptance is proven by the retry loop below.)
  EXPECT_GE(retry, 1);
  EXPECT_EQ(server.net_stats().retry_after_sent,
            static_cast<std::uint64_t>(retry));

  // And the client-side contract: honouring the hint eventually lands
  // the request.
  bool landed = false;
  for (int attempt = 0; attempt < 50 && !landed; ++attempt) {
    ResponseFrame resp;
    ASSERT_TRUE(client.rank(list, resp).ok());
    if (resp.status == WireStatus::kOk) {
      EXPECT_EQ(resp.values, want);
      landed = true;
    } else {
      ASSERT_EQ(resp.status, WireStatus::kRetryAfter);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(resp.retry_after_ms));
    }
  }
  EXPECT_TRUE(landed) << "retry loop never landed";
  server.stop();
}

TEST(NetServer, MalformedFrameGetsTypedAnswerThenClose) {
  NetServer server(base_options());
  ASSERT_TRUE(server.start().ok());
  NetClient client = connect_client(server);

  // A frame claiming a payload over the wire cap.
  std::uint8_t bad[kHeaderSize] = {kMagic0, kMagic1, kWireVersion, 1};
  const std::uint32_t huge = kMaxPayload + 1;
  std::memcpy(bad + 8, &huge, sizeof(huge));
  ASSERT_TRUE(client.send_raw(bad, sizeof(bad)).ok());

  ResponseFrame resp;
  ASSERT_TRUE(client.read_response(resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kBadRequest);
  EXPECT_NE(resp.text.find("oversized"), std::string::npos) << resp.text;

  // ...and the server hangs up after answering.
  std::string rest;
  EXPECT_TRUE(client.read_until_eof(rest).ok());
  EXPECT_GE(server.net_stats().protocol_errors, 1u);
  server.stop();
}

TEST(NetServer, PlaintextStatsAndHealthForNetcatUsers) {
  NetServer server(base_options());
  ASSERT_TRUE(server.start().ok());

  {
    NetClient client = connect_client(server);
    ASSERT_TRUE(client.send_raw("HEALTH\n", 7).ok());
    std::string text;
    ASSERT_TRUE(client.read_until_eof(text).ok());
    EXPECT_EQ(text, "ok\n");
  }
  {
    NetClient client = connect_client(server);
    ASSERT_TRUE(client.send_raw("STATS\r\n", 7).ok());  // telnet-style CRLF
    std::string text;
    ASSERT_TRUE(client.read_until_eof(text).ok());
    EXPECT_NE(text.find("queue_capacity "), std::string::npos) << text;
    EXPECT_NE(text.find("net_req_stats "), std::string::npos) << text;
  }
  {
    // The framed stats request returns the same shape of text.
    NetClient client = connect_client(server);
    std::string framed;
    ASSERT_TRUE(client.stats_text(framed).ok());
    EXPECT_NE(framed.find("net_req_stats "), std::string::npos);
  }
  EXPECT_GE(server.net_stats().req_stats, 2u);
  EXPECT_GE(server.net_stats().req_health, 1u);
  server.stop();
}

TEST(NetServer, StatsTextCountsEveryRunOfAShardPinnedEngine) {
  // An engine with a shard count pinned answers each request as any
  // engine does: the STATS text counts every run once, by kind, and
  // names no shard counter.
  NetServerOptions opt = base_options();
  opt.serve.engine.shard.shards = 3;
  NetServer server(opt);
  ASSERT_TRUE(server.start().ok());
  NetClient client = connect_client(server);
  Rng rng(2030);
  for (int i = 0; i < 5; ++i) {
    const LinkedList list = random_list(1000 + 7 * i, rng);
    ResponseFrame resp;
    const Status s = i % 2 == 0 ? client.rank(list, resp)
                                : client.scan(list, ScanOp::kMin, resp);
    ASSERT_TRUE(s.ok()) << s.message;
    ASSERT_EQ(resp.status, WireStatus::kOk) << resp.text;
  }
  std::string text;
  ASSERT_TRUE(client.stats_text(text).ok());
  EXPECT_NE(text.find("\ncompleted 5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nrank_requests 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nscan_requests 2\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("shard"), std::string::npos) << text;
  server.stop();
}

TEST(NetServer, HttpGetStatsAdapterAnswersCurlShapedRequests) {
  NetServer server(base_options());
  ASSERT_TRUE(server.start().ok());

  // Run one rank over the wire first so the kernel-tier counters have
  // something to show in the scraped body.
  {
    NetClient client = connect_client(server);
    Rng rng(77);
    const LinkedList list = random_list(30000, rng);
    ResponseFrame resp;
    ASSERT_TRUE(client.rank(list, resp).ok());
    ASSERT_EQ(resp.status, WireStatus::kOk) << resp.text;
  }
  const serve::ServerStats ss = server.serve_stats();
  EXPECT_GE(ss.tier_list_arrays_runs + ss.tier_packed_runs, 1u);

  {
    // A curl-shaped request: short request line, then headers that push
    // the buffer well past the one-line netcat budget.
    NetClient client = connect_client(server);
    const std::string req =
        "GET /stats HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "User-Agent: curl/8.0.1\r\n"
        "Accept: */*\r\n"
        "\r\n";
    ASSERT_TRUE(client.send_raw(req.data(), req.size()).ok());
    std::string text;
    ASSERT_TRUE(client.read_until_eof(text).ok());
    EXPECT_EQ(text.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << text;
    EXPECT_NE(text.find("Content-Type: text/plain"), std::string::npos) << text;
    EXPECT_NE(text.find("net_req_stats "), std::string::npos) << text;
    EXPECT_NE(text.find("tier_list_arrays_runs "), std::string::npos)
        << text;
    EXPECT_NE(text.find("tier_packed_runs "), std::string::npos) << text;
  }
  {
    NetClient client = connect_client(server);
    const std::string req = "GET /health HTTP/1.0\r\n\r\n";
    ASSERT_TRUE(client.send_raw(req.data(), req.size()).ok());
    std::string text;
    ASSERT_TRUE(client.read_until_eof(text).ok());
    EXPECT_EQ(text.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << text;
    EXPECT_NE(text.find("\r\n\r\nok\n"), std::string::npos) << text;
  }
  {
    // Unknown path: a proper 404, not the bare "bad request" line.
    NetClient client = connect_client(server);
    const std::string req = "GET /nope HTTP/1.0\r\n";
    ASSERT_TRUE(client.send_raw(req.data(), req.size()).ok());
    std::string text;
    ASSERT_TRUE(client.read_until_eof(text).ok());
    EXPECT_EQ(text.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u) << text;
  }
  EXPECT_GE(server.net_stats().req_stats, 1u);
  EXPECT_GE(server.net_stats().req_health, 1u);
  server.stop();
}

TEST(NetServer, IdleConnectionsTimeOut) {
  NetServerOptions opt = base_options();
  opt.idle_timeout_s = 0.05;
  NetServer server(opt);
  ASSERT_TRUE(server.start().ok());

  NetClient client = connect_client(server);
  // Do nothing; the server should hang up on us.
  std::string rest;
  EXPECT_TRUE(client.read_until_eof(rest).ok());
  EXPECT_TRUE(rest.empty());
  EXPECT_GE(server.net_stats().idle_closed, 1u);
  server.stop();
}

TEST(NetServer, ConnectionsOverTheCapAreClosedAndCounted) {
  NetServerOptions opt = base_options();
  opt.max_connections = 1;
  NetServer server(opt);
  ASSERT_TRUE(server.start().ok());

  // A round trip proves the loop accepted the first connection before
  // the second one arrives.
  NetClient first = connect_client(server);
  std::string health;
  ASSERT_TRUE(first.health_text(health).ok());
  EXPECT_EQ(health, "ok\n");

  NetClient second = connect_client(server);
  std::string rest;
  EXPECT_TRUE(second.read_until_eof(rest).ok());
  EXPECT_TRUE(rest.empty()) << "a refused connection gets no bytes";

  // The refusal is counted before the loop reads the STATS frame that
  // follows it, so both views agree.
  std::string text;
  ASSERT_TRUE(first.stats_text(text).ok());
  EXPECT_NE(text.find("net_refused_over_cap 1\n"), std::string::npos)
      << text;
  EXPECT_EQ(server.net_stats().refused_over_cap, 1u);
  EXPECT_EQ(server.net_stats().accepted, 1u);
  server.stop();
}

TEST(NetServer, AbruptPeerResetIsACountedCleanTeardown) {
  NetServer server(base_options());
  ASSERT_TRUE(server.start().ok());

  for (int i = 0; i < 8; ++i) {
    NetClient client = connect_client(server);
    // Half a frame, then vanish.
    const std::uint8_t partial[] = {kMagic0, kMagic1, kWireVersion};
    ASSERT_TRUE(client.send_raw(partial, sizeof(partial)).ok());
    client.close();
  }
  // The server stays alive and serving afterwards.
  NetClient client = connect_client(server);
  Rng rng(3);
  const LinkedList list = random_list(100, rng);
  ResponseFrame resp;
  ASSERT_TRUE(client.rank(list, resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kOk);

  // Every vanished peer became a counted close, never a crash.
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (server.net_stats().closed < 8 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  EXPECT_GE(server.net_stats().closed, 8u);
  server.stop();
}

TEST(NetServer, GracefulStopDrainsInFlightResponses) {
  NetServerOptions opt = base_options();
  opt.serve.workers = 1;
  NetServer server(opt);
  ASSERT_TRUE(server.start().ok());
  NetClient client = connect_client(server);

  Rng rng(9);
  const LinkedList list = random_list(200000, rng);
  Engine direct(server.options().serve.engine);
  const std::vector<value_t> want = direct.run(RankRequest{&list}).scan;

  // Get the request in flight, then stop the server while the engine is
  // (very likely still) running it. The drain must deliver the answer.
  std::uint32_t id = 0;
  ASSERT_TRUE(client.send_rank(list, id).ok());
  // Wait until the request is genuinely in flight (accepted into the
  // engine), not a fixed sleep -- sanitizer builds dispatch slowly.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (server.serve_stats().submitted < 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  ASSERT_GE(server.serve_stats().submitted, 1u);
  std::thread stopper([&] { server.stop(); });

  ResponseFrame resp;
  const Status s = client.read_response(resp);
  stopper.join();
  ASSERT_TRUE(s.ok()) << s.message;
  EXPECT_EQ(resp.request_id, id);
  ASSERT_EQ(resp.status, WireStatus::kOk) << resp.text;
  EXPECT_EQ(resp.values, want);

  // New requests after the drain began are told the truth.
  EXPECT_FALSE(server.running());
}

TEST(NetServer, RequestsDuringDrainSayShuttingDown) {
  NetServer server(base_options());
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(server.health_text(), "ok\n");
  server.stop();
  EXPECT_EQ(server.health_text(), "draining\n");
}

TEST(NetServer, InvalidListIsTypedNotFatal) {
  // Structurally broken input (a 2-cycle, so no vertex is the tail)
  // decodes fine at the wire layer but must come back kInvalidInput from
  // the forced engine validation -- the server stays up.
  NetServer server(base_options());
  ASSERT_TRUE(server.start().ok());
  NetClient client = connect_client(server);

  LinkedList cycle;
  cycle.next = {1, 0};
  cycle.value = {1, 1};
  cycle.head = 0;
  cycle.tail = kNoVertex;
  ResponseFrame resp;
  ASSERT_TRUE(client.rank(cycle, resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kInvalidInput) << resp.text;

  // Still serving.
  Rng rng(4);
  const LinkedList good = random_list(64, rng);
  ASSERT_TRUE(client.rank(good, resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kOk);
  server.stop();
}

TEST(NetServer, OversizedListIsRefusedBeforeSendingAndTheConnectionLives) {
  // One vertex past what a frame can carry: every list-carrying client
  // call answers kInvalidInput without sending, so the server sees no
  // frame and no protocol error, and the same connection keeps serving.
  NetServer server(base_options());
  ASSERT_TRUE(server.start().ok());
  NetClient client = connect_client(server);
  const NetStats before = server.net_stats();

  const LinkedList big = sequential_list(kMaxListVertices + 1);
  ResponseFrame resp;
  std::uint32_t id = 0;
  for (const Status& s :
       {client.rank(big, resp), client.scan(big, ScanOp::kPlus, resp),
        client.send_rank(big, id), client.send_scan(big, ScanOp::kMax, id),
        client.register_snapshot(big, resp),
        client.update_snapshot(1, big, resp)}) {
    EXPECT_EQ(s.code, StatusCode::kInvalidInput) << s.message;
  }
  EXPECT_TRUE(client.connected());

  Rng rng(6);
  const LinkedList good = random_list(64, rng);
  Engine direct(server.options().serve.engine);
  ASSERT_TRUE(client.rank(good, resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.text;
  EXPECT_EQ(resp.values, direct.run(RankRequest{&good}).scan);
  // Frames on one connection are handled in order, so had any refused
  // call sent bytes they would be counted by now.
  const NetStats after = server.net_stats();
  EXPECT_EQ(after.frames_in, before.frames_in + 1);
  EXPECT_EQ(after.protocol_errors, before.protocol_errors);
  server.stop();
}

TEST(NetClient, ListAtTheFrameLimitGetsPastTheSizeCheck) {
  // The refusal starts exactly one vertex past the limit: a list of
  // kMaxListVertices is encoded and reaches the socket, which an
  // unconnected client then reports as kUnavailable.
  NetClient client;
  const LinkedList at_limit = sequential_list(kMaxListVertices);
  ResponseFrame resp;
  std::uint32_t id = 0;
  for (const Status& s :
       {client.rank(at_limit, resp),
        client.scan(at_limit, ScanOp::kPlus, resp),
        client.send_rank(at_limit, id),
        client.send_scan(at_limit, ScanOp::kMax, id),
        client.register_snapshot(at_limit, resp),
        client.update_snapshot(1, at_limit, resp)}) {
    EXPECT_EQ(s.code, StatusCode::kUnavailable) << s.message;
  }
}

TEST(NetServer, SnapshotLifecycleOverTcp) {
  // The whole snapshot story over a real socket: register returns a
  // handle, runs against the handle are bit-exact and served from the
  // shared caches on repeats, update() invalidates pinned generations
  // with a typed answer naming the current one, and release makes the
  // id unknown without hurting the connection.
  NetServer server(base_options());
  ASSERT_TRUE(server.start().ok());
  NetClient client = connect_client(server);

  Rng rng(31);
  const LinkedList list = random_list(1500, rng);
  Engine direct(server.options().serve.engine);
  const std::vector<value_t> want_rank = direct.run(RankRequest{&list}).scan;
  const std::vector<value_t> want_scan =
      direct.run(ScanRequest{&list, ScanOp::kMin}).scan;

  // Register: the handle comes back in a kSnapshot body at generation 1.
  ResponseFrame resp;
  ASSERT_TRUE(client.register_snapshot(list, resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk) << resp.text;
  ASSERT_EQ(resp.body, BodyKind::kSnapshot);
  const std::uint64_t id = resp.snapshot_id;
  EXPECT_EQ(resp.generation, 1u);

  // Runs against the handle match a direct engine; generation 0 pins
  // "whatever is current", an explicit 1 pins this generation.
  ASSERT_TRUE(client.snapshot_rank(id, 0, resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk) << resp.text;
  EXPECT_EQ(resp.values, want_rank);
  ASSERT_TRUE(client.snapshot_scan(id, 1, ScanOp::kMin, resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk) << resp.text;
  EXPECT_EQ(resp.values, want_scan);

  // A repeat of the same shaped request is a cross-request result-cache
  // hit -- same bytes on the wire, zero additional engine runs.
  ASSERT_TRUE(client.snapshot_rank(id, 0, resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk) << resp.text;
  EXPECT_EQ(resp.values, want_rank);
  EXPECT_GE(server.serve_stats().result_hits, 1u);

  // Update bumps the generation...
  const LinkedList fresh = random_list(64, rng);
  ASSERT_TRUE(client.update_snapshot(id, fresh, resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk) << resp.text;
  ASSERT_EQ(resp.body, BodyKind::kSnapshot);
  EXPECT_EQ(resp.snapshot_id, id);
  EXPECT_EQ(resp.generation, 2u);

  // ...and a request pinned to the old generation is refused with a
  // typed answer that names the CURRENT generation for retargeting.
  ASSERT_TRUE(client.snapshot_rank(id, 1, resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kStaleGeneration) << resp.text;
  ASSERT_EQ(resp.body, BodyKind::kSnapshot);
  EXPECT_EQ(resp.snapshot_id, id);
  EXPECT_EQ(resp.generation, 2u);

  // Retarget-and-resend, exactly as the header documents, lands on the
  // new list.
  const std::vector<value_t> want_fresh =
      direct.run(RankRequest{&fresh}).scan;
  ASSERT_TRUE(client.snapshot_rank(id, resp.generation, resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk) << resp.text;
  EXPECT_EQ(resp.values, want_fresh);

  // Release frees the id; a second release and any later run against it
  // are typed rejections, not connection teardowns.
  ASSERT_TRUE(client.release_snapshot(id, resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk) << resp.text;
  EXPECT_EQ(resp.snapshot_id, id);
  ASSERT_TRUE(client.release_snapshot(id, resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kInvalidInput) << resp.text;
  ASSERT_TRUE(client.snapshot_rank(id, 0, resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kInvalidInput) << resp.text;

  // The netcat-visible stats report the cache and snapshot counters.
  std::string stats;
  ASSERT_TRUE(client.stats_text(stats).ok());
  EXPECT_NE(stats.find("snapshots_live "), std::string::npos) << stats;
  EXPECT_NE(stats.find("slab_hits "), std::string::npos) << stats;
  EXPECT_NE(stats.find("net_req_snapshot_admin "), std::string::npos);
  EXPECT_NE(stats.find("net_stale_generation_sent "), std::string::npos);

  const NetStats net = server.net_stats();
  EXPECT_EQ(net.stale_generation_sent, 1u);
  EXPECT_GE(net.req_snapshot_admin, 4u);
  EXPECT_GE(net.req_snapshot_rank, 5u);
  EXPECT_GE(net.req_snapshot_scan, 1u);
  EXPECT_EQ(net.protocol_errors, 0u);
  server.stop();
}

TEST(NetServer, MidFrameDisconnectDuringRegisterLeavesNoHalfState) {
  // Regression: a peer that dies halfway through a snapshot REGISTER
  // body must not leave anything behind -- the partially-parsed bytes
  // are freed with the connection (counted partial_frame_aborts) and
  // the registry never sees a snapshot it would have to half-own.
  NetServer server(base_options());
  ASSERT_TRUE(server.start().ok());

  Rng rng(4242);
  const LinkedList list = random_list(5000, rng);
  std::vector<std::uint8_t> frame;
  encode_register_snapshot_request(frame, /*request_id=*/1, list);

  NetClient half = connect_client(server);
  // Send the header plus a fraction of the body, then vanish.
  ASSERT_TRUE(half.send_raw(frame.data(), frame.size() / 3).ok());
  // Give the loop a moment to buffer the partial frame before the close.
  std::this_thread::sleep_for(50ms);
  half.close();

  // Wait for the loop to reap the dead connection.
  for (int i = 0; i < 100 && server.net_stats().closed == 0; ++i)
    std::this_thread::sleep_for(10ms);

  const NetStats net = server.net_stats();
  EXPECT_GE(net.closed, 1u);
  EXPECT_EQ(net.partial_frame_aborts, 1u);
  EXPECT_EQ(server.serve_stats().snapshots_live, 0u)
      << "a half-received REGISTER must never reach the registry";

  // The server is unharmed: a fresh client completes the same REGISTER
  // and runs against it.
  NetClient client = connect_client(server);
  ResponseFrame resp;
  ASSERT_TRUE(client.register_snapshot(list, resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk) << resp.text;
  ASSERT_TRUE(client.snapshot_rank(resp.snapshot_id, 0, resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.text;
  EXPECT_EQ(resp.values.size(), list.size());
  server.stop();
}

TEST(NetServer, StalledWriterIsCutOffByWriteTimeout) {
  // A peer that stops draining its socket must not pin response buffers
  // forever: once queued bytes make no progress for write_timeout_s the
  // connection is closed and counted. The stall is injected at the
  // send() edge (net.send.stall) so the test is deterministic -- real
  // kernel socket buffers are far too large for a small response to
  // fill.
  fault::FaultSite* stall = fault::find_site("net.send.stall");
  ASSERT_NE(stall, nullptr);
  NetServerOptions opt = base_options();
  opt.write_timeout_s = 0.2;
  NetServer server(opt);
  ASSERT_TRUE(server.start().ok());
  NetClient client = connect_client(server);

  fault::Trigger t;
  t.probability = 1.0;  // every write attempt stalls
  stall->arm(t);

  Rng rng(7);
  const LinkedList list = random_list(64, rng);
  std::uint32_t id = 0;
  ASSERT_TRUE(client.send_rank(list, id).ok());

  // The response is computed but can never be written; the write
  // timeout must cut the connection off.
  bool timed_out = false;
  for (int i = 0; i < 300; ++i) {
    if (server.net_stats().write_timeouts >= 1) {
      timed_out = true;
      break;
    }
    std::this_thread::sleep_for(10ms);
  }
  fault::disarm_all();
  EXPECT_TRUE(timed_out) << "stalled writer was never cut off";
  const NetStats net = server.net_stats();
  EXPECT_GE(net.write_timeouts, 1u);
  EXPECT_GE(net.closed, 1u);

  // A fresh connection works normally once the fault is gone.
  NetClient again = connect_client(server);
  ResponseFrame resp;
  ASSERT_TRUE(again.rank(list, resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.text;
  server.stop();
}

TEST(NetServer, WireDeadlineExpiredInQueueIsTypedNotRun) {
  // End-to-end deadline propagation: a request whose header deadline is
  // already hopeless by the time a worker pops it is answered
  // DEADLINE_EXCEEDED without running. The queue delay is injected at
  // the job-pop edge (serve.batch.stall sleeps 50ms) so a 1ms budget
  // expires deterministically.
  fault::FaultSite* stallsite = fault::find_site("serve.batch.stall");
  ASSERT_NE(stallsite, nullptr);
  NetServerOptions opt = base_options();
  opt.serve.workers = 1;
  NetServer server(opt);
  ASSERT_TRUE(server.start().ok());
  NetClient client = connect_client(server);

  Rng rng(11);
  const LinkedList list = random_list(256, rng);

  fault::Trigger t;
  t.probability = 1.0;  // every job pop stalls 50ms
  stallsite->arm(t);
  ResponseFrame resp;
  ASSERT_TRUE(client.rank(list, resp, Method::kAuto,
                          /*deadline_ms=*/1).ok());
  fault::disarm_all();
  EXPECT_EQ(resp.status, WireStatus::kDeadlineExceeded) << resp.text;
  EXPECT_GE(server.serve_stats().deadline_expired, 1u);
  EXPECT_GE(server.net_stats().deadline_exceeded_sent, 1u);

  // A generous deadline on the same connection still runs to completion.
  ASSERT_TRUE(client.rank(list, resp, Method::kAuto,
                          /*deadline_ms=*/60000).ok());
  EXPECT_EQ(resp.status, WireStatus::kOk) << resp.text;
  EXPECT_EQ(resp.values.size(), list.size());
  server.stop();
}

}  // namespace
}  // namespace lr90::net
