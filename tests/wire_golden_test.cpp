// Golden wire bytes (net/wire.hpp, protocol v2). One committed frame per
// request kind and per response body kind lives in tests/golden/wire_v2/
// as commented hex. Each frame is built here from fixed inputs and must
// match its file byte for byte; each file must decode back to those
// inputs and re-encode byte-exact. Round-trip tests alone cannot catch a
// mistake made the same way on both sides of the codec (say, value[]
// written and read before next[]); these can. The suite only reads the
// files: after a deliberate format change, edit them by hand (a failing
// comparison prints both frames in the files' hex spelling), so the
// change shows up as a reviewed diff of the .hex files.
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace lr90::net {
namespace {

/// The three-vertex list every list-carrying request uses: 2 -> 0 -> 1,
/// with values that tell the i64 array apart from the u32 one.
LinkedList golden_list() {
  LinkedList list;
  list.next = {1, 1, 0};
  list.value = {5, -7, 0x0102030405060708};
  list.head = 2;
  return list;
}

constexpr std::uint64_t kSnapshotId = 0x1122334455667788ULL;

struct RequestCase {
  const char* file;  ///< name under tests/golden/wire_v2/
  RequestFrame in;   ///< the fixed inputs
};

struct ResponseCase {
  const char* file;
  ResponseFrame in;
};

RequestFrame request(MsgKind kind, std::uint32_t id) {
  RequestFrame r;
  r.kind = kind;
  r.request_id = id;
  return r;
}

std::vector<RequestCase> request_cases() {
  std::vector<RequestCase> cases;
  {
    RequestFrame r = request(MsgKind::kRankRequest, 0x01020304);
    r.method = Method::kReidMiller;
    r.deadline_ms = 250;
    r.list = golden_list();
    cases.push_back({"rank_request", r});
  }
  {
    RequestFrame r = request(MsgKind::kScanRequest, 0x05060708);
    r.method = Method::kAuto;
    r.op = ScanOp::kAffine;
    r.deadline_ms = 1000;
    r.list = golden_list();
    cases.push_back({"scan_request", r});
  }
  cases.push_back({"stats_request", request(MsgKind::kStatsRequest, 3)});
  cases.push_back({"health_request", request(MsgKind::kHealthRequest, 4)});
  {
    RequestFrame r = request(MsgKind::kRegisterSnapshotRequest, 5);
    r.list = golden_list();
    cases.push_back({"register_snapshot_request", r});
  }
  {
    RequestFrame r = request(MsgKind::kReleaseSnapshotRequest, 6);
    r.snapshot_id = kSnapshotId;
    cases.push_back({"release_snapshot_request", r});
  }
  {
    RequestFrame r = request(MsgKind::kUpdateSnapshotRequest, 7);
    r.snapshot_id = kSnapshotId;
    r.list = golden_list();
    cases.push_back({"update_snapshot_request", r});
  }
  {
    RequestFrame r = request(MsgKind::kSnapshotRankRequest, 8);
    r.method = Method::kWyllie;
    r.snapshot_id = kSnapshotId;
    r.generation = 0x99AABBCCDDEEFF00ULL;
    r.deadline_ms = 500;
    cases.push_back({"snapshot_rank_request", r});
  }
  {
    RequestFrame r = request(MsgKind::kSnapshotScanRequest, 9);
    r.method = Method::kSerial;
    r.op = ScanOp::kMaxPlus;
    r.snapshot_id = kSnapshotId;
    r.generation = 3;
    cases.push_back({"snapshot_scan_request", r});
  }
  return cases;
}

ResponseFrame response(std::uint32_t id, WireStatus status, BodyKind body) {
  ResponseFrame r;
  r.request_id = id;
  r.status = status;
  r.body = body;
  return r;
}

std::vector<ResponseCase> response_cases() {
  std::vector<ResponseCase> cases;
  {
    ResponseFrame r = response(0x0A0B0C0D, WireStatus::kOk, BodyKind::kValues);
    r.values = {0, 1, -1, std::numeric_limits<value_t>::min(),
                std::numeric_limits<value_t>::max(), 0x0102030405060708};
    cases.push_back({"values_response", r});
  }
  {
    ResponseFrame r =
        response(11, WireStatus::kInvalidInput, BodyKind::kText);
    r.text = "two heads\n";
    cases.push_back({"text_response", r});
  }
  {
    ResponseFrame r = response(12, WireStatus::kRetryAfter, BodyKind::kRetry);
    r.retry_after_ms = 250;
    cases.push_back({"retry_response", r});
  }
  {
    ResponseFrame r =
        response(13, WireStatus::kStaleGeneration, BodyKind::kSnapshot);
    r.snapshot_id = kSnapshotId;
    r.generation = 42;
    cases.push_back({"snapshot_response", r});
  }
  cases.push_back({"none_response",
                   response(14, WireStatus::kShuttingDown, BodyKind::kNone)});
  return cases;
}

std::vector<std::uint8_t> encode(const RequestFrame& r) {
  std::vector<std::uint8_t> out;
  switch (r.kind) {
    case MsgKind::kRankRequest:
      encode_rank_request(out, r.request_id, r.list, r.method, r.deadline_ms);
      break;
    case MsgKind::kScanRequest:
      encode_scan_request(out, r.request_id, r.list, r.op, r.method,
                          r.deadline_ms);
      break;
    case MsgKind::kStatsRequest:
    case MsgKind::kHealthRequest:
      encode_plain_request(out, r.kind, r.request_id);
      break;
    case MsgKind::kRegisterSnapshotRequest:
      encode_register_snapshot_request(out, r.request_id, r.list);
      break;
    case MsgKind::kReleaseSnapshotRequest:
      encode_release_snapshot_request(out, r.request_id, r.snapshot_id);
      break;
    case MsgKind::kUpdateSnapshotRequest:
      encode_update_snapshot_request(out, r.request_id, r.snapshot_id,
                                     r.list);
      break;
    case MsgKind::kSnapshotRankRequest:
      encode_snapshot_rank_request(out, r.request_id, r.snapshot_id,
                                   r.generation, r.method, r.deadline_ms);
      break;
    case MsgKind::kSnapshotScanRequest:
      encode_snapshot_scan_request(out, r.request_id, r.snapshot_id,
                                   r.generation, r.op, r.method,
                                   r.deadline_ms);
      break;
    case MsgKind::kResponse:
      ADD_FAILURE() << "a response is not a request";
      break;
  }
  return out;
}

std::vector<std::uint8_t> encode(const ResponseFrame& r) {
  std::vector<std::uint8_t> out;
  switch (r.body) {
    case BodyKind::kValues:
      encode_values_response(out, r.request_id, r.status, r.values);
      break;
    case BodyKind::kText:
      encode_text_response(out, r.request_id, r.status, r.text);
      break;
    case BodyKind::kRetry:
      encode_retry_response(out, r.request_id, r.retry_after_ms);
      break;
    case BodyKind::kSnapshot:
      encode_snapshot_response(out, r.request_id, r.status, r.snapshot_id,
                               r.generation);
      break;
    case BodyKind::kNone:
      encode_status_response(out, r.request_id, r.status);
      break;
  }
  return out;
}

/// `bytes` as space-separated hex pairs, the .hex files' spelling on one
/// row, so a failing comparison prints both frames whole, ready to paste.
std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
    out += ' ';
  }
  return out;
}

/// Reads commented hex: "#" starts a comment, bytes are two hex digits
/// each, whitespace separates them.
bool from_hex(const std::string& text, std::vector<std::uint8_t>& out) {
  out.clear();
  std::string digits;
  bool comment = false;
  for (const char ch : text) {
    if (ch == '\n') comment = false;
    if (comment || ch == '#') {
      comment = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(ch))) {
      if (!digits.empty()) return false;  // a lone hex digit
      continue;
    }
    if (!std::isxdigit(static_cast<unsigned char>(ch))) return false;
    digits += ch;
    if (digits.size() == 2) {
      out.push_back(
          static_cast<std::uint8_t>(std::stoul(digits, nullptr, 16)));
      digits.clear();
    }
  }
  return digits.empty();
}

std::string golden_path(const char* file) {
  return std::string(LR90_TESTS_DIR) + "/golden/wire_v2/" + file + ".hex";
}

/// The committed bytes of `file`.
std::vector<std::uint8_t> read_golden(const char* file) {
  std::ifstream in(golden_path(file));
  EXPECT_TRUE(in.good()) << "missing golden file " << golden_path(file);
  std::stringstream text;
  text << in.rdbuf();
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(from_hex(text.str(), bytes)) << "malformed hex in " << file;
  return bytes;
}

FrameView parse_one(const std::vector<std::uint8_t>& bytes, const char* file) {
  FrameView frame;
  std::size_t frame_len = 0;
  const WireError e = parse_frame(bytes.data(), bytes.size(), frame, frame_len);
  EXPECT_EQ(e, WireError::kOk) << file << ": " << wire_error_name(e);
  EXPECT_EQ(frame_len, bytes.size()) << file;
  return frame;
}

TEST(WireGolden, EveryRequestKindAndResponseBodyHasAFile) {
  std::set<MsgKind> kinds;
  for (const RequestCase& c : request_cases()) kinds.insert(c.in.kind);
  for (int k = 1; k <= 9; ++k)
    EXPECT_EQ(kinds.count(static_cast<MsgKind>(k)), 1u) << "kind " << k;

  std::set<BodyKind> bodies;
  for (const ResponseCase& c : response_cases()) bodies.insert(c.in.body);
  for (const BodyKind b : {BodyKind::kNone, BodyKind::kValues,
                           BodyKind::kText, BodyKind::kRetry,
                           BodyKind::kSnapshot})
    EXPECT_EQ(bodies.count(b), 1u) << "body " << static_cast<int>(b);
}

TEST(WireGolden, RequestEncodersWriteTheCommittedBytes) {
  for (const RequestCase& c : request_cases())
    EXPECT_EQ(hex(encode(c.in)), hex(read_golden(c.file))) << c.file;
}

TEST(WireGolden, ResponseEncodersWriteTheCommittedBytes) {
  for (const ResponseCase& c : response_cases())
    EXPECT_EQ(hex(encode(c.in)), hex(read_golden(c.file))) << c.file;
}

TEST(WireGolden, RequestFilesDecodeToTheirInputsAndReencodeByteExact) {
  for (const RequestCase& c : request_cases()) {
    const std::vector<std::uint8_t> bytes = read_golden(c.file);
    const FrameView frame = parse_one(bytes, c.file);
    RequestFrame got;
    ASSERT_EQ(decode_request(frame, got), WireError::kOk) << c.file;
    EXPECT_EQ(got.kind, c.in.kind) << c.file;
    EXPECT_EQ(got.request_id, c.in.request_id) << c.file;
    EXPECT_EQ(got.deadline_ms, c.in.deadline_ms) << c.file;
    EXPECT_EQ(got.method, c.in.method) << c.file;
    EXPECT_EQ(got.op, c.in.op) << c.file;
    EXPECT_EQ(got.snapshot_id, c.in.snapshot_id) << c.file;
    EXPECT_EQ(got.generation, c.in.generation) << c.file;
    EXPECT_EQ(got.list.head, c.in.list.head) << c.file;
    EXPECT_EQ(got.list.next, c.in.list.next) << c.file;
    EXPECT_EQ(got.list.value, c.in.list.value) << c.file;
    EXPECT_EQ(hex(encode(got)), hex(bytes)) << c.file;
  }
}

TEST(WireGolden, ResponseFilesDecodeToTheirInputsAndReencodeByteExact) {
  for (const ResponseCase& c : response_cases()) {
    const std::vector<std::uint8_t> bytes = read_golden(c.file);
    const FrameView frame = parse_one(bytes, c.file);
    ResponseFrame got;
    ASSERT_EQ(decode_response(frame, got), WireError::kOk) << c.file;
    EXPECT_EQ(got.request_id, c.in.request_id) << c.file;
    EXPECT_EQ(got.status, c.in.status) << c.file;
    EXPECT_EQ(got.body, c.in.body) << c.file;
    EXPECT_EQ(got.values, c.in.values) << c.file;
    EXPECT_EQ(got.text, c.in.text) << c.file;
    EXPECT_EQ(got.retry_after_ms, c.in.retry_after_ms) << c.file;
    EXPECT_EQ(got.snapshot_id, c.in.snapshot_id) << c.file;
    EXPECT_EQ(got.generation, c.in.generation) << c.file;
    EXPECT_EQ(hex(encode(got)), hex(bytes)) << c.file;
  }
}

}  // namespace
}  // namespace lr90::net
