// The serve wire-protocol contract: frames and typed payloads round-trip
// bit-exactly; every corruption class — flipped CRC byte, truncated frame,
// oversized length field, foreign magic, future version, unknown frame
// type, garbled payloads — surfaces as a clean decoder error (the material
// of an error *frame* on the wire), never a crash or over-read.
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/method.h"
#include "core/query_spec.h"
#include "core/search_stats.h"
#include "serve/protocol.h"

namespace hydra::serve {
namespace {

using core::QualityMode;
using core::QueryKind;

Frame MakeQueryFrame() {
  QueryRequest request;
  request.spec = core::QuerySpec::Knn(5);
  request.query = {1.0f, -2.5f, 3.25f, 0.0f};
  return Frame{FrameType::kQuery, EncodeQueryRequest(request)};
}

// Overwrites the encoded stream with `frame` decoded through a fresh
// decoder, returning the Pop outcome.
FrameDecoder::Next DecodeAll(const std::string& bytes, Frame* out,
                             FrameDecoder* decoder) {
  decoder->Feed(bytes.data(), bytes.size());
  return decoder->Pop(out);
}

TEST(ServeProtocolTest, FrameRoundTrip) {
  const Frame sent = MakeQueryFrame();
  const std::string wire = EncodeFrame(sent);

  FrameDecoder decoder;
  Frame received;
  ASSERT_EQ(DecodeAll(wire, &received, &decoder), FrameDecoder::Next::kFrame);
  EXPECT_EQ(received.type, FrameType::kQuery);
  EXPECT_EQ(received.payload, sent.payload);
  // The stream is fully consumed: no phantom second frame.
  EXPECT_EQ(decoder.Pop(&received), FrameDecoder::Next::kNeedMore);
}

TEST(ServeProtocolTest, ByteAtATimeFeedStillFrames) {
  const Frame sent = MakeQueryFrame();
  const std::string wire = EncodeFrame(sent);

  FrameDecoder decoder;
  Frame received;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.Feed(wire.data() + i, 1);
    ASSERT_EQ(decoder.Pop(&received), FrameDecoder::Next::kNeedMore)
        << "framed early at byte " << i;
  }
  decoder.Feed(wire.data() + wire.size() - 1, 1);
  ASSERT_EQ(decoder.Pop(&received), FrameDecoder::Next::kFrame);
  EXPECT_EQ(received.payload, sent.payload);
}

TEST(ServeProtocolTest, BackToBackFramesPopIndividually) {
  const Frame ping{FrameType::kPing, ""};
  const Frame query = MakeQueryFrame();
  const std::string wire = EncodeFrame(ping) + EncodeFrame(query);

  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  Frame first, second, third;
  ASSERT_EQ(decoder.Pop(&first), FrameDecoder::Next::kFrame);
  EXPECT_EQ(first.type, FrameType::kPing);
  ASSERT_EQ(decoder.Pop(&second), FrameDecoder::Next::kFrame);
  EXPECT_EQ(second.type, FrameType::kQuery);
  EXPECT_EQ(second.payload, query.payload);
  EXPECT_EQ(decoder.Pop(&third), FrameDecoder::Next::kNeedMore);
}

TEST(ServeProtocolTest, CrcFlipIsMalformed) {
  std::string wire = EncodeFrame(MakeQueryFrame());
  wire.back() ^= 0x01;  // trailing CRC byte

  FrameDecoder decoder;
  Frame frame;
  ASSERT_EQ(DecodeAll(wire, &frame, &decoder), FrameDecoder::Next::kError);
  EXPECT_EQ(decoder.error_code(), ErrorCode::kMalformed);
  EXPECT_NE(decoder.error().find("CRC"), std::string::npos);
  // Sticky: the decoder stays failed even when fed more valid bytes.
  const std::string more = EncodeFrame(Frame{FrameType::kPing, ""});
  decoder.Feed(more.data(), more.size());
  EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kError);
}

TEST(ServeProtocolTest, PayloadFlipIsMalformed) {
  std::string wire = EncodeFrame(MakeQueryFrame());
  wire[wire.size() / 2] ^= 0x40;  // somewhere inside the payload

  FrameDecoder decoder;
  Frame frame;
  ASSERT_EQ(DecodeAll(wire, &frame, &decoder), FrameDecoder::Next::kError);
  EXPECT_EQ(decoder.error_code(), ErrorCode::kMalformed);
}

TEST(ServeProtocolTest, TruncatedFrameNeedsMoreNeverErrors) {
  const std::string wire = EncodeFrame(MakeQueryFrame());
  // Every proper prefix is just an incomplete stream — the peer may still
  // be sending — so the decoder reports kNeedMore, not an error.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(wire.data(), cut);
    Frame frame;
    EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(ServeProtocolTest, OversizedLengthGuard) {
  // Hand-build a header whose size field claims 4 GiB-ish; the decoder
  // must refuse at the header, before any allocation, even though far
  // fewer bytes than the claimed payload ever arrive.
  std::string wire;
  auto put_u32 = [&wire](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      wire.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put_u32(kFrameMagic);
  put_u32(kProtocolVersion);
  wire.push_back(static_cast<char>(FrameType::kPing));
  put_u32(std::numeric_limits<uint32_t>::max());

  FrameDecoder decoder;
  Frame frame;
  ASSERT_EQ(DecodeAll(wire, &frame, &decoder), FrameDecoder::Next::kError);
  EXPECT_EQ(decoder.error_code(), ErrorCode::kMalformed);
  EXPECT_NE(decoder.error().find("cap"), std::string::npos);
}

TEST(ServeProtocolTest, UnknownVersionIsVersionError) {
  std::string wire = EncodeFrame(Frame{FrameType::kPing, ""});
  wire[4] = static_cast<char>(kProtocolVersion + 1);  // version field LSB

  FrameDecoder decoder;
  Frame frame;
  ASSERT_EQ(DecodeAll(wire, &frame, &decoder), FrameDecoder::Next::kError);
  EXPECT_EQ(decoder.error_code(), ErrorCode::kUnsupportedVersion);
}

TEST(ServeProtocolTest, ForeignMagicIsMalformed) {
  std::string wire = EncodeFrame(Frame{FrameType::kPing, ""});
  wire[0] = 'G';  // "GET ..." — an HTTP client knocking

  FrameDecoder decoder;
  Frame frame;
  ASSERT_EQ(DecodeAll(wire, &frame, &decoder), FrameDecoder::Next::kError);
  EXPECT_EQ(decoder.error_code(), ErrorCode::kMalformed);
}

TEST(ServeProtocolTest, UnknownFrameTypeIsMalformed) {
  std::string wire = EncodeFrame(Frame{FrameType::kPing, ""});
  wire[8] = static_cast<char>(99);  // type field

  FrameDecoder decoder;
  Frame frame;
  ASSERT_EQ(DecodeAll(wire, &frame, &decoder), FrameDecoder::Next::kError);
  EXPECT_EQ(decoder.error_code(), ErrorCode::kMalformed);
}

TEST(ServeProtocolTest, QueryRequestRoundTrip) {
  QueryRequest sent;
  sent.spec = core::QuerySpec::DeltaEpsilon(7, 0.25, 0.5);
  sent.spec.max_raw_series = 123;
  sent.query = {0.5f, -1.5f, 2.0f};
  sent.request_id = 0xFEEDBEEFu;

  QueryRequest received;
  ASSERT_TRUE(
      DecodeQueryRequest(EncodeQueryRequest(sent), &received).ok());
  EXPECT_EQ(received.spec.kind, QueryKind::kKnn);
  EXPECT_EQ(received.spec.k, 7u);
  EXPECT_EQ(received.spec.mode, QualityMode::kDeltaEpsilon);
  EXPECT_EQ(received.spec.epsilon, 0.25);
  EXPECT_EQ(received.spec.delta, 0.5);
  EXPECT_EQ(received.spec.max_raw_series, 123);
  // Traversal width is server policy, never client input.
  EXPECT_EQ(received.spec.query_threads, 1u);
  EXPECT_EQ(received.query, sent.query);
  // The trace-propagation id survives the wire (protocol v2).
  EXPECT_EQ(received.request_id, 0xFEEDBEEFu);
}

TEST(ServeProtocolTest, QueryRequestGarbageRejected) {
  QueryRequest out;
  // Truncated, trailing bytes, lying vector length, bad kind/mode bytes.
  EXPECT_FALSE(DecodeQueryRequest("", &out).ok());
  EXPECT_FALSE(DecodeQueryRequest("abc", &out).ok());
  std::string valid = EncodeQueryRequest(
      QueryRequest{core::QuerySpec::Knn(1), {1.0f, 2.0f}});
  EXPECT_FALSE(DecodeQueryRequest(valid + "x", &out).ok());
  std::string bad_kind = valid;
  bad_kind[0] = 9;
  EXPECT_FALSE(DecodeQueryRequest(bad_kind, &out).ok());
  std::string bad_mode = valid;
  bad_mode[17] = 9;  // mode byte: after kind(1) + k(8) + radius(8)
  EXPECT_FALSE(DecodeQueryRequest(bad_mode, &out).ok());
  std::string lying_count = valid;
  // Vector count field: after kind(1)+k(8)+radius(8)+mode(1)+eps(8)+
  // delta(8)+leaves(8)+raw(8)+request_id(8) = offset 58; claim 200
  // floats with 8 bytes of data behind it.
  lying_count[58] = static_cast<char>(200);
  EXPECT_FALSE(DecodeQueryRequest(lying_count, &out).ok());
}

TEST(ServeProtocolTest, AnswerResponseRoundTrip) {
  AnswerResponse sent;
  sent.cached = true;
  sent.result.neighbors = {{3, 0.25}, {11, 1.5}, {7, 2.75}};
  // A distinct value per ledger counter: a counter the codec drops, or two
  // it swaps, cannot decode to its own value.
  int64_t value = 100;
  for (const core::LedgerCounter& counter : core::kLedgerCounters) {
    sent.result.stats.*counter.member = value;
    value += 7;
  }
  sent.result.stats.cpu_seconds = 0.125;
  sent.result.stats.answer_mode_delivered = QualityMode::kEpsilon;
  sent.result.stats.budget_exhausted = true;

  AnswerResponse received;
  ASSERT_TRUE(
      DecodeAnswerResponse(EncodeAnswerResponse(sent), &received).ok());
  EXPECT_TRUE(received.cached);
  ASSERT_EQ(received.result.neighbors.size(), 3u);
  EXPECT_EQ(received.result.neighbors[1].id, 11u);
  EXPECT_EQ(received.result.neighbors[1].dist_sq, 1.5);
  for (const core::LedgerCounter& counter : core::kLedgerCounters) {
    EXPECT_EQ(received.result.stats.*counter.member,
              sent.result.stats.*counter.member)
        << counter.name;
  }
  EXPECT_EQ(received.result.stats.cpu_seconds, 0.125);
  EXPECT_EQ(received.result.delivered(), QualityMode::kEpsilon);
  EXPECT_TRUE(received.result.budget_fired());
}

TEST(ServeProtocolTest, AnswerResponseGarbageRejected) {
  AnswerResponse out;
  EXPECT_FALSE(DecodeAnswerResponse("", &out).ok());
  std::string valid = EncodeAnswerResponse(AnswerResponse{});
  EXPECT_FALSE(DecodeAnswerResponse(valid + "zz", &out).ok());
  std::string lying = valid;
  lying[1] = static_cast<char>(255);  // neighbor count with no bytes behind
  EXPECT_FALSE(DecodeAnswerResponse(lying, &out).ok());
}

TEST(ServeProtocolTest, ErrorAndStatsResponsesRoundTrip) {
  const ErrorResponse sent{ErrorCode::kResourceExhausted,
                           "in-flight queue full"};
  ErrorResponse received;
  ASSERT_TRUE(
      DecodeErrorResponse(EncodeErrorResponse(sent), &received).ok());
  EXPECT_EQ(received.code, ErrorCode::kResourceExhausted);
  EXPECT_EQ(received.message, "in-flight queue full");

  std::string json;
  ASSERT_TRUE(
      DecodeStatsResponse(EncodeStatsResponse("{\"qps\":1}"), &json).ok());
  EXPECT_EQ(json, "{\"qps\":1}");

  ErrorResponse bad;
  EXPECT_FALSE(DecodeErrorResponse("", &bad).ok());
  std::string bad_code = EncodeErrorResponse(sent);
  bad_code[0] = static_cast<char>(99);
  EXPECT_FALSE(DecodeErrorResponse(bad_code, &bad).ok());
}

TEST(ServeProtocolTest, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kMalformed), "malformed");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kUnsupportedVersion),
               "unsupported-version");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kResourceExhausted),
               "resource-exhausted");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kBadQuery), "bad-query");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kInternal), "internal");
}

core::MethodTraits TreeTraits() {
  core::MethodTraits traits;
  traits.supports_ng = true;
  traits.supports_epsilon = true;
  traits.supports_delta_epsilon = true;
  traits.leaf_visit_budget = true;
  return traits;
}

TEST(ServeProtocolTest, ValidateRequestAcceptsSupportedSpecs) {
  QueryRequest request;
  request.spec = core::QuerySpec::Knn(3);
  request.query = {1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_TRUE(ValidateRequest(request, TreeTraits(), 4).ok());

  request.spec = core::QuerySpec::Range(1.5);
  EXPECT_TRUE(ValidateRequest(request, TreeTraits(), 4).ok());

  request.spec = core::QuerySpec::Epsilon(3, 0.5);
  request.spec.max_visited_leaves = 10;
  EXPECT_TRUE(ValidateRequest(request, TreeTraits(), 4).ok());
}

TEST(ServeProtocolTest, ValidateRequestRefusesBadSpecs) {
  const core::MethodTraits tree = TreeTraits();
  QueryRequest request;
  request.query = {1.0f, 2.0f, 3.0f, 4.0f};

  request.spec = core::QuerySpec::Knn(3);
  // Wrong query length for the collection.
  EXPECT_FALSE(ValidateRequest(request, tree, 8).ok());
  // Non-finite query values.
  QueryRequest inf_request = request;
  inf_request.query[2] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(ValidateRequest(inf_request, tree, 4).ok());
  // k == 0.
  request.spec.k = 0;
  EXPECT_FALSE(ValidateRequest(request, tree, 4).ok());
  // Negative radius / approximate or budgeted range queries.
  request.spec = core::QuerySpec::Range(-1.0);
  EXPECT_FALSE(ValidateRequest(request, tree, 4).ok());
  request.spec = core::QuerySpec::Range(1.0);
  request.spec.mode = QualityMode::kEpsilon;
  EXPECT_FALSE(ValidateRequest(request, tree, 4).ok());
  request.spec = core::QuerySpec::Range(1.0);
  request.spec.max_raw_series = 5;
  EXPECT_FALSE(ValidateRequest(request, tree, 4).ok());
  // delta outside (0, 1]; negative budgets; ng + budget.
  request.spec = core::QuerySpec::DeltaEpsilon(3, 0.1, 0.0);
  EXPECT_FALSE(ValidateRequest(request, tree, 4).ok());
  request.spec = core::QuerySpec::Knn(3);
  request.spec.max_raw_series = -1;
  EXPECT_FALSE(ValidateRequest(request, tree, 4).ok());
  request.spec = core::QuerySpec::NgApprox(3);
  request.spec.max_raw_series = 10;
  EXPECT_FALSE(ValidateRequest(request, tree, 4).ok());
}

TEST(ServeProtocolTest, ValidateRequestHonorsTraits) {
  // An exact-only scan: approximate modes and leaf budgets are refused
  // with a reason, mirroring the CLI's honest-refusal contract.
  core::MethodTraits scan;
  QueryRequest request;
  request.query = {1.0f, 2.0f, 3.0f, 4.0f};

  request.spec = core::QuerySpec::NgApprox(3);
  const util::Status ng = ValidateRequest(request, scan, 4);
  EXPECT_FALSE(ng.ok());
  EXPECT_NE(ng.message().find("does not support mode"), std::string::npos);

  request.spec = core::QuerySpec::Knn(3);
  request.spec.max_visited_leaves = 10;
  const util::Status leaves = ValidateRequest(request, scan, 4);
  EXPECT_FALSE(leaves.ok());
  EXPECT_NE(leaves.message().find("max_raw_series"), std::string::npos);
}

}  // namespace
}  // namespace hydra::serve
