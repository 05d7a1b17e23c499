#include "serve/protocol.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "io/index_codec.h"
#include "util/check.h"

namespace hydra::serve {
namespace {

/// Append-only little-endian payload builder (the writer half of the
/// index_codec discipline, sized for frames instead of files).
class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void F32(float v) { U32(std::bit_cast<uint32_t>(v)); }
  /// u32 length prefix + raw bytes.
  void Str(std::string_view s) {
    HYDRA_CHECK_MSG(s.size() <= kMaxFramePayload, "wire string too large");
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian payload reader with a sticky error, so a
/// decoder can read a whole payload unconditionally and check once at the
/// end (truncated or garbled bytes yield zeros, never an over-read).
class WireReader {
 public:
  explicit WireReader(std::string_view payload) : payload_(payload) {}

  uint8_t U8() {
    uint8_t v = 0;
    Bytes(&v, 1);
    return v;
  }
  uint32_t U32() {
    unsigned char b[4] = {};
    Bytes(b, 4);
    return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
           (static_cast<uint32_t>(b[2]) << 16) |
           (static_cast<uint32_t>(b[3]) << 24);
  }
  uint64_t U64() {
    const uint64_t lo = U32();
    const uint64_t hi = U32();
    return lo | (hi << 32);
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() { return std::bit_cast<double>(U64()); }
  float F32() { return std::bit_cast<float>(U32()); }
  std::string Str() {
    const uint32_t n = U32();
    if (n > Remaining()) {
      Fail("string length exceeds payload");
      return {};
    }
    std::string s(payload_.substr(cursor_, n));
    cursor_ += n;
    return s;
  }

  size_t Remaining() const { return payload_.size() - cursor_; }
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  void Fail(std::string message) {
    if (ok_) {
      ok_ = false;
      error_ = std::move(message);
    }
  }
  /// The end-of-payload check every decoder finishes with: trailing bytes
  /// mean the peer and this build disagree about the payload layout.
  util::Status Finish(const char* what) {
    if (ok_ && Remaining() != 0) Fail("trailing bytes after payload");
    if (ok_) return util::Status::Ok();
    return util::Status::Error(std::string("malformed ") + what + ": " +
                               error_);
  }

 private:
  void Bytes(void* out, size_t n) {
    if (n > Remaining()) {
      Fail("payload truncated");
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, payload_.data() + cursor_, n);
    cursor_ += n;
  }

  std::string_view payload_;
  size_t cursor_ = 0;
  bool ok_ = true;
  std::string error_;
};

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint32_t GetU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

constexpr size_t kHeaderBytes = 4 + 4 + 1 + 4;  // magic, version, type, size
constexpr size_t kTrailerBytes = 4;             // payload CRC

bool KnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kPing) &&
         type <= static_cast<uint8_t>(FrameType::kStatsFull);
}

/// Encodes the full ledger: every kLedgerCounters row in table order, then
/// cpu_seconds, the delivered mode and the budget flag.
void PutStats(WireWriter* w, const core::SearchStats& stats) {
  for (const core::LedgerCounter& counter : core::kLedgerCounters) {
    w->I64(stats.*counter.member);
  }
  w->F64(stats.cpu_seconds);
  w->U8(static_cast<uint8_t>(stats.answer_mode_delivered));
  w->U8(stats.budget_exhausted ? 1 : 0);
}

void GetStats(WireReader* r, core::SearchStats* stats) {
  for (const core::LedgerCounter& counter : core::kLedgerCounters) {
    stats->*counter.member = r->I64();
  }
  stats->cpu_seconds = r->F64();
  const uint8_t mode = r->U8();
  if (mode > static_cast<uint8_t>(core::QualityMode::kNgApprox)) {
    r->Fail("unknown delivered quality mode");
  } else {
    stats->answer_mode_delivered = static_cast<core::QualityMode>(mode);
  }
  stats->budget_exhausted = r->U8() != 0;
}

}  // namespace

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformed:
      return "malformed";
    case ErrorCode::kUnsupportedVersion:
      return "unsupported-version";
    case ErrorCode::kResourceExhausted:
      return "resource-exhausted";
    case ErrorCode::kBadQuery:
      return "bad-query";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

std::string EncodeFrame(const Frame& frame) {
  HYDRA_CHECK_MSG(frame.payload.size() <= kMaxFramePayload,
                  "frame payload exceeds kMaxFramePayload");
  std::string out;
  out.reserve(kHeaderBytes + frame.payload.size() + kTrailerBytes);
  PutU32(&out, kFrameMagic);
  PutU32(&out, kProtocolVersion);
  out.push_back(static_cast<char>(frame.type));
  PutU32(&out, static_cast<uint32_t>(frame.payload.size()));
  out.append(frame.payload);
  PutU32(&out, io::Crc32(frame.payload.data(), frame.payload.size()));
  return out;
}

void FrameDecoder::Feed(const void* bytes, size_t n) {
  if (failed_) return;
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (cursor_ > 0 && cursor_ >= buffer_.size() / 2) {
    buffer_.erase(0, cursor_);
    cursor_ = 0;
  }
  buffer_.append(static_cast<const char*>(bytes), n);
}

void FrameDecoder::Fail(ErrorCode code, std::string message) {
  failed_ = true;
  error_code_ = code;
  error_ = std::move(message);
}

FrameDecoder::Next FrameDecoder::Pop(Frame* frame) {
  if (failed_) return Next::kError;
  const size_t available = buffer_.size() - cursor_;
  if (available < kHeaderBytes) return Next::kNeedMore;
  const char* head = buffer_.data() + cursor_;
  const uint32_t magic = GetU32(head);
  if (magic != kFrameMagic) {
    Fail(ErrorCode::kMalformed, "bad frame magic (not a hydra peer?)");
    return Next::kError;
  }
  const uint32_t version = GetU32(head + 4);
  if (version != kProtocolVersion) {
    Fail(ErrorCode::kUnsupportedVersion,
         "peer speaks protocol version " + std::to_string(version) +
             ", this build speaks " + std::to_string(kProtocolVersion));
    return Next::kError;
  }
  const uint8_t type = static_cast<uint8_t>(head[8]);
  if (!KnownFrameType(type)) {
    Fail(ErrorCode::kMalformed,
         "unknown frame type " + std::to_string(type));
    return Next::kError;
  }
  const uint32_t size = GetU32(head + 9);
  if (size > kMaxFramePayload) {
    // The oversized-length guard: refuse before buffering, so a corrupt
    // or hostile length can never drive the allocation.
    Fail(ErrorCode::kMalformed,
         "frame payload length " + std::to_string(size) +
             " exceeds the " + std::to_string(kMaxFramePayload) +
             "-byte cap");
    return Next::kError;
  }
  const size_t total = kHeaderBytes + size + kTrailerBytes;
  if (available < total) return Next::kNeedMore;
  const char* payload = head + kHeaderBytes;
  const uint32_t stored_crc = GetU32(payload + size);
  const uint32_t actual_crc = io::Crc32(payload, size);
  if (stored_crc != actual_crc) {
    Fail(ErrorCode::kMalformed, "frame payload CRC mismatch");
    return Next::kError;
  }
  frame->type = static_cast<FrameType>(type);
  frame->payload.assign(payload, size);
  cursor_ += total;
  return Next::kFrame;
}

std::string EncodeQueryRequest(const QueryRequest& request) {
  HYDRA_CHECK_MSG(request.query.size() * sizeof(core::Value) <
                      kMaxFramePayload / 2,
                  "query vector too large for one frame");
  WireWriter w;
  w.U8(static_cast<uint8_t>(request.spec.kind));
  w.U64(request.spec.k);
  w.F64(request.spec.radius);
  w.U8(static_cast<uint8_t>(request.spec.mode));
  w.F64(request.spec.epsilon);
  w.F64(request.spec.delta);
  w.I64(request.spec.max_visited_leaves);
  w.I64(request.spec.max_raw_series);
  w.U64(request.request_id);
  w.U32(static_cast<uint32_t>(request.query.size()));
  for (const core::Value v : request.query) w.F32(v);
  return w.Take();
}

util::Status DecodeQueryRequest(std::string_view payload, QueryRequest* out) {
  WireReader r(payload);
  const uint8_t kind = r.U8();
  if (kind > static_cast<uint8_t>(core::QueryKind::kRange)) {
    r.Fail("unknown query kind");
  } else {
    out->spec.kind = static_cast<core::QueryKind>(kind);
  }
  out->spec.k = r.U64();
  out->spec.radius = r.F64();
  const uint8_t mode = r.U8();
  if (mode > static_cast<uint8_t>(core::QualityMode::kNgApprox)) {
    r.Fail("unknown quality mode");
  } else {
    out->spec.mode = static_cast<core::QualityMode>(mode);
  }
  out->spec.epsilon = r.F64();
  out->spec.delta = r.F64();
  out->spec.max_visited_leaves = r.I64();
  out->spec.max_raw_series = r.I64();
  out->spec.query_threads = 1;  // traversal width is server policy
  out->request_id = r.U64();
  const uint32_t n = r.U32();
  if (n * sizeof(core::Value) > r.Remaining()) {
    r.Fail("query vector length exceeds payload");
  } else {
    out->query.clear();
    out->query.reserve(n);
    for (uint32_t i = 0; i < n; ++i) out->query.push_back(r.F32());
  }
  return r.Finish("query request");
}

std::string EncodeAnswerResponse(const AnswerResponse& response) {
  WireWriter w;
  w.U8(response.cached ? 1 : 0);
  w.U32(static_cast<uint32_t>(response.result.neighbors.size()));
  for (const core::Neighbor& n : response.result.neighbors) {
    w.U32(n.id);
    w.F64(n.dist_sq);
  }
  PutStats(&w, response.result.stats);
  return w.Take();
}

util::Status DecodeAnswerResponse(std::string_view payload,
                                  AnswerResponse* out) {
  WireReader r(payload);
  out->cached = r.U8() != 0;
  const uint32_t n = r.U32();
  // id (4) + dist_sq (8) per neighbor: bounds-check before the allocation.
  if (n > r.Remaining() / 12) {
    r.Fail("neighbor count exceeds payload");
  } else {
    out->result.neighbors.clear();
    out->result.neighbors.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      core::Neighbor nb;
      nb.id = r.U32();
      nb.dist_sq = r.F64();
      out->result.neighbors.push_back(nb);
    }
  }
  GetStats(&r, &out->result.stats);
  return r.Finish("answer response");
}

std::string EncodeErrorResponse(const ErrorResponse& response) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(response.code));
  w.Str(response.message);
  return w.Take();
}

util::Status DecodeErrorResponse(std::string_view payload,
                                 ErrorResponse* out) {
  WireReader r(payload);
  const uint32_t code = r.U32();
  if (code < static_cast<uint32_t>(ErrorCode::kMalformed) ||
      code > static_cast<uint32_t>(ErrorCode::kInternal)) {
    r.Fail("unknown error code");
  } else {
    out->code = static_cast<ErrorCode>(code);
  }
  out->message = r.Str();
  return r.Finish("error response");
}

std::string EncodeStatsResponse(std::string_view json) {
  WireWriter w;
  w.Str(json);
  return w.Take();
}

util::Status DecodeStatsResponse(std::string_view payload, std::string* json) {
  WireReader r(payload);
  *json = r.Str();
  return r.Finish("stats response");
}

util::Status ValidateRequest(const QueryRequest& request,
                             const core::MethodTraits& traits,
                             size_t series_length) {
  const core::QuerySpec& spec = request.spec;
  if (request.query.size() != series_length) {
    return util::Status::Error(
        "query vector has " + std::to_string(request.query.size()) +
        " points, the served collection has " +
        std::to_string(series_length) + " per series");
  }
  for (const core::Value v : request.query) {
    if (!std::isfinite(v)) {
      return util::Status::Error("query vector contains non-finite values");
    }
  }
  if (spec.kind == core::QueryKind::kRange) {
    if (!(spec.radius >= 0.0) || !std::isfinite(spec.radius)) {
      return util::Status::Error("range radius must be finite and "
                                 "non-negative");
    }
    if (spec.mode != core::QualityMode::kExact) {
      return util::Status::Error("range queries support only the exact "
                                 "mode");
    }
    if (spec.has_budget()) {
      return util::Status::Error("range queries do not support execution "
                                 "budgets");
    }
    return util::Status::Ok();
  }
  if (spec.k < 1) {
    return util::Status::Error("k-NN queries need k >= 1");
  }
  if (!(spec.epsilon >= 0.0) || !std::isfinite(spec.epsilon)) {
    return util::Status::Error("epsilon must be finite and non-negative");
  }
  if (!(spec.delta > 0.0 && spec.delta <= 1.0)) {
    return util::Status::Error("delta must lie in (0, 1]");
  }
  if (spec.max_visited_leaves < 0 || spec.max_raw_series < 0) {
    return util::Status::Error("budgets must be non-negative (0 = "
                               "unlimited)");
  }
  if (spec.mode == core::QualityMode::kNgApprox && spec.has_budget()) {
    return util::Status::Error("budgets do not apply to the ng mode (it "
                               "already visits at most one leaf)");
  }
  if (spec.max_visited_leaves > 0 && !traits.leaf_visit_budget) {
    return util::Status::Error("the served method has no leaf-visit budget "
                               "unit, so max_visited_leaves could never "
                               "fire; cap work with max_raw_series instead");
  }
  // Honest refusal, like the CLI: a mode the served method does not
  // advertise is rejected, never silently answered exactly.
  const std::string reason = core::ModeFallbackReason(traits, spec.mode);
  if (!reason.empty()) {
    return util::Status::Error("the served method does not support mode '" +
                               std::string(core::QualityModeName(spec.mode)) +
                               "' (" + reason + ")");
  }
  return util::Status::Ok();
}

}  // namespace hydra::serve
