// Wire protocol of the `hydra serve` daemon: length-prefixed, CRC-checked
// binary frames over a byte stream (TCP), following the io/index_codec
// discipline — versioned magic, explicit little-endian encoding, checksum
// per frame, and sticky-error typed reads so malformed bytes always
// surface as a clean error (an error *frame* on the wire, a util::Status
// in process), never a crash.
//
// Frame layout (all integers little-endian):
//
//     u32 magic    "HYSv"            — stream sanity; a non-hydra peer is
//                                      detected at the first frame
//     u32 version  kProtocolVersion  — readers refuse other versions with
//                                      a kUnsupportedVersion error frame
//     u8  type     FrameType
//     u32 size     payload bytes, <= kMaxFramePayload (oversized-length
//                                      guard: no allocation past the cap)
//     ...          payload (size bytes)
//     u32 crc      CRC-32 of the payload (io::Crc32)
//
// Request payloads are encoded/decoded by the typed helpers below; every
// decoder is total — any byte sequence yields either a valid value or an
// error, with bounds-checked reads throughout.
#ifndef HYDRA_SERVE_PROTOCOL_H_
#define HYDRA_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/method.h"
#include "core/query_spec.h"
#include "util/status.h"

namespace hydra::serve {

/// Protocol version; bumped on any incompatible frame or payload change.
/// A peer speaking another version gets a kUnsupportedVersion error frame.
/// v2: QueryRequest carries a client request id (trace-context
/// propagation into the daemon's flight recorder and spans), and the
/// kStatsFull request returns the metrics-registry text dump.
/// v3: an ANSWER carries every core::kLedgerCounters row, the six measured
/// pool counters included.
/// v4: the ledger dropped its pread-call counter (it always equalled
/// pool_misses), so an ANSWER carries five measured counters.
inline constexpr uint32_t kProtocolVersion = 4;

/// Frame magic: "HYSv" as little-endian bytes.
inline constexpr uint32_t kFrameMagic = 0x76535948;

/// Payload size cap (16 MiB): large enough for any realistic query vector
/// or answer, small enough that a corrupt length field cannot drive an
/// allocation-of-terabytes. Enforced by encoder and decoder alike.
inline constexpr size_t kMaxFramePayload = size_t{1} << 24;

/// Frame kinds. Requests (client -> server): kPing, kQuery, kStats,
/// kStatsFull. Responses (server -> client): kPong, kAnswer, kStatsReply,
/// kError. kStatsFull answers with a kStatsReply whose document is the
/// metrics registry's plain-text dump (`hydra stats --full`), not JSON.
enum class FrameType : uint8_t {
  kPing = 1,
  kQuery = 2,
  kStats = 3,
  kPong = 4,
  kAnswer = 5,
  kStatsReply = 6,
  kError = 7,
  kStatsFull = 8,
};

/// Error classes a server can answer with (the payload of a kError frame).
enum class ErrorCode : uint32_t {
  /// Frame or payload failed to decode (bad magic, CRC mismatch,
  /// truncated payload, unknown frame type, trailing bytes).
  kMalformed = 1,
  /// The peer speaks a protocol version this build does not.
  kUnsupportedVersion = 2,
  /// Admission control refused the request: the in-flight queue is full
  /// (or the server is draining for shutdown). The explicit backpressure
  /// signal — retry later rather than queue unboundedly.
  kResourceExhausted = 3,
  /// The request decoded but is semantically invalid for this server: bad
  /// spec parameters, wrong query length, a mode the method's traits do
  /// not advertise.
  kBadQuery = 4,
  /// Server-side failure unrelated to the request bytes.
  kInternal = 5,
};

/// Short stable name of an error code ("malformed", "resource-exhausted",
/// ...), used in client-side Status messages and logs.
const char* ErrorCodeName(ErrorCode code);

/// One decoded frame: its type plus the raw payload bytes.
struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
};

/// Serializes a frame (header + payload + CRC). CHECK-aborts on a payload
/// over kMaxFramePayload — building an oversized frame is a programmer
/// error; decoding one is handled gracefully.
std::string EncodeFrame(const Frame& frame);

/// Incremental frame decoder: feed stream bytes as they arrive, pop frames
/// as they complete. The first malformed header or checksum latches an
/// error (kBadVersion for a version mismatch, kError otherwise) — framing
/// is unrecoverable once the stream desynchronizes, so the connection
/// should answer with an error frame and close.
class FrameDecoder {
 public:
  enum class Next : uint8_t {
    kFrame,     ///< *frame was filled with one complete frame.
    kNeedMore,  ///< No complete frame buffered; feed more bytes.
    kError,     ///< Stream is broken; see error_code() / error().
  };

  /// Appends `n` stream bytes to the internal buffer.
  void Feed(const void* bytes, size_t n);

  /// Pops the next complete frame into `*frame`. Once kError is returned
  /// every later call returns kError again (sticky, like IndexReader).
  Next Pop(Frame* frame);

  /// The error class a server should answer with (kMalformed or
  /// kUnsupportedVersion); meaningful only after Pop returned kError.
  ErrorCode error_code() const { return error_code_; }
  /// Human-readable description of the stream error.
  const std::string& error() const { return error_; }

 private:
  void Fail(ErrorCode code, std::string message);

  std::string buffer_;
  size_t cursor_ = 0;  // first unconsumed byte of buffer_
  bool failed_ = false;
  ErrorCode error_code_ = ErrorCode::kMalformed;
  std::string error_;
};

/// A query request: the full QuerySpec (minus query_threads — traversal
/// width is server policy, not client input) plus the query vector and a
/// client-chosen request id, echoed through the daemon's flight recorder
/// and trace spans so a slow query in STATS can be matched to the client
/// call that issued it (0 = unidentified).
struct QueryRequest {
  core::QuerySpec spec;
  std::vector<core::Value> query;
  uint64_t request_id = 0;
};

/// A query answer: the QueryResult (neighbors + the full stats ledger,
/// which carries the delivered mode and budget outcome) plus whether the
/// answer came from the server's answer cache.
struct AnswerResponse {
  core::QueryResult result;
  bool cached = false;
};

/// An error answer; see ErrorCode.
struct ErrorResponse {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// Payload codecs. Encoders are total (CHECK only on programmer-error
/// sizes); decoders return an error Status on any malformed payload and
/// never abort or over-read.
std::string EncodeQueryRequest(const QueryRequest& request);
util::Status DecodeQueryRequest(std::string_view payload, QueryRequest* out);

std::string EncodeAnswerResponse(const AnswerResponse& response);
util::Status DecodeAnswerResponse(std::string_view payload,
                                  AnswerResponse* out);

std::string EncodeErrorResponse(const ErrorResponse& response);
util::Status DecodeErrorResponse(std::string_view payload, ErrorResponse* out);

/// Stats replies carry an opaque JSON document (see serve::Server).
std::string EncodeStatsResponse(std::string_view json);
util::Status DecodeStatsResponse(std::string_view payload, std::string* json);

/// Semantic validation of a decoded request against the serving method's
/// traits and the collection's series length: mirrors every CHECK of
/// core::SearchMethod::Execute plus the CLI's traits-derived refusals
/// (unsupported mode, inert leaf budget), as clean errors — a malformed or
/// unsupported request must answer with a kBadQuery frame, never abort the
/// daemon.
util::Status ValidateRequest(const QueryRequest& request,
                             const core::MethodTraits& traits,
                             size_t series_length);

}  // namespace hydra::serve

#endif  // HYDRA_SERVE_PROTOCOL_H_
