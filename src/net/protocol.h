#ifndef ADARTS_NET_PROTOCOL_H_
#define ADARTS_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "net/socket.h"
#include "ts/time_series.h"

namespace adarts::net {

/// The dependency-free wire protocol of `adarts_serve` (DESIGN.md §10).
///
/// Every message travels as one length-prefixed frame:
///
///   u32  body_len   (little-endian; capped by kMaxFrameBytes)
///   byte body[body_len]
///
/// Request body:
///
///   u8   type          (kPing | kRecommend | kRecommendBatch | kRepair |
///                       kReload | kStats)
///   u64  id            (echoed verbatim in the response)
///   f64  deadline_ms   (<= 0: use the server's default deadline)
///   u32  series_count  (0 for ping/reload/stats, 1 for recommend/repair,
///                       N for batch)
///   series...
///   u32  text_len + bytes   (kReload: snapshot path, empty = the path the
///                            server was started with; others: empty)
///
/// Response body:
///
///   u8   type          (echo)
///   u64  id            (echo)
///   u8   status_code   (StatusCode; kOk on success)
///   u32  message_len + bytes          (empty on success)
///   u32  algorithm_count + (u32 len + bytes) each
///   u32  series_count + series each   (repair results)
///   u64  engine_version               (version of the engine that answered;
///                                      lets clients detect a live swap)
///   u32  text_len + bytes             (kStats: the telemetry-snapshot JSON;
///                                      others: empty)
///
/// A series is `u32 name_len + bytes, u64 length, length f64 values`
/// (IEEE-754 bit patterns, little-endian); NaN marks a missing position in
/// both directions. Every variable-length size is validated against the
/// bytes actually remaining in the frame BEFORE any allocation — a hostile
/// frame yields `kInvalidArgument`, never an unbounded reserve (the same
/// contract `Adarts::Load` applies to on-disk bundles).
///
/// Admission control rides on the status channel: a server at capacity
/// answers with `kUnavailable` ("shed") instead of queueing unboundedly.

enum class MessageType : std::uint8_t {
  kPing = 1,
  kRecommend = 2,
  kRecommendBatch = 3,
  kRepair = 4,
  /// Ask the server to validate + hot-swap a new engine snapshot. Answered
  /// only after the reload pipeline finishes: kOk with the new version, or
  /// the validation error with the old engine still serving.
  kReload = 5,
  /// Scrape the live telemetry snapshot (DESIGN.md §14). Answered directly
  /// from the reader thread — it bypasses the admission queue, so an
  /// operator can still see a saturated server. The response's `text`
  /// field carries the folded snapshot as JSON.
  kStats = 6,
};

/// True for the six known message types.
bool IsValidMessageType(std::uint8_t value);

/// Hard caps a well-formed frame can never exceed; decode rejects anything
/// beyond them before allocating.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 24;  // 16 MiB
inline constexpr std::size_t kMaxSeriesPerRequest = 4096;
inline constexpr std::size_t kMaxSeriesLength = std::size_t{1} << 21;
inline constexpr std::size_t kMaxNameBytes = 4096;
inline constexpr std::size_t kMaxMessageBytes = std::size_t{1} << 16;
/// Response `text` cap (telemetry-snapshot JSON grows with the number of
/// registered metrics, so it gets more headroom than error messages).
inline constexpr std::size_t kMaxTextBytes = std::size_t{1} << 20;

struct Request {
  MessageType type = MessageType::kPing;
  std::uint64_t id = 0;
  /// Per-request deadline budget, measured from admission; <= 0 uses the
  /// server default (which may be "none").
  double deadline_ms = 0.0;
  std::vector<ts::TimeSeries> series;
  /// kReload: path of the snapshot to load; empty means "re-read the path
  /// the server was started with". Must be empty for every other type.
  std::string text;
};

struct Response {
  MessageType type = MessageType::kPing;
  std::uint64_t id = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;
  /// Recommended algorithm names (1 for kRecommend, N for kRecommendBatch).
  std::vector<std::string> algorithms;
  /// Repaired series (kRepair).
  std::vector<ts::TimeSeries> series;
  /// engine_version of the engine that served this request (0 for replies
  /// that never touched an engine, e.g. shed or malformed-frame errors).
  /// A burst of requests straddling a hot-swap can partition its responses
  /// into exactly two version groups — never a mix within one response.
  std::uint64_t engine_version = 0;
  /// kStats: the telemetry-snapshot JSON (capped at kMaxTextBytes). Empty
  /// for every other type.
  std::string text;

  bool ok() const { return code == StatusCode::kOk; }
};

std::string EncodeRequest(const Request& request);
Result<Request> DecodeRequest(std::string_view body);

std::string EncodeResponse(const Response& response);
Result<Response> DecodeResponse(std::string_view body);

/// Writes one frame (length prefix + body).
Status WriteFrame(Socket& socket, std::string_view body);

/// Reads one frame body. Propagates the socket's `kUnavailable` on clean
/// connection close; rejects prefixes above `max_body_bytes` without
/// allocating.
Result<std::string> ReadFrame(Socket& socket,
                              std::size_t max_body_bytes = kMaxFrameBytes);

/// The client side: encodes `request` and writes it as one frame.
Status WriteRequest(Socket& socket, const Request& request);

/// Reads one frame and decodes it as a response.
Result<Response> ReadResponse(Socket& socket);

/// One request/response exchange on `socket`:
///   * an OK reply must echo the request's type and id, else `kInternal`;
///   * a non-OK reply is returned as is — the server writes its cap refusal
///     and its decode-error reply before it knows an id;
///   * a failed write still reads: at the connection cap the server writes
///     its refusal and closes without reading, so the write can hit a
///     broken pipe while the refusal waits in the receive buffer. The write
///     error is returned only when no reply can be read.
Result<Response> Call(Socket& socket, const Request& request);

}  // namespace adarts::net

#endif  // ADARTS_NET_PROTOCOL_H_
