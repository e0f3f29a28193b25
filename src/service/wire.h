#ifndef CEGRAPH_SERVICE_WIRE_H_
#define CEGRAPH_SERVICE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/service.h"
#include "util/status.h"

namespace cegraph::service::wire {

/// The cegraph wire protocol, version 6 (see docs/wire_protocol.md):
/// length-prefixed frames over a byte stream, little-endian throughout
/// (util::serde).
///
///   frame    := u32 payload_bytes, payload
///   request  := u8 type, string text [, string dataset]            (v1/v2)
///             | u8 7, u32 count, count x string line [, string dataset]
///   response := u8 code, string error?, u8 type, body? [, string dataset]
///
/// One request frame yields exactly one response frame; a client may
/// pipeline requests on one connection and the server answers strictly in
/// order. `code` is the numeric util::StatusCode (0 = OK); on error the
/// body is absent and `error` carries the status message. Unknown request
/// types are answered with UNIMPLEMENTED, so newer clients degrade
/// cleanly against older servers.
///
/// Version 2 added the optional trailing `dataset` field: a multi-dataset
/// server routes each request to the named dataset's service, and echoes
/// the resolved name back. The field is only encoded when non-empty, so a
/// v2 client not naming a dataset emits byte-identical v1 frames (old
/// servers keep working), and a v1 client's frames decode with an empty
/// dataset and are routed to the server's configurable default dataset.
///
/// Version 3 adds the batch estimate frame (type 7): one request carrying
/// N estimate lines, answered by one response carrying N results in the
/// same order, all priced into admission as a single unit and served from
/// a single epoch — so an optimizer prices a whole join tree in one round
/// trip. v1/v2 frames are untouched, byte for byte, in both directions.
///
/// Version 4 added an opt-in binary observability extension to kStats
/// replies. Version 5 generalized its trick: trailing strings after the
/// request body / response body are a *sequence* of fields, each either
/// the (at most one) dataset name or a 0xFF-magic-led extension, in any
/// order; unknown 0xFF magics are skipped, so later revisions can add
/// extensions without breaking older peers (0xFF cannot start a dataset
/// name). The one extension in use:
///
///   FF 43 47 52 ("\xFF" "CGR")  request-id: u8 ext version, u64 id. A
///     client stamps any request with a nonzero id; the server echoes it
///     on the response and threads it through the slow-request log, the
///     stage trace and the journal — one id, end to end. Requests
///     without an id carry no extension bytes.
///
/// Version 6 makes the kStats reply body one string: the Prometheus text
/// page that the routed dataset's service and the TCP server render —
/// the same series `/metrics` exports for them, read back with
/// obs::ParsePrometheusText. The stats request's text is ignored. The
/// binary stats body and its v4/v5 extensions are gone, so stats frames
/// do not interoperate with pre-v6 peers; every other frame is unchanged.

/// Upper bound on one frame's payload; larger length prefixes are treated
/// as corruption and fail the connection.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;

/// Protocol revision implemented by this build (documentation constant;
/// frames themselves are versionless — each revision is distinguished
/// per frame by type and trailing fields).
inline constexpr uint32_t kProtocolVersion = 6;

/// The pre-v6 scorecard opt-in text of a stats request. The server
/// ignores stats request text now; the name stays only because
/// perfbench/driver/serve.cc still sends it, and goes with the next
/// change to that driver.
inline constexpr std::string_view kStatsV5Token = "v5";

enum class MessageType : uint8_t {
  kEstimate = 1,      ///< text: one request line (service::ParseRequestLine)
  kApplyDeltas = 2,   ///< text: a delta feed (dynamic delta text format)
  kSwapSnapshot = 3,  ///< text: server-local snapshot path
  kStats = 4,         ///< text ignored; the reply text is the metrics page
  kPing = 5,          ///< text echoed back
  kShutdown = 6,      ///< text unused; server drains and exits
  kBatchEstimate = 7, ///< v3: `lines` carries N estimate lines
};

struct Request {
  MessageType type = MessageType::kPing;
  std::string text;
  /// v2: the dataset this request targets; empty means "the server's
  /// default dataset" and encodes as a v1 frame (no trailing field).
  std::string dataset;
  /// v3 batch frames only (kBatchEstimate): the estimate lines, each in
  /// the same shape a kEstimate `text` would carry; `text` is unused.
  /// (Declared last so pre-v3 `{type, text, dataset}` aggregate
  /// initialization keeps meaning what it says.)
  std::vector<std::string> lines;
  /// v5: client-generated end-to-end request id; 0 = none (and encodes
  /// as a pre-v5 frame, byte for byte).
  uint64_t request_id = 0;
};

/// The decoded answer to one request. `status` is the request-level
/// outcome; exactly one body member is meaningful on OK, selected by
/// `type` (estimate for kEstimate, swap for kApplyDeltas/kSwapSnapshot,
/// text for kStats/kPing/kShutdown, batch for kBatchEstimate).
struct Response {
  util::Status status;
  MessageType type = MessageType::kPing;
  EstimateResponse estimate;
  SwapReport swap;
  /// kPing / kShutdown: the reply line. kStats (v6): the Prometheus text
  /// page of the routed dataset and the server.
  std::string text;
  /// v3: per-line results of a batch frame, in request order. Each item
  /// carries the status + body its line would have earned as its own v1
  /// estimate frame.
  std::vector<BatchEstimateItem> batch;
  /// v2 echo: the dataset that handled the request. Servers set it only
  /// when the request named one, so v1 clients (which reject trailing
  /// bytes) never see it.
  std::string dataset;
  /// v5 echo: the request's id, returned verbatim. Servers set it only
  /// when the request carried one, so pre-v5 clients never see it.
  uint64_t request_id = 0;
};

std::string EncodeRequest(const Request& request);
util::StatusOr<Request> DecodeRequest(std::string_view payload);

std::string EncodeResponse(const Response& response);
util::StatusOr<Response> DecodeResponse(std::string_view payload);

// ---- Stream framing (POSIX fds; EINTR-safe, full reads/writes) ----

/// Writes one length-prefixed frame.
util::Status WriteFrame(int fd, std::string_view payload);

/// Reads one frame. NotFound with message "connection closed" on a clean
/// EOF at a frame boundary (the normal end of a connection); OutOfRange on
/// mid-frame EOF; InvalidArgument on an implausible length prefix.
util::StatusOr<std::string> ReadFrame(int fd,
                                      uint32_t max_bytes = kMaxFrameBytes);

/// True iff `status` is the clean-EOF marker ReadFrame returns when the
/// peer closed between frames.
bool IsConnectionClosed(const util::Status& status);

// ---- TCP helpers shared by the daemon, the client and the benches ----

/// Connects to host:port. Returns the connected fd (caller closes).
util::StatusOr<int> DialTcp(const std::string& host, int port);

/// Binds and listens on host:port (port 0 = ephemeral). Returns the
/// listening fd (caller closes).
util::StatusOr<int> ListenTcp(const std::string& host, int port,
                              int backlog);

/// The locally bound port of a listening/connected socket.
util::StatusOr<int> BoundPort(int fd);

/// Puts `fd` into non-blocking mode (the event-loop server's sockets).
util::Status SetNonBlocking(int fd);

/// Disables Nagle's algorithm: the protocol's small length-prefixed
/// frames must leave immediately, not wait for ACK coalescing. Applied to
/// both dialed (DialTcp) and accepted (TcpServer) sockets; best-effort.
void SetTcpNoDelay(int fd);

/// Sends `request` and reads the matching response frame — the one-shot
/// client call. Transport failures come back as the outer StatusOr; the
/// server's request-level outcome is Response::status.
util::StatusOr<Response> RoundTrip(int fd, const Request& request);

}  // namespace cegraph::service::wire

#endif  // CEGRAPH_SERVICE_WIRE_H_
