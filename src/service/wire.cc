#include "service/wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/serde.h"

namespace cegraph::service::wire {

namespace {

using util::serde::Reader;
using util::serde::Writer;

constexpr char kConnectionClosed[] = "connection closed";

bool ValidType(uint8_t type) {
  return type >= static_cast<uint8_t>(MessageType::kEstimate) &&
         type <= static_cast<uint8_t>(MessageType::kBatchEstimate);
}

void EncodeEstimate(Writer& w, const EstimateResponse& estimate) {
  w.WriteU64(estimate.epoch);
  w.WriteU64(estimate.state_version);
  w.WriteDouble(estimate.total_micros);
  w.WriteU8(estimate.has_truth ? 1 : 0);
  w.WriteDouble(estimate.truth);
  w.WriteU32(static_cast<uint32_t>(estimate.results.size()));
  for (const EstimatorResult& result : estimate.results) {
    w.WriteString(result.name);
    w.WriteU8(result.ok ? 1 : 0);
    w.WriteDouble(result.estimate);
    w.WriteString(result.error);
    w.WriteDouble(result.micros);
    w.WriteDouble(result.qerror);
  }
}

util::StatusOr<EstimateResponse> DecodeEstimate(Reader& r) {
  EstimateResponse estimate;
  auto epoch = r.ReadU64();
  if (!epoch.ok()) return epoch.status();
  estimate.epoch = *epoch;
  auto version = r.ReadU64();
  if (!version.ok()) return version.status();
  estimate.state_version = *version;
  auto micros = r.ReadDouble();
  if (!micros.ok()) return micros.status();
  estimate.total_micros = *micros;
  auto has_truth = r.ReadU8();
  if (!has_truth.ok()) return has_truth.status();
  estimate.has_truth = *has_truth != 0;
  auto truth = r.ReadDouble();
  if (!truth.ok()) return truth.status();
  estimate.truth = *truth;
  auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  // Every result occupies well over one byte, so a count beyond the
  // remaining payload is corruption — reject it before reserve() turns
  // it into a multi-gigabyte allocation.
  if (*count > r.remaining()) {
    return util::InvalidArgumentError(
        "estimate result count exceeds frame payload");
  }
  estimate.results.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    EstimatorResult result;
    auto name = r.ReadString();
    if (!name.ok()) return name.status();
    result.name = std::move(*name);
    auto ok = r.ReadU8();
    if (!ok.ok()) return ok.status();
    result.ok = *ok != 0;
    auto estimate_value = r.ReadDouble();
    if (!estimate_value.ok()) return estimate_value.status();
    result.estimate = *estimate_value;
    auto error = r.ReadString();
    if (!error.ok()) return error.status();
    result.error = std::move(*error);
    auto result_micros = r.ReadDouble();
    if (!result_micros.ok()) return result_micros.status();
    result.micros = *result_micros;
    auto qerror = r.ReadDouble();
    if (!qerror.ok()) return qerror.status();
    result.qerror = *qerror;
    estimate.results.push_back(std::move(result));
  }
  return estimate;
}

void EncodeLoadBreakdown(Writer& w, const SnapshotLoadBreakdown& load) {
  w.WriteU8(load.loaded ? 1 : 0);
  w.WriteU8(load.mapped ? 1 : 0);
  w.WriteU64(load.mapped_bytes);
  w.WriteDouble(load.map_millis);
  w.WriteDouble(load.materialize_millis);
  w.WriteU64(load.snapshot_epoch);
}

util::StatusOr<SnapshotLoadBreakdown> DecodeLoadBreakdown(Reader& r) {
  SnapshotLoadBreakdown load;
  auto loaded = r.ReadU8();
  if (!loaded.ok()) return loaded.status();
  load.loaded = *loaded != 0;
  auto mapped = r.ReadU8();
  if (!mapped.ok()) return mapped.status();
  load.mapped = *mapped != 0;
  auto bytes = r.ReadU64();
  if (!bytes.ok()) return bytes.status();
  load.mapped_bytes = *bytes;
  auto map_millis = r.ReadDouble();
  if (!map_millis.ok()) return map_millis.status();
  load.map_millis = *map_millis;
  auto materialize_millis = r.ReadDouble();
  if (!materialize_millis.ok()) return materialize_millis.status();
  load.materialize_millis = *materialize_millis;
  auto epoch = r.ReadU64();
  if (!epoch.ok()) return epoch.status();
  load.snapshot_epoch = *epoch;
  return load;
}

void EncodeSwap(Writer& w, const SwapReport& swap) {
  w.WriteU64(swap.epoch);
  w.WriteU64(swap.version);
  w.WriteU64(swap.applied_ops);
  w.WriteU64(swap.trimmed_log_ops);
  w.WriteU64(swap.maintenance.inserted_edges);
  w.WriteU64(swap.maintenance.deleted_edges);
  w.WriteU64(swap.maintenance.changed_labels);
  w.WriteU64(swap.maintenance.total_evicted());
  w.WriteU8(swap.snapshot_stale ? 1 : 0);
  w.WriteU64(swap.snapshot_replayed_deltas);
  EncodeLoadBreakdown(w, swap.snapshot_load);
}

util::StatusOr<SwapReport> DecodeSwap(Reader& r) {
  SwapReport swap;
  auto epoch = r.ReadU64();
  if (!epoch.ok()) return epoch.status();
  swap.epoch = *epoch;
  auto version = r.ReadU64();
  if (!version.ok()) return version.status();
  swap.version = *version;
  auto applied = r.ReadU64();
  if (!applied.ok()) return applied.status();
  swap.applied_ops = *applied;
  auto trimmed = r.ReadU64();
  if (!trimmed.ok()) return trimmed.status();
  swap.trimmed_log_ops = *trimmed;
  auto inserted = r.ReadU64();
  if (!inserted.ok()) return inserted.status();
  swap.maintenance.inserted_edges = *inserted;
  auto deleted = r.ReadU64();
  if (!deleted.ok()) return deleted.status();
  swap.maintenance.deleted_edges = *deleted;
  auto labels = r.ReadU64();
  if (!labels.ok()) return labels.status();
  swap.maintenance.changed_labels = *labels;
  // Total evictions travel in one summary slot: the CEG bucket of the
  // report (the per-structure split stays server-side).
  auto evicted = r.ReadU64();
  if (!evicted.ok()) return evicted.status();
  swap.maintenance.ceg_evicted = *evicted;
  auto stale = r.ReadU8();
  if (!stale.ok()) return stale.status();
  swap.snapshot_stale = *stale != 0;
  auto replayed = r.ReadU64();
  if (!replayed.ok()) return replayed.status();
  swap.snapshot_replayed_deltas = *replayed;
  auto load = DecodeLoadBreakdown(r);
  if (!load.ok()) return load.status();
  swap.snapshot_load = *load;
  return swap;
}

// ---- v5 trailing extensions ------------------------------------------------
//
// Each extension travels as one trailing *string* led by a 4-byte magic
// (FF 43 47 xx) and a u8 ext version; bytes past the fields this build
// knows are a future version's and are ignored.

/// v5 end-to-end request id (any request; echoed on the response).
constexpr char kRequestIdExtMagic[4] = {'\xff', 'C', 'G', 'R'};

bool HasMagic(std::string_view s, const char (&magic)[4]) {
  return s.size() >= sizeof(magic) &&
         std::memcmp(s.data(), magic, sizeof(magic)) == 0;
}

/// True for any 0xFF-led trailing string: an extension field, never a
/// dataset name.
bool IsExtensionField(std::string_view s) {
  return !s.empty() && s[0] == '\xff';
}

std::string EncodeRequestIdExt(uint64_t id) {
  Writer w;
  w.WriteRaw(
      std::string_view(kRequestIdExtMagic, sizeof(kRequestIdExtMagic)));
  w.WriteU8(1);  // ext version
  w.WriteU64(id);
  return w.TakeBuffer();
}

util::StatusOr<uint64_t> DecodeRequestIdExt(std::string_view ext) {
  Reader r(ext.substr(sizeof(kRequestIdExtMagic)));
  auto version = r.ReadU8();
  if (!version.ok()) return version.status();
  if (*version < 1) {
    return util::InvalidArgumentError("bad request-id extension version " +
                                      std::to_string(*version));
  }
  auto id = r.ReadU64();
  if (!id.ok()) return id.status();
  // Trailing bytes inside the ext string are a future version's fields.
  return *id;
}

void EncodeBatch(Writer& w, const std::vector<BatchEstimateItem>& batch) {
  w.WriteU32(static_cast<uint32_t>(batch.size()));
  for (const BatchEstimateItem& item : batch) {
    w.WriteU8(static_cast<uint8_t>(item.status.code()));
    w.WriteString(item.status.message());
    if (item.status.ok()) EncodeEstimate(w, item.estimate);
  }
}

util::StatusOr<std::vector<BatchEstimateItem>> DecodeBatch(Reader& r) {
  auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  if (*count > r.remaining()) {
    return util::InvalidArgumentError(
        "batch item count exceeds frame payload");
  }
  std::vector<BatchEstimateItem> batch;
  batch.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    BatchEstimateItem item;
    auto code = r.ReadU8();
    if (!code.ok()) return code.status();
    if (*code > static_cast<uint8_t>(util::StatusCode::kResourceExhausted)) {
      return util::InvalidArgumentError("unknown batch item status code " +
                                        std::to_string(*code));
    }
    auto message = r.ReadString();
    if (!message.ok()) return message.status();
    if (*code != 0) {
      item.status = util::Status(static_cast<util::StatusCode>(*code),
                                 std::move(*message));
    } else {
      auto estimate = DecodeEstimate(r);
      if (!estimate.ok()) return estimate.status();
      item.estimate = std::move(*estimate);
    }
    batch.push_back(std::move(item));
  }
  return batch;
}

}  // namespace

std::string EncodeRequest(const Request& request) {
  Writer w;
  w.WriteU8(static_cast<uint8_t>(request.type));
  if (request.type == MessageType::kBatchEstimate) {
    // v3 batch frame: a counted line list replaces the single text field.
    w.WriteU32(static_cast<uint32_t>(request.lines.size()));
    for (const std::string& line : request.lines) w.WriteString(line);
  } else {
    w.WriteString(request.text);
  }
  // v2 trailing field, encoded only when set: a request without a dataset
  // stays byte-identical to a v1 frame (old servers keep accepting it).
  if (!request.dataset.empty()) w.WriteString(request.dataset);
  // v5 trailing field, same contract: no id, no bytes.
  if (request.request_id != 0) {
    w.WriteString(EncodeRequestIdExt(request.request_id));
  }
  return w.TakeBuffer();
}

util::StatusOr<Request> DecodeRequest(std::string_view payload) {
  Reader r(payload);
  auto type = r.ReadU8();
  if (!type.ok()) return type.status();
  if (!ValidType(*type)) {
    return util::UnimplementedError("unknown request type " +
                                    std::to_string(*type));
  }
  Request request;
  request.type = static_cast<MessageType>(*type);
  if (request.type == MessageType::kBatchEstimate) {
    auto count = r.ReadU32();
    if (!count.ok()) return count.status();
    // Every line occupies at least its u64 length prefix, so a count
    // beyond the remaining payload is corruption — reject it before
    // reserve() turns it into a multi-gigabyte allocation.
    if (*count > r.remaining()) {
      return util::InvalidArgumentError(
          "batch line count exceeds frame payload");
    }
    request.lines.reserve(*count);
    for (uint32_t i = 0; i < *count; ++i) {
      auto line = r.ReadString();
      if (!line.ok()) return line.status();
      request.lines.push_back(std::move(*line));
    }
  } else {
    auto text = r.ReadString();
    if (!text.ok()) return text.status();
    request.text = std::move(*text);
  }
  // v5 trailing-field sequence: at most one dataset name (v2), any
  // number of 0xFF-led extension strings — known ones decoded, unknown
  // ones skipped so a newer peer's extras don't fail the frame.
  bool have_dataset = false;
  while (!r.AtEnd()) {
    auto field = r.ReadString();
    if (!field.ok()) return field.status();
    if (IsExtensionField(*field)) {
      if (HasMagic(*field, kRequestIdExtMagic)) {
        auto id = DecodeRequestIdExt(*field);
        if (!id.ok()) return id.status();
        request.request_id = *id;
      }
      continue;
    }
    if (have_dataset) {
      return util::InvalidArgumentError(
          "duplicate dataset field in request frame");
    }
    have_dataset = true;
    request.dataset = std::move(*field);
  }
  return request;
}

std::string EncodeResponse(const Response& response) {
  Writer w;
  w.WriteU8(static_cast<uint8_t>(response.status.code()));
  w.WriteString(response.status.message());
  w.WriteU8(static_cast<uint8_t>(response.type));
  if (response.status.ok()) {
    switch (response.type) {
      case MessageType::kEstimate:
        EncodeEstimate(w, response.estimate);
        break;
      case MessageType::kApplyDeltas:
      case MessageType::kSwapSnapshot:
        EncodeSwap(w, response.swap);
        break;
      case MessageType::kStats:
      case MessageType::kPing:
      case MessageType::kShutdown:
        w.WriteString(response.text);
        break;
      case MessageType::kBatchEstimate:
        EncodeBatch(w, response.batch);
        break;
    }
  }
  // v2 echo, encoded only when the server resolved an explicit dataset
  // (responses to v1 requests stay byte-identical to v1 frames).
  if (!response.dataset.empty()) w.WriteString(response.dataset);
  // v5 echo, same contract as the dataset echo: only when the request
  // carried an id.
  if (response.request_id != 0) {
    w.WriteString(EncodeRequestIdExt(response.request_id));
  }
  return w.TakeBuffer();
}

util::StatusOr<Response> DecodeResponse(std::string_view payload) {
  Reader r(payload);
  auto code = r.ReadU8();
  if (!code.ok()) return code.status();
  auto message = r.ReadString();
  if (!message.ok()) return message.status();
  auto type = r.ReadU8();
  if (!type.ok()) return type.status();
  if (!ValidType(*type)) {
    return util::InvalidArgumentError("unknown response type " +
                                      std::to_string(*type));
  }
  Response response;
  response.type = static_cast<MessageType>(*type);
  // v5 trailing-field sequence (shared by the error and OK paths): at
  // most one dataset echo (v2), any number of 0xFF-led extension
  // strings — the request-id echo is the one this build knows; unknown
  // magics are a newer peer's fields and are skipped.
  auto read_trailing_fields = [&r, &response]() -> util::Status {
    bool have_dataset = false;
    while (!r.AtEnd()) {
      auto field = r.ReadString();
      if (!field.ok()) return field.status();
      if (IsExtensionField(*field)) {
        if (HasMagic(*field, kRequestIdExtMagic)) {
          auto id = DecodeRequestIdExt(*field);
          if (!id.ok()) return id.status();
          response.request_id = *id;
        }
        continue;
      }
      if (have_dataset) {
        return util::InvalidArgumentError(
            "duplicate dataset field in response frame");
      }
      have_dataset = true;
      response.dataset = std::move(*field);
    }
    return util::Status::OK();
  };
  if (*code != 0) {
    if (*code > static_cast<uint8_t>(util::StatusCode::kResourceExhausted)) {
      return util::InvalidArgumentError("unknown status code " +
                                        std::to_string(*code));
    }
    response.status = util::Status(static_cast<util::StatusCode>(*code),
                                   std::move(*message));
    CEGRAPH_RETURN_IF_ERROR(read_trailing_fields());
    return response;
  }
  switch (response.type) {
    case MessageType::kEstimate: {
      auto estimate = DecodeEstimate(r);
      if (!estimate.ok()) return estimate.status();
      response.estimate = std::move(*estimate);
      break;
    }
    case MessageType::kApplyDeltas:
    case MessageType::kSwapSnapshot: {
      auto swap = DecodeSwap(r);
      if (!swap.ok()) return swap.status();
      response.swap = *swap;
      break;
    }
    case MessageType::kStats:
    case MessageType::kPing:
    case MessageType::kShutdown: {
      auto text = r.ReadString();
      if (!text.ok()) return text.status();
      response.text = std::move(*text);
      break;
    }
    case MessageType::kBatchEstimate: {
      auto batch = DecodeBatch(r);
      if (!batch.ok()) return batch.status();
      response.batch = std::move(*batch);
      break;
    }
  }
  CEGRAPH_RETURN_IF_ERROR(read_trailing_fields());
  return response;
}

// ---- Stream framing ----

namespace {

util::Status WriteAll(int fd, const char* data, size_t n) {
  size_t written = 0;
  while (written < n) {
    const ssize_t rc = ::write(fd, data + written, n - written);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return util::InternalError(std::string("write: ") +
                                 std::strerror(errno));
    }
    written += static_cast<size_t>(rc);
  }
  return util::Status::OK();
}

/// Reads exactly `n` bytes. `eof_ok` marks a clean close at offset 0.
util::Status ReadAll(int fd, char* data, size_t n, bool eof_ok) {
  size_t have = 0;
  while (have < n) {
    const ssize_t rc = ::read(fd, data + have, n - have);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return util::InternalError(std::string("read: ") +
                                 std::strerror(errno));
    }
    if (rc == 0) {
      if (eof_ok && have == 0) return util::NotFoundError(kConnectionClosed);
      return util::OutOfRangeError("truncated frame (peer closed mid-read)");
    }
    have += static_cast<size_t>(rc);
  }
  return util::Status::OK();
}

}  // namespace

util::Status WriteFrame(int fd, std::string_view payload) {
  Writer w;
  w.WriteU32(static_cast<uint32_t>(payload.size()));
  w.WriteRaw(payload);
  return WriteAll(fd, w.buffer().data(), w.buffer().size());
}

util::StatusOr<std::string> ReadFrame(int fd, uint32_t max_bytes) {
  char prefix[4];
  CEGRAPH_RETURN_IF_ERROR(ReadAll(fd, prefix, 4, /*eof_ok=*/true));
  Reader r(std::string_view(prefix, 4));
  const uint32_t length = *r.ReadU32();
  if (length > max_bytes) {
    return util::InvalidArgumentError(
        "frame of " + std::to_string(length) + " bytes exceeds the " +
        std::to_string(max_bytes) + "-byte limit");
  }
  std::string payload(length, '\0');
  CEGRAPH_RETURN_IF_ERROR(ReadAll(fd, payload.data(), length,
                                  /*eof_ok=*/false));
  return payload;
}

bool IsConnectionClosed(const util::Status& status) {
  return status.code() == util::StatusCode::kNotFound &&
         status.message() == kConnectionClosed;
}

// ---- TCP helpers ----

util::StatusOr<int> DialTcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::InternalError(std::string("socket: ") +
                               std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::InvalidArgumentError("unparseable IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return util::InternalError("connect " + host + ":" +
                               std::to_string(port) + ": " + detail);
  }
  SetTcpNoDelay(fd);
  return fd;
}

util::Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return util::InternalError(std::string("fcntl(O_NONBLOCK): ") +
                               std::strerror(errno));
  }
  return util::Status::OK();
}

void SetTcpNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

util::StatusOr<int> ListenTcp(const std::string& host, int port,
                              int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::InternalError(std::string("socket: ") +
                               std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::InvalidArgumentError("unparseable IPv4 address: " + host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return util::InternalError("bind " + host + ":" + std::to_string(port) +
                               ": " + detail);
  }
  if (::listen(fd, backlog) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return util::InternalError("listen: " + detail);
  }
  return fd;
}

util::StatusOr<int> BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return util::InternalError(std::string("getsockname: ") +
                               std::strerror(errno));
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

util::StatusOr<Response> RoundTrip(int fd, const Request& request) {
  CEGRAPH_RETURN_IF_ERROR(WriteFrame(fd, EncodeRequest(request)));
  auto payload = ReadFrame(fd);
  if (!payload.ok()) return payload.status();
  return DecodeResponse(*payload);
}

}  // namespace cegraph::service::wire
