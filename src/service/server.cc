#include "service/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <sstream>
#include <utility>

#include "dynamic/delta_io.h"
#include "obs/metrics.h"
#include "obs/stage_trace.h"

namespace cegraph::service {

namespace {

/// Monotonic microseconds for queue-wait / stage timing.
int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// epoll user-data tags for the two non-connection fds; connection ids
/// start at 2 (see next_conn_id_).
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;

/// Above this many unflushed response bytes the I/O thread stops reading
/// a connection (drops EPOLLIN interest) until the peer drains its
/// socket: a pipelining client that never reads cannot grow `out`
/// without bound.
constexpr size_t kOutHighWater = 4u << 20;

/// Appends one length-prefixed frame (the wire framing: LE u32 payload
/// size, payload) to an output buffer.
void AppendFrame(std::string& out, std::string_view payload) {
  const uint32_t n = static_cast<uint32_t>(payload.size());
  const char prefix[4] = {
      static_cast<char>(n & 0xff), static_cast<char>((n >> 8) & 0xff),
      static_cast<char>((n >> 16) & 0xff), static_cast<char>((n >> 24) & 0xff)};
  out.append(prefix, sizeof prefix);
  out.append(payload.data(), payload.size());
}

}  // namespace

TcpServer::TcpServer(EstimationService& service, ServerOptions options)
    : catalog_(single_), options_(std::move(options)) {
  // A one-entry borrowed catalog cannot fail to assemble.
  (void)single_.AddBorrowed("default", &service);
}

TcpServer::TcpServer(DatasetCatalog& catalog, ServerOptions options)
    : catalog_(catalog), options_(std::move(options)) {}

TcpServer::~TcpServer() { Stop(); }

util::Status TcpServer::Start() {
  if (started_) return util::FailedPreconditionError("server already started");
  auto fd = wire::ListenTcp(options_.host, options_.port, options_.backlog);
  if (!fd.ok()) return fd.status();
  listen_fd_ = *fd;
  auto port = wire::BoundPort(listen_fd_);
  if (!port.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return port.status();
  }
  port_ = *port;
  const int workers = options_.workers < 1 ? 1 : options_.workers;

  if (options_.dispatch == ServerOptions::Dispatch::kEventLoop) {
    auto fail = [this](util::Status status) {
      if (epoll_fd_ >= 0) ::close(epoll_fd_);
      if (wake_fd_ >= 0) ::close(wake_fd_);
      epoll_fd_ = wake_fd_ = -1;
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    };
    if (auto status = wire::SetNonBlocking(listen_fd_); !status.ok()) {
      return fail(status);
    }
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      return fail(util::InternalError(std::string("epoll_create1: ") +
                                      std::strerror(errno)));
    }
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) {
      return fail(
          util::InternalError(std::string("eventfd: ") + std::strerror(errno)));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenTag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
      return fail(util::InternalError(std::string("epoll_ctl(listen): ") +
                                      std::strerror(errno)));
    }
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
      return fail(util::InternalError(std::string("epoll_ctl(wake): ") +
                                      std::strerror(errno)));
    }
    work_.clear();
    completions_.clear();
    next_conn_id_ = 2;
    event_stop_.store(false, std::memory_order_relaxed);
    started_ = true;
    stopping_ = false;
    io_ = std::thread([this] { IoLoop(); });
    workers_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { EventWorkerLoop(); });
    }
    RegisterMetrics();
    return util::Status::OK();
  }

  started_ = true;
  stopping_ = false;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  RegisterMetrics();
  return util::Status::OK();
}

void TcpServer::Stop() {
  std::thread io;
  std::thread acceptor;
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    io = std::move(io_);
    acceptor = std::move(acceptor_);
    workers = std::move(workers_);
    // Unblock legacy workers parked in a read: SHUT_RD makes their next
    // (or current) read return EOF, and they observe stopping_ on the way
    // out. The write side stays open so a worker mid-request can still
    // deliver its response — the drain contract: every request the
    // server accepted is answered.
    for (const int fd : active_) ::shutdown(fd, SHUT_RD);
  }
  // The collector reads only atomics (plus work_mutex_ for queue depth),
  // so unregistering before the joins is safe; it must be gone before the
  // members it captures are destroyed.
  if (metrics_collector_id_ != 0) {
    obs::MetricsRegistry::Global().RemoveCollector(metrics_collector_id_);
    metrics_collector_id_ = 0;
  }
  event_stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(work_mutex_);
  }
  work_cv_.notify_all();
  if (wake_fd_ >= 0) WakeIo();
  if (options_.dispatch == ServerOptions::Dispatch::kThreadPerConnection &&
      listen_fd_ >= 0) {
    // Closing the listener unblocks the legacy acceptor's accept(). The
    // event loop's listener is non-blocking and polled — the I/O thread
    // still owns it, so it is closed after the join instead.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  queue_cv_.notify_all();
  if (io.joinable()) io.join();
  if (acceptor.joinable()) acceptor.join();
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    while (!queue_.empty()) {
      ::close(queue_.front());
      queue_.pop_front();
    }
    started_ = false;
  }
  stopped_.store(true, std::memory_order_relaxed);
  NotifyShutdownRequested();
}

bool TcpServer::WaitUntilShutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [&] {
    return shutdown_requested_.load(std::memory_order_relaxed) ||
           stopped_.load(std::memory_order_relaxed);
  });
  return shutdown_requested_.load(std::memory_order_relaxed);
}

void TcpServer::NotifyShutdownRequested() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
  }
  shutdown_cv_.notify_all();
}

std::string TcpServer::EncodeOverloadReject(const std::string& what) {
  wire::Response response;
  response.status = util::ResourceExhaustedError(what + "; retry");
  return wire::EncodeResponse(response);
}

void TcpServer::EmitShedEvent(const char* reason, int cap) {
  if (options_.journal == nullptr) return;
  obs::JournalEvent event;
  event.type = "shed";
  event.text.emplace_back("reason", reason);
  event.num.emplace_back("cap", static_cast<double>(cap));
  (void)options_.journal->Emit(std::move(event));
}

// ---- event loop (kEventLoop) ----

void TcpServer::IoLoop() {
  std::vector<epoll_event> events(512);
  while (!event_stop_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                     /*timeout=*/-1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (event_stop_.load(std::memory_order_relaxed)) break;
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        HandleAccept();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t counter = 0;
        while (::read(wake_fd_, &counter, sizeof counter) > 0) {
        }
        HandleCompletions();
        continue;
      }
      const auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn* conn = it->second.get();
      const uint32_t ev = events[i].events;
      if (ev & (EPOLLERR | EPOLLHUP)) {
        // The peer is gone in both directions (reset / full close); any
        // in-flight completion for this id is dropped when it arrives.
        CloseConn(*conn);
        continue;
      }
      if (ev & EPOLLIN) {
        HandleReadable(*conn);
        const auto again = conns_.find(tag);
        if (again == conns_.end()) continue;  // HandleReadable closed it
        conn = again->second.get();
      }
      if (ev & EPOLLOUT) FlushConn(*conn);
    }
  }
  for (auto& entry : conns_) ::close(entry.second->fd);
  conns_.clear();
  connections_active_.store(0, std::memory_order_relaxed);
}

void TcpServer::HandleAccept() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: accepted everything pending
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    wire::SetTcpNoDelay(fd);
    if (options_.max_connections > 0 &&
        conns_.size() >= static_cast<size_t>(options_.max_connections)) {
      shed_connection_cap_.fetch_add(1, std::memory_order_relaxed);
      EmitShedEvent("connection_cap", options_.max_connections);
      // The accepted fd is still blocking (O_NONBLOCK does not inherit
      // through accept), so the refusal frame can be written inline.
      (void)wire::WriteFrame(
          fd, EncodeOverloadReject(
                  "server at connection capacity (" +
                  std::to_string(options_.max_connections) + " connections)"));
      ::close(fd);
      continue;
    }
    if (!wire::SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->epoll_events = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(conn->id, std::move(conn));
    connections_active_.fetch_add(1, std::memory_order_relaxed);
  }
}

void TcpServer::HandleReadable(Conn& conn) {
  if (conn.draining) return;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof buf);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      conn.in.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof buf) break;  // socket drained
      continue;
    }
    if (n == 0) {
      conn.draining = true;  // peer EOF; answer what was pipelined, then close
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn);
    return;
  }
  ParseFrames(conn);
  PumpConn(conn);
  FlushConn(conn);  // may close `conn`; nothing after this line
}

void TcpServer::ParseFrames(Conn& conn) {
  const int pipeline_cap = options_.max_pipelined_requests;
  while (conn.in.size() - conn.in_pos >= 4) {
    const auto* p =
        reinterpret_cast<const unsigned char*>(conn.in.data()) + conn.in_pos;
    const uint32_t length = static_cast<uint32_t>(p[0]) |
                            (static_cast<uint32_t>(p[1]) << 8) |
                            (static_cast<uint32_t>(p[2]) << 16) |
                            (static_cast<uint32_t>(p[3]) << 24);
    if (length > options_.max_frame_bytes) {
      // Same contract as the blocking path's ReadFrame: the stream cannot
      // be resynced, but the client gets the reason as an (in-order)
      // error frame before the connection closes.
      wire::Response response;
      response.status = util::InvalidArgumentError(
          "frame of " + std::to_string(length) + " bytes exceeds the " +
          std::to_string(options_.max_frame_bytes) + "-byte limit");
      conn.pending.push_back({wire::EncodeResponse(response), true});
      conn.draining = true;
      conn.close_after_flush = true;
      conn.in.clear();
      conn.in_pos = 0;
      return;
    }
    if (conn.in.size() - conn.in_pos - 4 < length) break;  // partial frame
    conn.in_pos += 4;
    std::string payload = conn.in.substr(conn.in_pos, length);
    conn.in_pos += length;
    if (pipeline_cap > 0 &&
        conn.pending.size() >= static_cast<size_t>(pipeline_cap)) {
      shed_pipeline_cap_.fetch_add(1, std::memory_order_relaxed);
      EmitShedEvent("pipeline_cap", pipeline_cap);
      conn.pending.push_back(
          {EncodeOverloadReject("connection pipeline full (" +
                                std::to_string(pipeline_cap) +
                                " frames queued)"),
           true});
    } else {
      conn.pending.push_back({std::move(payload), false});
    }
  }
  if (conn.in_pos == conn.in.size()) {
    conn.in.clear();
    conn.in_pos = 0;
  } else if (conn.in_pos > 4096) {
    conn.in.erase(0, conn.in_pos);
    conn.in_pos = 0;
  }
}

void TcpServer::PumpConn(Conn& conn) {
  while (!conn.busy && !conn.pending.empty()) {
    Conn::PendingFrame& front = conn.pending.front();
    if (front.rejected) {
      AppendFrame(conn.out, front.payload);
      conn.pending.pop_front();
      continue;
    }
    WorkItem item;
    item.conn_id = conn.id;
    item.payload = std::move(front.payload);
    item.enqueue_micros = NowMicros();
    conn.pending.pop_front();
    conn.busy = true;
    {
      std::lock_guard<std::mutex> lock(work_mutex_);
      work_.push_back(std::move(item));
    }
    work_cv_.notify_one();
  }
}

void TcpServer::HandleWritable(Conn& conn) { FlushConn(conn); }

void TcpServer::FlushConn(Conn& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_pos,
                              conn.out.size() - conn.out_pos);
    if (n > 0) {
      bytes_out_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      conn.out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(conn);
    return;
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
    if ((conn.close_after_flush || conn.draining) && !conn.busy &&
        conn.pending.empty()) {
      CloseConn(conn);
      return;
    }
  }
  UpdateInterest(conn);
}

void TcpServer::UpdateInterest(Conn& conn) {
  uint32_t want = 0;
  const size_t backlog = conn.out.size() - conn.out_pos;
  if (!conn.draining && backlog < kOutHighWater) want |= EPOLLIN;
  if (backlog > 0) want |= EPOLLOUT;
  if (want == conn.epoll_events) return;
  if ((conn.epoll_events & EPOLLIN) != 0 && (want & EPOLLIN) == 0 &&
      !conn.draining) {
    // Reads were on and are being turned off by the high-water check
    // alone: the peer is not draining its socket fast enough.
    backpressure_events_.fetch_add(1, std::memory_order_relaxed);
  }
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.epoll_events = want;
}

void TcpServer::CloseConn(Conn& conn) {
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
  conns_.erase(conn.id);  // destroys `conn`
}

void TcpServer::HandleCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    batch.swap(completions_);
  }
  const bool metrics = obs::MetricsEnabled();
  const int64_t now = NowMicros();
  for (Completion& done : batch) {
    const auto it = conns_.find(done.conn_id);
    if (it != conns_.end()) {
      Conn& conn = *it->second;
      conn.busy = false;
      if (metrics && done.handoff_micros > 0) {
        stage_hist_[static_cast<size_t>(obs::Stage::kWrite)].Record(
            static_cast<double>(now - done.handoff_micros));
      }
      conn.out.append(done.frame);
      if (done.shutdown) conn.close_after_flush = true;
      PumpConn(conn);
      FlushConn(conn);  // may close `conn`
    }
    if (done.shutdown) {
      // Signalled after the flush attempt so the draining daemon tears
      // the server down only once the response is (normally) on the wire.
      shutdown_requested_.store(true, std::memory_order_relaxed);
      NotifyShutdownRequested();
    }
  }
}

void TcpServer::EventWorkerLoop() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(work_mutex_);
      work_cv_.wait(lock, [&] {
        return event_stop_.load(std::memory_order_relaxed) || !work_.empty();
      });
      if (work_.empty()) return;  // stopping
      item = std::move(work_.front());
      work_.pop_front();
    }
    requests_.fetch_add(1, std::memory_order_relaxed);

    // The per-request stage trace: installed thread-locally so the
    // service and admission layers below record into it without plumbing.
    const bool metrics = obs::MetricsEnabled();
    obs::StageTrace trace;
    obs::StageTrace::Scope scope(metrics ? &trace : nullptr);
    const int64_t t_start = NowMicros();
    trace.Add(obs::Stage::kQueueWait,
              static_cast<double>(t_start - item.enqueue_micros));

    wire::Response response;
    bool shutdown = false;
    auto request = wire::DecodeRequest(item.payload);
    trace.Add(obs::Stage::kParse, static_cast<double>(NowMicros() - t_start));
    CountFrame(request);
    if (!request.ok()) {
      response.status = request.status();
    } else {
      trace.request_id = request->request_id;
      response = Dispatch(*request);
      // Only an *accepted* shutdown drains the server (a dataset-
      // qualified one was answered with an error frame and must not).
      shutdown = request->type == wire::MessageType::kShutdown &&
                 response.status.ok();
    }

    Completion done;
    done.conn_id = item.conn_id;
    const int64_t t_encode = NowMicros();
    AppendFrame(done.frame, wire::EncodeResponse(response));
    done.shutdown = shutdown;
    const int64_t t_done = NowMicros();
    trace.Add(obs::Stage::kEncode, static_cast<double>(t_done - t_encode));
    done.handoff_micros = t_done;

    if (metrics) {
      // kWrite is recorded by the I/O thread from handoff_micros; every
      // other stage the worker observed lands here.
      for (size_t i = 0; i < obs::kStageCount; ++i) {
        const double micros = trace.micros(static_cast<obs::Stage>(i));
        if (micros > 0) stage_hist_[i].Record(micros);
      }
    }
    MaybeLogSlowRequest(item, trace, t_done);

    {
      std::lock_guard<std::mutex> lock(completion_mutex_);
      completions_.push_back(std::move(done));
    }
    WakeIo();
  }
}

void TcpServer::CountFrame(const util::StatusOr<wire::Request>& request) {
  if (!request.ok()) {
    frames_other_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  switch (request->type) {
    case wire::MessageType::kEstimate:
      frames_estimate_.fetch_add(1, std::memory_order_relaxed);
      break;
    case wire::MessageType::kBatchEstimate:
      frames_batch_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      frames_other_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void TcpServer::MaybeLogSlowRequest(const WorkItem& item,
                                    const obs::StageTrace& trace,
                                    int64_t done_micros) {
  if (options_.slow_request_millis <= 0 || item.enqueue_micros <= 0) return;
  const int64_t total_micros = done_micros - item.enqueue_micros;
  if (total_micros <
      static_cast<int64_t>(options_.slow_request_millis) * 1000) {
    return;
  }
  // Rate-limit to ~slow_log_per_sec lines/second: a saturated server
  // producing only slow requests must not also saturate its own stderr
  // (or journal). <= 0 removes the limiter.
  if (options_.slow_log_per_sec > 0) {
    const int64_t min_gap_micros =
        static_cast<int64_t>(1e6 / options_.slow_log_per_sec);
    int64_t last = last_slow_log_micros_.load(std::memory_order_relaxed);
    if (done_micros - last < min_gap_micros ||
        !last_slow_log_micros_.compare_exchange_strong(
            last, done_micros, std::memory_order_relaxed)) {
      return;
    }
  }
  char rid[32];
  rid[0] = '\0';
  if (trace.request_id != 0) {
    std::snprintf(rid, sizeof rid, " rid=%016llx",
                  static_cast<unsigned long long>(trace.request_id));
  }
  std::fprintf(stderr,
               "[cegraph_serve] slow request: %.1f ms (conn %llu%s): %s\n",
               static_cast<double>(total_micros) / 1000.0,
               static_cast<unsigned long long>(item.conn_id), rid,
               trace.Format().c_str());
  if (options_.journal != nullptr) {
    obs::JournalEvent event;
    event.type = "slow_request";
    event.request_id = trace.request_id;
    event.num.emplace_back("total_millis",
                           static_cast<double>(total_micros) / 1000.0);
    event.num.emplace_back("conn", static_cast<double>(item.conn_id));
    for (size_t i = 0; i < obs::kStageCount; ++i) {
      const obs::Stage stage = static_cast<obs::Stage>(i);
      const double micros = trace.micros(stage);
      if (micros > 0) {
        event.num.emplace_back(std::string(obs::StageName(stage)) + "_micros",
                               micros);
      }
    }
    (void)options_.journal->Emit(std::move(event));
  }
}

void TcpServer::WakeIo() {
  const uint64_t one = 1;
  for (;;) {
    if (::write(wake_fd_, &one, sizeof one) >= 0 || errno != EINTR) return;
  }
}

// ---- thread-per-connection (kThreadPerConnection) ----

void TcpServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // EBADF/EINVAL after Stop closed the listener; EINTR restarts.
      if (errno == EINTR) continue;
      return;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    wire::SetTcpNoDelay(fd);
    bool reject = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      if (options_.max_queued_connections > 0 &&
          queue_.size() >=
              static_cast<size_t>(options_.max_queued_connections)) {
        reject = true;
      } else {
        queue_.push_back(fd);
      }
    }
    if (reject) {
      shed_queue_cap_.fetch_add(1, std::memory_order_relaxed);
      EmitShedEvent("queue_cap", options_.max_queued_connections);
      (void)wire::WriteFrame(
          fd, EncodeOverloadReject(
                  "server accept queue full (" +
                  std::to_string(options_.max_queued_connections) +
                  " connections waiting)"));
      ::close(fd);
      continue;
    }
    queue_cv_.notify_one();
  }
}

void TcpServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // queued fds are closed by Stop
      fd = queue_.front();
      queue_.pop_front();
      active_.insert(fd);
    }
    connections_active_.fetch_add(1, std::memory_order_relaxed);
    ServeConnection(fd);
    connections_active_.fetch_sub(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      active_.erase(fd);
    }
    ::close(fd);
  }
}

void TcpServer::ServeConnection(int fd) {
  for (;;) {
    auto payload = wire::ReadFrame(fd, options_.max_frame_bytes);
    if (!payload.ok()) {
      // Clean close, truncation or corruption. An implausible length
      // prefix is the one failure we can still answer — the stream is
      // unrecoverable (we cannot resync on frames), but the client gets
      // the reason as an error frame instead of a bare connection reset.
      if (payload.status().code() == util::StatusCode::kInvalidArgument) {
        wire::Response response;
        response.status = payload.status();
        (void)wire::WriteFrame(fd, wire::EncodeResponse(response));
      }
      return;
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    bytes_in_.fetch_add(payload->size() + 4, std::memory_order_relaxed);

    wire::Response response;
    auto request = wire::DecodeRequest(*payload);
    CountFrame(request);
    if (!request.ok()) {
      response.status = request.status();
    } else {
      response = Dispatch(*request);
    }
    const std::string encoded = wire::EncodeResponse(response);
    if (!wire::WriteFrame(fd, encoded).ok()) return;
    bytes_out_.fetch_add(encoded.size() + 4, std::memory_order_relaxed);

    // Only an *accepted* shutdown drains the server (a dataset-qualified
    // one was answered with an error frame above and must not).
    if (request.ok() && request->type == wire::MessageType::kShutdown &&
        response.status.ok()) {
      shutdown_requested_.store(true, std::memory_order_relaxed);
      NotifyShutdownRequested();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (stopping_) return;
    }
  }
}

wire::Response TcpServer::Dispatch(const wire::Request& request) {
  wire::Response response;
  response.type = request.type;
  // v5: a client-stamped request id is echoed verbatim on every
  // response, success or error, so the client can correlate pipelined
  // frames with the server's slow log and journal.
  response.request_id = request.request_id;

  // Routing: kShutdown is server-level by definition — a dataset-
  // qualified shutdown is rejected rather than silently draining every
  // tenant. kPing with a dataset validates the name (a cheap liveness +
  // routing probe) but needs no service; everything else runs against
  // the dataset the request names (empty = the default dataset). The
  // resolved name is echoed only to clients that asked explicitly, so
  // responses to v1 frames stay v1.
  EstimationService* service = nullptr;
  if (request.type == wire::MessageType::kShutdown) {
    if (!request.dataset.empty()) {
      response.status = util::InvalidArgumentError(
          "shutdown is server-wide and drains every dataset; omit the "
          "dataset field");
      response.dataset = request.dataset;
      return response;
    }
  } else if (request.type != wire::MessageType::kPing ||
             !request.dataset.empty()) {
    auto resolved = catalog_.Resolve(request.dataset);
    if (!resolved.ok()) {
      response.status = resolved.status();
      if (!request.dataset.empty()) response.dataset = request.dataset;
      return response;
    }
    service = *resolved;
    if (!request.dataset.empty()) response.dataset = request.dataset;
  }

  switch (request.type) {
    case wire::MessageType::kEstimate: {
      auto estimate = service->EstimateLine(request.text);
      if (!estimate.ok()) {
        response.status = estimate.status();
      } else {
        response.estimate = std::move(*estimate);
      }
      break;
    }
    case wire::MessageType::kBatchEstimate: {
      auto batch = service->EstimateBatch(request.lines);
      if (!batch.ok()) {
        response.status = batch.status();
      } else {
        response.batch = std::move(*batch);
      }
      break;
    }
    case wire::MessageType::kApplyDeltas: {
      // The feed travels inline in the delta text format; applying it is
      // submit + synchronous flush, so the response's epoch is the state
      // actually serving the deltas.
      std::istringstream feed{request.text};
      auto batch = dynamic::ReadDeltaText(feed);
      if (!batch.ok()) {
        response.status = batch.status();
        break;
      }
      if (auto submitted = service->SubmitDeltas(std::move(*batch));
          !submitted.ok()) {
        response.status = submitted;
        break;
      }
      auto swapped = service->FlushDeltas();
      if (!swapped.ok()) {
        response.status = swapped.status();
      } else {
        response.swap = *swapped;
      }
      break;
    }
    case wire::MessageType::kSwapSnapshot: {
      auto swapped = service->HotSwapSnapshot(request.text);
      if (!swapped.ok()) {
        response.status = swapped.status();
      } else {
        response.swap = *swapped;
      }
      break;
    }
    case wire::MessageType::kStats: {
      // v6: the reply is the Prometheus page of the routed dataset's
      // service plus this server — the same text /metrics renders for
      // them. The request text is ignored.
      obs::PromWriter writer(&response.text);
      service->WriteMetrics(writer);
      WriteMetrics(writer);
      break;
    }
    case wire::MessageType::kPing:
      response.text = request.text.empty() ? "pong" : request.text;
      break;
    case wire::MessageType::kShutdown:
      response.text = "draining";
      break;
  }
  return response;
}

void TcpServer::RegisterMetrics() {
  metrics_collector_id_ = obs::MetricsRegistry::Global().AddCollector(
      [this](obs::PromWriter& w) { WriteMetrics(w); });
}

void TcpServer::WriteMetrics(obs::PromWriter& w) const {
  const std::string label =
      "listen=\"" + options_.host + ":" + std::to_string(port_) + "\"";
  w.WriteCounter("cegraph_server_connections_accepted_total", label,
                 connections_.load(std::memory_order_relaxed));
  w.WriteGauge("cegraph_server_connections_active", label,
               static_cast<double>(
                   connections_active_.load(std::memory_order_relaxed)));
  w.WriteCounter("cegraph_server_requests_total", label,
                 requests_.load(std::memory_order_relaxed));
  w.WriteCounter("cegraph_server_shed_total",
                 label + ",reason=\"connection_cap\"", shed_connection_cap());
  w.WriteCounter("cegraph_server_shed_total",
                 label + ",reason=\"pipeline_cap\"", shed_pipeline_cap());
  w.WriteCounter("cegraph_server_shed_total", label + ",reason=\"queue_cap\"",
                 shed_queue_cap());
  w.WriteCounter("cegraph_server_backpressure_events_total", label,
                 backpressure_events());
  w.WriteCounter("cegraph_server_bytes_in_total", label, bytes_in());
  w.WriteCounter("cegraph_server_bytes_out_total", label, bytes_out());
  w.WriteCounter("cegraph_server_frames_total", label + ",type=\"estimate\"",
                 frames_estimate_.load(std::memory_order_relaxed));
  w.WriteCounter("cegraph_server_frames_total", label + ",type=\"batch\"",
                 frames_batch_.load(std::memory_order_relaxed));
  w.WriteCounter("cegraph_server_frames_total", label + ",type=\"other\"",
                 frames_other_.load(std::memory_order_relaxed));
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(work_mutex_);
    depth = work_.size();
  }
  w.WriteGauge("cegraph_server_worker_queue_depth", label,
               static_cast<double>(depth));
  for (size_t i = 0; i < obs::kStageCount; ++i) {
    w.WriteHistogram("cegraph_server_stage_micros",
                     label + ",stage=\"" +
                         obs::StageName(static_cast<obs::Stage>(i)) + "\"",
                     stage_hist_[i].Snapshot());
  }
}

}  // namespace cegraph::service
