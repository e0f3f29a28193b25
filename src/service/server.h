#ifndef CEGRAPH_SERVICE_SERVER_H_
#define CEGRAPH_SERVICE_SERVER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/stage_trace.h"
#include "service/catalog.h"
#include "service/service.h"
#include "service/wire.h"
#include "util/status.h"

namespace cegraph::service {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral (read the actual one from port())
  /// Worker threads decoding, serving and encoding requests. Estimation
  /// itself runs on the worker; more workers = more concurrent estimation
  /// (the service's serving states are wait-free for readers, so workers
  /// scale). Under kEventLoop this pool is the *only* per-request
  /// concurrency — connections cost file descriptors, not threads.
  int workers = 4;
  int backlog = 128;
  uint32_t max_frame_bytes = wire::kMaxFrameBytes;

  /// How connections are multiplexed onto the worker pool.
  enum class Dispatch {
    /// One epoll I/O thread owns every connection (non-blocking sockets,
    /// incremental frame reassembly) and hands complete request frames to
    /// the worker pool. Thousands of mostly-idle connections cost fds,
    /// not threads. The default.
    kEventLoop,
    /// The original blocking model: an acceptor queues connections and
    /// each worker serves one connection at a time, frame by blocking
    /// frame. Kept as the bench baseline the event loop is gated against.
    kThreadPerConnection,
  };
  Dispatch dispatch = Dispatch::kEventLoop;

  /// kEventLoop: cap on concurrently open connections. An accept beyond
  /// the cap is answered with a retryable RESOURCE_EXHAUSTED error frame
  /// and closed. <= 0 = unbounded.
  int max_connections = 10000;
  /// kEventLoop: per-connection cap on pipelined frames that are decoded
  /// but not yet served (one frame per connection is in the workers at a
  /// time; the rest wait here). An overflowing frame is answered — in
  /// pipeline order — with a retryable RESOURCE_EXHAUSTED error frame
  /// instead of buffering without bound. <= 0 = unbounded.
  int max_pipelined_requests = 128;
  /// kThreadPerConnection: cap on accepted connections waiting for a free
  /// worker (this deque was previously unbounded). Beyond the cap the
  /// connection is answered with a retryable RESOURCE_EXHAUSTED error
  /// frame and closed. <= 0 = unbounded.
  int max_queued_connections = 1024;

  /// kEventLoop: requests slower than this (queue wait through handoff,
  /// as seen by the worker) are logged to stderr with their per-stage
  /// breakdown and request id, rate-limited by slow_log_per_sec so a
  /// saturated server cannot flood its own log. <= 0 disables the slow
  /// log.
  int slow_request_millis = 0;
  /// Cap on slow-request log lines (and journal "slow_request" events)
  /// per second. <= 0 removes the limiter entirely — every slow request
  /// is logged.
  double slow_log_per_sec = 1.0;
  /// Optional structured event journal (borrowed; must outlive the
  /// server). The server emits "shed" events at every overload-rejection
  /// site and "slow_request" events alongside the stderr slow log.
  obs::Journal* journal = nullptr;
};

/// The request dispatcher of `cegraph_serve`, reusable in-process
/// (loopback benches, tests). Under the default kEventLoop mode a single
/// I/O thread multiplexes every connection through epoll — non-blocking
/// sockets, per-connection read/write buffers reassembling length-
/// prefixed frames incrementally — and hands complete requests to a
/// fixed worker pool; responses on one connection are delivered strictly
/// in request order, so clients may pipeline. Requests are routed
/// through a DatasetCatalog by their wire `dataset` field (empty = the
/// catalog's default dataset), so one server front-ends many independent
/// EstimationServices. A kShutdown request (or Stop()) drains and joins
/// everything; the catalog/services outlive the server and may be shared
/// by several servers.
class TcpServer {
 public:
  /// Single-dataset convenience: wraps `service` into an internal
  /// one-entry catalog under the name "default".
  TcpServer(EstimationService& service, ServerOptions options = {});
  /// Multi-dataset server over an externally assembled catalog (borrowed;
  /// must outlive the server and not be mutated while serving).
  TcpServer(DatasetCatalog& catalog, ServerOptions options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens and spawns the I/O + worker threads. The bound port
  /// is available from port() once Start returns OK.
  util::Status Start();

  int port() const { return port_; }

  /// Closes the listener, tears down connections, joins all threads.
  /// Idempotent; called by the destructor.
  void Stop();

  /// Blocks until Stop() is called from elsewhere or a client sent
  /// kShutdown. Returns true when the cause was a shutdown request.
  bool WaitUntilShutdown();

  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }
  uint64_t connections_accepted() const {
    return connections_.load(std::memory_order_relaxed);
  }
  uint64_t requests_handled() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Connections or pipelined frames refused with a retryable error frame
  /// — the sum of the three per-bound shed counters below.
  uint64_t overload_rejections() const {
    return shed_connection_cap() + shed_pipeline_cap() + shed_queue_cap();
  }
  /// Accepts refused at the kEventLoop --max-connections bound.
  uint64_t shed_connection_cap() const {
    return shed_connection_cap_.load(std::memory_order_relaxed);
  }
  /// Pipelined frames refused at the per-connection pipeline depth.
  uint64_t shed_pipeline_cap() const {
    return shed_pipeline_cap_.load(std::memory_order_relaxed);
  }
  /// Legacy accept-queue refusals (kThreadPerConnection only).
  uint64_t shed_queue_cap() const {
    return shed_queue_cap_.load(std::memory_order_relaxed);
  }
  /// Times a connection's out-buffer crossed the high-water mark and the
  /// I/O thread stopped reading it (backpressure engaged).
  uint64_t backpressure_events() const {
    return backpressure_events_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_in() const {
    return bytes_in_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_out() const {
    return bytes_out_.load(std::memory_order_relaxed);
  }

  /// Renders the server's series (labeled `listen="host:port"`): the
  /// registry collector's body, and the server half of every kStats
  /// reply (the routed dataset's service renders the other half).
  void WriteMetrics(obs::PromWriter& writer) const;

 private:
  // ---- shared ----
  wire::Response Dispatch(const wire::Request& request);
  /// Counts one decoded request frame by type.
  void CountFrame(const util::StatusOr<wire::Request>& request);
  /// Registers the server's Prometheus collector (WriteMetrics).
  void RegisterMetrics();
  void NotifyShutdownRequested();
  /// The pre-encoded retryable refusal payload for overload rejections.
  std::string EncodeOverloadReject(const std::string& what);
  /// Journals one overload rejection (no-op without a journal).
  void EmitShedEvent(const char* reason, int cap);

  // ---- event loop (kEventLoop) ----
  /// One connection's multiplexing state. Owned and mutated by the I/O
  /// thread only; workers refer to connections by id, never by pointer.
  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    uint32_t epoll_events = 0;  ///< interest set currently registered

    std::string in;      ///< raw bytes read, not yet consumed
    size_t in_pos = 0;   ///< parse offset into `in`

    /// A decoded-but-unserved pipelined frame. `rejected` entries carry a
    /// pre-encoded response payload (pipeline-cap refusals, protocol
    /// errors) that is emitted when the entry reaches the front — which
    /// is what keeps responses in request order.
    struct PendingFrame {
      std::string payload;
      bool rejected = false;
    };
    std::deque<PendingFrame> pending;
    bool busy = false;  ///< one frame from this conn is in the workers

    std::string out;     ///< encoded frames awaiting the socket
    size_t out_pos = 0;  ///< flush offset into `out`

    bool draining = false;          ///< peer EOF / protocol error: no more reads
    bool close_after_flush = false; ///< close once pending + out are empty
  };

  /// A complete request frame travelling I/O thread -> worker.
  struct WorkItem {
    uint64_t conn_id = 0;
    std::string payload;
    int64_t enqueue_micros = 0;  ///< queued-for-workers timestamp
  };
  /// An encoded response frame travelling worker -> I/O thread.
  struct Completion {
    uint64_t conn_id = 0;
    std::string frame;  ///< length prefix + payload, ready for the socket
    bool shutdown = false;
    int64_t handoff_micros = 0;  ///< worker pushed it; kWrite = until queued
  };

  /// Emits the rate-limited slow-request stderr line when the request
  /// exceeded options_.slow_request_millis.
  void MaybeLogSlowRequest(const WorkItem& item, const obs::StageTrace& trace,
                           int64_t done_micros);

  void IoLoop();
  void EventWorkerLoop();
  void HandleAccept();
  void HandleReadable(Conn& conn);
  void HandleWritable(Conn& conn);
  void ParseFrames(Conn& conn);
  /// Emits front-of-queue rejected entries and dispatches the next real
  /// frame when the connection is idle.
  void PumpConn(Conn& conn);
  void FlushConn(Conn& conn);
  void UpdateInterest(Conn& conn);
  void CloseConn(Conn& conn);
  void HandleCompletions();
  void WakeIo();

  // ---- thread-per-connection (kThreadPerConnection) ----
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);

  /// Backing store for the single-service constructor; unused otherwise.
  DatasetCatalog single_;
  DatasetCatalog& catalog_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int port_ = 0;

  // Event-loop plumbing.
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: workers (and Stop) kick epoll_wait
  std::thread io_;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;  // I/O thread only
  /// epoll user-data tags 0/1 mark the listener / wake eventfd.
  uint64_t next_conn_id_ = 2;
  std::atomic<bool> event_stop_{false};

  mutable std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::deque<WorkItem> work_;

  std::mutex completion_mutex_;
  std::vector<Completion> completions_;

  // Legacy plumbing (also reused for started/stopping bookkeeping).
  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;
  /// Connections a legacy worker is currently serving; Stop() shuts them
  /// down so reads blocked mid-connection unblock with EOF.
  std::unordered_set<int> active_;
  bool stopping_ = false;
  bool started_ = false;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  std::atomic<bool> stopped_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};

  // Observability counters (all relaxed; see the accessor docs).
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> shed_connection_cap_{0};
  std::atomic<uint64_t> shed_pipeline_cap_{0};
  std::atomic<uint64_t> shed_queue_cap_{0};
  std::atomic<uint64_t> backpressure_events_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> frames_estimate_{0};
  std::atomic<uint64_t> frames_batch_{0};
  std::atomic<uint64_t> frames_other_{0};
  /// Per-stage latency distributions across every event-loop request
  /// (indexed by obs::Stage). Recorded only when obs::MetricsEnabled().
  std::array<obs::Histogram, obs::kStageCount> stage_hist_;
  /// Slow-log rate limiting: micros timestamp of the last emitted line.
  std::atomic<int64_t> last_slow_log_micros_{0};
  /// Collector handle in MetricsRegistry::Global() (0 = not registered).
  uint64_t metrics_collector_id_ = 0;
};

}  // namespace cegraph::service

#endif  // CEGRAPH_SERVICE_SERVER_H_
