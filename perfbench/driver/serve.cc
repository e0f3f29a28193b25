// serve_mixed and serve_churn, end to end: cegraph_serve over loopback,
// driven by a closed loop of connections from this one process.
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <random>
#include <thread>

#include "engine/engine.h"
#include "harness/qerror.h"
#include "service/request.h"
#include "service/wire.h"
#include "workloads.h"

namespace perfbench {

using namespace cegraph;
using service::wire::MessageType;
using service::wire::Request;
using service::wire::Response;

namespace {

/// Estimate frames each read connection keeps in flight. The server
/// answers a connection's frames one at a time, in order, so a second
/// frame adds no parallelism; it keeps the worker busy across the client's
/// turn-around. With one frame in flight, every request waits on idle
/// vCPUs waking up, which on a shared VM swung throughput by 2x between
/// identical runs; with two, runs agree within a few percent. A frame's
/// latency is counted from when it reached the head of its connection's
/// pipeline (the later of its send and its predecessor's answer), so it
/// is the time the connection waited for this answer, not for the one
/// ahead of it.
constexpr int kFramesInFlight = 2;
constexpr double kScrapeIntervalSeconds = 1.0;

/// An owned client socket.
class Connection {
 public:
  static util::StatusOr<std::unique_ptr<Connection>> Dial(int port) {
    auto fd = service::wire::DialTcp("127.0.0.1", port);
    if (!fd.ok()) return fd.status();
    return std::unique_ptr<Connection>(new Connection(*fd));
  }
  ~Connection() { close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Pipelined use: Send frames, then Receive their answers in order.
  /// A failed write surfaces as the failed Receive of its answer.
  void Send(const Request& request) const {
    (void)service::wire::WriteFrame(fd_,
                                    service::wire::EncodeRequest(request));
  }
  Response Receive() const {
    Response response;
    auto frame = service::wire::ReadFrame(fd_);
    if (!frame.ok()) {
      response.status = frame.status();
      return response;
    }
    auto decoded = service::wire::DecodeResponse(*frame);
    if (!decoded.ok()) {
      response.status = decoded.status();
      return response;
    }
    return std::move(*decoded);
  }

  /// One round trip; a transport failure comes back as the status.
  Response Call(const Request& request) const {
    auto response = service::wire::RoundTrip(fd_, request);
    if (!response.ok()) {
      Response failed;
      failed.status = response.status();
      return failed;
    }
    return std::move(*response);
  }

 private:
  explicit Connection(int fd) : fd_(fd) {}
  int fd_;
};

Request Frame(MessageType type, std::string text) {
  Request request;
  request.type = type;
  request.text = std::move(text);
  return request;
}

/// The estimates an in-process engine over the same snapshot produces for
/// one line: what every served response must match bit for bit.
struct Expected {
  std::vector<bool> ok;
  std::vector<double> estimate;
};

/// Reference estimates for every served line, and the median max-hop-max
/// q-error over the accuracy pool, from one in-process engine.
struct Reference {
  std::vector<Expected> lines;
  double pool_qerror = 0;
};

util::StatusOr<Reference> ReferenceEstimates(const WorkloadConfig& config,
                                             const Inputs& inputs) {
  auto g = MakeGraph();
  if (!g.ok()) return g.status();
  engine::EstimationEngine engine(*g);
  if (auto loaded = engine.context().LoadSnapshotMapped(inputs.snapshot);
      !loaded.ok()) {
    return loaded;
  }
  auto suite = engine.Estimators(config.suite);
  if (!suite.ok()) return suite.status();
  Reference out;
  for (const std::string& line : inputs.serve_lines) {
    auto request = service::ParseRequestLine(line);
    if (!request.ok()) return request.status();
    Expected expected;
    for (const CardinalityEstimator* estimator : *suite) {
      auto estimate = estimator->Estimate(request->query);
      expected.ok.push_back(estimate.ok());
      expected.estimate.push_back(estimate.ok() ? *estimate : 0);
    }
    out.lines.push_back(std::move(expected));
  }
  auto max_hop_max = engine.Estimator("max-hop-max");
  if (!max_hop_max.ok()) return max_hop_max.status();
  auto qerror = MedianQError(**max_hop_max, inputs.serve_pool);
  if (!qerror.ok()) return qerror.status();
  out.pool_qerror = *qerror;
  return out;
}

bool MatchesReference(const service::EstimateResponse& got,
                      const Expected& want) {
  if (got.results.size() != want.ok.size()) return false;
  for (size_t i = 0; i < want.ok.size(); ++i) {
    if (got.results[i].ok != want.ok[i]) return false;
    if (want.ok[i] && std::bit_cast<uint64_t>(got.results[i].estimate) !=
                          std::bit_cast<uint64_t>(want.estimate[i])) {
      return false;
    }
  }
  return true;
}

/// Per-connection tallies of the closed loop.
struct LoopStats {
  std::vector<double> latency_ms;
  std::vector<double> done_at;  ///< completion, seconds since start
  std::vector<double> qerror;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double finished_at = 0;
};

/// Checks one estimate response; false counts as a failed operation.
/// `last_epoch` enforces that epochs never go backwards on a connection.
bool CheckEstimate(const Response& response, const Expected* expected,
                   uint64_t* last_epoch) {
  if (!response.status.ok()) return false;
  if (response.estimate.epoch < *last_epoch) return false;
  *last_epoch = response.estimate.epoch;
  return expected == nullptr || MatchesReference(response.estimate, *expected);
}

double MaxHopMaxQError(const service::EstimateResponse& response) {
  for (const service::EstimatorResult& result : response.results) {
    if (result.name == "max-hop-max" && result.ok &&
        harness::UsableQError(result.qerror)) {
      return result.qerror;
    }
  }
  return -1;
}

/// One write: a delta batch, then an estimate that must be served at the
/// new epoch. Returns the round trip in ms, or a negative value on failure.
double Write(const Connection& conn, const std::string& deltas,
             const std::string& probe_line, uint64_t* last_epoch) {
  const double t0 = NowSeconds();
  const Response swap =
      conn.Call(Frame(MessageType::kApplyDeltas, deltas));
  if (!swap.status.ok() || swap.swap.epoch <= *last_epoch) return -1;
  *last_epoch = swap.swap.epoch;
  const Response read = conn.Call(Frame(MessageType::kEstimate, probe_line));
  const double t1 = NowSeconds();
  if (!read.status.ok() || read.estimate.epoch < swap.swap.epoch) return -1;
  return (t1 - t0) * 1e3;
}

}  // namespace

int RunServe(const Flags& flags, const WorkloadConfig& config,
             const Inputs& inputs) {
  const Sizing sizing = SizingFor(flags);
  const int connections = static_cast<int>(std::min<unsigned>(
      kClientConnections, std::max(1u, std::thread::hardware_concurrency())));
  const int readers = config.churn ? std::max(1, connections - 1) : connections;
  PrintEnvironment(flags, connections, connections);
  const std::vector<std::string>& lines = inputs.serve_lines;
  Result result;

  // Reference estimates (serve_mixed) are computed before any timing.
  std::vector<Expected> reference;
  double pool_qerror = 0;
  if (!config.feedback && !config.churn) {
    auto computed = ReferenceEstimates(config, inputs);
    if (!computed.ok()) {
      std::fprintf(stderr, "reference: %s\n",
                   computed.status().ToString().c_str());
      return 1;
    }
    reference = std::move(computed->lines);
    pool_qerror = computed->pool_qerror;
  }
  auto expected_for = [&](size_t i) -> const Expected* {
    return reference.empty() ? nullptr : &reference[i];
  };

  // Set-up: launch to first successful estimate, several times; the last
  // daemon stays up for the load.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  const std::vector<std::string> args = DaemonArgs(config, inputs);
  for (int launch = 0; launch < sizing.setup_launches; ++launch) {
    if (daemon != nullptr) {
      result.Attempt();
      if (!daemon->Stop().ok()) result.Fail();
    }
    const double t0 = NowSeconds();
    auto launched = Daemon::Launch(flags.serve_bin, args);
    if (!launched.ok()) {
      std::fprintf(stderr, "launch: %s\n",
                   launched.status().ToString().c_str());
      return 1;
    }
    daemon = std::move(*launched);
    auto conn = Connection::Dial(daemon->port());
    if (!conn.ok()) {
      std::fprintf(stderr, "dial: %s\n", conn.status().ToString().c_str());
      return 1;
    }
    const Response first =
        (*conn)->Call(Frame(MessageType::kEstimate, lines[0]));
    setup_s.push_back(NowSeconds() - t0);
    uint64_t epoch = 0;
    result.Attempt();
    if (!CheckEstimate(first, expected_for(0), &epoch)) result.Fail();
  }

  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < connections; ++c) {
    auto conn = Connection::Dial(daemon->port());
    if (!conn.ok()) {
      std::fprintf(stderr, "dial: %s\n", conn.status().ToString().c_str());
      return 1;
    }
    conns.push_back(std::move(*conn));
  }

  // Untimed warm-up: every line once, spread over the read connections.
  {
    std::vector<LoopStats> warm(readers);
    std::vector<std::thread> threads;
    for (int t = 0; t < readers; ++t) {
      threads.emplace_back([&, t] {
        uint64_t epoch = 0;
        for (size_t i = t; i < lines.size(); i += readers) {
          warm[t].attempted++;
          const Response r =
              conns[t]->Call(Frame(MessageType::kEstimate, lines[i]));
          if (!CheckEstimate(r, expected_for(i), &epoch)) warm[t].failed++;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const LoopStats& s : warm) {
      result.Attempt(s.attempted);
      result.Fail(s.failed);
    }
  }

  // The timed closed loop.
  std::vector<LoopStats> loops(readers);
  LoopStats writes;
  std::vector<double> scrape_ms;
  const double start = NowSeconds();
  const double deadline = start + flags.seconds;
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < readers; ++t) {
      threads.emplace_back([&, t] {
        std::vector<size_t> order(lines.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::mt19937_64 rng(flags.seed * 7919 + static_cast<uint64_t>(t));
        std::shuffle(order.begin(), order.end(), rng);
        LoopStats& s = loops[t];
        uint64_t epoch = 0;
        // (line, send time) of the frames in flight, oldest first.
        std::deque<std::pair<size_t, double>> in_flight;
        size_t sent = 0;
        auto send = [&] {
          const size_t i = order[sent++ % order.size()];
          in_flight.emplace_back(i, NowSeconds());
          conns[t]->Send(Frame(MessageType::kEstimate, lines[i]));
        };
        for (int d = 0; d < kFramesInFlight; ++d) send();
        double previous_answer = 0;
        while (!in_flight.empty()) {
          const Response r = conns[t]->Receive();
          const double t1 = NowSeconds();
          const auto [i, sent_at] = in_flight.front();
          in_flight.pop_front();
          const double t0 = std::max(sent_at, previous_answer);
          previous_answer = t1;
          // After a failed frame the connection only drains.
          if (t1 < deadline && r.status.ok()) send();
          s.attempted++;
          if (!CheckEstimate(r, expected_for(i), &epoch)) {
            s.failed++;
            continue;
          }
          s.latency_ms.push_back((t1 - t0) * 1e3);
          s.done_at.push_back(t1 - start);
          if (const double q = MaxHopMaxQError(r.estimate); q > 0) {
            s.qerror.push_back(q);
          }
        }
        s.finished_at = NowSeconds();
      });
    }
    if (config.churn) {
      // One writer: a fresh delta batch every interval, plus a stats
      // scrape once a second, on the remaining connection.
      threads.emplace_back([&] {
        const Connection& conn = *conns[readers];
        uint64_t epoch = 0;
        double next_scrape = start + kScrapeIntervalSeconds;
        for (size_t k = 0; k < inputs.deltas.size(); ++k) {
          const double due = start + kChurnIntervalSeconds *
                                         static_cast<double>(k + 1);
          if (due >= deadline) break;
          while (NowSeconds() < due) {
            usleep(static_cast<useconds_t>(
                std::max(1.0, (due - NowSeconds()) * 1e6)));
          }
          writes.attempted++;
          const double ms =
              Write(conn, inputs.deltas[k], lines[k % lines.size()], &epoch);
          if (ms < 0) {
            writes.failed++;
          } else {
            writes.latency_ms.push_back(ms);
          }
          if (NowSeconds() >= next_scrape) {
            next_scrape += kScrapeIntervalSeconds;
            const double t0 = NowSeconds();
            const Response stats = conn.Call(
                Frame(MessageType::kStats, std::string(
                                               service::wire::kStatsV5Token)));
            writes.attempted++;
            if (!stats.status.ok()) writes.failed++;
            scrape_ms.push_back((NowSeconds() - t0) * 1e3);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  double finished = start;
  std::vector<double> latency_ms, done_at, qerror;
  for (const LoopStats& s : loops) {
    finished = std::max(finished, s.finished_at);
    latency_ms.insert(latency_ms.end(), s.latency_ms.begin(),
                      s.latency_ms.end());
    done_at.insert(done_at.end(), s.done_at.begin(), s.done_at.end());
    qerror.insert(qerror.end(), s.qerror.begin(), s.qerror.end());
    result.Attempt(s.attempted);
    result.Fail(s.failed);
  }
  const double peak_rss_mb = PeakRssMb(daemon->pid());

  // serve_mixed has no writes under load; its write latency is probed
  // after the timed loop, on the same daemon.
  if (!config.churn) {
    uint64_t epoch = 0;
    for (int k = 0; k < sizing.write_probes; ++k) {
      writes.attempted++;
      const double ms = Write(*conns[0], inputs.deltas[k],
                              lines[k % lines.size()], &epoch);
      if (ms < 0) {
        writes.failed++;
      } else {
        writes.latency_ms.push_back(ms);
      }
    }
  }
  result.Attempt(writes.attempted);
  result.Fail(writes.failed);
  conns.clear();
  result.Attempt();
  if (!daemon->Stop().ok()) result.Fail();

  const WindowStats windows = Windowed(done_at, latency_ms, flags.seconds);
  std::printf("samples: %zu reads over %d connections in %.3f s (%zu "
              "windows of %.2f s, at least %zu reads each), %zu writes, %zu "
              "stats scrapes (median %.3f ms), %zu set-up launches\n",
              latency_ms.size(), readers, finished - start, windows.count,
              windows.seconds, windows.min_samples,
              writes.latency_ms.size(), scrape_ms.size(),
              Quantile(scrape_ms, 0.5), setup_s.size());
  result.Add("setup_s", Quantile(setup_s, 0.5), "s");
  result.Add("throughput_ops_s", windows.throughput, "1/s");
  result.Add("latency_p50_ms", windows.p50, "ms");
  result.Add("latency_p99_ms", windows.p99, "ms");
  result.Add("success_rate",
             1.0 - static_cast<double>(result.failed()) /
                       static_cast<double>(result.attempted()),
             "ratio");
  result.Add("peak_rss_mb", peak_rss_mb, "MiB");
  // serve_mixed serves bit-identically to the reference engine (checked on
  // every response), so its q-error is read over the larger pool there;
  // serve_churn serves corrected estimates, read from the responses.
  result.Add("qerror_p50", reference.empty() ? Quantile(qerror, 0.5)
                                             : pool_qerror,
             "ratio");
  result.Add("write_p50_ms", Quantile(writes.latency_ms, 0.5), "ms");
  result.Print();
  return 0;
}

}  // namespace perfbench
