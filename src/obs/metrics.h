#pragma once
// Lock-free observability primitives for the serving stack.
//
// Everything on the record path is a relaxed atomic operation on
// pre-registered storage: counters and gauges are single fetch_add's,
// histograms are one bucket increment plus a count/sum update, and none
// of them allocate, lock, or touch shared mutable state beyond their own
// cache lines. Aggregation (snapshots, quantiles, Prometheus rendering)
// happens on the scrape/stats path, which may be arbitrarily slow.
//
// Readout consistency is deliberately loose: a snapshot taken while
// writers are recording may see a count that is one ahead of the bucket
// sums (torn between the two relaxed stores). That is the standard
// monitoring trade-off — the alternative is a lock on every estimate.
//
// The whole layer can be disabled at runtime (CEGRAPH_METRICS=off, or
// SetMetricsEnabled(false)); the hot-path check is one relaxed bool load.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/status.h"

namespace cegraph::obs {

/// Process-wide instrumentation switch. Defaults to on; the environment
/// variable CEGRAPH_METRICS set to "off", "0" or "false" disables it, as
/// does SetMetricsEnabled(false) (used by the overhead bench). Counters
/// that double as serving accounting (served/rejected/...) stay live
/// regardless; only the histogram/stage-trace layer honors the switch.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// A monotonically increasing relaxed-atomic counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A settable instantaneous value (queue depths, in-flight weight).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time quantile readout of a histogram.
struct QuantileSummary {
  uint64_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double max = 0;
};

/// Number of log-spaced buckets in every Histogram. Bucket 0 covers
/// [0, 1); bucket i >= 1 covers [2^((i-1)/4), 2^(i/4)) — four buckets
/// per octave, ~19% relative resolution, spanning values up to
/// 2^((kHistogramBuckets-2)/4) ~ 3e9 before the overflow bucket.
inline constexpr size_t kHistogramBuckets = 128;

/// A plain (non-atomic) copy of a histogram's state: mergeable,
/// quantile-readable, safe to ship across threads by value.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0;
  double max = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  /// Upper bound of bucket i (the `le` edge): 1 for bucket 0, 2^(i/4)
  /// for the rest; +inf for the last (overflow) bucket.
  static double BucketUpperBound(size_t i);

  /// The value at or below which a fraction p in (0, 1] of recorded
  /// samples fall, resolved to the containing bucket's upper bound and
  /// clamped to the observed max (exact for the overflow bucket).
  /// Returns 0 when the histogram is empty.
  double Quantile(double p) const;

  QuantileSummary Summary() const;

  /// Accumulates `other` into this snapshot (counts, sum, max).
  void Merge(const HistogramSnapshot& other);
};

/// A lock-free log-bucketed histogram. Record() is three relaxed atomic
/// RMWs (bucket, count, sum) plus a CAS loop for max; no allocation.
/// Negative and non-finite values are dropped (a NaN latency is a bug
/// upstream, not a sample).
class Histogram {
 public:
  void Record(double value);
  HistogramSnapshot Snapshot() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Zeroes every field (relaxed stores). Only sound when recorders are
  /// excluded by protocol — the windowed ring's rotation marker does
  /// exactly that; do not call it on a live shared histogram.
  void Reset();

  /// The bucket a value lands in; exposed for the boundary tests.
  static size_t BucketIndex(double value);

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> max_{0};
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
};

/// Appends metric series in the Prometheus text exposition format.
/// Emits one `# TYPE` header per metric name per render (shared across
/// collectors), cumulative `_bucket{le=...}` series plus `_sum`/`_count`
/// for histograms, and a `_max` series carrying the observed maximum so
/// a reader can rebuild the exact HistogramSnapshot (and so the exact
/// Summary()). `labels` is the inner label list without braces, e.g.
/// `dataset="alpha",estimator="molp"`; pass "" for none. Label values
/// taken from untrusted input go through PromLabelEscape.
class PromWriter {
 public:
  explicit PromWriter(std::string* out) : out_(out) {}
  void WriteCounter(const std::string& name, const std::string& labels,
                    uint64_t value);
  void WriteGauge(const std::string& name, const std::string& labels,
                  double value);
  void WriteHistogram(const std::string& name, const std::string& labels,
                      const HistogramSnapshot& snapshot);

 private:
  void TypeHeader(const std::string& name, const char* type);
  std::string* out_;
  std::vector<std::string> typed_;
};

/// Escapes a label value for the text format: backslash, double quote and
/// newline. A hostile workload line must not be able to break the page.
std::string PromLabelEscape(std::string_view value);

/// One sample line of a parsed Prometheus text page.
struct PromSample {
  std::string name;
  /// Label pairs in written order, values unescaped.
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0;

  /// The value of label `key`; empty when the sample has no such label.
  std::string_view Label(std::string_view key) const;
};

/// Label constraints of a PromPage lookup: a sample matches when it
/// carries every listed pair (other labels are ignored; an absent label
/// reads as empty, as in Prometheus).
using PromMatch = std::vector<std::pair<std::string_view, std::string_view>>;

/// A validated Prometheus text page (see ParsePrometheusText).
struct PromPage {
  std::vector<PromSample> samples;

  /// Every sample named `name` that matches `match`, in page order.
  std::vector<const PromSample*> Select(std::string_view name,
                                        const PromMatch& match = {}) const;
  /// The first such sample, or nullptr.
  const PromSample* Find(std::string_view name,
                         const PromMatch& match = {}) const;
  /// The first such sample's value, or `fallback` when none matches.
  double Value(std::string_view name, const PromMatch& match = {},
               double fallback = 0) const;
  /// Rebuilds the histogram `name` of the first series matching `match`
  /// from its `_bucket`, `_sum`, `_count` and `_max` samples — exactly
  /// the snapshot PromWriter::WriteHistogram rendered. NotFound when no
  /// `_count` sample matches; InvalidArgument when the series is not one
  /// this build's histograms can produce (unknown `le` edge, decreasing
  /// cumulative counts, missing `+Inf`/`_sum`/`_max`).
  util::StatusOr<HistogramSnapshot> ReadHistogram(
      std::string_view name, const PromMatch& match = {}) const;
};

/// Parses a text exposition page, treating it as untrusted input: every
/// line must be blank, a comment, a well-formed `# TYPE` line (one per
/// family) or a sample `name{label="value",...} value [timestamp]` with
/// valid metric and label names, only the `\\`, `\"` and `\n` escapes,
/// no repeated label and no repeated series. Anything else is
/// InvalidArgument naming the line. Never reads past `text`.
util::StatusOr<PromPage> ParsePrometheusText(std::string_view text);

/// The process-wide registry. Components register a collector callback
/// at construction (cheap: one mutex acquisition, never on the request
/// path) and remove it in their destructor; a scrape renders every live
/// collector into one text page. Collectors must tolerate being called
/// from an arbitrary thread at any time between Add and Remove.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  using Collector = std::function<void(PromWriter&)>;

  /// Registers `collector`; returns a handle for RemoveCollector.
  uint64_t AddCollector(Collector collector);
  void RemoveCollector(uint64_t id);

  /// Renders every registered collector as one Prometheus text page.
  std::string RenderPrometheus() const;

  size_t collector_count() const;

 private:
  mutable std::mutex mutex_;
  uint64_t next_id_ = 1;
  std::vector<std::pair<uint64_t, Collector>> collectors_;
};

/// A deliberately tiny HTTP/1.0 exporter: one blocking accept loop on a
/// side thread (no keep-alive, no TLS), routing exactly two paths —
/// `/metrics` answers with the registry's text page and `/healthz` with
/// a liveness body (200, text/plain, Connection: close); anything else
/// is a 404 with a body naming the two. It exists so a scraper, a
/// load-balancer check or `curl` can reach the process without linking
/// anything.
class MetricsHttpServer {
 public:
  MetricsHttpServer() = default;
  ~MetricsHttpServer() { Stop(); }
  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Supplies the `/healthz` body (e.g. "ok\nepoch 3\nversion 7\n").
  /// Called on the serve thread per request; without one the body is
  /// "ok\n". Set before Start.
  void SetHealthBody(std::function<std::string()> health_body);

  /// Binds and starts serving; port 0 picks an ephemeral port (see
  /// port()).
  util::Status Start(const std::string& host, int port);
  void Stop();
  int port() const { return port_; }

 private:
  void Serve();

  std::function<std::string()> health_body_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace cegraph::obs
