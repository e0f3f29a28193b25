#ifndef CEGRAPH_SERVICE_SERVICE_H_
#define CEGRAPH_SERVICE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dynamic/delta_graph.h"
#include "dynamic/stats_maintainer.h"
#include "engine/engine.h"
#include "graph/graph.h"
#include "learn/feedback_store.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/scorecard.h"
#include "obs/windowed.h"
#include "service/admission.h"
#include "service/request.h"
#include "util/status.h"

namespace cegraph::service {

/// One immutable unit of serving: an engine (context + memoized estimator
/// instances) over one graph epoch, plus the resolved estimator suite.
/// States are published through an atomic shared_ptr and never mutated
/// after publication, so a reader that acquired a state can finish its
/// whole request against it — estimators, statistics and graph all from
/// the same epoch — while the maintainer builds and publishes successors.
struct ServingState {
  std::unique_ptr<engine::EstimationEngine> engine;
  /// The serving estimator suite, resolved once; pointers are owned by
  /// `engine` and live exactly as long as this state.
  std::vector<const CardinalityEstimator*> suite;
  std::vector<std::string> names;
  /// The context's learned-feedback store, pinned here so serve-time
  /// lookups and recording skip the context mutex. Shared across delta
  /// folds (ForkWithDeltas carries the pointer) and across hot-swaps of
  /// same-base-graph snapshots, so learning survives both.
  std::shared_ptr<learn::FeedbackStore> feedback;
  uint64_t epoch = 0;          ///< engine->context().epoch()
  uint64_t version = 0;        ///< hot-swap generation (0 = initial state)
};

/// How the service uses the learned-feedback store (docs/learned_feedback.md).
enum class FeedbackMode {
  kOff,     ///< no corrections applied, no learning (pre-feedback behavior)
  kOn,      ///< corrections applied when a class has support; truths recorded
  kFrozen,  ///< corrections applied; learning paused (truths not recorded)
};

struct ServiceOptions {
  /// The estimator suite every request runs. Must resolve against the
  /// default registry at Create time.
  std::vector<std::string> estimators = {"max-hop-max", "all-hops-avg",
                                         "molp", "cbs", "cs"};
  engine::ContextOptions context;
  /// Admission capacity in *weight units* (cost-aware
  /// AdmissionController): each estimate charges its pattern size, a
  /// batch the sum of its lines, so heavyweight traffic saturates
  /// admission proportionally sooner. <= 0 = unbounded.
  int max_in_flight = 4096;
  /// Background compaction trigger: when this many pending delta
  /// operations have accumulated, the maintainer thread folds them into a
  /// new serving state. <= 0 disables the background thread (deltas apply
  /// only on FlushDeltas).
  int compact_trigger_ops = 4096;
  /// Replay-log retention: after each successful hot-swap the new state's
  /// log is trimmed so only the last `replay_keep_epochs` epochs stay
  /// replayable (snapshot staleness window). < 0 disables trimming.
  int replay_keep_epochs = 8;
  /// Prewarm the initial state's statistics for this workload before
  /// serving (optional; empty = lazy).
  std::vector<query::WorkloadQuery> prewarm_workload;
  /// Load this snapshot into the initial state (optional). The snapshot
  /// may describe a later epoch of the base graph — its embedded delta
  /// log is replayed, exactly like `cegraph_stats` consumers do.
  std::string initial_snapshot;
  /// Label stamped as `dataset="..."` on every Prometheus series this
  /// service exports (the catalog sets it to the dataset name). Empty =
  /// unlabeled series; the service still registers with the global
  /// MetricsRegistry either way.
  std::string metrics_label;
  /// Per-query-class accuracy scorecards (windowed q-error, under/over
  /// split, worst exemplar, drift). Recording happens only for
  /// truth-carrying requests and only when obs::MetricsEnabled().
  obs::ScorecardOptions scorecard;
  /// Structured event journal (swaps, folds, drift flips land here when
  /// set). Borrowed, not owned; must outlive the service. The daemon
  /// wires one per process via `cegraph_serve --journal FILE`.
  obs::Journal* journal = nullptr;
  /// Learned-feedback corrections (AQO-style estimate->truth loop; see
  /// docs/learned_feedback.md). kOff keeps serving bit-identical to a
  /// pre-feedback build. The daemon wires `cegraph_serve --feedback`.
  FeedbackMode feedback = FeedbackMode::kOff;
  /// Knobs of the per-class correction learner (gate, decay, bounds).
  learn::FeedbackOptions feedback_options;
};

/// Breakdown of the snapshot load behind a state: whether the arena's
/// indexes were attached in place or materialized, and how long each
/// phase took. All zero until a snapshot load has happened. Mirrors
/// engine::EstimationContext::SnapshotLoadReport.
struct SnapshotLoadBreakdown {
  bool loaded = false;        ///< a snapshot load backed this state
  bool mapped = false;        ///< arena sections attached zero-copy
  uint64_t mapped_bytes = 0;  ///< arena bytes left attached (0 if none)
  double map_millis = 0;      ///< open phase: mmap + integrity checks
  /// Apply phase: attaching the indexes (fresh loads) or materializing
  /// them and replaying the missing deltas (stale loads).
  double materialize_millis = 0;
  uint64_t snapshot_epoch = 0;
};

/// What one delta application / hot-swap did.
struct SwapReport {
  uint64_t epoch = 0;    ///< epoch of the newly published state
  uint64_t version = 0;  ///< version of the newly published state
  size_t applied_ops = 0;
  size_t trimmed_log_ops = 0;
  dynamic::MaintenanceReport maintenance;
  /// Snapshot swaps only: whether the artifact loaded stale and how many
  /// embedded deltas were replayed to reconstruct its graph.
  bool snapshot_stale = false;
  size_t snapshot_replayed_deltas = 0;
  /// Snapshot swaps only: open/apply phase breakdown of the load.
  SnapshotLoadBreakdown snapshot_load;
};

/// Aggregate accounting, cheap enough to sample per scrape: every number
/// the service exports, gathered in one pass by EstimationService::Stats
/// and rendered by WriteMetrics (the Prometheus page and the wire stats
/// frame are the same text).
struct ServiceStats {
  uint64_t served = 0;           ///< responses returned
  uint64_t rejected = 0;         ///< admission refusals
  uint64_t request_errors = 0;   ///< unparseable / invalid requests
  uint64_t swaps = 0;            ///< published states beyond the initial
  uint64_t epoch = 0;            ///< current serving epoch
  uint64_t version = 0;          ///< current state version
  size_t pending_delta_ops = 0;  ///< submitted but not yet applied
  size_t replay_log_ops = 0;     ///< surviving replay-log length
  uint64_t min_replayable_epoch = 0;
  int64_t in_flight = 0;
  int64_t peak_in_flight = 0;
  double mean_latency_micros = 0;  ///< over served requests
  /// Per-estimator accounting over every served request.
  struct EstimatorAccounting {
    std::string name;
    uint64_t requests = 0;
    uint64_t failures = 0;
    double mean_micros = 0;
    /// Mean q-error over requests that carried ground truth and produced
    /// a usable sample (finite, positive); 0 when none did. Failed or
    /// degenerate estimates (0 / inf / NaN q-error) are excluded — an
    /// error must not skew the aggregate.
    double mean_qerror = 0;
    /// Distributions; empty when the metrics layer is disabled.
    obs::HistogramSnapshot latency;  ///< per-call micros
    obs::HistogramSnapshot qerror;   ///< truth-carrying successes only
  };
  std::vector<EstimatorAccounting> estimators;
  /// Request-level distributions (empty when metrics are disabled).
  obs::HistogramSnapshot latency;      ///< request latency micros
  obs::HistogramSnapshot batch_lines;  ///< lines per v3 batch frame
  obs::HistogramSnapshot fold_millis;  ///< delta fold / compaction durations
  uint64_t admitted_weight = 0;        ///< capacity units granted
  uint64_t rejected_weight = 0;        ///< capacity units refused
  /// Request latency and rate over the trailing 1m, 5m and 15m — the
  /// "what is the server doing lately" counterpart of `latency`.
  struct RecentWindow {
    const char* name = "";  ///< "1m", "5m", "15m"
    double rate_per_sec = 0;
    obs::HistogramSnapshot latency;
  };
  std::vector<RecentWindow> recent;
  /// The most recent snapshot load (Create's initial load or the latest
  /// HotSwapSnapshot); `loaded` false when the service never loaded one.
  SnapshotLoadBreakdown snapshot_load;
  uint64_t snapshot_loads = 0;  ///< successful snapshot loads
  /// Statistics-cache residency and hit/miss/evict counters of the
  /// current serving state (CegCache + every KeyedCache).
  struct CacheRow {
    std::string name;
    uint64_t entries = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  std::vector<CacheRow> caches;

  // --- per-query-class accuracy scorecard ---
  int64_t scorecard_window_seconds = 0;  ///< window the rows are read over
  uint64_t scorecard_classes = 0;
  uint64_t scorecard_drifted_classes = 0;  ///< > 0: some class drifted
  uint64_t scorecard_evictions = 0;
  /// Per-query-class rows, sorted by hits descending (ties: key
  /// ascending). Filled only by Stats(/*with_scorecard=*/true).
  std::vector<obs::ScorecardClassReport> scorecard;

  // --- learned-feedback corrections (docs/learned_feedback.md) ---
  FeedbackMode feedback_mode = FeedbackMode::kOff;
  uint64_t feedback_classes = 0;    ///< classes with any observations
  uint64_t feedback_active = 0;     ///< classes past the confidence gate
  uint64_t feedback_evictions = 0;  ///< classes dropped at the bound
  uint64_t corrections_applied = 0;    ///< served estimates scaled
  uint64_t corrections_suppressed = 0; ///< active correction skipped (opt-out)
  /// Trailing-minute q-error of truth-carrying results, before and
  /// after correction — the live readout of whether the loop helps.
  obs::HistogramSnapshot qerror_raw_1m;
  obs::HistogramSnapshot qerror_corrected_1m;
  /// Per-class learned corrections, sorted by hits descending (ties:
  /// key ascending). Filled only by Stats(/*with_scorecard=*/true).
  std::vector<learn::FeedbackClassReport> corrections;
};

/// Renders `stats` as Prometheus series, every one labeled with `labels`
/// (the inner label list, e.g. `dataset="alpha"`; "" for none). This is
/// the one renderer behind both the registry collector and the wire
/// stats frame; docs/observability.md lists the series.
void WriteMetrics(const ServiceStats& stats, const std::string& labels,
                  obs::PromWriter& writer);

/// A long-lived, concurrently readable estimation server over one base
/// graph: the embeddable core behind the `cegraph_serve` daemon.
///
/// Readers (Estimate/EstimateLine, any thread) are wait-free with respect
/// to maintenance: each request atomically acquires the current
/// ServingState (shared_ptr load) and runs entirely against it. The
/// maintainer builds the *next* state off to the side —
/// EstimationContext::ForkWithDeltas for delta ingestion, a fresh
/// context + snapshot load for hot-swaps — and publishes it with one
/// atomic store. In-flight requests keep the old state alive through
/// their shared_ptr; ApplyDeltas' quiescence requirement is met because
/// the live state is never mutated at all.
///
/// Maintenance (SubmitDeltas auto-compaction, FlushDeltas,
/// HotSwapSnapshot) is single-writer, serialized on an internal mutex;
/// any thread may call it. After each successful swap the new state's
/// replay log is trimmed to the configured retention window.
class EstimationService {
 public:
  /// Builds the initial serving state (resolving the estimator suite,
  /// optionally loading `options.initial_snapshot` and prewarming) and
  /// starts the background maintainer if configured.
  static util::StatusOr<std::unique_ptr<EstimationService>> Create(
      std::shared_ptr<const graph::Graph> base_graph,
      ServiceOptions options = {});
  static util::StatusOr<std::unique_ptr<EstimationService>> Create(
      graph::Graph&& base_graph, ServiceOptions options = {});

  ~EstimationService();

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  /// Serves one request against the current state. ResourceExhausted when
  /// admission is refused, InvalidArgument when the query names a label
  /// the graph does not have; per-estimator failures land inside the
  /// response. Thread-safe, lock-free against maintenance.
  util::StatusOr<EstimateResponse> Estimate(
      const EstimateRequest& request) const;

  /// ParseRequestLine + Estimate. Parse failures count as request errors.
  util::StatusOr<EstimateResponse> EstimateLine(std::string_view line) const;

  /// Serves one wire-v3 batch: N request lines admitted as ONE unit (the
  /// summed weight of the parseable lines) and answered in order against
  /// ONE serving state, so every item in a batch shares a single epoch.
  /// The outer status is the frame-level outcome — ResourceExhausted when
  /// admission refuses the whole batch (retryable), InvalidArgument for an
  /// empty batch; per-line failures (parse, label range) land inside their
  /// item, exactly as the same line would have failed as its own v1 frame.
  util::StatusOr<std::vector<BatchEstimateItem>> EstimateBatch(
      const std::vector<std::string>& lines) const;

  /// The pre-parsed twin (harness drivers): same admission and single-state
  /// contract; `requests` are borrowed for the call.
  util::StatusOr<std::vector<BatchEstimateItem>> EstimateBatch(
      const std::vector<const EstimateRequest*>& requests) const;

  /// Queues delta operations for ingestion. The batch is applied by the
  /// background maintainer once pending volume reaches
  /// options.compact_trigger_ops, or synchronously via FlushDeltas.
  /// Validated here, against the fixed vertex/label spaces of the base
  /// graph: an invalid batch is rejected whole and nothing is queued.
  /// Pending batches from different submitters are folded into one swap,
  /// so rejecting at the door is what keeps one submitter's bad feed from
  /// sinking another's valid one.
  util::Status SubmitDeltas(std::vector<dynamic::EdgeDelta> batch);

  /// Applies everything pending right now (building and publishing a new
  /// state). OK with unchanged epoch when nothing was pending.
  util::StatusOr<SwapReport> FlushDeltas();

  /// Replaces the serving state with the snapshot at `path`: a fresh
  /// context over the base graph, the snapshot loaded into it (replaying
  /// its embedded delta log when it describes a later epoch), the suite
  /// re-resolved, published atomically. In-flight requests finish against
  /// the old state; pending (unapplied) deltas stay pending. Live deltas
  /// applied since the service started are superseded by the artifact —
  /// a snapshot swap *rebases* the service onto it.
  util::StatusOr<SwapReport> HotSwapSnapshot(const std::string& path);

  /// The current serving state (for drivers/benches that want to pin an
  /// epoch or inspect the engine). Holding the returned pointer keeps that
  /// state alive across swaps.
  std::shared_ptr<const ServingState> AcquireState() const {
    return state_.load(std::memory_order_acquire);
  }

  uint64_t epoch() const { return AcquireState()->epoch; }
  /// Aggregate accounting. `with_scorecard` additionally materializes
  /// the per-class scorecard and correction rows (a window merge per
  /// class — cheap per scrape, not per request).
  ServiceStats Stats(bool with_scorecard = false) const;
  /// WriteMetrics(Stats(true), <dataset label>, writer): this service's
  /// part of the Prometheus page and of the wire stats frame.
  void WriteMetrics(obs::PromWriter& writer) const;
  const ServiceOptions& options() const { return options_; }

 private:
  EstimationService(std::shared_ptr<const graph::Graph> base_graph,
                    ServiceOptions options);

  /// Builds a state around `context` (resolves the suite, stamps
  /// epoch/version) without publishing it.
  util::StatusOr<std::shared_ptr<ServingState>> MakeState(
      std::unique_ptr<engine::EstimationContext> context, uint64_t version);

  /// The admitted body of Estimate: runs `request` against `state`
  /// (label validation, estimator loop, accounting) without touching
  /// admission — shared by the single and batch paths so a batched line
  /// answers bit-identically to its own v1 frame.
  util::StatusOr<EstimateResponse> EstimateOnState(
      const ServingState& state, const EstimateRequest& request) const;

  /// Admitted batch body shared by both EstimateBatch overloads:
  /// `parsed[i]` is null when the line failed before estimation, with
  /// `errors[i]` carrying that line's status.
  std::vector<BatchEstimateItem> RunBatchOnCurrentState(
      const std::vector<const EstimateRequest*>& parsed,
      const std::vector<util::Status>& errors) const;

  /// Trims the (not yet published) state's replay log to the retention
  /// window; returns ops dropped.
  size_t TrimForRetention(engine::EstimationContext& context) const;

  /// Publishes and bumps the swap counter.
  void Publish(std::shared_ptr<const ServingState> state);

  /// Maintainer body for one pending batch. Caller holds maintenance_mutex_.
  util::StatusOr<SwapReport> ApplyBatchLocked(
      std::vector<dynamic::EdgeDelta> batch);

  void MaintainerLoop();

  std::shared_ptr<const graph::Graph> base_graph_;
  ServiceOptions options_;

  std::atomic<std::shared_ptr<const ServingState>> state_;
  mutable AdmissionController admission_;

  /// Single-writer maintenance: fork/load + publish.
  std::mutex maintenance_mutex_;

  mutable std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  std::vector<dynamic::EdgeDelta> pending_;
  bool stopping_ = false;
  std::thread maintainer_;

  /// Latest snapshot-load breakdown (written at Create / HotSwapSnapshot,
  /// sampled by Stats); own mutex because maintenance_mutex_ is held for
  /// the whole — potentially long — swap.
  mutable std::mutex load_mutex_;
  SnapshotLoadBreakdown last_load_;

  // Accounting. All-relaxed atomics: the estimate hot path must stay
  // lock-free (the worker-scaling gate of bench_service_throughput), so
  // per-estimator sums shard per counter instead of sharing a mutex.
  mutable std::atomic<uint64_t> served_{0};
  mutable std::atomic<uint64_t> request_errors_{0};
  mutable std::atomic<uint64_t> latency_micros_total_{0};
  std::atomic<uint64_t> swaps_{0};
  struct EstimatorAccum {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<double> micros{0};
    std::atomic<uint64_t> truth_requests{0};
    std::atomic<double> qerror_sum{0};
    /// Distribution counterparts of the means above; recorded only when
    /// obs::MetricsEnabled() (the histograms are the new per-request
    /// cost the overhead gate bounds).
    obs::Histogram latency_hist;
    obs::Histogram qerror_hist;
  };
  /// Sized once at construction (vector growth would need moves, which
  /// atomics forbid).
  mutable std::vector<EstimatorAccum> accounting_;

  /// Request-level distributions (see EstimatorAccum note on gating).
  mutable obs::Histogram request_latency_hist_;
  mutable obs::Histogram batch_lines_hist_;
  obs::Histogram fold_millis_hist_;
  /// Windowed twin of request_latency_hist_: recent (1m/5m/15m)
  /// latency quantiles and request rates for Prometheus and the stats
  /// extension.
  mutable obs::WindowedHistogram request_latency_window_;
  /// Per-query-class accuracy accounting; baseline re-stamped at
  /// snapshot load / hot swap (never at delta folds — a fold is the
  /// same regime, a swap is a new one).
  mutable obs::Scorecard scorecard_;
  /// Attributes every usable truth-carrying estimator result of
  /// `response` to the request's query class.
  void RecordScorecard(const EstimateRequest& request,
                       const EstimateResponse& response) const;
  /// Feeds every usable truth-carrying result's RAW estimate into the
  /// feedback store (kOn only) and emits `correction_update` journal
  /// events for gate crossings / large moves. `class_code` is the
  /// query-class identity QueryClassCode computed once per request.
  void RecordFeedback(learn::FeedbackStore& store,
                      const EstimateRequest& request,
                      const EstimateResponse& response,
                      const std::string& class_code) const;
  /// Per-request correction accounting (relaxed; see EstimatorAccum).
  mutable std::atomic<uint64_t> corrections_applied_{0};
  mutable std::atomic<uint64_t> corrections_suppressed_{0};
  /// Trailing-window q-error of truth-carrying results before/after
  /// correction (recorded only when feedback is not kOff and
  /// obs::MetricsEnabled()).
  mutable obs::WindowedHistogram qerror_raw_window_;
  mutable obs::WindowedHistogram qerror_corrected_window_;
  /// Emits to options_.journal when set (dataset stamped); else no-op.
  void EmitJournal(obs::JournalEvent event) const;
  std::atomic<uint64_t> snapshot_loads_{0};
  /// `dataset="<options_.metrics_label>"`, or "" when unlabeled.
  std::string metric_labels_;
  /// Handle of this service's collector in MetricsRegistry::Global()
  /// (0 = not registered). Registered at the end of Create, removed
  /// first thing in the destructor.
  uint64_t metrics_collector_id_ = 0;
};

}  // namespace cegraph::service

#endif  // CEGRAPH_SERVICE_SERVICE_H_
