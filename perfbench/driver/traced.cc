// The traced run: the workload's inputs replayed in-process, with a span
// around each call into a module's public functions, so each layer's
// share of a request (or of a planning pass) is known. End-to-end numbers
// come from the untraced run; this run reports per-layer metrics, the
// share of the measured call the layers account for (trace.coverage) and
// the cost of recording spans (trace.overhead_pct).
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <map>
#include <random>

#include "ceg/ceg_o.h"
#include "engine/engine.h"
#include "harness/qerror.h"
#include "learn/feedback_store.h"
#include "planner/dp_optimizer.h"
#include "query/subquery.h"
#include "service/admission.h"
#include "service/service.h"
#include "service/wire.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace cegraph;
using service::wire::MessageType;

namespace {

constexpr size_t kFoldEvery = 30;    ///< serve_churn: requests per fold
constexpr size_t kScrapeEvery = 30;  ///< requests per stats scrape

/// The planner's estimator with spans around the parts of each sub-plan
/// estimate: the canonical code (memoized on the query, so the inner call
/// reuses it) and the estimate itself, whose CEG-cache misses are noted.
class TracedEstimator : public CardinalityEstimator {
 public:
  TracedEstimator(const CardinalityEstimator& inner,
                  const engine::CegCache& cache, Tracer& tracer,
                  const char* span_name, bool spans,
                  std::vector<double>* miss_us)
      : inner_(inner),
        cache_(cache),
        tracer_(tracer),
        span_name_(span_name),
        spans_(spans),
        miss_us_(*miss_us) {}

  std::string name() const override { return inner_.name(); }

  util::StatusOr<double> Estimate(const query::QueryGraph& q) const override {
    ++calls_;
    if (!spans_) return inner_.Estimate(q);
    {
      Span canonical(tracer_, "query.canonical", parent_);
      q.CanonicalCode();
    }
    const uint64_t misses = cache_.misses();
    Span estimate(tracer_, span_name_, parent_);
    auto result = inner_.Estimate(q);
    estimate.End();
    if (cache_.misses() != misses && tracer_.enabled()) {
      miss_us_.push_back(estimate.Micros());
    }
    return result;
  }

  void set_parent(uint32_t parent) { parent_ = parent; }
  uint64_t calls() const { return calls_; }

 private:
  const CardinalityEstimator& inner_;
  const engine::CegCache& cache_;
  Tracer& tracer_;
  const char* span_name_;
  bool spans_;
  uint32_t parent_ = Tracer::kNone;
  // The optimizer calls Estimate serially from this thread only.
  mutable uint64_t calls_ = 0;
  std::vector<double>& miss_us_;  ///< owned by the replay
};

/// The service's query-class code: canonical shape + sorted labels.
std::string ClassCode(const query::QueryGraph& q) {
  std::vector<uint32_t> labels;
  for (const query::QueryEdge& e : q.edges()) labels.push_back(e.label);
  std::sort(labels.begin(), labels.end());
  std::string code = q.CanonicalCode() + '|';
  for (size_t i = 0; i < labels.size(); ++i) {
    code += (i == 0 ? "" : ",") + std::to_string(labels[i]);
  }
  return code;
}

double Ratio(uint64_t hits, uint64_t misses) {
  return hits + misses == 0 ? 0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Everything one replay touches.
class Replay {
 public:
  Replay(const Flags& flags, const WorkloadConfig& config,
         const Inputs& inputs, Tracer& tracer)
      : flags_(flags), config_(config), inputs_(inputs), tracer_(tracer) {
    for (const std::string& name : AllEstimators()) {
      est_spans_.push_back("est." + name);
    }
  }

  util::Status Init() {
    const std::vector<std::string>& lines =
        config_.plan ? inputs_.plan_lines : inputs_.serve_lines;
    auto requests = ParseLines(lines);
    if (!requests.ok()) return requests.status();
    requests_ = std::move(*requests);
    lines_ = lines;
    auto deltas = ParseDeltas(inputs_.deltas);
    if (!deltas.ok()) return deltas.status();
    deltas_ = std::move(*deltas);
    order_.resize(lines_.size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::mt19937_64 rng(flags_.seed * 7919);
    std::shuffle(order_.begin(), order_.end(), rng);

    auto g = MakeGraph();
    if (!g.ok()) return g.status();
    graph_ = std::make_shared<const graph::Graph>(std::move(*g));
    service::ServiceOptions options;
    options.estimators = config_.suite;
    options.initial_snapshot = inputs_.snapshot;
    options.feedback = config_.feedback ? service::FeedbackMode::kOn
                                        : service::FeedbackMode::kOff;
    auto created = service::EstimationService::Create(graph_, options);
    if (!created.ok()) return created.status();
    service_ = std::move(*created);
    admission_ = std::make_unique<service::AdmissionController>(
        options.max_in_flight);

    auto planner = MapEngine(inputs_.snapshot);
    if (!planner.ok()) return planner.status();
    planner_ = std::move(*planner);
    auto planner_estimator = planner_->Estimator("max-hop-max");
    if (!planner_estimator.ok()) return planner_estimator.status();
    traced_estimator_ = std::make_unique<TracedEstimator>(
        **planner_estimator, planner_->ceg_cache(), tracer_,
        "est.max-hop-max", config_.plan, &planner_miss_us_);

    auto daemon = Daemon::Launch(flags_.serve_bin,
                                 DaemonArgs(config_, inputs_));
    if (!daemon.ok()) return daemon.status();
    daemon_ = std::move(*daemon);
    auto fd = service::wire::DialTcp("127.0.0.1", daemon_->port());
    if (!fd.ok()) return fd.status();
    fd_ = *fd;
    return util::Status::OK();
  }

  ~Replay() {
    if (fd_ >= 0) close(fd_);
  }
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// The snapshot layer: map a fresh context, then the first estimate.
  void TraceSnapshot(int launches) {
    for (int i = 0; i < launches; ++i) {
      auto context = std::make_unique<engine::EstimationContext>(graph_);
      util::Status loaded;
      {
        Span map(tracer_, "snapshot.map");
        loaded = context->LoadSnapshotMapped(inputs_.snapshot);
      }
      Count(loaded.ok());
      engine::EstimationEngine engine(std::move(context));
      auto fresh = service::ParseRequestLine(lines_[0]);
      Span first(tracer_, "snapshot.first_estimate");
      auto suite = engine.Estimators(config_.suite);
      Count(suite.ok() && fresh.ok());
      if (!suite.ok() || !fresh.ok()) continue;
      for (const CardinalityEstimator* estimator : *suite) {
        Count(estimator->Estimate(fresh->query).ok());
      }
    }
  }

  /// One pass over the workload's requests; returns the seconds spent in
  /// root calls (requests and plans), the base of trace.overhead_pct.
  double Pass() {
    double root_seconds = 0;
    planner_->ceg_cache().Clear();
    for (size_t k = 0; k < order_.size(); ++k) {
      if (config_.churn && k > 0 && k % kFoldEvery == 0) Fold();
      if (k % kScrapeEvery == 0) {
        Span scrape(tracer_, "obs.stats_scrape");
        (void)service_->Stats(/*with_scorecard=*/true);
      }
      const size_t i = order_[k];
      root_seconds += Plan(i);
      const double t0 = NowSeconds();
      Request(i);
      root_seconds += NowSeconds() - t0;
    }
    return root_seconds;
  }

  /// Delta folds: under load on serve_churn (see Pass), as a post-phase
  /// probe elsewhere, matching the end-to-end run.
  void Fold() {
    if (next_delta_ >= deltas_.size()) return;
    const auto& batch = deltas_[next_delta_++];
    Span flush(tracer_, "dynamic.flush");
    size_t evicted = 0;
    bool ok = false;
    if (config_.plan) {
      auto report = planner_->ApplyDeltas(batch);
      ok = report.ok();
      if (ok) evicted = report->total_evicted();
      auto fresh = planner_->Estimator("max-hop-max");
      ok = ok && fresh.ok();
      if (ok) {
        traced_estimator_ = std::make_unique<TracedEstimator>(
            **fresh, planner_->ceg_cache(), tracer_, "est.max-hop-max",
            config_.plan, &planner_miss_us_);
      }
    } else {
      ok = service_->SubmitDeltas(batch).ok();
      auto report = service_->FlushDeltas();
      ok = ok && report.ok();
      if (ok) evicted = report->maintenance.total_evicted();
    }
    flush.End();
    Count(ok);
    if (tracer_.enabled()) {
      evicted_.push_back(static_cast<double>(evicted));
    }
  }

  /// Records the cache gauges of the path under test; called before the
  /// post-phase folds, which replace the caches.
  void CaptureCaches() {
    const engine::EstimationEngine& engine =
        config_.plan ? *planner_ : *service_->AcquireState()->engine;
    ceg_entries_ = engine.ceg_cache().size();
    uint64_t markov_hits = 0, markov_misses = 0;
    uint64_t degree_hits = 0, degree_misses = 0;
    for (const auto& cache : engine.context().CollectCacheStats()) {
      if (cache.name.rfind("markov", 0) == 0) {
        markov_hits += cache.counters.hits;
        markov_misses += cache.counters.misses;
      } else if (cache.name.rfind("degree", 0) == 0) {
        degree_hits += cache.counters.hits;
        degree_misses += cache.counters.misses;
      }
    }
    markov_hit_ratio_ = Ratio(markov_hits, markov_misses);
    degree_hit_ratio_ = Ratio(degree_hits, degree_misses);
    const std::shared_ptr<learn::FeedbackStore> served =
        service_->AcquireState()->feedback;
    active_classes_ = config_.feedback && served != nullptr
                          ? served->active_count()
                          : feedback_.active_count();
  }

  /// Per-layer metrics and the layer table, from the recorded spans.
  void Report(Result* result, double traced_s, double untraced_s) {
    const auto layers = tracer_.Summarize();
    auto layer = [&](const std::string& name) {
      auto it = layers.find(name);
      return it == layers.end() ? Tracer::Layer{} : it->second;
    };
    auto mean_self = [&](const std::string& name) {
      const Tracer::Layer l = layer(name);
      return l.calls == 0 ? 0 : l.self_us / static_cast<double>(l.calls);
    };
    auto mean_total = [&](const std::string& name) {
      const Tracer::Layer l = layer(name);
      return l.calls == 0 ? 0 : l.total_us / static_cast<double>(l.calls);
    };

    // trace.coverage: the replayed layers that run inside the measured
    // call, over that call's time.
    double covered = 0, measured = 0;
    if (config_.plan) {
      for (const char* name : {"query.canonical", "est.max-hop-max",
                               "query.subsets", "query.extract"}) {
        covered += layer(name).self_us;
      }
      measured = layer("planner.optimize").total_us;
    } else {
      for (const char* name : {"admission.admit", "service.acquire_state",
                               "query.canonical"}) {
        covered += layer(name).self_us;
      }
      for (const std::string& name : config_.suite) {
        covered += layer("est." + name).self_us;
      }
      if (config_.feedback) {
        covered += layer("learn.lookup").self_us;
        covered += layer("learn.record").self_us;
      }
      covered += miss_in_service_us_;
      measured = layer("service.estimate").total_us;
    }

    std::printf("%-26s %10s %14s %12s %8s\n", "layer", "calls",
                "self_us_total", "self_us_mean", "share");
    for (const auto& [name, l] : layers) {
      std::printf("%-26s %10llu %14.1f %12.3f %7.2f%%\n", name.c_str(),
                  static_cast<unsigned long long>(l.calls), l.self_us,
                  l.self_us / static_cast<double>(l.calls),
                  measured > 0 ? 100.0 * l.self_us / measured : 0.0);
    }

    result->Add("wire.encode_us", mean_self("wire.encode"), "us");
    result->Add("wire.decode_us", mean_self("wire.decode"), "us");
    result->Add("request.parse_us", mean_self("request.parse"), "us");
    result->Add("admission.admit_us", mean_self("admission.admit"), "us");
    result->Add("admission.rejected", static_cast<double>(rejected_),
                "count");
    result->Add("service.acquire_state_us",
                mean_self("service.acquire_state"), "us");
    result->Add("service.estimate_us", mean_total("service.estimate"),
                "us");
    result->Add("server.overhead_us", Mean(overhead_us_), "us");
    result->Add("query.canonical_us", mean_self("query.canonical"), "us");
    result->Add("query.subsets_us", mean_self("query.subsets"), "us");
    result->Add("query.extract_us", mean_self("query.extract"), "us");
    result->Add("ceg_cache.hit_ratio", Ratio(ceg_hits_, ceg_misses_),
                "ratio");
    result->Add("ceg_cache.miss_build_us", Mean(miss_build_us()), "us");
    result->Add("ceg_cache.entries", static_cast<double>(ceg_entries_),
                "count");
    result->Add("ceg.build_us", mean_self("ceg.build"), "us");
    result->Add("ceg.dp_us", mean_self("ceg.dp"), "us");
    for (const std::string& name : est_spans_) {
      result->Add(name + "_us", mean_self(name), "us");
    }
    result->Add("stats.cs_star_us", mean_self("stats.cs_star"), "us");
    result->Add("stats.markov_hit_ratio", markov_hit_ratio_, "ratio");
    result->Add("stats.degree_hit_ratio", degree_hit_ratio_, "ratio");
    result->Add("learn.lookup_us", mean_self("learn.lookup"), "us");
    result->Add("learn.record_us", mean_self("learn.record"), "us");
    result->Add("learn.active_classes", static_cast<double>(active_classes_),
                "count");
    result->Add("dynamic.flush_ms", mean_total("dynamic.flush") / 1e3,
                "ms");
    result->Add("dynamic.evicted_entries", Mean(evicted_), "count");
    result->Add("snapshot.map_ms", mean_total("snapshot.map") / 1e3, "ms");
    result->Add("snapshot.first_estimate_ms",
                mean_total("snapshot.first_estimate") / 1e3, "ms");
    result->Add("planner.optimize_ms", mean_total("planner.optimize") / 1e3,
                "ms");
    const double plans = static_cast<double>(layer("planner.optimize").calls);
    result->Add("planner.subplans",
                plans > 0 ? static_cast<double>(subplans_) / plans : 0,
                "count");
    result->Add("planner.estimate_calls",
                plans > 0 ? static_cast<double>(estimate_calls_) / plans : 0,
                "count");
    result->Add("obs.stats_scrape_ms", mean_total("obs.stats_scrape") / 1e3,
                "ms");
    result->Add("trace.coverage", measured > 0 ? covered / measured : 0,
                "ratio");
    result->Add("trace.overhead_pct",
                untraced_s > 0 ? 100.0 * (traced_s / untraced_s - 1.0) : 0,
                "%");
    result->Add("trace.spans", static_cast<double>(tracer_.size()), "count");
    result->Attempt(attempted_);
    result->Fail(failed_);
  }

  util::Status StopDaemon() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
    return daemon_->Stop();
  }

 private:
  void Count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  /// Planning the request's query from the planner's engine. On plan_job
  /// the estimator's sub-plan calls are spans of their own (children of
  /// planner.optimize) and every sub-plan's extraction and CEG build are
  /// replayed after it; elsewhere only the optimize call is timed.
  /// Returns the seconds of the optimize call alone.
  double Plan(size_t i) {
    const query::QueryGraph& q = requests_[i].query;
    const double t0 = NowSeconds();
    Span root(tracer_, "planner.optimize");
    traced_estimator_->set_parent(root.id());
    const uint64_t calls = traced_estimator_->calls();
    const uint64_t hits = planner_->ceg_cache().hits();
    const uint64_t misses = planner_->ceg_cache().misses();
    auto plan = planner::DpOptimizer(*traced_estimator_).Optimize(q);
    root.End();
    const double seconds = NowSeconds() - t0;
    Count(plan.ok());
    if (!tracer_.enabled()) return seconds;
    estimate_calls_ += traced_estimator_->calls() - calls;
    if (!config_.plan) {
      subplans_ += query::ConnectedSubsets(q).size();
      return seconds;
    }
    ceg_hits_ += planner_->ceg_cache().hits() - hits;
    ceg_misses_ += planner_->ceg_cache().misses() - misses;
    std::vector<query::EdgeSet> subsets;
    {
      Span span(tracer_, "query.subsets");
      subsets = query::ConnectedSubsets(q);
    }
    subplans_ += subsets.size();
    const stats::MarkovTable& markov = planner_->context().markov();
    for (query::EdgeSet s : subsets) {
      query::QueryGraph pattern;
      {
        Span span(tracer_, "query.extract");
        pattern = q.ExtractPattern(s);
      }
      BuildCeg(pattern, markov, planner_->context().options().ceg_options);
    }
    return seconds;
  }

  /// The uncached CEG build and path DP of `q` (replayed beside the call
  /// that would pay them on a cache miss).
  double BuildCeg(const query::QueryGraph& q, const stats::MarkovTable& markov,
                  const ceg::CegOOptions& options) {
    Span build(tracer_, "ceg.build");
    auto built = ceg::BuildCegO(q, markov, options);
    build.End();
    Count(built.ok());
    if (!built.ok()) return build.Micros();
    Span dp(tracer_, "ceg.dp");
    Count(built->ceg.ComputeAggregates().ok());
    dp.End();
    return build.Micros() + dp.Micros();
  }

  /// One estimate request through every layer it crosses.
  void Request(size_t i) {
    const std::string& line = lines_[i];
    Span root(tracer_, "request");
    const uint32_t parent = root.id();
    std::string frame;
    {
      Span span(tracer_, "wire.encode", parent);
      service::wire::Request request;
      request.type = MessageType::kEstimate;
      request.text = line;
      frame = service::wire::EncodeRequest(request);
    }
    {
      Span span(tracer_, "wire.decode", parent);
      Count(service::wire::DecodeRequest(frame).ok());
    }
    util::StatusOr<service::EstimateRequest> parsed =
        util::InternalError("unparsed");
    {
      Span span(tracer_, "request.parse", parent);
      parsed = service::ParseRequestLine(line);
    }
    Count(parsed.ok());
    if (!parsed.ok()) return;
    {
      Span span(tracer_, "admission.admit", parent);
      auto ticket =
          admission_->TryAdmit(service::RequestWeight(parsed->query));
      if (!ticket) ++rejected_;
    }
    std::shared_ptr<const service::ServingState> state;
    {
      Span span(tracer_, "service.acquire_state", parent);
      state = service_->AcquireState();
    }
    const engine::CegCache& cache = state->engine->ceg_cache();
    const uint64_t hits = cache.hits(), misses = cache.misses();
    util::StatusOr<service::EstimateResponse> response =
        util::InternalError("not served");
    {
      Span span(tracer_, "service.estimate", parent);
      response = service_->Estimate(*parsed);
    }
    Count(response.ok());
    const bool missed = cache.misses() != misses;
    if (tracer_.enabled() && !config_.plan) {
      ceg_hits_ += cache.hits() - hits;
      ceg_misses_ += cache.misses() - misses;
    }
    Decompose(i, *state, missed, parent);

    // Loopback: the same request through the daemon.
    {
      service::wire::Request request;
      request.type = MessageType::kEstimate;
      request.text = line;
      Span span(tracer_, "server.roundtrip", parent);
      auto reply = service::wire::RoundTrip(fd_, request);
      span.End();
      Count(reply.ok() && reply->status.ok());
      if (reply.ok() && tracer_.enabled()) {
        overhead_us_.push_back(span.Micros() - reply->estimate.total_micros);
      }
    }
    if (!response.ok()) return;
    std::string reply_frame;
    {
      Span span(tracer_, "wire.encode", parent);
      service::wire::Response reply;
      reply.type = MessageType::kEstimate;
      reply.estimate = *response;
      reply_frame = service::wire::EncodeResponse(reply);
    }
    {
      Span span(tracer_, "wire.decode", parent);
      Count(service::wire::DecodeResponse(reply_frame).ok());
    }
  }

  /// The estimate's parts, replayed one public call at a time on a fresh
  /// parse of the same line (a fresh parse, because the canonical code is
  /// memoized on the query).
  void Decompose(size_t i, const service::ServingState& state, bool missed,
                 uint32_t parent) {
    auto fresh = service::ParseRequestLine(lines_[i]);
    if (!fresh.ok()) return;
    const query::QueryGraph& q = fresh->query;
    const engine::EstimationContext& context = state.engine->context();
    // On plan_job the planner path measures canonical codes, extraction,
    // CEG builds and max-hop-max per sub-plan.
    const bool query_layers = !config_.plan;
    if (query_layers) {
      Span span(tracer_, "query.canonical", parent);
      q.CanonicalCode();
    }
    std::map<std::string, double> raw;
    for (size_t e = 0; e < AllEstimators().size(); ++e) {
      const std::string& name = AllEstimators()[e];
      if (!query_layers && name == "max-hop-max") continue;
      auto estimator = state.engine->Estimator(name);
      Count(estimator.ok());
      if (!estimator.ok()) continue;
      Span span(tracer_, est_spans_[e].c_str(), parent);
      auto estimate = (*estimator)->Estimate(q);
      span.End();
      Count(estimate.ok());
      if (estimate.ok()) raw[name] = *estimate;
    }
    {
      std::map<query::QVertex, std::vector<graph::Label>> stars;
      for (const query::QueryEdge& e : q.edges()) {
        stars[e.src].push_back(e.label);
      }
      const stats::CharacteristicSets& cs = context.characteristic_sets();
      for (const auto& [center, labels] : stars) {
        Span span(tracer_, "stats.cs_star", parent);
        cs.EstimateStar(labels);
      }
    }
    {
      // The service's own loop on serve_churn; elsewhere the same calls
      // on every estimate this replay made.
      std::vector<std::string> names = config_.suite;
      if (!config_.feedback) {
        names.clear();
        for (const auto& [name, value] : raw) names.push_back(name);
      }
      const std::string code = ClassCode(q);
      for (const std::string& name : names) {
        const std::string key = learn::FeedbackStore::ClassKey(name, code);
        {
          Span span(tracer_, "learn.lookup", parent);
          feedback_.CorrectionFor(key);
        }
        auto it = raw.find(name);
        if (it == raw.end() || !fresh->truth.has_value() ||
            !harness::UsableQError(it->second, *fresh->truth)) {
          continue;
        }
        Span span(tracer_, "learn.record", parent);
        feedback_.Record(key, fresh->template_name, it->second,
                         *fresh->truth);
      }
    }
    if (!query_layers) return;
    const stats::MarkovTable& markov = context.markov();
    std::vector<query::EdgeSet> subsets;
    {
      Span span(tracer_, "query.subsets", parent);
      subsets = query::ConnectedSubsets(q);
    }
    for (query::EdgeSet s : subsets) {
      if (std::popcount(s) > markov.h()) continue;
      Span span(tracer_, "query.extract", parent);
      q.ExtractPattern(s);
    }
    // What a CEG-cache miss costs this query: GetOrBuild on an empty
    // cache, then the build and the DP on their own.
    scratch_cache_.Clear();
    Span miss(tracer_, "ceg_cache.miss", parent);
    Count(scratch_cache_
              .GetOrBuild(q, markov, OptimisticCeg::kCegO, nullptr,
                          context.options().ceg_options)
              .ok());
    miss.End();
    if (tracer_.enabled()) {
      scratch_miss_us_.push_back(miss.Micros());
      if (missed) miss_in_service_us_ += miss.Micros();
    }
    BuildCeg(q, markov, context.options().ceg_options);
  }

  const std::vector<double>& miss_build_us() const {
    return config_.plan ? planner_miss_us_ : scratch_miss_us_;
  }

  const Flags& flags_;
  const WorkloadConfig& config_;
  const Inputs& inputs_;
  Tracer& tracer_;
  std::vector<std::string> est_spans_;  ///< "est.<name>", AllEstimators order
  std::vector<std::string> lines_;
  std::vector<service::EstimateRequest> requests_;
  std::vector<std::vector<dynamic::EdgeDelta>> deltas_;
  std::vector<size_t> order_;
  size_t next_delta_ = 0;

  std::shared_ptr<const graph::Graph> graph_;
  std::unique_ptr<service::EstimationService> service_;
  std::unique_ptr<service::AdmissionController> admission_;
  std::unique_ptr<engine::EstimationEngine> planner_;
  std::unique_ptr<TracedEstimator> traced_estimator_;
  std::unique_ptr<Daemon> daemon_;
  int fd_ = -1;
  learn::FeedbackStore feedback_;
  engine::CegCache scratch_cache_;

  uint64_t attempted_ = 0, failed_ = 0, rejected_ = 0;
  uint64_t ceg_hits_ = 0, ceg_misses_ = 0;
  uint64_t subplans_ = 0, estimate_calls_ = 0;
  double miss_in_service_us_ = 0;
  std::vector<double> overhead_us_, evicted_, scratch_miss_us_;
  std::vector<double> planner_miss_us_;
  size_t ceg_entries_ = 0, active_classes_ = 0;
  double markov_hit_ratio_ = 0, degree_hit_ratio_ = 0;
};

}  // namespace

int RunTraced(const Flags& flags, const WorkloadConfig& config,
              const Inputs& inputs) {
  const Sizing sizing = SizingFor(flags);
  PrintEnvironment(flags, 1, 1);
  Tracer tracer;
  Replay replay(flags, config, inputs, tracer);
  if (auto init = replay.Init(); !init.ok()) {
    std::fprintf(stderr, "traced run: %s\n", init.ToString().c_str());
    return 1;
  }
  tracer.set_enabled(true);
  replay.TraceSnapshot(sizing.setup_launches);

  // Warm-up, then untraced and traced passes in turn over the same
  // requests; the root-call time of the two kinds gives the overhead.
  tracer.set_enabled(false);
  replay.Pass();
  double traced_s = 0, untraced_s = 0;
  int pairs = 0;
  const double start = NowSeconds();
  while (pairs == 0 || NowSeconds() < start + flags.seconds) {
    tracer.set_enabled(false);
    untraced_s += replay.Pass();
    tracer.set_enabled(true);
    traced_s += replay.Pass();
    ++pairs;
  }
  replay.CaptureCaches();
  if (!config.churn) {
    for (int k = 0; k < sizing.write_probes; ++k) replay.Fold();
  }
  Result result;
  result.Attempt();
  if (!replay.StopDaemon().ok()) result.Fail();
  if (auto written = tracer.Write(flags.dir + "/trace-" + config.name +
                                  ".txt");
      !written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    result.Fail();
  }
  std::printf("traced %d pass pairs; spans written to %s/trace-%s.txt\n",
              pairs, flags.dir.c_str(), config.name.c_str());
  replay.Report(&result, traced_s, untraced_s);
  result.Print();
  return 0;
}

}  // namespace perfbench
