// cegraph_client — command-line client for the cegraph_serve daemon.
//
//   cegraph_client --port P [--host H] [--dataset NAME] \
//                  --query "(a)-[3]->(b); ..." [--query "..." ...]
//   cegraph_client --port P --workload FILE [--threads N] [--passes K]
//                  [--batch-size B] [--quiet]
//   cegraph_client --port P --apply-deltas FILE
//   cegraph_client --port P --swap-snapshot PATH
//   cegraph_client --port P [--stats] [--scorecard] [--corrections]
//                  [--watch] [--interval S]
//   cegraph_client --port P (--ping | --shutdown)
//
// --stats, --scorecard and --corrections fetch the stats frame — since
// wire v6 the Prometheus text page of the routed dataset's service and
// of the server, the same series /metrics exports for them (see
// docs/observability.md) — and print sections of it, each number read
// by metric name; the flags combine. --stats prints the serving
// counters, admission weight units, the server's shed / backpressure /
// byte / frame counters, request latency / batch-size / fold-duration
// quantiles, per-estimator latency and q-error distributions and the
// serving state's cache rows. --scorecard prints the per-query-class
// accuracy scorecard (windowed q-error quantiles, under/over split,
// drift verdict vs the baseline stamped at the last snapshot load/hot
// swap) with each class's worst exemplar, plus the recent (1m) request
// latency and rate. --corrections prints the learned-feedback loop's
// state: feedback mode, applied/suppressed counters, trailing-minute
// pre- vs post-correction q-error medians and the per-class correction
// table. --watch re-samples every --interval seconds (default 2) and
// annotates each counter series with its delta since the previous
// sample — "(reset)" marks a counter that went backwards (server
// restart) — reconnecting through transport errors; stop with ^C.
//
// --request-id N stamps the wire-v5 end-to-end request id (decimal or
// 0x-hex) on the request; the server echoes it and threads it through
// its slow-request log and journal, and the client prints the echo.
//
// --dataset routes the request to the named dataset of a multi-dataset
// daemon (wire protocol v2); without it the server's default dataset
// answers. --query may repeat: two or more queries travel together as ONE
// wire-v3 batch frame over one connection and are answered in order from
// a single serving epoch. --workload streams a saved workload file
// (query/workload_io.h format, ground truth included) from N concurrent
// connections — each thread reuses its one connection for its whole share
// — and prints per-query results plus per-estimator aggregate q-error and
// latency; --batch-size B > 1 packs each thread's share into v3 batch
// frames of B lines. A RESOURCE_EXHAUSTED error frame (admission or
// server overload) is retried with backoff up to --retries times before
// counting as a failure. --apply-deltas sends a delta text feed
// (dynamic/delta_io.h format) inline; the server folds it into a new
// serving state and answers with the post-swap epoch. --swap-snapshot
// names a *server-local* snapshot path (monolithic file or shard
// manifest).
//
// Exit status is 0 iff every request succeeded. A server-side error frame
// (unknown dataset, admission rejection, bad feed, ...) exits nonzero
// with the server's own message on stderr, prefixed "server error:";
// transport failures (connection refused/reset) are prefixed
// "transport error:" so the two are never conflated.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/qerror.h"
#include "obs/metrics.h"
#include "query/workload_io.h"
#include "service/wire.h"
#include "util/table_printer.h"

namespace {

using namespace cegraph;
using service::wire::MessageType;
using service::wire::Request;
using service::wire::Response;

int Usage() {
  std::fprintf(
      stderr,
      "usage: cegraph_client --port P [--host H] [--dataset NAME] "
      "[--retries R] <command>\n"
      "  --query \"PATTERN\"            one estimation request; repeat the\n"
      "                               flag to send one v3 batch frame\n"
      "  --workload FILE [--threads N] [--passes K] [--batch-size B]\n"
      "                 [--quiet]\n"
      "  --apply-deltas FILE           send a delta feed, hot-swap\n"
      "  --swap-snapshot PATH          server-local snapshot/manifest path\n"
      "  [--stats] [--scorecard] [--corrections]  sections of the stats\n"
      "                 page [--watch] [--interval S]\n"
      "  --ping | --shutdown\n"
      "  --request-id N                stamp an end-to-end request id\n");
  return 2;
}

std::string U64(uint64_t v) { return std::to_string(v); }

/// A page value as a count: negative, NaN and out-of-range values (a
/// page is untrusted input) read as 0.
uint64_t AsCount(double v) {
  return v >= 0 && v < 18446744073709551616.0 ? static_cast<uint64_t>(v)
                                               : 0;
}

/// Which sections of the stats page to print (any combination).
struct Sections {
  bool stats = false;
  bool scorecard = false;
  bool corrections = false;
};

/// One stats sample, read by metric name, plus the previous --watch
/// sample (may be null) that counters are diffed against.
struct StatsPage {
  const obs::PromPage& page;
  const obs::PromPage* prev;

  double Value(std::string_view name, const obs::PromMatch& match = {}) const {
    return page.Value(name, match);
  }
  unsigned long long Count(std::string_view name,
                           const obs::PromMatch& match = {}) const {
    return AsCount(Value(name, match));
  }
  /// "N (+D)" against the previous sample's same series, plain "N" without
  /// one. A counter that went *backwards* (the server restarted between
  /// samples) is marked "(reset)" instead of faking a zero delta.
  std::string Counter(std::string_view name,
                      const obs::PromMatch& match = {}) const {
    const uint64_t now = Count(name, match);
    const obs::PromSample* before =
        prev != nullptr ? prev->Find(name, match) : nullptr;
    if (before == nullptr) return U64(now);
    const uint64_t then = AsCount(before->value);
    if (now < then) return U64(now) + " (reset)";
    return U64(now) + " (+" + U64(now - then) + ")";
  }
  /// The summary the server's HistogramSnapshot::Summary() computes, from
  /// the rebuilt histogram; zero when the page lacks the series.
  obs::QuantileSummary Summary(std::string_view name,
                               const obs::PromMatch& match = {}) const {
    auto histogram = page.ReadHistogram(name, match);
    if (histogram.ok()) return histogram->Summary();
    if (histogram.status().code() != util::StatusCode::kNotFound) {
      std::fprintf(stderr, "stats page: %s\n",
                   histogram.status().ToString().c_str());
    }
    return {};
  }
};

void AddSummaryRow(util::TablePrinter& table, const std::string& name,
                   const obs::QuantileSummary& s) {
  table.AddRow({name, U64(s.count), util::TablePrinter::Num(s.mean),
                util::TablePrinter::Num(s.p50),
                util::TablePrinter::Num(s.p90),
                util::TablePrinter::Num(s.p99),
                util::TablePrinter::Num(s.max)});
}

/// The serving counters, server counters, distributions and cache rows.
void PrintServing(const StatsPage& p) {
  std::printf(
      "served %s, rejected %s, request errors %s\n"
      "epoch %llu (state v%llu), %llu swaps, %llu pending delta ops\n"
      "replay log %llu ops (min replayable epoch %llu)\n"
      "in flight %.0f (peak %.0f), mean latency %.1f us\n",
      p.Counter("cegraph_requests_served_total").c_str(),
      p.Counter("cegraph_admission_rejected_total").c_str(),
      p.Counter("cegraph_request_errors_total").c_str(),
      p.Count("cegraph_serving_epoch"), p.Count("cegraph_serving_version"),
      p.Count("cegraph_swaps_total"), p.Count("cegraph_pending_delta_ops"),
      p.Count("cegraph_replay_log_ops"),
      p.Count("cegraph_min_replayable_epoch"),
      p.Value("cegraph_in_flight_weight"),
      p.Value("cegraph_peak_in_flight_weight"),
      p.Value("cegraph_request_mean_latency_micros"));
  std::vector<std::string> estimators;
  for (const obs::PromSample* sample :
       p.page.Select("cegraph_estimator_requests_total")) {
    estimators.emplace_back(sample->Label("estimator"));
  }
  for (const std::string& name : estimators) {
    const obs::PromMatch e = {{"estimator", name}};
    std::printf("  %-14s %llu requests, %llu failures, %.1f us, mean "
                "q-error %.3g\n",
                name.c_str(), p.Count("cegraph_estimator_requests_total", e),
                p.Count("cegraph_estimator_failures_total", e),
                p.Value("cegraph_estimator_mean_micros", e),
                p.Value("cegraph_estimator_mean_qerror", e));
  }
  if (p.Value("cegraph_snapshot_loaded") != 0) {
    const bool mapped = p.Value("cegraph_snapshot_mapped") != 0;
    std::printf("snapshot load: %s, open %.2f ms, %s %.2f ms, "
                "%llu bytes mapped, epoch %llu\n",
                mapped ? "mapped (arena)" : "materialized",
                p.Value("cegraph_snapshot_load_map_millis"),
                mapped ? "attach" : "materialize",
                p.Value("cegraph_snapshot_load_materialize_millis"),
                p.Count("cegraph_snapshot_load_mapped_bytes"),
                p.Count("cegraph_snapshot_epoch"));
  }
  std::printf("weight units: admitted %s, rejected %s; snapshot loads %s\n",
              p.Counter("cegraph_admitted_weight_units_total").c_str(),
              p.Counter("cegraph_rejected_weight_units_total").c_str(),
              p.Counter("cegraph_snapshot_loads_total").c_str());
  if (p.page.Find("cegraph_server_connections_accepted_total") != nullptr) {
    auto shed = [&p](const char* reason) {
      return p.Counter("cegraph_server_shed_total", {{"reason", reason}});
    };
    auto frames = [&p](const char* type) {
      return p.Counter("cegraph_server_frames_total", {{"type", type}});
    };
    std::printf(
        "server: connections %s accepted, %llu active; backpressure %s\n"
        "  shed: admission %s, connection cap %s, pipeline cap %s, "
        "queue cap %s\n"
        "  bytes in %s out %s; frames estimate %s batch %s other %s\n",
        p.Counter("cegraph_server_connections_accepted_total").c_str(),
        p.Count("cegraph_server_connections_active"),
        p.Counter("cegraph_server_backpressure_events_total").c_str(),
        p.Counter("cegraph_admission_rejected_total").c_str(),
        shed("connection_cap").c_str(), shed("pipeline_cap").c_str(),
        shed("queue_cap").c_str(),
        p.Counter("cegraph_server_bytes_in_total").c_str(),
        p.Counter("cegraph_server_bytes_out_total").c_str(),
        frames("estimate").c_str(), frames("batch").c_str(),
        frames("other").c_str());
  }

  util::TablePrinter dist(
      {"distribution", "count", "mean", "p50", "p90", "p99", "max"});
  AddSummaryRow(dist, "latency us",
                p.Summary("cegraph_request_latency_micros"));
  AddSummaryRow(dist, "batch lines", p.Summary("cegraph_batch_lines"));
  AddSummaryRow(dist, "fold ms", p.Summary("cegraph_fold_millis"));
  dist.Print(std::cout);

  if (!estimators.empty()) {
    util::TablePrinter est({"estimator", "lat p50", "lat p90", "lat p99",
                            "lat max", "qerr p50", "qerr p90", "qerr p99",
                            "qerr max"});
    for (const std::string& name : estimators) {
      const obs::PromMatch e = {{"estimator", name}};
      const obs::QuantileSummary latency =
          p.Summary("cegraph_estimator_latency_micros", e);
      const obs::QuantileSummary qerror =
          p.Summary("cegraph_estimator_qerror", e);
      est.AddRow({name, util::TablePrinter::Num(latency.p50),
                  util::TablePrinter::Num(latency.p90),
                  util::TablePrinter::Num(latency.p99),
                  util::TablePrinter::Num(latency.max),
                  util::TablePrinter::Num(qerror.p50),
                  util::TablePrinter::Num(qerror.p90),
                  util::TablePrinter::Num(qerror.p99),
                  util::TablePrinter::Num(qerror.max)});
    }
    est.Print(std::cout);
  }

  const auto caches = p.page.Select("cegraph_cache_entries");
  if (!caches.empty()) {
    util::TablePrinter table(
        {"cache", "entries", "hits", "misses", "evictions"});
    for (const obs::PromSample* sample : caches) {
      const std::string name(sample->Label("cache"));
      const obs::PromMatch c = {{"cache", name}};
      table.AddRow({name, U64(AsCount(sample->value)),
                    U64(p.Count("cegraph_cache_hits_total", c)),
                    U64(p.Count("cegraph_cache_misses_total", c)),
                    U64(p.Count("cegraph_cache_evictions_total", c))});
    }
    table.Print(std::cout);
  }
}

/// The per-query-class accuracy scorecard and its worst exemplars.
void PrintScorecard(const StatsPage& p) {
  const obs::PromMatch one_minute = {{"window", "1m"}};
  std::printf(
      "\nscorecard (window %llus): recent rate %.1f req/s, "
      "latency p50 %.1f us p99 %.1f us (1m); drift: %s\n",
      p.Count("cegraph_scorecard_window_seconds"),
      p.Value("cegraph_request_rate_per_sec", one_minute),
      p.Value("cegraph_request_latency_recent_p50_micros", one_minute),
      p.Value("cegraph_request_latency_recent_p99_micros", one_minute),
      p.Value("cegraph_scorecard_drifted_classes") > 0 ? "YES" : "none");
  const auto rows = p.page.Select("cegraph_scorecard_hits_total");
  if (rows.empty()) {
    std::printf("no truth-carrying estimates in the window yet\n");
    return;
  }
  util::TablePrinter classes({"class", "hits", "under", "over", "qerr p50",
                              "qerr p99", "qerr max", "baseline", "drift"});
  for (const obs::PromSample* row : rows) {
    const obs::PromMatch c = {{"class", row->Label("class")},
                              {"key", row->Label("key")}};
    const double baseline = p.Value("cegraph_scorecard_baseline_qerror_p50", c);
    classes.AddRow(
        {std::string(row->Label("class")), U64(AsCount(row->value)),
         U64(p.Count("cegraph_scorecard_under_total", c)),
         U64(p.Count("cegraph_scorecard_over_total", c)),
         util::TablePrinter::Num(p.Value("cegraph_scorecard_qerror_p50", c)),
         util::TablePrinter::Num(p.Value("cegraph_scorecard_qerror_p99", c)),
         util::TablePrinter::Num(p.Value("cegraph_scorecard_qerror_max", c)),
         baseline > 0 ? util::TablePrinter::Num(baseline) : "-",
         p.Value("cegraph_scorecard_drifted", c) != 0 ? "YES" : "-"});
  }
  classes.Print(std::cout);
  for (const obs::PromSample* row : rows) {
    const obs::PromMatch c = {{"class", row->Label("class")},
                              {"key", row->Label("key")}};
    const obs::PromSample* worst =
        p.page.Find("cegraph_scorecard_worst_qerror", c);
    if (worst == nullptr || !(worst->value > 0)) continue;
    std::printf("  %s worst q-error %.3g (%s: estimate %.4g, truth %.4g): "
                "%s\n",
                std::string(row->Label("class")).c_str(), worst->value,
                std::string(worst->Label("estimator")).c_str(),
                p.Value("cegraph_scorecard_worst_estimate", c),
                p.Value("cegraph_scorecard_worst_truth", c),
                std::string(worst->Label("query")).c_str());
  }
}

/// The learned-feedback loop's state and per-class corrections.
void PrintCorrections(const StatsPage& p) {
  const obs::PromSample* mode = p.page.Find("cegraph_feedback_mode");
  std::printf(
      "\ncorrections (feedback %s): %llu classes (%llu active, %s evicted), "
      "applied %s, suppressed %s\n"
      "q-error 1m: pre-correction p50 %.3g p99 %.3g, "
      "post-correction p50 %.3g p99 %.3g\n",
      mode != nullptr ? std::string(mode->Label("mode")).c_str() : "off",
      p.Count("cegraph_feedback_classes"),
      p.Count("cegraph_feedback_active_classes"),
      p.Counter("cegraph_feedback_evictions_total").c_str(),
      p.Counter("cegraph_corrections_applied_total").c_str(),
      p.Counter("cegraph_corrections_suppressed_total").c_str(),
      p.Value("cegraph_qerror_precorrection_p50"),
      p.Value("cegraph_qerror_precorrection_p99"),
      p.Value("cegraph_qerror_postcorrection_p50"),
      p.Value("cegraph_qerror_postcorrection_p99"));
  const auto rows = p.page.Select("cegraph_correction_factor");
  if (rows.empty()) {
    std::printf("no correction classes learned yet\n");
    return;
  }
  util::TablePrinter table(
      {"class", "estimator", "hits", "samples", "correction", "active"});
  for (const obs::PromSample* row : rows) {
    const std::string key(row->Label("key"));
    const obs::PromMatch c = {{"class", row->Label("class")}, {"key", key}};
    // The class key is "estimator|template|labels"; keep the estimator
    // column separate so one query class's rows group visually.
    table.AddRow({std::string(row->Label("class")),
                  key.substr(0, key.find('|')),
                  U64(p.Count("cegraph_correction_hits_total", c)),
                  U64(p.Count("cegraph_correction_samples", c)),
                  util::TablePrinter::Num(row->value),
                  p.Value("cegraph_correction_active", c) != 0 ? "YES"
                                                                : "-"});
  }
  table.Print(std::cout);
}

/// Parses one stats reply and prints the chosen sections; `prev` (the
/// previous --watch sample, may be null) turns counters into "N (+delta)"
/// annotations. A malformed page is an error, not an empty table.
util::StatusOr<obs::PromPage> PrintStats(const Response& response,
                                         const obs::PromPage* prev,
                                         const Sections& show) {
  auto page = obs::ParsePrometheusText(response.text);
  if (!page.ok()) return page.status();
  if (!response.dataset.empty()) {
    std::printf("dataset %s\n", response.dataset.c_str());
  }
  const StatsPage p{*page, prev};
  if (show.stats) PrintServing(p);
  if (show.scorecard) PrintScorecard(p);
  if (show.corrections) PrintCorrections(p);
  return page;
}

/// Per-attempt retry pause: exponential from 1 ms, clamped to a 2 s
/// ceiling (large --retries values must widen the tail, not the pause),
/// with ±25% jitter so a fleet of clients rejected together does not
/// re-stampede the server on a synchronized schedule.
std::chrono::milliseconds RetryPause(int attempt) {
  constexpr long kMaxPauseMs = 2000;
  const long base =
      attempt >= 11 ? kMaxPauseMs
                    : std::min(kMaxPauseMs, 1L << std::min(attempt, 11));
  thread_local std::mt19937 rng(
      std::random_device{}() ^
      static_cast<unsigned>(
          std::hash<std::thread::id>{}(std::this_thread::get_id())));
  std::uniform_int_distribution<long> jitter(-base / 4, base / 4);
  return std::chrono::milliseconds(std::max(1L, base + jitter(rng)));
}

/// RoundTrip that retries the retryable refusal: a RESOURCE_EXHAUSTED
/// error frame (admission or overload rejection) is resent after a
/// capped, jittered exponential pause (RetryPause), up to `retries`
/// times. Every other outcome — transport failure or any other server
/// error — returns immediately.
util::StatusOr<Response> RoundTripRetry(int fd, const Request& request,
                                        int retries) {
  for (int attempt = 0;; ++attempt) {
    auto response = service::wire::RoundTrip(fd, request);
    if (!response.ok()) return response;
    if (response->status.code() != util::StatusCode::kResourceExhausted ||
        attempt >= retries) {
      return response;
    }
    std::this_thread::sleep_for(RetryPause(attempt));
  }
}

/// Sends one request over a fresh connection. The outer StatusOr carries
/// only *transport* failures; a server-side error frame comes back as an
/// OK result whose Response::status is non-OK, so callers can attribute
/// failures correctly (the server's message, not a generic read error).
util::StatusOr<Response> OneShot(const std::string& host, int port,
                                 const Request& request, int retries) {
  auto fd = service::wire::DialTcp(host, port);
  if (!fd.ok()) return fd.status();
  auto response = RoundTripRetry(*fd, request, retries);
  ::close(*fd);
  return response;
}

void PrintEstimate(const service::EstimateResponse& estimate,
                   const std::string& dataset) {
  std::printf("%s%s%sepoch %llu (state v%llu), %.1f us\n",
              dataset.empty() ? "" : "dataset ", dataset.c_str(),
              dataset.empty() ? "" : ", ",
              static_cast<unsigned long long>(estimate.epoch),
              static_cast<unsigned long long>(estimate.state_version),
              estimate.total_micros);
  util::TablePrinter table(estimate.has_truth
                               ? std::vector<std::string>{"estimator",
                                                          "estimate",
                                                          "q-error", "us"}
                               : std::vector<std::string>{"estimator",
                                                          "estimate", "us"});
  for (const service::EstimatorResult& r : estimate.results) {
    std::vector<std::string> row{r.name,
                                 r.ok ? util::TablePrinter::Num(r.estimate)
                                      : r.error};
    if (estimate.has_truth) {
      row.push_back(r.ok ? util::TablePrinter::Num(r.qerror) : "-");
    }
    row.push_back(util::TablePrinter::Num(r.micros));
    table.AddRow(row);
  }
  if (estimate.has_truth) {
    table.AddRow({"exact", util::TablePrinter::Num(estimate.truth),
                  estimate.has_truth ? "1" : "-", "-"});
  }
  table.Print(std::cout);
}

int RunWorkload(const std::string& host, int port,
                const std::string& dataset,
                const std::string& workload_file, int threads, int passes,
                int batch_size, int retries, bool quiet) {
  auto workload = query::LoadWorkload(workload_file);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  // Request lines travel exactly as saved: "<template> <truth> <pattern>".
  std::vector<std::string> lines;
  lines.reserve(workload->size());
  {
    std::ostringstream text;
    if (!query::WriteWorkloadText(*workload, text).ok()) return 1;
    std::istringstream in(text.str());
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line[0] != '#') lines.push_back(line);
    }
  }

  struct Accum {
    uint64_t requests = 0;
    uint64_t failures = 0;
    double micros = 0;
    double qerror_sum = 0;
    double qerror_max = 0;
    uint64_t qerror_count = 0;
  };
  std::mutex mutex;
  std::map<std::string, Accum> per_estimator;
  std::map<uint64_t, size_t> per_epoch;
  size_t errors = 0;

  if (threads < 1) threads = 1;
  auto worker = [&](int tid) {
    // This thread's stride-interleaved share per pass, so a dead
    // connection charges every request it can no longer send as an error
    // (the summary must not under-report a truncated sample).
    const size_t share =
        (lines.size() + static_cast<size_t>(threads) - 1 -
         static_cast<size_t>(tid)) /
        static_cast<size_t>(threads);
    auto fd = service::wire::DialTcp(host, port);
    if (!fd.ok()) {
      std::lock_guard<std::mutex> lock(mutex);
      errors += share * static_cast<size_t>(passes);  // whole share lost
      std::fprintf(stderr, "transport error: %s\n",
                   fd.status().ToString().c_str());
      return;
    }
    // This thread's stride-interleaved indices (one pass's worth).
    std::vector<size_t> mine;
    for (size_t i = static_cast<size_t>(tid); i < lines.size();
         i += static_cast<size_t>(threads)) {
      mine.push_back(i);
    }
    const size_t chunk =
        batch_size > 1 ? static_cast<size_t>(batch_size) : 1;
    size_t sent = 0;  ///< queries completed across passes
    for (int pass = 0; pass < passes; ++pass) {
      for (size_t b = 0; b < mine.size(); b += chunk) {
        const size_t n = std::min(chunk, mine.size() - b);
        Request request;
        request.dataset = dataset;
        if (batch_size > 1) {
          // v3 batch frame: n lines, one round trip, one serving epoch.
          request.type = MessageType::kBatchEstimate;
          request.lines.reserve(n);
          for (size_t j = 0; j < n; ++j) {
            request.lines.push_back(lines[mine[b + j]]);
          }
        } else {
          request.type = MessageType::kEstimate;
          request.text = lines[mine[b]];
        }
        auto response = RoundTripRetry(*fd, request, retries);
        if (!response.ok()) {
          // Transport failure: the connection is dead, so the rest of
          // this thread's share cannot be sent either — charge it all
          // instead of spamming a read error per remaining query.
          std::lock_guard<std::mutex> lock(mutex);
          errors += share * static_cast<size_t>(passes) - sent;
          std::fprintf(stderr, "query %zu transport error: %s\n",
                       mine[b], response.status().ToString().c_str());
          ::close(*fd);
          return;
        }
        sent += n;
        std::lock_guard<std::mutex> lock(mutex);
        if (!response->status.ok()) {
          // Frame-level refusal (post-retry saturation, bad dataset, ...)
          // fails every query the frame carried.
          errors += n;
          std::fprintf(stderr, "quer%s %zu%s server error: %s\n",
                       n == 1 ? "y" : "ies", mine[b],
                       n == 1 ? "" : "...",
                       response->status.ToString().c_str());
          continue;
        }
        if (batch_size > 1 && response->batch.size() != n) {
          errors += n;
          std::fprintf(stderr,
                       "batch at query %zu: %zu items answered for %zu "
                       "lines\n",
                       mine[b], response->batch.size(), n);
          continue;
        }
        for (size_t j = 0; j < n; ++j) {
          const size_t i = mine[b + j];
          const util::Status& item_status =
              batch_size > 1 ? response->batch[j].status
                             : response->status;
          if (!item_status.ok()) {
            ++errors;
            std::fprintf(stderr, "query %zu server error: %s\n", i,
                         item_status.ToString().c_str());
            continue;
          }
          const service::EstimateResponse& e =
              batch_size > 1 ? response->batch[j].estimate
                             : response->estimate;
          ++per_epoch[e.epoch];
          for (const service::EstimatorResult& r : e.results) {
            Accum& accum = per_estimator[r.name];
            ++accum.requests;
            accum.micros += r.micros;
            if (!r.ok) {
              ++accum.failures;
            } else if (e.has_truth && harness::UsableQError(r.qerror)) {
              accum.qerror_sum += r.qerror;
              accum.qerror_max = std::max(accum.qerror_max, r.qerror);
              ++accum.qerror_count;
            }
          }
          if (!quiet && pass == 0) {
            std::printf("query %-4zu epoch %llu", i,
                        static_cast<unsigned long long>(e.epoch));
            for (const service::EstimatorResult& r : e.results) {
              if (r.ok) {
                std::printf("  %s=%.4g", r.name.c_str(), r.estimate);
              } else {
                std::printf("  %s=ERR", r.name.c_str());
              }
            }
            std::printf("\n");
          }
        }
      }
    }
    ::close(*fd);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& t : pool) t.join();

  std::printf(
      "\n%zu queries x %d passes over %d connections%s; %zu errors\n",
      lines.size(), passes, threads,
      batch_size > 1
          ? (" (batched x" + std::to_string(batch_size) + ")").c_str()
          : "",
      errors);
  std::printf("epochs observed:");
  for (const auto& [epoch, count] : per_epoch) {
    std::printf(" %llu(x%zu)", static_cast<unsigned long long>(epoch),
                count);
  }
  std::printf("\n\n");
  util::TablePrinter table(
      {"estimator", "requests", "failures", "mean q-error", "max q-error",
       "mean us"});
  for (const auto& [name, accum] : per_estimator) {
    table.AddRow(
        {name, std::to_string(accum.requests),
         std::to_string(accum.failures),
         accum.qerror_count > 0
             ? util::TablePrinter::Num(accum.qerror_sum /
                                       static_cast<double>(
                                           accum.qerror_count))
             : "-",
         accum.qerror_count > 0 ? util::TablePrinter::Num(accum.qerror_max)
                                : "-",
         accum.requests > 0
             ? util::TablePrinter::Num(
                   accum.micros / static_cast<double>(accum.requests))
             : "-"});
  }
  table.Print(std::cout);
  return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string dataset;
  std::vector<std::string> query_texts;
  std::string workload_file, deltas_file, snapshot_path;
  bool ping = false, shutdown = false, quiet = false, watch = false;
  Sections show;
  int threads = 1, passes = 1, batch_size = 1, retries = 3, interval = 2;
  uint64_t request_id = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--host") {
      if (!next(&host)) return Usage();
    } else if (arg == "--dataset") {
      if (!next(&dataset)) return Usage();
    } else if (arg == "--port") {
      if (!next(&value)) return Usage();
      port = std::atoi(value.c_str());
    } else if (arg == "--query") {
      if (!next(&value)) return Usage();
      query_texts.push_back(value);
    } else if (arg == "--workload") {
      if (!next(&workload_file)) return Usage();
    } else if (arg == "--apply-deltas") {
      if (!next(&deltas_file)) return Usage();
    } else if (arg == "--swap-snapshot") {
      if (!next(&snapshot_path)) return Usage();
    } else if (arg == "--threads") {
      if (!next(&value)) return Usage();
      threads = std::atoi(value.c_str());
    } else if (arg == "--passes") {
      if (!next(&value)) return Usage();
      passes = std::atoi(value.c_str());
    } else if (arg == "--batch-size") {
      if (!next(&value)) return Usage();
      batch_size = std::atoi(value.c_str());
    } else if (arg == "--retries") {
      if (!next(&value)) return Usage();
      retries = std::atoi(value.c_str());
    } else if (arg == "--stats") {
      show.stats = true;
    } else if (arg == "--scorecard") {
      show.scorecard = true;
    } else if (arg == "--corrections") {
      show.corrections = true;
    } else if (arg == "--request-id") {
      if (!next(&value)) return Usage();
      request_id = std::strtoull(value.c_str(), nullptr, 0);
    } else if (arg == "--watch") {
      watch = true;
    } else if (arg == "--interval") {
      if (!next(&value)) return Usage();
      interval = std::atoi(value.c_str());
    } else if (arg == "--ping") {
      ping = true;
    } else if (arg == "--shutdown") {
      shutdown = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return Usage();
    }
  }
  if (port <= 0) return Usage();

  if (!workload_file.empty()) {
    return RunWorkload(host, port, dataset, workload_file, threads, passes,
                       batch_size, retries, quiet);
  }

  Request request;
  if (query_texts.size() == 1) {
    request = {MessageType::kEstimate, query_texts.front(), dataset};
  } else if (query_texts.size() > 1) {
    // Several --query flags ride one v3 batch frame: one connection, one
    // round trip, one serving epoch for all of them.
    request.type = MessageType::kBatchEstimate;
    request.dataset = dataset;
    request.lines = query_texts;
  } else if (!deltas_file.empty()) {
    std::ifstream in(deltas_file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", deltas_file.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    request = {MessageType::kApplyDeltas, text.str(), dataset};
  } else if (!snapshot_path.empty()) {
    request = {MessageType::kSwapSnapshot, snapshot_path, dataset};
  } else if (show.stats || show.scorecard || show.corrections) {
    // One page carries every section; the flags only choose what prints.
    request = {MessageType::kStats, "", dataset};
  } else if (ping) {
    // A dataset-qualified ping doubles as a routing probe: the server
    // validates the name without touching the service.
    request = {MessageType::kPing, "", dataset};
  } else if (shutdown) {
    // Shutdown is server-wide; the server rejects a dataset-qualified one.
    request = {MessageType::kShutdown, ""};
  } else {
    return Usage();
  }
  request.request_id = request_id;

  if (request.type == MessageType::kStats && watch) {
    // Re-sample forever (until ^C), annotating monotonic counters with
    // their delta since the previous sample. Each sample is its own
    // connection, so a restarted server only costs failed samples, not
    // the watch: transport errors are reported and retried on the same
    // cadence, and the delta baseline is dropped — the first sample
    // after a reconnect prints plain counters (or "(reset)" markers).
    obs::PromPage prev;
    bool have_prev = false;
    for (int sample = 0;; ++sample) {
      auto pause = [interval] {
        std::this_thread::sleep_for(
            std::chrono::seconds(interval < 1 ? 1 : interval));
      };
      auto response = OneShot(host, port, request, retries);
      if (!response.ok()) {
        std::fprintf(stderr, "transport error: %s (retrying in %ds)\n",
                     response.status().ToString().c_str(),
                     interval < 1 ? 1 : interval);
        have_prev = false;
        pause();
        continue;
      }
      if (!response->status.ok()) {
        // A server-side error frame (unknown dataset, ...) is a request
        // problem, not an outage — retrying would loop on it forever.
        std::fprintf(stderr, "server error: %s\n",
                     response->status.ToString().c_str());
        return 1;
      }
      std::printf("%s--- sample %d (every %ds) ---\n",
                  sample == 0 ? "" : "\n", sample, interval);
      auto page = PrintStats(*response, have_prev ? &prev : nullptr, show);
      if (!page.ok()) {
        std::fprintf(stderr, "stats page: %s\n",
                     page.status().ToString().c_str());
        return 1;
      }
      std::fflush(stdout);
      prev = std::move(*page);
      have_prev = true;
      pause();
    }
  }

  auto response = OneShot(host, port, request, retries);
  if (!response.ok()) {
    std::fprintf(stderr, "transport error: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  if (response->request_id != 0) {
    // The v5 echo — the same 16 hex chars the server's slow log and
    // journal print, so one grep correlates all three.
    std::printf("request id %016llx\n",
                static_cast<unsigned long long>(response->request_id));
  }
  if (!response->status.ok()) {
    // The server answered with an error frame: its own message is the
    // diagnosis (unknown dataset, admission rejection, bad feed, ...).
    std::fprintf(stderr, "server error: %s\n",
                 response->status.ToString().c_str());
    return 1;
  }
  switch (request.type) {
    case MessageType::kEstimate:
      PrintEstimate(response->estimate, response->dataset);
      break;
    case MessageType::kBatchEstimate: {
      size_t item_errors = 0;
      for (size_t i = 0; i < response->batch.size(); ++i) {
        const service::BatchEstimateItem& item = response->batch[i];
        std::printf("[%zu] %s\n", i,
                    i < request.lines.size() ? request.lines[i].c_str()
                                             : "?");
        if (!item.status.ok()) {
          ++item_errors;
          std::fprintf(stderr, "[%zu] server error: %s\n", i,
                       item.status.ToString().c_str());
          continue;
        }
        PrintEstimate(item.estimate, response->dataset);
      }
      if (item_errors > 0) return 1;
      break;
    }
    case MessageType::kApplyDeltas:
    case MessageType::kSwapSnapshot: {
      const service::SwapReport& swap = response->swap;
      std::printf(
          "swapped to epoch %llu (state v%llu): %zu ops applied "
          "(+%zu/-%zu edges, %zu labels, %zu entries evicted), %zu log "
          "ops trimmed%s\n",
          static_cast<unsigned long long>(swap.epoch),
          static_cast<unsigned long long>(swap.version), swap.applied_ops,
          swap.maintenance.inserted_edges, swap.maintenance.deleted_edges,
          swap.maintenance.changed_labels,
          swap.maintenance.total_evicted(), swap.trimmed_log_ops,
          swap.snapshot_stale ? " (stale snapshot, deltas replayed)" : "");
      break;
    }
    case MessageType::kStats:
      if (auto page = PrintStats(*response, nullptr, show); !page.ok()) {
        std::fprintf(stderr, "stats page: %s\n",
                     page.status().ToString().c_str());
        return 1;
      }
      break;
    case MessageType::kPing:
    case MessageType::kShutdown:
      std::printf("%s\n", response->text.c_str());
      break;
  }
  return 0;
}
