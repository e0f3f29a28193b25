// plan_job, end to end: full join-order planning passes with
// planner::DpOptimizer over max-hop-max, in-process and single-threaded.
#include <unistd.h>

#include <bit>
#include <sstream>

#include "dynamic/delta_io.h"
#include "engine/engine.h"
#include "harness/qerror.h"
#include "planner/dp_optimizer.h"
#include "service/request.h"
#include "workloads.h"

namespace perfbench {

using namespace cegraph;

namespace {

bool SamePlan(const planner::Plan& a, const planner::Plan& b) {
  if (a.root != b.root || a.nodes.size() != b.nodes.size() ||
      std::bit_cast<uint64_t>(a.estimated_cost) !=
          std::bit_cast<uint64_t>(b.estimated_cost)) {
    return false;
  }
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    const planner::PlanNode& x = a.nodes[i];
    const planner::PlanNode& y = b.nodes[i];
    if (x.subquery != y.subquery || x.left != y.left || x.right != y.right ||
        x.scan_edge != y.scan_edge ||
        std::bit_cast<uint64_t>(x.estimated_cardinality) !=
            std::bit_cast<uint64_t>(y.estimated_cardinality)) {
      return false;
    }
  }
  return true;
}

}  // namespace

util::StatusOr<std::vector<service::EstimateRequest>> ParseLines(
    const std::vector<std::string>& lines) {
  std::vector<service::EstimateRequest> out;
  for (const std::string& line : lines) {
    auto request = service::ParseRequestLine(line);
    if (!request.ok()) return request.status();
    out.push_back(std::move(*request));
  }
  return out;
}

util::StatusOr<std::vector<std::vector<dynamic::EdgeDelta>>> ParseDeltas(
    const std::vector<std::string>& texts) {
  std::vector<std::vector<dynamic::EdgeDelta>> out;
  for (const std::string& text : texts) {
    std::istringstream in(text);
    auto batch = dynamic::ReadDeltaText(in);
    if (!batch.ok()) return batch.status();
    out.push_back(std::move(*batch));
  }
  return out;
}

util::StatusOr<double> MedianQError(const CardinalityEstimator& estimator,
                                    const std::vector<std::string>& lines) {
  auto requests = ParseLines(lines);
  if (!requests.ok()) return requests.status();
  std::vector<double> qerror;
  for (const service::EstimateRequest& request : *requests) {
    auto estimate = estimator.Estimate(request.query);
    if (!estimate.ok() || !request.truth.has_value()) continue;
    const double q = harness::QError(*estimate, *request.truth);
    if (harness::UsableQError(q)) qerror.push_back(q);
  }
  if (qerror.empty()) {
    return util::FailedPreconditionError("no usable q-error in the pool");
  }
  return Quantile(qerror, 0.5);
}

util::StatusOr<std::unique_ptr<engine::EstimationEngine>> MapEngine(
    const std::string& snapshot) {
  auto g = MakeGraph();
  if (!g.ok()) return g.status();
  auto engine = std::make_unique<engine::EstimationEngine>(
      std::make_shared<const graph::Graph>(std::move(*g)));
  if (auto loaded = engine->context().LoadSnapshotMapped(snapshot);
      !loaded.ok()) {
    return loaded;
  }
  return engine;
}

int RunPlan(const Flags& flags, const WorkloadConfig& config,
            const Inputs& inputs) {
  const Sizing sizing = SizingFor(flags);
  PrintEnvironment(flags, 1, 0);
  auto queries = ParseLines(inputs.plan_lines);
  auto deltas = ParseDeltas(inputs.deltas);
  if (!queries.ok() || !deltas.ok()) {
    std::fprintf(stderr, "inputs: %s%s\n",
                 queries.status().ToString().c_str(),
                 deltas.status().ToString().c_str());
    return 1;
  }
  const std::string& estimator_name = config.suite.front();
  Result result;

  // Set-up: graph build + engine + snapshot map + first estimate.
  std::vector<double> setup_s;
  std::unique_ptr<engine::EstimationEngine> engine;
  for (int launch = 0; launch < sizing.setup_launches; ++launch) {
    engine.reset();
    const double t0 = NowSeconds();
    auto mapped = MapEngine(inputs.snapshot);
    if (!mapped.ok()) {
      std::fprintf(stderr, "engine: %s\n",
                   mapped.status().ToString().c_str());
      return 1;
    }
    engine = std::move(*mapped);
    auto estimator = engine->Estimator(estimator_name);
    result.Attempt();
    if (!estimator.ok() ||
        !(*estimator)->Estimate((*queries)[0].query).ok()) {
      result.Fail();
    }
    setup_s.push_back(NowSeconds() - t0);
  }
  auto estimator = engine->Estimator(estimator_name);
  if (!estimator.ok()) {
    std::fprintf(stderr, "%s\n", estimator.status().ToString().c_str());
    return 1;
  }

  // Timed passes, each from an empty CEG cache so every pass does the
  // same work; every plan must equal the first pass's.
  const planner::DpOptimizer optimizer(**estimator);
  std::vector<planner::Plan> first;
  std::vector<double> latency_ms, pass_rate, pass_p50;
  int passes = 0;
  const double start = NowSeconds();
  while (passes < 2 || NowSeconds() < start + flags.seconds) {
    engine->ceg_cache().Clear();
    const double pass_start = NowSeconds();
    const size_t pass_first = latency_ms.size();
    for (size_t i = 0; i < queries->size(); ++i) {
      const double t0 = NowSeconds();
      auto plan = optimizer.Optimize((*queries)[i].query);
      const double t1 = NowSeconds();
      result.Attempt();
      if (!plan.ok()) {
        result.Fail();
        if (passes == 0) first.emplace_back();
        continue;
      }
      latency_ms.push_back((t1 - t0) * 1e3);
      if (passes == 0) {
        first.push_back(std::move(*plan));
      } else if (!SamePlan(*plan, first[i])) {
        result.Fail();
      }
    }
    pass_rate.push_back(static_cast<double>(queries->size()) /
                        (NowSeconds() - pass_start));
    pass_p50.push_back(Quantile(
        std::vector<double>(latency_ms.begin() + pass_first, latency_ms.end()),
        0.5));
    ++passes;
  }
  const double elapsed = NowSeconds() - start;
  const double peak_rss_mb = PeakRssMb(getpid());

  // Accuracy of the planner's estimator over the larger pool, on an engine
  // of its own so the pool leaves the measured engine untouched.
  util::StatusOr<double> qerror = util::InternalError("no engine");
  if (auto quality = MapEngine(inputs.snapshot); quality.ok()) {
    auto pool_estimator = (*quality)->Estimator(estimator_name);
    if (pool_estimator.ok()) {
      qerror = MedianQError(**pool_estimator, inputs.plan_pool);
    }
  }
  result.Attempt();
  if (!qerror.ok()) result.Fail();

  // Write probe: fold a delta batch into the planner's engine, then plan
  // one query on the new epoch.
  std::vector<double> write_ms;
  for (int k = 0; k < sizing.write_probes; ++k) {
    const double t0 = NowSeconds();
    auto folded = engine->ApplyDeltas((*deltas)[k]);
    auto fresh = engine->Estimator(estimator_name);
    result.Attempt();
    if (!folded.ok() || !fresh.ok() ||
        !planner::DpOptimizer(**fresh)
             .Optimize((*queries)[k % queries->size()].query)
             .ok()) {
      result.Fail();
      continue;
    }
    write_ms.push_back((NowSeconds() - t0) * 1e3);
  }

  std::printf("samples: %zu plans in %d passes over %zu queries in %.3f s, "
              "%zu writes, %zu set-up launches\n",
              latency_ms.size(), passes, queries->size(), elapsed,
              write_ms.size(), setup_s.size());
  result.Add("setup_s", Quantile(setup_s, 0.5), "s");
  // Rates and medians per pass, reported as the better quartile of the
  // passes, as for the serve windows (see WindowStats).
  result.Add("throughput_ops_s", Quantile(pass_rate, 0.75), "1/s");
  result.Add("latency_p50_ms", Quantile(pass_p50, 0.25), "ms");
  result.Add("latency_p99_ms", Quantile(latency_ms, 0.99), "ms");
  result.Add("success_rate",
             1.0 - static_cast<double>(result.failed()) /
                       static_cast<double>(result.attempted()),
             "ratio");
  result.Add("peak_rss_mb", peak_rss_mb, "MiB");
  result.Add("qerror_p50", qerror.ok() ? *qerror : 0, "ratio");
  result.Add("write_p50_ms", Quantile(write_ms, 0.5), "ms");
  result.Print();
  return 0;
}

}  // namespace perfbench
