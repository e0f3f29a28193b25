// `perfbench_driver prepare`: everything the program under test receives,
// built from the seed before any timing starts.
#include <algorithm>
#include <cstdio>

#include "dynamic/delta_io.h"
#include "engine/estimation_context.h"
#include "graph/datasets.h"
#include "query/templates.h"
#include "query/workload.h"
#include "query/workload_io.h"
#include "workloads.h"

namespace perfbench {

using namespace cegraph;

namespace {

constexpr const char* kSuites[] = {"acyclic", "cyclic", "job"};
constexpr uint64_t kPoolSeedOffset = 1'000'000;

std::string SuitePath(const std::string& dir, const std::string& suite) {
  return dir + "/" + suite + ".txt";
}

/// The larger query pool accuracy is measured over (q-error medians of a
/// few dozen queries swing with the seed; over a thousand they do not).
std::string PoolPath(const std::string& dir, const std::string& suite) {
  return dir + "/" + suite + "_pool.txt";
}

/// Instantiates `suite` with truth and saves it; appends the queries to
/// `all` when non-null.
bool GenerateSuite(const graph::Graph& g, const std::string& suite,
                   int instances, uint64_t seed, const std::string& path,
                   std::vector<query::WorkloadQuery>* all) {
  auto templates = query::SuiteTemplatesByName(suite);
  if (!templates.ok()) {
    std::fprintf(stderr, "%s\n", templates.status().ToString().c_str());
    return false;
  }
  query::WorkloadOptions options;
  options.instances_per_template = instances;
  options.seed = seed;
  auto workload = query::GenerateWorkload(g, *templates, options);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload %s: %s\n", suite.c_str(),
                 workload.status().ToString().c_str());
    return false;
  }
  if (auto saved = query::SaveWorkload(*workload, path); !saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return false;
  }
  if (all != nullptr) all->insert(all->end(), workload->begin(), workload->end());
  return true;
}

std::string DeltaPath(const std::string& dir, int batch) {
  return dir + "/deltas_" + std::to_string(batch) + ".txt";
}

}  // namespace

bool ConfigFor(const std::string& workload, WorkloadConfig* config) {
  config->name = workload;
  if (workload == "serve_mixed") {
    config->suite = {"max-hop-max", "all-hops-avg", "molp", "cbs", "cs"};
  } else if (workload == "serve_churn") {
    config->suite = {"max-hop-max", "all-hops-avg", "cbs"};
    config->feedback = true;
    config->churn = true;
  } else if (workload == "plan_job") {
    config->suite = {"max-hop-max"};
    config->plan = true;
  } else {
    return false;
  }
  return true;
}

const std::vector<std::string>& AllEstimators() {
  static const std::vector<std::string> names = {
      "max-hop-max", "all-hops-avg", "molp", "cbs", "cs"};
  return names;
}

util::StatusOr<graph::Graph> MakeGraph() { return graph::MakeDataset(kDataset); }

std::vector<std::string> DaemonArgs(const WorkloadConfig& config,
                                    const Inputs& inputs) {
  std::string suite;
  for (const std::string& name : config.suite) {
    suite += (suite.empty() ? "" : ",") + name;
  }
  return {"--dataset", std::string(kDataset) + "@" + inputs.snapshot,
          "--port", "0",
          "--workers", std::to_string(kServerWorkers),
          "--estimators", suite,
          "--feedback", config.feedback ? "on" : "off"};
}

int Prepare(const Flags& flags) {
  const Sizing sizing = SizingFor(flags);
  const double t0 = NowSeconds();
  auto g = MakeGraph();
  if (!g.ok()) {
    std::fprintf(stderr, "dataset: %s\n", g.status().ToString().c_str());
    return 1;
  }
  std::vector<query::WorkloadQuery> all;
  size_t pool = 0;
  for (const std::string suite : kSuites) {
    if (!GenerateSuite(*g, suite, sizing.instances, flags.seed,
                       SuitePath(flags.dir, suite), &all)) {
      return 1;
    }
    // Cyclic truth is by far the costliest to count, so its pool share is
    // smaller.
    const int pool_instances =
        suite == "cyclic" ? sizing.pool_instances / 4 : sizing.pool_instances;
    std::vector<query::WorkloadQuery> pooled;
    if (!GenerateSuite(*g, suite, std::max(1, pool_instances),
                       flags.seed + kPoolSeedOffset,
                       PoolPath(flags.dir, suite), &pooled)) {
      return 1;
    }
    pool += pooled.size();
  }

  // The arena snapshot the daemon and the planner map: every statistic the
  // workload touches, prewarmed, as `cegraph_stats build --format arena`
  // writes it.
  engine::EstimationContext context(*g);
  context.Prewarm(all);
  if (auto saved = context.SaveSnapshot(flags.dir + "/snapshot.arena",
                                        engine::SnapshotFormat::kArena);
      !saved.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", saved.ToString().c_str());
    return 1;
  }

  for (int b = 0; b < sizing.delta_batches; ++b) {
    const auto batch = dynamic::RandomEdgeBatch(
        *g, kDeltaOps, flags.seed * 1'000'003ULL + static_cast<uint64_t>(b));
    if (auto saved = dynamic::SaveDeltaBatch(batch, DeltaPath(flags.dir, b));
        !saved.ok()) {
      std::fprintf(stderr, "deltas: %s\n", saved.ToString().c_str());
      return 1;
    }
  }
  std::printf("prepared %zu queries (accuracy pool %zu), %d delta batches of %d ops, snapshot "
              "in %.2f s (seed %llu)\n",
              all.size(), pool, sizing.delta_batches, kDeltaOps,
              NowSeconds() - t0, static_cast<unsigned long long>(flags.seed));
  return 0;
}

util::StatusOr<Inputs> LoadInputs(const Flags& flags) {
  const Sizing sizing = SizingFor(flags);
  Inputs inputs;
  for (const char* suite : kSuites) {
    auto lines = ReadLines(SuitePath(flags.dir, suite));
    if (!lines.ok()) return lines.status();
    auto pool = ReadLines(PoolPath(flags.dir, suite));
    if (!pool.ok()) return pool.status();
    const std::string name = suite;
    inputs.serve_lines.insert(inputs.serve_lines.end(), lines->begin(),
                              lines->end());
    inputs.serve_pool.insert(inputs.serve_pool.end(), pool->begin(),
                             pool->end());
    if (name != "cyclic") {
      inputs.plan_lines.insert(inputs.plan_lines.end(), lines->begin(),
                               lines->end());
      inputs.plan_pool.insert(inputs.plan_pool.end(), pool->begin(),
                              pool->end());
    }
  }
  inputs.snapshot = flags.dir + "/snapshot.arena";
  for (int b = 0; b < sizing.delta_batches; ++b) {
    auto text = ReadFile(DeltaPath(flags.dir, b));
    if (!text.ok()) return text.status();
    inputs.deltas.push_back(std::move(*text));
  }
  if (inputs.serve_lines.empty() || inputs.plan_lines.empty()) {
    return util::FailedPreconditionError("prepare produced no queries");
  }
  return inputs;
}

}  // namespace perfbench
