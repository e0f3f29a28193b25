// The benchmark's workloads: their inputs (built from the seed by
// `prepare`, outside any timed region) and their serving configuration.
#ifndef CEGRAPH_PERFBENCH_WORKLOADS_H_
#define CEGRAPH_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"
#include "dynamic/delta_graph.h"
#include "engine/engine.h"
#include "graph/graph.h"
#include "service/request.h"
#include "util/status.h"

namespace perfbench {

/// What one workload runs against.
struct WorkloadConfig {
  std::string name;
  /// The serving estimator suite (plan_job: the planner's estimator).
  std::vector<std::string> suite;
  bool feedback = false;   ///< daemon --feedback on
  bool churn = false;      ///< delta batches fold while reads run
  bool plan = false;       ///< in-process planning instead of serving
};

/// Resolves --workload; false for an unknown name.
bool ConfigFor(const std::string& workload, WorkloadConfig* config);

/// Every estimator the per-layer metrics name, in report order.
const std::vector<std::string>& AllEstimators();

/// The files `prepare` writes into --dir.
struct Inputs {
  std::vector<std::string> serve_lines;  ///< acyclic + cyclic + job
  std::vector<std::string> plan_lines;   ///< job + acyclic
  /// Larger, separately seeded pools of the same suites, for qerror_p50.
  std::vector<std::string> serve_pool;
  std::vector<std::string> plan_pool;
  std::string snapshot;                  ///< arena snapshot path
  std::vector<std::string> deltas;       ///< delta text, one per batch
};

/// Builds the workload lines (with matcher truth), the arena snapshot and
/// the delta batches for `flags.seed` and writes them to `flags.dir`.
int Prepare(const Flags& flags);

cegraph::util::StatusOr<Inputs> LoadInputs(const Flags& flags);

/// The benchmark's dataset, built the way cegraph_serve builds it.
cegraph::util::StatusOr<cegraph::graph::Graph> MakeGraph();

/// A fresh graph + engine with the arena snapshot mapped in.
cegraph::util::StatusOr<std::unique_ptr<cegraph::engine::EstimationEngine>>
MapEngine(const std::string& snapshot);

/// Workload lines as the service parses them (truth included).
cegraph::util::StatusOr<std::vector<cegraph::service::EstimateRequest>>
ParseLines(const std::vector<std::string>& lines);

/// Median max-hop-max q-error of `estimator` over `lines` (with truth).
cegraph::util::StatusOr<double> MedianQError(
    const cegraph::CardinalityEstimator& estimator,
    const std::vector<std::string>& lines);

/// Delta batches from their text form.
cegraph::util::StatusOr<std::vector<std::vector<cegraph::dynamic::EdgeDelta>>>
ParseDeltas(const std::vector<std::string>& texts);

int RunServe(const Flags& flags, const WorkloadConfig& config,
             const Inputs& inputs);
int RunPlan(const Flags& flags, const WorkloadConfig& config,
            const Inputs& inputs);
int RunTraced(const Flags& flags, const WorkloadConfig& config,
              const Inputs& inputs);

/// cegraph_serve arguments for `config` over `inputs`.
std::vector<std::string> DaemonArgs(const WorkloadConfig& config,
                                    const Inputs& inputs);

}  // namespace perfbench

#endif  // CEGRAPH_PERFBENCH_WORKLOADS_H_
