// Micro-benchmarks (google-benchmark): per-operation costs of the core
// library — Markov-table lookups, CEG_O construction, estimate extraction,
// characteristic-sets star estimates, join-order planning passes, MOLP
// Dijkstra, exact counting, and WanderJoin walks. These back the paper's
// claim that summary-based estimation latency is independent of data size
// (§6.5), in contrast to sampling.
//
// The engine-layer benchmarks at the bottom assert two EstimationEngine
// invariants while timing them:
//   - the 9-optimistic suite performs exactly one CEG build per
//     (query class, CEG kind), observed through CegCache counters;
//   - the parallel WorkloadRunner produces results identical to the serial
//     path (timing fields aside), while using all cores;
//   - a suite started from a summary snapshot (LoadSnapshot) produces
//     results identical to a cold run while skipping statistics
//     construction (compare BM_SuiteColdStart vs BM_SuiteSnapshotStart).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "estimators/optimistic.h"
#include "estimators/pessimistic.h"
#include "estimators/wander_join.h"
#include "graph/datasets.h"
#include "harness/workload_runner.h"
#include "matching/matcher.h"
#include "planner/dp_optimizer.h"
#include "query/query_graph.h"
#include "query/workload.h"
#include "stats/char_sets.h"
#include "stats/markov_table.h"

namespace {

using namespace cegraph;

struct Fixture {
  graph::Graph graph;
  query::QueryGraph query;
  std::vector<query::WorkloadQuery> workload;

  static Fixture& Get() {
    static Fixture& instance = *new Fixture(Make());
    return instance;
  }

  static Fixture Make() {
    auto g = graph::MakeDataset("epinions_like");
    if (!g.ok()) std::abort();
    query::WorkloadOptions options;
    options.instances_per_template = 1;
    options.seed = 0xBEEF;
    auto wl = query::GenerateWorkload(
        *g, {{"cat6", query::CaterpillarShape(6, 4)}}, options);
    if (!wl.ok()) std::abort();
    query::WorkloadOptions suite_options;
    suite_options.instances_per_template = 4;
    suite_options.seed = 0xBEEF;
    auto suite_wl =
        query::GenerateWorkload(*g, query::AcyclicTemplates(), suite_options);
    if (!suite_wl.ok()) std::abort();
    return {std::move(*g), (*wl)[0].query, std::move(*suite_wl)};
  }
};

void BM_MarkovTableColdBuild(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  for (auto _ : state) {
    stats::MarkovTable markov(f.graph, 2);
    OptimisticEstimator est(markov, OptimisticSpec{});
    benchmark::DoNotOptimize(est.Estimate(f.query));
  }
}
BENCHMARK(BM_MarkovTableColdBuild);

void BM_OptimisticEstimateWarm(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  stats::MarkovTable markov(f.graph, 2);
  OptimisticEstimator est(markov, OptimisticSpec{});
  (void)est.Estimate(f.query);  // warm the table
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.Estimate(f.query));
  }
}
BENCHMARK(BM_OptimisticEstimateWarm);

void BM_CegOBuild(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  stats::MarkovTable markov(f.graph, 2);
  OptimisticEstimator est(markov, OptimisticSpec{});
  (void)est.Estimate(f.query);
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.BuildCeg(f.query));
  }
}
BENCHMARK(BM_CegOBuild);

/// Characteristic-sets star estimate on imdb_like over the owned summary
/// (mapped=0) or one attached to a copy of its flat bytes (mapped=1), for
/// stars over the 1 or 3 labels with the most distinct sources (the widest
/// posting runs).
void BM_CsEstimateStar(benchmark::State& state) {
  static const graph::Graph& g =
      *new graph::Graph(graph::MakeDataset("imdb_like").value());
  static const stats::CharacteristicSets& owned =
      *new stats::CharacteristicSets(g);
  static const std::string& bytes = *new std::string(owned.SaveArena());
  static const stats::CharacteristicSets& mapped =
      *new stats::CharacteristicSets(
          stats::CharacteristicSets::AttachMapped(bytes, nullptr,
                                                  g.num_labels())
              .value());
  std::vector<graph::Label> labels(g.num_labels());
  std::iota(labels.begin(), labels.end(), 0);
  std::stable_sort(labels.begin(), labels.end(),
                   [](graph::Label a, graph::Label b) {
                     return g.NumDistinctSources(a) > g.NumDistinctSources(b);
                   });
  labels.resize(static_cast<size_t>(state.range(1)));
  const stats::CharacteristicSets& cs = state.range(0) != 0 ? mapped : owned;
  (void)cs.EstimateStar(labels);  // the mapped index builds on first use
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs.EstimateStar(labels));
  }
}
BENCHMARK(BM_CsEstimateStar)
    ->ArgNames({"mapped", "labels"})
    ->Args({0, 1})
    ->Args({0, 3})
    ->Args({1, 1})
    ->Args({1, 3});

/// QueryGraph::CanonicalCode on fresh queries (the code is memoized per
/// query value, so each call gets its own copy, built in batches outside
/// the timing). Cases: the 2- and 3-vertex Markov-table keys (the most
/// frequent callers), a 4-vertex diamond, the JOB-like 4-edge star, a
/// 7-vertex path, and the fully symmetric worst cases: a same-label 6-leaf
/// star and a same-label regular 7-vertex tournament.
query::QueryGraph QueryOf(const std::vector<query::QueryEdge>& edges) {
  uint32_t n = 0;
  for (const query::QueryEdge& e : edges) {
    n = std::max({n, e.src + 1, e.dst + 1});
  }
  return query::QueryGraph::Create(n, edges).value();
}

void BM_CanonicalCode(benchmark::State& state,
                      std::vector<query::QueryEdge> edges) {
  constexpr size_t kBatch = 256;
  std::vector<query::QueryGraph> batch;
  size_t next = kBatch;
  for (auto _ : state) {
    if (next == kBatch) {
      state.PauseTiming();
      batch.clear();
      for (size_t i = 0; i < kBatch; ++i) {
        batch.push_back(QueryOf(edges));
      }
      next = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(batch[next++].CanonicalCode());
  }
}

std::vector<query::QueryEdge> SameLabelTournament7() {
  std::vector<query::QueryEdge> edges;
  for (uint32_t v = 0; v < 7; ++v) {
    for (uint32_t step = 1; step <= 3; ++step) {
      edges.push_back({v, (v + step) % 7, 5});
    }
  }
  return edges;
}

BENCHMARK_CAPTURE(BM_CanonicalCode, edge2, {{0, 1, 3}});
BENCHMARK_CAPTURE(BM_CanonicalCode, path3, {{0, 1, 3}, {2, 1, 5}});
BENCHMARK_CAPTURE(BM_CanonicalCode, diamond4,
                  {{0, 1, 2}, {0, 2, 2}, {1, 3, 7}, {2, 3, 4}});
BENCHMARK_CAPTURE(BM_CanonicalCode, job_star4,
                  {{0, 1, 19}, {0, 2, 17}, {3, 0, 11}, {0, 4, 32}});
BENCHMARK_CAPTURE(BM_CanonicalCode, path7,
                  {{0, 1, 4}, {2, 1, 9}, {2, 3, 4}, {3, 4, 12},
                   {5, 4, 1}, {5, 6, 4}});
BENCHMARK_CAPTURE(BM_CanonicalCode, star6_same_label,
                  {{0, 1, 5}, {0, 2, 5}, {0, 3, 5}, {0, 4, 5}, {0, 5, 5},
                   {0, 6, 5}});
BENCHMARK_CAPTURE(BM_CanonicalCode, tournament7_same_label,
                  SameLabelTournament7());

/// One join-order planning pass: planner::DpOptimizer over the registry's
/// max-hop-max on epinions_like, from an empty CEG cache each iteration
/// (the Markov table is warmed first). Cases: a JOB-like 4-edge star, a
/// 6-leaf star, a 7-edge path and a 4-cycle with a 2-edge tail.
void BM_PlanSubplans(benchmark::State& state,
                     std::vector<query::QueryEdge> edges) {
  static engine::EstimationEngine& engine =
      *new engine::EstimationEngine(Fixture::Get().graph);
  const query::QueryGraph q = QueryOf(edges);
  auto estimator = engine.Estimator("max-hop-max");
  if (!estimator.ok()) {
    state.SkipWithError("no max-hop-max");
    return;
  }
  const planner::DpOptimizer optimizer(**estimator);
  if (!optimizer.Optimize(q).ok()) {
    state.SkipWithError("planning failed");
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    engine.ceg_cache().Clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(optimizer.Optimize(q));
  }
}
BENCHMARK_CAPTURE(BM_PlanSubplans, job_star4,
                  {{0, 1, 19}, {0, 2, 17}, {3, 0, 11}, {0, 4, 23}});
BENCHMARK_CAPTURE(BM_PlanSubplans, star6,
                  {{0, 1, 3}, {0, 2, 5}, {3, 0, 3}, {0, 4, 8}, {0, 5, 5},
                   {6, 0, 1}});
BENCHMARK_CAPTURE(BM_PlanSubplans, path7,
                  {{0, 1, 4}, {2, 1, 9}, {2, 3, 4}, {3, 4, 12}, {5, 4, 1},
                   {5, 6, 4}, {6, 7, 9}});
BENCHMARK_CAPTURE(BM_PlanSubplans, cycle4_tail2,
                  {{0, 1, 2}, {1, 2, 7}, {3, 2, 2}, {3, 0, 5}, {3, 4, 7},
                   {5, 4, 1}});

void BM_MolpEstimate(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  stats::StatsCatalog catalog(f.graph);
  MolpEstimator molp(catalog, /*include_two_joins=*/false);
  (void)molp.Estimate(f.query);
  for (auto _ : state) {
    benchmark::DoNotOptimize(molp.Estimate(f.query));
  }
}
BENCHMARK(BM_MolpEstimate);

void BM_ExactCount(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  matching::Matcher matcher(f.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Count(f.query));
  }
}
BENCHMARK(BM_ExactCount);

void BM_WanderJoin(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  WanderJoinOptions options;
  options.sampling_ratio =
      static_cast<double>(state.range(0)) / 10000.0;
  WanderJoinEstimator wj(f.graph, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wj.Estimate(f.query));
  }
}
BENCHMARK(BM_WanderJoin)->Arg(1)->Arg(25)->Arg(75);

// --- Engine layer -----------------------------------------------------------

/// The 9 optimistic estimators as registry instances sharing the engine's
/// CegCache: 9 estimates per query for one CEG build. After every
/// iteration the cache counters must show exactly one build (miss) per
/// (query class, CEG kind) — the invariant the CegCache exists for.
void BM_OptimisticSuiteSharedCeg(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  engine::EstimationEngine engine(f.graph);
  (void)engine.context().markov().num_entries();
  std::vector<std::string> names;
  for (const auto& spec : AllOptimisticSpecs()) names.push_back(SpecName(spec));
  auto estimators = engine.Estimators(names);
  if (!estimators.ok()) {
    state.SkipWithError("registry resolution failed");
    return;
  }
  harness::RunnerOptions serial;
  serial.num_threads = 1;
  harness::WorkloadRunner runner(serial);
  for (auto _ : state) {
    engine.ceg_cache().Clear();
    auto result = runner.RunSuite(*estimators, f.workload);
    benchmark::DoNotOptimize(result);
    const uint64_t builds = engine.ceg_cache().misses();
    if (builds > f.workload.size()) {
      state.SkipWithError("CegCache rebuilt a CEG for a known query class");
      return;
    }
    state.counters["ceg_builds"] = static_cast<double>(builds);
    state.counters["queries"] = static_cast<double>(f.workload.size());
    state.counters["builds_per_query"] =
        static_cast<double>(builds) / static_cast<double>(f.workload.size());
  }
}
BENCHMARK(BM_OptimisticSuiteSharedCeg)->Unit(benchmark::kMillisecond);

/// The same 9 estimators constructed the seed way — each Estimate() runs
/// its own BuildCegO, i.e. 9 builds per query instead of 1.
void BM_OptimisticSuiteUncached(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  stats::MarkovTable markov(f.graph, 2);
  (void)markov.num_entries();
  std::vector<std::unique_ptr<OptimisticEstimator>> owned;
  std::vector<const CardinalityEstimator*> estimators;
  for (const auto& spec : AllOptimisticSpecs()) {
    owned.push_back(std::make_unique<OptimisticEstimator>(markov, spec));
    estimators.push_back(owned.back().get());
  }
  harness::RunnerOptions serial;
  serial.num_threads = 1;
  harness::WorkloadRunner runner(serial);
  for (auto _ : state) {
    auto result = runner.RunSuite(estimators, f.workload);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_OptimisticSuiteUncached)->Unit(benchmark::kMillisecond);

bool SameSuiteModuloTiming(const harness::SuiteResult& a,
                           const harness::SuiteResult& b) {
  if (a.queries_used != b.queries_used ||
      a.queries_dropped != b.queries_dropped ||
      a.reports.size() != b.reports.size()) {
    return false;
  }
  for (size_t i = 0; i < a.reports.size(); ++i) {
    const auto& ra = a.reports[i];
    const auto& rb = b.reports[i];
    const auto& sa = ra.signed_log_qerror;
    const auto& sb = rb.signed_log_qerror;
    if (ra.name != rb.name || ra.failures != rb.failures ||
        sa.count != sb.count || sa.min != sb.min || sa.max != sb.max ||
        sa.p25 != sb.p25 || sa.median != sb.median || sa.p75 != sb.p75 ||
        sa.mean != sb.mean || sa.trimmed_mean != sb.trimmed_mean) {
      return false;
    }
  }
  return true;
}

/// Serial vs parallel WorkloadRunner over the same estimator suite. Run
/// with `--benchmark_filter=WorkloadSuite` and compare wall times: on a
/// 4+ core machine the parallel variant is expected to be >= 2x faster.
/// Both variants also cross-check result equality against a reference
/// serial run (aborting the benchmark on any mismatch).
void RunWorkloadSuite(benchmark::State& state, int num_threads) {
  Fixture& f = Fixture::Get();
  engine::EstimationEngine engine(f.graph);
  auto estimators = engine.Estimators({"max-hop-max", "all-hops-avg",
                                       "min-hop-min", "molp", "cs"});
  if (!estimators.ok()) {
    state.SkipWithError("registry resolution failed");
    return;
  }
  harness::RunnerOptions serial;
  serial.num_threads = 1;
  const harness::SuiteResult reference =
      harness::WorkloadRunner(serial).RunSuite(*estimators, f.workload);

  harness::RunnerOptions options;
  options.num_threads = num_threads;
  harness::WorkloadRunner runner(options);
  for (auto _ : state) {
    auto result = runner.RunSuite(*estimators, f.workload);
    if (!SameSuiteModuloTiming(result, reference)) {
      state.SkipWithError("parallel result differs from serial result");
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  state.counters["threads"] =
      static_cast<double>(harness::WorkloadRunner(options).ResolvedThreads());
}

void BM_WorkloadSuiteSerial(benchmark::State& state) {
  RunWorkloadSuite(state, 1);
}
BENCHMARK(BM_WorkloadSuiteSerial)->Unit(benchmark::kMillisecond);

void BM_WorkloadSuiteParallel(benchmark::State& state) {
  RunWorkloadSuite(state, 0);  // all cores
}
BENCHMARK(BM_WorkloadSuiteParallel)->Unit(benchmark::kMillisecond);

// --- Snapshot layer ---------------------------------------------------------

const std::vector<std::string>& SnapshotSuiteNames() {
  static const std::vector<std::string>& names =
      *new std::vector<std::string>{"max-hop-max", "all-hops-avg", "molp",
                                    "cs", "sumrdf"};
  return names;
}

/// A summary snapshot of the shared fixture's workload, built once per
/// process (prewarm + save), reused by the cold-start benchmarks below.
struct SnapshotFixture {
  std::string path;

  static SnapshotFixture& Get() {
    static SnapshotFixture& instance = *new SnapshotFixture(Make());
    return instance;
  }

  static SnapshotFixture Make() {
    Fixture& f = Fixture::Get();
    SnapshotFixture s;
    s.path = (std::filesystem::temp_directory_path() /
              "cegraph_bench_micro.snap")
                 .string();
    engine::EstimationContext context(f.graph);
    context.Prewarm(f.workload);
    if (!context.SaveSnapshot(s.path).ok()) std::abort();
    return s;
  }
};

harness::SuiteResult RunSnapshotSuite(engine::EstimationEngine& engine) {
  auto estimators = engine.Estimators(SnapshotSuiteNames());
  if (!estimators.ok()) std::abort();
  harness::RunnerOptions serial;
  serial.num_threads = 1;
  return harness::WorkloadRunner(serial).RunSuite(*estimators,
                                                  Fixture::Get().workload);
}

/// Full cold start: fresh context, every statistic recomputed during the
/// suite. This is the per-process price the snapshot layer eliminates.
void BM_SuiteColdStart(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  for (auto _ : state) {
    engine::EstimationEngine engine(f.graph);
    auto result = RunSnapshotSuite(engine);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SuiteColdStart)->Unit(benchmark::kMillisecond);

/// Snapshot start: fresh context, statistics restored from disk, suite runs
/// entirely on warm caches — and must produce results identical to the
/// cold run (the snapshot contract; SkipWithError on any difference).
void BM_SuiteSnapshotStart(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  SnapshotFixture& snap = SnapshotFixture::Get();
  harness::SuiteResult reference;
  {
    engine::EstimationEngine engine(f.graph);
    reference = RunSnapshotSuite(engine);
  }
  for (auto _ : state) {
    engine::EstimationEngine engine(f.graph);
    if (!engine.context().LoadSnapshot(snap.path).ok()) {
      state.SkipWithError("snapshot load failed");
      return;
    }
    auto result = RunSnapshotSuite(engine);
    if (!SameSuiteModuloTiming(result, reference)) {
      state.SkipWithError("snapshot-started result differs from cold run");
      return;
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SuiteSnapshotStart)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
