// bench_snapshot_load — time-to-first-estimate from a saved statistics
// snapshot (the mmap-able arena container).
//
// Gate: arena open time must grow sublinearly with snapshot size. Across a
// wide spread of snapshot bytes, the open-time ratio must stay under half
// the byte ratio: the arena maps, validates section headers, and attaches
// the big hash indexes in place, so no per-entry work happens at open.
//
// The size sweep scales the label alphabet on a fixed vertex/edge budget:
// the index-backed sections (markov patterns, degree joins, dispersion)
// grow superlinearly with labels while the vertex-bound sections stay
// put, which is exactly the regime where in-place attachment pays.
//
// Usage: bench_snapshot_load [instances_per_template]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/snapshot.h"
#include "graph/generators.h"
#include "util/table_printer.h"

namespace {

using namespace cegraph;

double Millis(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Loads `path` into a fresh engine and runs one estimate; returns the
/// best-of-`reps` wall millis for the combined load + first-estimate, i.e.
/// time-to-first-estimate, and the best open time in `*open_millis`.
double TimeToFirstEstimate(const graph::Graph& g, const std::string& path,
                           const query::WorkloadQuery& probe, int reps,
                           double* open_millis) {
  double best = 1e300;
  double best_open = 1e300;
  for (int r = 0; r < reps; ++r) {
    engine::EstimationEngine engine(g);
    auto estimator = engine.Estimator("max-hop-max");
    if (!estimator.ok()) {
      std::fprintf(stderr, "estimator: %s\n",
                   estimator.status().ToString().c_str());
      std::abort();
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto loaded = engine.context().LoadSnapshot(path);
    const double open = Millis(t0);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load %s: %s\n", path.c_str(),
                   loaded.ToString().c_str());
      std::abort();
    }
    (void)(*estimator)->Estimate(probe.query);
    best = std::min(best, Millis(t0));
    best_open = std::min(best_open, open);
  }
  *open_millis = best_open;
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const int instances = bench::InstancesFromArgs(argc, argv, 6);
  constexpr int kReps = 5;

  const auto tmp = std::filesystem::temp_directory_path();
  const std::vector<uint32_t> label_scales = {6, 16, 40};

  util::TablePrinter table(
      {"labels", "arena bytes", "arena ttfe (ms)", "arena open (ms)"});
  std::vector<double> arena_open_ms;
  std::vector<uint64_t> arena_bytes;
  for (const uint32_t labels : label_scales) {
    graph::GeneratorConfig config;
    config.num_vertices = 5000;
    config.num_edges = 40000;
    config.num_labels = labels;
    config.seed = 17;
    auto g = graph::GenerateGraph(config);
    if (!g.ok()) {
      std::fprintf(stderr, "graph: %s\n", g.status().ToString().c_str());
      return 1;
    }
    query::WorkloadOptions options;
    options.instances_per_template = instances;
    options.seed = 99;
    auto wl = query::GenerateWorkload(*g, bench::SuiteByName("acyclic"),
                                      options);
    if (!wl.ok()) {
      std::fprintf(stderr, "workload: %s\n", wl.status().ToString().c_str());
      return 1;
    }

    engine::EstimationContext builder(*g);
    engine::PrewarmOptions prewarm;
    prewarm.dispersion = true;
    builder.Prewarm(*wl, prewarm);
    const std::string arena_path =
        (tmp / ("bench_snap_v3_" + std::to_string(labels) + ".snap"))
            .string();
    if (auto s = builder.SaveSnapshot(arena_path); !s.ok()) {
      std::fprintf(stderr, "save arena: %s\n", s.ToString().c_str());
      return 1;
    }

    const uint64_t arena_size = std::filesystem::file_size(arena_path);
    double open = 0;
    const double t_arena =
        TimeToFirstEstimate(*g, arena_path, wl->front(), kReps, &open);
    arena_open_ms.push_back(open);
    arena_bytes.push_back(arena_size);
    table.AddRow({std::to_string(labels), std::to_string(arena_size),
                  util::TablePrinter::Num(t_arena),
                  util::TablePrinter::Num(open)});
    std::remove(arena_path.c_str());
  }
  table.Print(std::cout);

  const double byte_ratio =
      static_cast<double>(arena_bytes.back()) /
      static_cast<double>(std::max<uint64_t>(1, arena_bytes.front()));
  const double open_ratio =
      arena_open_ms.back() / std::max(1e-6, arena_open_ms.front());
  const bool sublinear_pass = open_ratio < 0.5 * byte_ratio;
  std::printf("\n[%s] arena open grows sublinearly with snapshot size "
              "(bytes grew %.1fx, open time %.1fx)\n",
              sublinear_pass ? "PASS" : "FAIL", byte_ratio, open_ratio);
  return sublinear_pass ? 0 : 1;
}
