// cegraph_stats — build, inspect, verify, refresh and shard persistent
// summary snapshots; generate workload and delta-feed files for the
// serving stack.
//
//   cegraph_stats build    --dataset <name> --out <file> [flags]
//   cegraph_stats inspect  <file> [--dataset <name>]
//   cegraph_stats verify   --dataset <name>
//                          (--snapshot <file> | --manifest <file> | both)
//                          [flags]
//   cegraph_stats refresh  --dataset <name> --snapshot <file>
//                          (--deltas <file> | --random N) [--out <file>]
//   cegraph_stats shard    --dataset <name> --snapshot <file>
//                          --shards N --out <manifest>
//   cegraph_stats workload --dataset <name> --out <file> [--suite S]
//                          [--instances N] [--seed S]
//   cegraph_stats deltas   --dataset <name> --random N --out <file> [--seed S]
//
// `build` materializes a dataset, instantiates a workload (a generated
// suite, or a saved workload file via --workload), prewarns every
// statistics cache the workload can touch (in parallel) and writes the
// versioned snapshot. `inspect` prints the header, fingerprint and
// per-section sizes without needing the graph; with --dataset it also
// loads the snapshot into a live context and prints per-cache residency
// and hit/miss/evict counters. `verify` reloads the snapshot into a fresh
// context and checks that every registry estimator produces bit-identical
// estimates to a cold in-memory run — the correctness contract of the
// snapshot layer. `refresh` loads a snapshot, applies an edge-delta batch
// (a text delta file, or a --random batch for demos) through the
// incremental maintenance path, reports what was carried / exactly updated
// / evicted, and optionally writes the refreshed snapshot. `shard` splits
// a monolithic snapshot into a manifest + per-key-range shard files (see
// docs/sharding.md); `verify` accepts either artifact shape and, given
// both --snapshot and --manifest, checks the sharded union reproduces the
// monolithic estimates bit-identically.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dynamic/delta_io.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "graph/datasets.h"
#include "harness/workload_runner.h"
#include "query/templates.h"
#include "query/workload.h"
#include "query/workload_io.h"
#include "util/strings.h"

namespace {

using namespace cegraph;

struct CommonFlags {
  std::string dataset;
  std::string suite = "acyclic";
  std::string workload_file;  ///< saved workload instead of a suite
  int instances = 4;
  uint64_t seed = 1;
  int markov_h = 2;
  int threads = 0;
  bool dispersion = false;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  cegraph_stats build --dataset <name> --out <file>\n"
      "      [--suite NAME | --workload FILE] [--instances N] [--seed S]\n"
      "      [--markov-h H] [--threads T] [--dispersion]\n"
      "  cegraph_stats inspect <file> [--dataset <name>]\n"
      "  cegraph_stats verify --dataset <name>\n"
      "      (--snapshot <file> | --manifest <file> | both)\n"
      "      [--suite ... | --workload FILE] [--instances N] [--seed S]\n"
      "      [--markov-h H] [--threads T] [--estimators name1,name2,...]\n"
      "  cegraph_stats refresh --dataset <name> --snapshot <file>\n"
      "      (--deltas FILE | --random N) [--out <file>] [--seed S]\n"
      "      [--markov-h H]\n"
      "  cegraph_stats shard --dataset <name> --snapshot <file>\n"
      "      --shards N --out <manifest> [--markov-h H]\n"
      "  cegraph_stats workload --dataset <name> --out <file>\n"
      "      [--suite NAME] [--instances N] [--seed S]\n"
      "  cegraph_stats deltas --dataset <name> --random N --out <file>\n"
      "      [--seed S]\n"
      "\ndatasets:");
  for (const std::string& name : graph::DatasetNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\nsuites:");
  for (const std::string& name : query::SuiteNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Prints one line per statistics cache: residency plus hit/miss/evict
/// counters — how prewarm/load filled it and what invalidation removed.
void PrintCacheStats(const engine::EstimationContext& context) {
  std::printf("%-16s %10s %10s %10s %10s\n", "cache", "entries", "hits",
              "misses", "evicted");
  for (const auto& cs : context.CollectCacheStats()) {
    std::printf("%-16s %10zu %10" PRIu64 " %10" PRIu64 " %10" PRIu64 "\n",
                cs.name.c_str(), cs.entries, cs.counters.hits,
                cs.counters.misses, cs.counters.evictions);
  }
}

/// Copies the loaded arena indexes into `context`'s memo caches. False
/// after printing the error.
bool Materialize(const engine::EstimationContext& context) {
  auto materialized = context.MaterializeMappedIndexes();
  if (!materialized.ok()) {
    std::fprintf(stderr, "materialize: %s\n",
                 materialized.ToString().c_str());
  }
  return materialized.ok();
}

/// Loads `path` into `context`, reconstructing post-delta snapshots when
/// needed: if the fingerprints mismatch because the
/// context sits at the snapshot's *base* graph, the snapshot's embedded
/// delta log is applied first and the load retried as a fresh load. The
/// loaded indexes are then copied into the memo caches: re-export (shard,
/// refresh --out) and delta migration see only memo entries, and the
/// residency inspect prints then counts what the file carried. Prints
/// what happened; false (after printing the error) on failure.
bool LoadIntoContext(engine::EstimationContext& context,
                     const std::string& path) {
  engine::EstimationContext::SnapshotLoadReport report;
  auto loaded = context.LoadSnapshot(path, &report);
  if (loaded.ok()) {
    std::printf("loaded %s (%s)\n", path.c_str(),
                report.stale ? "stale, deltas replayed" : "fresh");
    return Materialize(context);
  }
  if (loaded.code() == util::StatusCode::kFailedPrecondition) {
    auto log = engine::ReadSnapshotDeltaLog(path);
    if (log.ok() && !log->empty()) {
      auto applied = context.ApplyDeltas(*log);
      if (applied.ok()) {
        auto retried = context.LoadSnapshot(path, &report);
        if (retried.ok()) {
          std::printf("loaded %s (reconstructed: replayed %zu embedded "
                      "deltas onto the base graph)\n",
                      path.c_str(), log->size());
          return Materialize(context);
        }
      }
    }
  }
  std::fprintf(stderr, "load: %s\n", loaded.ToString().c_str());
  return false;
}

/// Parses `--flag value` / `--flag` style arguments shared by build and
/// verify. Returns false (after printing the offender) on anything it does
/// not recognize; flags in `extra` are forwarded to the caller.
bool ParseFlags(int argc, char** argv, int start, CommonFlags* flags,
                std::vector<std::pair<std::string, std::string>>* extra) {
  for (int i = start; i < argc; ++i) {
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
    if (arg == "--dataset") {
      if (!next(&flags->dataset)) return false;
    } else if (arg == "--suite") {
      if (!next(&flags->suite)) return false;
    } else if (arg == "--workload") {
      if (!next(&flags->workload_file)) return false;
    } else if (arg == "--instances") {
      if (!next(&value)) return false;
      flags->instances = std::atoi(value.c_str());
      if (flags->instances <= 0) {
        std::fprintf(stderr, "--instances must be positive\n");
        return false;
      }
    } else if (arg == "--seed") {
      if (!next(&value)) return false;
      flags->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--markov-h") {
      if (!next(&value)) return false;
      flags->markov_h = std::atoi(value.c_str());
      if (flags->markov_h < 1 || flags->markov_h > 4) {
        std::fprintf(stderr, "--markov-h must be in 1..4\n");
        return false;
      }
    } else if (arg == "--threads") {
      if (!next(&value)) return false;
      flags->threads = std::atoi(value.c_str());
    } else if (arg == "--dispersion") {
      flags->dispersion = true;
    } else if (arg == "--out" || arg == "--snapshot" ||
               arg == "--estimators" || arg == "--deltas" ||
               arg == "--random" || arg == "--manifest" ||
               arg == "--shards") {
      if (!next(&value)) return false;
      extra->emplace_back(arg, value);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// The dataset + workload named by `flags`; nullopt after printing the
/// error.
struct Inputs {
  graph::Graph graph;
  std::vector<query::WorkloadQuery> workload;
};

std::optional<Inputs> MakeInputs(const CommonFlags& flags) {
  if (flags.dataset.empty()) {
    std::fprintf(stderr, "--dataset is required\n");
    return std::nullopt;
  }
  auto g = graph::MakeDataset(flags.dataset);
  if (!g.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", flags.dataset.c_str(),
                 g.status().ToString().c_str());
    return std::nullopt;
  }
  // Saved workload file (production query logs) or a generated suite.
  if (!flags.workload_file.empty()) {
    auto wl = query::LoadWorkload(flags.workload_file);
    if (!wl.ok()) {
      std::fprintf(stderr, "workload %s: %s\n", flags.workload_file.c_str(),
                   wl.status().ToString().c_str());
      return std::nullopt;
    }
    for (const query::WorkloadQuery& wq : *wl) {
      for (const query::QueryEdge& e : wq.query.edges()) {
        if (e.label >= g->num_labels()) {
          std::fprintf(stderr,
                       "workload %s: query label %u out of range for "
                       "dataset %s (%u labels)\n",
                       flags.workload_file.c_str(), e.label,
                       flags.dataset.c_str(), g->num_labels());
          return std::nullopt;
        }
      }
    }
    return Inputs{std::move(*g), std::move(*wl)};
  }
  auto templates = query::SuiteTemplatesByName(flags.suite);
  if (!templates.ok()) {
    std::fprintf(stderr, "%s\n", templates.status().ToString().c_str());
    return std::nullopt;
  }
  query::WorkloadOptions options;
  options.instances_per_template = flags.instances;
  options.seed = flags.seed;
  auto wl = query::GenerateWorkload(*g, *templates, options);
  if (!wl.ok()) {
    std::fprintf(stderr, "workload: %s\n", wl.status().ToString().c_str());
    return std::nullopt;
  }
  return Inputs{std::move(*g), std::move(*wl)};
}

engine::ContextOptions ContextOptionsFor(const CommonFlags& flags) {
  engine::ContextOptions options;
  options.markov_h = flags.markov_h;
  return options;
}

int RunBuild(int argc, char** argv) {
  CommonFlags flags;
  std::vector<std::pair<std::string, std::string>> extra;
  if (!ParseFlags(argc, argv, 2, &flags, &extra)) return Usage();
  std::string out_path;
  for (const auto& [flag, value] : extra) {
    if (flag == "--out") out_path = value;
  }
  if (out_path.empty()) {
    std::fprintf(stderr, "build requires --out\n");
    return Usage();
  }

  auto inputs = MakeInputs(flags);
  if (!inputs) return 1;
  const graph::Graph& graph = inputs->graph;
  const std::vector<query::WorkloadQuery>& workload = inputs->workload;
  std::printf("dataset %s: %u vertices, %" PRIu64 " edges, %u labels; "
              "%zu workload queries (%s)\n",
              flags.dataset.c_str(), graph.num_vertices(), graph.num_edges(),
              graph.num_labels(), workload.size(),
              flags.workload_file.empty()
                  ? ("suite " + flags.suite).c_str()
                  : ("file " + flags.workload_file).c_str());

  engine::EstimationContext context(graph, ContextOptionsFor(flags));
  engine::PrewarmOptions prewarm;
  prewarm.num_threads = flags.threads;
  prewarm.dispersion = flags.dispersion;
  const engine::PrewarmReport report = context.Prewarm(workload, prewarm);
  std::printf("prewarm: %zu markov patterns, %zu two-joins, %zu base "
              "relations, %zu closing keys, %zu dispersion pairs in %.2fs\n",
              report.markov_patterns, report.two_join_patterns,
              report.base_relations, report.closing_keys,
              report.dispersion_pairs, report.seconds);

  auto save = context.SaveSnapshot(out_path);
  if (!save.ok()) {
    std::fprintf(stderr, "save: %s\n", save.ToString().c_str());
    return 1;
  }
  auto info = engine::ReadSnapshotInfo(out_path);
  if (!info.ok()) {
    std::fprintf(stderr, "re-read: %s\n", info.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %" PRIu64 " bytes, %zu sections\n",
              out_path.c_str(), info->file_bytes, info->sections.size());
  return 0;
}

int RunInspect(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string dataset;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dataset") == 0 && i + 1 < argc) {
      dataset = argv[++i];
    } else {
      return Usage();
    }
  }
  // Shard manifest: print the shard table, then fall through to the live
  // context block (LoadIntoContext accepts manifests transparently).
  if (engine::IsShardManifest(argv[2])) {
    auto manifest = engine::ReadShardManifest(argv[2]);
    if (!manifest.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[2],
                   manifest.status().ToString().c_str());
      return 1;
    }
    std::printf("shard manifest %s (manifest v%u, snapshot v%u, %u "
                "shards)\n",
                argv[2], manifest->version, manifest->snapshot_version,
                manifest->num_shards);
    std::printf("fingerprint: %u vertices, %u labels, %" PRIu64
                " edges, edge hash %016" PRIx64 "\n",
                manifest->fingerprint.num_vertices,
                manifest->fingerprint.num_labels,
                manifest->fingerprint.num_edges,
                manifest->fingerprint.edge_hash);
    std::printf("%-24s %12s %16s\n", "file", "bytes", "content hash");
    std::printf("%-24s %12" PRIu64 " %016" PRIx64 "\n",
                manifest->common.file.c_str(), manifest->common.bytes,
                manifest->common.hash);
    for (const auto& shard : manifest->shards) {
      std::printf("%-24s %12" PRIu64 " %016" PRIx64 "\n",
                  shard.file.c_str(), shard.bytes, shard.hash);
    }
    if (!dataset.empty()) {
      auto g = graph::MakeDataset(dataset);
      if (!g.ok()) {
        std::fprintf(stderr, "dataset %s: %s\n", dataset.c_str(),
                     g.status().ToString().c_str());
        return 1;
      }
      engine::EstimationContext context(*g);
      std::printf("\n");
      if (!LoadIntoContext(context, argv[2])) return 1;
      PrintCacheStats(context);
    }
    return 0;
  }

  auto info = engine::ReadSnapshotInfo(argv[2]);
  if (!info.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[2],
                 info.status().ToString().c_str());
    return 1;
  }
  std::printf("snapshot %s (version %u, %" PRIu64 " bytes)\n", argv[2],
              info->version, info->file_bytes);
  std::printf("fingerprint: %u vertices, %u labels, %u vertex labels, "
              "%" PRIu64 " edges, edge hash %016" PRIx64 "\n",
              info->fingerprint.num_vertices, info->fingerprint.num_labels,
              info->fingerprint.num_vertex_labels,
              info->fingerprint.num_edges, info->fingerprint.edge_hash);
  std::printf("options: markov h %u, %u summary buckets, materialize cap "
              "%" PRIu64 ", closing-rate sampling %ux%u/%u hops seed "
              "%" PRIu64 "\n",
              info->options.markov_h, info->options.summary_buckets,
              info->options.stats_materialize_cap,
              info->options.cc_walks_per_key,
              info->options.cc_max_attempt_factor,
              info->options.cc_max_mid_hops, info->options.cc_seed);
  if (info->epoch > 0) {
    std::printf("dynamic state: epoch %" PRIu64 ", delta-log hash "
                "%016" PRIx64 " (statistics describe the post-delta graph)\n",
                info->epoch, info->delta_hash);
  }
  // Sections are served in place, so the byte offset of each mapped
  // section is part of the operational surface — print it alongside the
  // sizes.
  std::printf("%-16s %12s %12s %10s\n", "section", "offset", "bytes",
              "entries");
  for (const auto& section : info->sections) {
    std::string name = section.name;
    if (section.id == static_cast<uint32_t>(engine::SnapshotSection::kMarkov)) {
      name += "(h=" + std::to_string(section.markov_h) + ")";
    }
    std::printf("%-16s %12" PRIu64 " %12" PRIu64 " %10" PRIu64 "\n",
                name.c_str(), section.offset, section.payload_bytes,
                section.entries);
  }

  // With a dataset in hand, load the snapshot into a live context and show
  // the per-cache view (residency + hit/miss/evict counters) — the same
  // block `refresh` prints after invalidation.
  if (!dataset.empty()) {
    auto g = graph::MakeDataset(dataset);
    if (!g.ok()) {
      std::fprintf(stderr, "dataset %s: %s\n", dataset.c_str(),
                   g.status().ToString().c_str());
      return 1;
    }
    engine::ContextOptions options;
    options.markov_h = static_cast<int>(
        info->options.markov_h == 0 ? 2 : info->options.markov_h);
    engine::EstimationContext context(*g, options);
    std::printf("\n");
    if (!LoadIntoContext(context, argv[2])) return 1;
    PrintCacheStats(context);
  }
  return 0;
}

int RunRefresh(int argc, char** argv) {
  CommonFlags flags;
  std::vector<std::pair<std::string, std::string>> extra;
  if (!ParseFlags(argc, argv, 2, &flags, &extra)) return Usage();
  std::string snapshot_path, out_path, deltas_path;
  int random_ops = 0;
  for (const auto& [flag, value] : extra) {
    if (flag == "--snapshot") snapshot_path = value;
    if (flag == "--out") out_path = value;
    if (flag == "--deltas") deltas_path = value;
    if (flag == "--random") random_ops = std::atoi(value.c_str());
  }
  if (snapshot_path.empty() || flags.dataset.empty() ||
      (deltas_path.empty() && random_ops <= 0)) {
    std::fprintf(stderr,
                 "refresh requires --dataset, --snapshot and a delta source "
                 "(--deltas FILE or --random N)\n");
    return Usage();
  }

  auto g = graph::MakeDataset(flags.dataset);
  if (!g.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", flags.dataset.c_str(),
                 g.status().ToString().c_str());
    return 1;
  }

  // Delta batch: a text file from an upstream change feed, or a seeded
  // random mix of deletes (existing edges) and inserts (fresh edges).
  std::vector<dynamic::EdgeDelta> batch;
  if (!deltas_path.empty()) {
    auto loaded = dynamic::LoadDeltaBatch(deltas_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "deltas %s: %s\n", deltas_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    batch = std::move(*loaded);
  } else {
    batch = dynamic::RandomEdgeBatch(*g, static_cast<size_t>(random_ops),
                                     flags.seed);
  }

  engine::EstimationContext context(*g, ContextOptionsFor(flags));
  if (!LoadIntoContext(context, snapshot_path)) return 1;

  auto report = context.ApplyDeltas(batch);
  if (!report.ok()) {
    std::fprintf(stderr, "apply: %s\n", report.status().ToString().c_str());
    return 1;
  }
  const auto fp = context.dynamic_fingerprint();
  std::printf(
      "applied %zu ops (net +%zu/-%zu edges, %zu labels touched) -> epoch "
      "%" PRIu64 ", delta-log hash %016" PRIx64 "\n",
      batch.size(), report->inserted_edges, report->deleted_edges,
      report->changed_labels, fp.epoch, fp.delta_hash);
  std::printf(
      "maintenance: markov %zu carried / %zu exact / %zu evicted; joins "
      "%zu carried / %zu evicted; base relations %zu refreshed; closing "
      "rates %zu carried / %zu evicted; dispersion %zu carried / %zu "
      "evicted; ceg builds %zu evicted%s%s\n",
      report->markov_carried, report->markov_exact_updates,
      report->markov_evicted, report->joins_carried, report->joins_evicted,
      report->base_relations_refreshed, report->closing_carried,
      report->closing_evicted, report->dispersion_carried,
      report->dispersion_evicted, report->ceg_evicted,
      report->char_sets_dropped ? "; char-sets dropped" : "",
      report->summary_updated ? "; summary patched in place" : "");
  PrintCacheStats(context);

  if (!out_path.empty()) {
    auto save = context.SaveSnapshot(out_path);
    if (!save.ok()) {
      std::fprintf(stderr, "save: %s\n", save.ToString().c_str());
      return 1;
    }
    std::printf("wrote refreshed snapshot %s (epoch %" PRIu64 ")\n",
                out_path.c_str(), fp.epoch);
  }
  return 0;
}

int RunVerify(int argc, char** argv) {
  CommonFlags flags;
  std::vector<std::pair<std::string, std::string>> extra;
  if (!ParseFlags(argc, argv, 2, &flags, &extra)) return Usage();
  std::string snapshot_path, manifest_path;
  std::string estimators_csv;
  for (const auto& [flag, value] : extra) {
    if (flag == "--snapshot") snapshot_path = value;
    if (flag == "--manifest") manifest_path = value;
    if (flag == "--estimators") estimators_csv = value;
  }
  if (snapshot_path.empty() && manifest_path.empty()) {
    std::fprintf(stderr, "verify requires --snapshot and/or --manifest\n");
    return Usage();
  }

  auto inputs = MakeInputs(flags);
  if (!inputs) return 1;
  const graph::Graph& graph = inputs->graph;
  const std::vector<query::WorkloadQuery>& workload = inputs->workload;

  // Estimator list: explicit CSV, or every registered exact name.
  std::vector<std::string> names =
      estimators_csv.empty()
          ? engine::EstimatorRegistry::Default().RegisteredNames()
          : util::SplitCsv(estimators_csv);

  // Reference run: with both artifacts given, the monolithic snapshot is
  // the reference and the sharded union the candidate (the sharding
  // correctness contract: shard -> load-union -> estimate must be
  // bit-identical to the monolithic load). With one artifact, the
  // reference is a cold in-memory build.
  const bool shard_vs_mono =
      !snapshot_path.empty() && !manifest_path.empty();
  const std::string candidate_path =
      manifest_path.empty() ? snapshot_path : manifest_path;
  engine::EstimationEngine reference(graph, ContextOptionsFor(flags));
  if (shard_vs_mono) {
    auto load = reference.context().LoadSnapshot(snapshot_path);
    if (!load.ok()) {
      std::fprintf(stderr, "load %s: %s\n", snapshot_path.c_str(),
                   load.ToString().c_str());
      return 1;
    }
  }
  engine::EstimationEngine warm(graph, ContextOptionsFor(flags));
  auto load = warm.context().LoadSnapshot(candidate_path);
  if (!load.ok()) {
    std::fprintf(stderr, "load %s: %s\n", candidate_path.c_str(),
                 load.ToString().c_str());
    return 1;
  }

  size_t mismatches = 0;
  size_t compared = 0;
  for (const std::string& name : names) {
    auto ref_est = reference.Estimator(name);
    auto warm_est = warm.Estimator(name);
    if (!ref_est.ok() || !warm_est.ok()) {
      std::fprintf(stderr, "estimator %s: %s\n", name.c_str(),
                   (!ref_est.ok() ? ref_est.status() : warm_est.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    for (size_t qi = 0; qi < workload.size(); ++qi) {
      auto a = (*ref_est)->Estimate(workload[qi].query);
      auto b = (*warm_est)->Estimate(workload[qi].query);
      ++compared;
      const bool both_fail = !a.ok() && !b.ok();
      const bool equal = a.ok() && b.ok() && *a == *b;  // bit-identical
      if (!(both_fail || equal)) {
        ++mismatches;
        std::fprintf(stderr,
                     "MISMATCH %s query %zu: %s=%s warm=%s\n", name.c_str(),
                     qi, shard_vs_mono ? "monolithic" : "cold",
                     a.ok() ? std::to_string(*a).c_str() : "error",
                     b.ok() ? std::to_string(*b).c_str() : "error");
      }
    }
  }
  std::printf("verified %zu estimator×query pairs: %s vs %s: %zu "
              "mismatches\n",
              compared, candidate_path.c_str(),
              shard_vs_mono ? snapshot_path.c_str() : "cold build",
              mismatches);
  std::printf("\nwarm-context caches after verification:\n");
  PrintCacheStats(warm.context());
  return mismatches == 0 ? 0 : 1;
}

int RunShard(int argc, char** argv) {
  CommonFlags flags;
  std::vector<std::pair<std::string, std::string>> extra;
  if (!ParseFlags(argc, argv, 2, &flags, &extra)) return Usage();
  std::string snapshot_path, out_path;
  int num_shards = 0;
  for (const auto& [flag, value] : extra) {
    if (flag == "--snapshot") snapshot_path = value;
    if (flag == "--out") out_path = value;
    if (flag == "--shards") num_shards = std::atoi(value.c_str());
  }
  if (snapshot_path.empty() || out_path.empty() || flags.dataset.empty() ||
      num_shards < 1) {
    std::fprintf(stderr,
                 "shard requires --dataset, --snapshot, --shards N (>= 1) "
                 "and --out MANIFEST\n");
    return Usage();
  }

  auto g = graph::MakeDataset(flags.dataset);
  if (!g.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", flags.dataset.c_str(),
                 g.status().ToString().c_str());
    return 1;
  }
  // Loading (and materializing) a monolithic snapshot is lossless for
  // every keyed cache, so re-exporting with a shard filter partitions
  // exactly the entries the snapshot carried.
  engine::EstimationContext context(*g, ContextOptionsFor(flags));
  if (!LoadIntoContext(context, snapshot_path)) return 1;
  auto saved = context.SaveSnapshotShards(out_path,
                                          static_cast<uint32_t>(num_shards));
  if (!saved.ok()) {
    std::fprintf(stderr, "shard: %s\n", saved.ToString().c_str());
    return 1;
  }
  auto manifest = engine::ReadShardManifest(out_path);
  if (!manifest.ok()) {
    std::fprintf(stderr, "re-read: %s\n",
                 manifest.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %u shards + common\n", out_path.c_str(),
              manifest->num_shards);
  std::printf("  %-24s %12" PRIu64 " bytes\n",
              manifest->common.file.c_str(), manifest->common.bytes);
  for (const auto& shard : manifest->shards) {
    std::printf("  %-24s %12" PRIu64 " bytes\n", shard.file.c_str(),
                shard.bytes);
  }
  return 0;
}

// Writes the generated (or file-loaded) workload to a text file — the
// input format of `cegraph_estimate --workload`, `cegraph_client
// --workload` and the `--workload` modes of build/verify, with ground
// truth baked in so it is computed exactly once.
int RunWorkloadGen(int argc, char** argv) {
  CommonFlags flags;
  std::vector<std::pair<std::string, std::string>> extra;
  if (!ParseFlags(argc, argv, 2, &flags, &extra)) return Usage();
  std::string out_path;
  for (const auto& [flag, value] : extra) {
    if (flag == "--out") out_path = value;
  }
  if (out_path.empty()) {
    std::fprintf(stderr, "workload requires --out\n");
    return Usage();
  }
  auto inputs = MakeInputs(flags);
  if (!inputs) return 1;
  auto saved = query::SaveWorkload(inputs->workload, out_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu queries (suite %s on %s) to %s\n",
              inputs->workload.size(), flags.suite.c_str(),
              flags.dataset.c_str(), out_path.c_str());
  return 0;
}

// Writes a seeded random delta feed (the mixed churn RandomEdgeBatch
// produces) in the delta text format — the input of `cegraph_stats
// refresh --deltas` and `cegraph_client --apply-deltas`.
int RunDeltasGen(int argc, char** argv) {
  CommonFlags flags;
  std::vector<std::pair<std::string, std::string>> extra;
  if (!ParseFlags(argc, argv, 2, &flags, &extra)) return Usage();
  std::string out_path;
  int random_ops = 0;
  for (const auto& [flag, value] : extra) {
    if (flag == "--out") out_path = value;
    if (flag == "--random") random_ops = std::atoi(value.c_str());
  }
  if (out_path.empty() || flags.dataset.empty() || random_ops <= 0) {
    std::fprintf(stderr, "deltas requires --dataset, --random N and --out\n");
    return Usage();
  }
  auto g = graph::MakeDataset(flags.dataset);
  if (!g.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", flags.dataset.c_str(),
                 g.status().ToString().c_str());
    return 1;
  }
  const auto batch = dynamic::RandomEdgeBatch(
      *g, static_cast<size_t>(random_ops), flags.seed);
  auto saved = dynamic::SaveDeltaBatch(batch, out_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu delta ops (seed %" PRIu64 ") for %s to %s\n",
              batch.size(), flags.seed, flags.dataset.c_str(),
              out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "build") return RunBuild(argc, argv);
  if (command == "inspect") return RunInspect(argc, argv);
  if (command == "verify") return RunVerify(argc, argv);
  if (command == "refresh") return RunRefresh(argc, argv);
  if (command == "shard") return RunShard(argc, argv);
  if (command == "workload") return RunWorkloadGen(argc, argv);
  if (command == "deltas") return RunDeltasGen(argc, argv);
  return Usage();
}
