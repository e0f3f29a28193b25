// cegraph_serve — the cegraph estimation daemon: a long-lived TCP server
// dispatching estimation requests over one or many datasets, with snapshot
// hot-swap and live delta ingestion (no restart, no dropped requests).
//
//   cegraph_serve (--dataset SPEC)... | --graph FILE [--port P]
//                 [--workers N] [--estimators a,b,c] [--snapshot FILE]
//                 [--default-dataset NAME] [--markov-h H]
//                 [--compact-trigger N] [--max-in-flight N]
//                 [--dispatch epoll|threads] [--max-connections N]
//                 [--prewarm SUITE] [--instances N] [--seed S]
//                 [--metrics-port P] [--slow-millis M]
//                 [--slow-log-per-sec X] [--journal FILE]
//                 [--feedback on|off|frozen]
//
// --feedback turns on the learned-feedback loop (docs/learned_feedback.md):
// truth-carrying requests teach per-query-class multiplicative
// corrections that are applied at serve time once a class has enough
// samples. "frozen" applies what was learned (or loaded from a
// snapshot's feedback section) without learning further; the default
// "off" serves bit-identical to a pre-feedback build.
//
// --metrics-port starts a Prometheus text exporter on a side thread
// (`curl http://127.0.0.1:<port>/metrics`; `/healthz` answers with the
// default dataset's epoch/version); 0 picks an ephemeral port. The
// daemon prints `metrics on 127.0.0.1:<port>` so scripts can scrape
// it. Without the flag no exporter runs. --slow-millis M logs requests
// slower than M milliseconds to stderr with their per-stage breakdown
// and request id, rate-limited to --slow-log-per-sec lines per second
// (default 1; <= 0 unlimited — see docs/observability.md).
// CEGRAPH_METRICS=off disables the histogram/trace layer entirely.
//
// --journal FILE appends one JSON object per significant serving event
// (snapshot loads, hot swaps, delta folds, accuracy drift flips,
// overload sheds, slow requests) to FILE — the structured counterpart
// of the human log lines, shared by every dataset and the server
// itself. See docs/observability.md for the schema.
//
// --dispatch selects the connection model: "epoll" (default) multiplexes
// every connection through one event-loop thread and serves requests on
// the fixed worker pool (thousands of idle connections cost fds, not
// threads); "threads" is the legacy thread-per-connection dispatcher kept
// for baseline comparisons. --max-connections caps concurrently open
// epoll connections; the overflow is answered with a retryable
// RESOURCE_EXHAUSTED error frame.
//
// --dataset is repeatable; each SPEC serves one dataset:
//
//   NAME                   the built-in dataset NAME
//   NAME=SOURCE            SOURCE (a built-in dataset name or a graph
//                          file path) served under the routing name NAME
//   NAME[=SOURCE]@SNAPSHOT additionally preload a `cegraph_stats build`
//                          artifact (monolithic snapshot or shard
//                          manifest) into the dataset's first serving
//                          state
//
// Clients route requests with the wire protocol's v2 `dataset` field;
// requests without one (v1 clients included) go to --default-dataset
// (default: the first --dataset). Every dataset gets its own
// EstimationService — own delta queue, own background maintainer, own
// epoch/version line — so hot-swapping or churning one dataset cannot
// perturb another.
//
// --port 0 (the default) picks an ephemeral port; the daemon prints
// `listening on 127.0.0.1:<port>` on stdout (and flushes) so scripts can
// scrape it. --snapshot FILE is the single-dataset legacy spelling of
// @SNAPSHOT and applies to the first dataset. --prewarm generates the
// named workload suite per dataset and warms its statistics caches before
// accepting traffic.
//
// The daemon exits 0 on SIGTERM/SIGINT or on a client's shutdown request,
// draining in-flight connections first. See docs/wire_protocol.md for the
// framing and message types; cegraph_client is the matching client.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/snapshot.h"
#include "graph/datasets.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "graph/graph_io.h"
#include "query/templates.h"
#include "query/workload.h"
#include "service/catalog.h"
#include "service/server.h"
#include "service/service.h"
#include "util/strings.h"

namespace {

using namespace cegraph;

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int) { g_signal = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: cegraph_serve (--dataset SPEC)... | --graph FILE [--port P]\n"
      "       [--workers N] [--estimators a,b,c] [--snapshot FILE]\n"
      "       [--default-dataset NAME] [--markov-h H]\n"
      "       [--compact-trigger N] [--max-in-flight N]\n"
      "       [--dispatch epoll|threads] [--max-connections N]\n"
      "       [--prewarm SUITE] [--instances N] [--seed S]\n"
      "       [--metrics-port P] [--slow-millis M]\n"
      "       [--slow-log-per-sec X] [--journal FILE]\n"
      "       [--feedback on|off|frozen]\n"
      "dataset SPEC: NAME | NAME=SOURCE | NAME[=SOURCE]@SNAPSHOT\n"
      "  (SOURCE: a built-in dataset name or a graph file path; '=' and\n"
      "   '@' are reserved separators and cannot appear in the paths)\n"
      "datasets:");
  for (const std::string& name : graph::DatasetNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// One parsed --dataset SPEC. '=' and '@' are reserved separators of the
/// SPEC grammar (the first '@' starts the snapshot part), so SOURCE and
/// SNAPSHOT paths containing them are not expressible — a mis-split
/// surfaces as a clear "cannot open <truncated path>" error, and
/// DatasetCatalog rejects names containing '=' outright.
struct ParsedSpec {
  std::string name;
  std::string source;    ///< built-in dataset name or graph file path
  std::string snapshot;  ///< optional initial snapshot / shard manifest
};

ParsedSpec ParseSpec(const std::string& spec) {
  ParsedSpec out;
  std::string head = spec;
  if (const size_t at = head.find('@'); at != std::string::npos) {
    out.snapshot = head.substr(at + 1);
    head = head.substr(0, at);
  }
  if (const size_t eq = head.find('='); eq != std::string::npos) {
    out.name = head.substr(0, eq);
    out.source = head.substr(eq + 1);
  } else {
    out.name = head;
    out.source = head;
  }
  return out;
}

/// SOURCE resolution: a built-in dataset name first, a graph file second.
util::StatusOr<graph::Graph> LoadSource(const std::string& source) {
  auto built_in = graph::MakeDataset(source);
  if (built_in.ok() ||
      built_in.status().code() != util::StatusCode::kNotFound) {
    return built_in;
  }
  return graph::LoadGraph(source);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> dataset_specs;
  std::string graph_file, estimators_csv, legacy_snapshot, prewarm_suite;
  std::string default_dataset, journal_path;
  service::ServerOptions server_options;
  service::ServiceOptions service_options;
  int instances = 2;
  uint64_t seed = 1;
  int metrics_port = -1;  ///< -1 = no exporter; 0 = ephemeral

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
    if (arg == "--dataset") {
      if (!next(&value)) return Usage();
      dataset_specs.push_back(value);
    } else if (arg == "--graph") {
      if (!next(&graph_file)) return Usage();
    } else if (arg == "--default-dataset") {
      if (!next(&default_dataset)) return Usage();
    } else if (arg == "--port") {
      if (!next(&value)) return Usage();
      server_options.port = std::atoi(value.c_str());
    } else if (arg == "--workers") {
      if (!next(&value)) return Usage();
      server_options.workers = std::atoi(value.c_str());
    } else if (arg == "--estimators") {
      if (!next(&estimators_csv)) return Usage();
    } else if (arg == "--snapshot") {
      if (!next(&legacy_snapshot)) return Usage();
    } else if (arg == "--markov-h") {
      if (!next(&value)) return Usage();
      service_options.context.markov_h = std::atoi(value.c_str());
    } else if (arg == "--compact-trigger") {
      if (!next(&value)) return Usage();
      service_options.compact_trigger_ops = std::atoi(value.c_str());
    } else if (arg == "--max-in-flight") {
      if (!next(&value)) return Usage();
      service_options.max_in_flight = std::atoi(value.c_str());
    } else if (arg == "--max-connections") {
      if (!next(&value)) return Usage();
      server_options.max_connections = std::atoi(value.c_str());
    } else if (arg == "--metrics-port") {
      if (!next(&value)) return Usage();
      metrics_port = std::atoi(value.c_str());
    } else if (arg == "--slow-millis") {
      if (!next(&value)) return Usage();
      server_options.slow_request_millis = std::atoi(value.c_str());
    } else if (arg == "--slow-log-per-sec") {
      if (!next(&value)) return Usage();
      server_options.slow_log_per_sec = std::atof(value.c_str());
    } else if (arg == "--journal") {
      if (!next(&journal_path)) return Usage();
    } else if (arg == "--feedback") {
      if (!next(&value)) return Usage();
      if (value == "on") {
        service_options.feedback = service::FeedbackMode::kOn;
      } else if (value == "off") {
        service_options.feedback = service::FeedbackMode::kOff;
      } else if (value == "frozen") {
        service_options.feedback = service::FeedbackMode::kFrozen;
      } else {
        std::fprintf(stderr, "--feedback must be on, off or frozen\n");
        return Usage();
      }
    } else if (arg == "--dispatch") {
      if (!next(&value)) return Usage();
      if (value == "epoll") {
        server_options.dispatch = service::ServerOptions::Dispatch::kEventLoop;
      } else if (value == "threads") {
        server_options.dispatch =
            service::ServerOptions::Dispatch::kThreadPerConnection;
      } else {
        std::fprintf(stderr, "--dispatch must be epoll or threads\n");
        return Usage();
      }
    } else if (arg == "--prewarm") {
      if (!next(&prewarm_suite)) return Usage();
    } else if (arg == "--instances") {
      if (!next(&value)) return Usage();
      instances = std::atoi(value.c_str());
    } else if (arg == "--seed") {
      if (!next(&value)) return Usage();
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return Usage();
    }
  }
  if (dataset_specs.empty() == graph_file.empty()) return Usage();
  if (!estimators_csv.empty()) {
    service_options.estimators = util::SplitCsv(estimators_csv);
  }

  std::vector<ParsedSpec> parsed_specs;
  for (const std::string& spec : dataset_specs) {
    parsed_specs.push_back(ParseSpec(spec));
  }
  if (!graph_file.empty()) {
    // Legacy single-graph spelling, served under the name "default". The
    // path is taken verbatim — it never goes through the SPEC grammar, so
    // '@'/'=' in the file name keep working as they always did.
    parsed_specs.push_back({"default", graph_file, ""});
  }

  std::vector<service::DatasetSpec> specs;
  for (size_t d = 0; d < parsed_specs.size(); ++d) {
    ParsedSpec parsed = parsed_specs[d];
    if (d == 0 && !legacy_snapshot.empty()) {
      if (!parsed.snapshot.empty()) {
        std::fprintf(stderr,
                     "--snapshot conflicts with @SNAPSHOT for dataset %s\n",
                     parsed.name.c_str());
        return Usage();
      }
      parsed.snapshot = legacy_snapshot;
    }
    auto g = LoadSource(parsed.source);
    if (!g.ok()) {
      std::fprintf(stderr, "dataset %s (source %s): %s\n",
                   parsed.name.c_str(), parsed.source.c_str(),
                   g.status().ToString().c_str());
      return 1;
    }
    std::printf("dataset %s (%s): %u vertices, %llu edges, %u labels%s%s\n",
                parsed.name.c_str(), parsed.source.c_str(),
                g->num_vertices(),
                static_cast<unsigned long long>(g->num_edges()),
                g->num_labels(),
                parsed.snapshot.empty() ? "" : ", snapshot ",
                parsed.snapshot.c_str());

    service::DatasetSpec spec;
    spec.name = parsed.name;
    spec.options = service_options;
    spec.options.initial_snapshot = parsed.snapshot;
    if (!prewarm_suite.empty()) {
      auto templates = query::SuiteTemplatesByName(prewarm_suite);
      if (!templates.ok()) {
        std::fprintf(stderr, "prewarm: %s\n",
                     templates.status().ToString().c_str());
        return 1;
      }
      query::WorkloadOptions wl;
      wl.instances_per_template = instances;
      wl.seed = seed;
      auto workload = query::GenerateWorkload(*g, *templates, wl);
      if (!workload.ok()) {
        std::fprintf(stderr, "prewarm %s: %s\n", parsed.name.c_str(),
                     workload.status().ToString().c_str());
        return 1;
      }
      spec.options.prewarm_workload = std::move(*workload);
    }
    spec.graph =
        std::make_shared<const graph::Graph>(std::move(*g));
    specs.push_back(std::move(spec));
  }

  // Remember which dataset loaded which artifact: the startup breakdown
  // below names sections, and specs are consumed by the catalog.
  std::vector<std::pair<std::string, std::string>> snapshot_paths;
  for (const service::DatasetSpec& spec : specs) {
    if (!spec.options.initial_snapshot.empty()) {
      snapshot_paths.emplace_back(spec.name, spec.options.initial_snapshot);
    }
  }

  // The shared event journal, started before the catalog so snapshot-load
  // events from service construction are captured. Declared before the
  // catalog/server locals that borrow it, so it is destroyed (and
  // drained) after them.
  obs::Journal journal;
  if (!journal_path.empty()) {
    if (auto started = journal.Start(journal_path); !started.ok()) {
      std::fprintf(stderr, "journal: %s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("journal to %s\n", journal_path.c_str());
  }
  obs::Journal* journal_ptr = journal_path.empty() ? nullptr : &journal;

  auto catalog = service::DatasetCatalog::Create(std::move(specs),
                                                 default_dataset, journal_ptr);
  if (!catalog.ok()) {
    std::fprintf(stderr, "catalog: %s\n",
                 catalog.status().ToString().c_str());
    return 1;
  }

  // Startup snapshot-load breakdown: how each dataset's artifact was
  // opened (mmap + attach when fresh, mmap + materialize when stale), what
  // each phase cost, and the per-section weight behind it. The same
  // numbers are scraped remotely through the stats frame.
  for (const auto& [name, path] : snapshot_paths) {
    auto resolved = (*catalog)->Resolve(name);
    if (!resolved.ok()) continue;
    const service::ServiceStats stats = (*resolved)->Stats();
    if (!stats.snapshot_load.loaded) continue;
    std::printf("%s: snapshot %s %s: open %.2f ms, %s %.2f ms, epoch %llu",
                name.c_str(), path.c_str(),
                stats.snapshot_load.mapped ? "mapped" : "materialized",
                stats.snapshot_load.map_millis,
                stats.snapshot_load.mapped ? "attach" : "materialize",
                stats.snapshot_load.materialize_millis,
                static_cast<unsigned long long>(
                    stats.snapshot_load.snapshot_epoch));
    if (stats.snapshot_load.mapped_bytes > 0) {
      std::printf(", %llu bytes mapped",
                  static_cast<unsigned long long>(
                      stats.snapshot_load.mapped_bytes));
    }
    std::printf("\n");
    if (auto info = engine::ReadSnapshotInfo(path); info.ok()) {
      for (const auto& section : info->sections) {
        std::printf("  section %-14s %12llu bytes\n", section.name.c_str(),
                    static_cast<unsigned long long>(section.payload_bytes));
      }
    }
  }

  server_options.journal = journal_ptr;
  service::TcpServer server(**catalog, server_options);
  if (auto started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
    return 1;
  }

  // Optional Prometheus exporter, started after the server so its page
  // already carries every dataset's and the server's collectors.
  obs::MetricsHttpServer metrics_server;
  if (metrics_port >= 0) {
    // /healthz answers with the default dataset's serving line so load
    // balancers and smoke tests get liveness + epoch in one probe.
    metrics_server.SetHealthBody([catalog = catalog->get()] {
      std::string body = "ok\n";
      if (auto resolved = catalog->Resolve(""); resolved.ok()) {
        const service::ServiceStats stats = (*resolved)->Stats();
        body += "dataset " + catalog->default_dataset() + "\n";
        body += "epoch " + std::to_string(stats.epoch) + "\n";
        body += "version " + std::to_string(stats.version) + "\n";
      }
      return body;
    });
    if (auto started = metrics_server.Start("127.0.0.1", metrics_port);
        !started.ok()) {
      std::fprintf(stderr, "metrics: %s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("metrics on 127.0.0.1:%d\n", metrics_server.port());
  }
  std::printf("serving %zu estimators (", service_options.estimators.size());
  for (size_t i = 0; i < service_options.estimators.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",",
                service_options.estimators[i].c_str());
  }
  std::printf(") with %d workers\ndatasets:", server_options.workers);
  for (const std::string& name : (*catalog)->names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf(" (default %s)\nlistening on %s:%d\n",
              (*catalog)->default_dataset().c_str(),
              server_options.host.c_str(), server.port());
  std::fflush(stdout);

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);

  // Drain on either exit path: an operator signal or a client's shutdown
  // request. Signal handlers cannot safely poke condition variables, so
  // the main thread polls the flag.
  while (g_signal == 0 && !server.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("%s — draining\n",
              g_signal != 0 ? "signal received" : "shutdown requested");
  metrics_server.Stop();
  server.Stop();
  if (journal_ptr != nullptr) {
    journal.Stop();
    std::printf("journal: %llu events written, %llu dropped\n",
                static_cast<unsigned long long>(journal.written()),
                static_cast<unsigned long long>(journal.dropped()));
  }

  for (const std::string& name : (*catalog)->names()) {
    auto resolved = (*catalog)->Resolve(name);
    if (!resolved.ok()) continue;
    const service::ServiceStats stats = (*resolved)->Stats();
    std::printf(
        "%s: served %llu requests (%llu rejected, %llu request errors), "
        "%llu hot swaps, final epoch %llu\n",
        name.c_str(), static_cast<unsigned long long>(stats.served),
        static_cast<unsigned long long>(stats.rejected),
        static_cast<unsigned long long>(stats.request_errors),
        static_cast<unsigned long long>(stats.swaps),
        static_cast<unsigned long long>(stats.epoch));
  }
  return 0;
}
