// Shared plumbing of the perfbench driver: command-line flags, timing and
// quantiles, the result line, process helpers and the daemon handle.
#ifndef CEGRAPH_PERFBENCH_COMMON_H_
#define CEGRAPH_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// Flags of `perfbench_driver run` and `perfbench_driver prepare`.
struct Flags {
  std::string mode;       ///< "prepare" or "run"
  std::string workload;   ///< serve_mixed | serve_churn | plan_job
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string dir;        ///< inputs written by prepare, read by run
  std::string serve_bin;  ///< the cegraph_serve binary under test
  std::string commit;     ///< source identity printed with the result
};

/// Parses argv; returns false (after printing why) on a bad command line.
bool ParseFlags(int argc, char** argv, Flags* flags);

/// Input sizing shared by prepare and run, so both agree on what exists.
struct Sizing {
  int instances = 0;        ///< workload instances per template
  int pool_instances = 0;   ///< accuracy-pool instances per template
  int delta_batches = 0;    ///< seeded 100-op delta batches
  int setup_launches = 0;   ///< set-up repetitions (median reported)
  int write_probes = 0;     ///< post-phase writes on read-only workloads
};
Sizing SizingFor(const Flags& flags);

inline constexpr int kDeltaOps = 100;
/// serve_churn folds one delta batch per interval while reads run.
inline constexpr double kChurnIntervalSeconds = 0.25;
inline constexpr int kClientConnections = 4;
inline constexpr int kServerWorkers = 4;
inline constexpr const char* kDataset = "imdb_like";

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Throughput and latency quantiles per fixed window of a closed loop,
/// each reported as the better quartile over the windows (the 75th
/// percentile of the rates, the 25th of each latency quantile). Noise on
/// a shared machine (vCPU steal) only ever slows a window down, so the
/// better quartile tracks the program, not the neighbours.
struct WindowStats {
  double throughput = 0;  ///< completions per second
  double p50 = 0;
  double p99 = 0;
  size_t count = 0;        ///< windows
  double seconds = 0;      ///< window length
  size_t min_samples = 0;  ///< fewest completions in a window
};
/// `done_at[i]` is sample i's completion in seconds since the start and
/// `latency[i]` its latency; samples after `seconds` are left out.
WindowStats Windowed(const std::vector<double>& done_at,
                     const std::vector<double>& latency, double seconds);

/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);

/// The last stdout line of a run: {"correct", "attempted", "failed",
/// "metrics"}. Also prints a human-readable table of the same metrics.
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Fail(uint64_t n = 1) { failed_ += n; }
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// Prints the table and the JSON line. `correct` is false when any
  /// operation failed or a correctness check mismatched.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Prints the environment line every result carries.
void PrintEnvironment(const Flags& flags, int client_threads,
                      int client_connections);

/// Reads a text file; NotFound when it cannot be opened.
cegraph::util::StatusOr<std::string> ReadFile(const std::string& path);

/// Non-comment, non-blank lines of a text file.
cegraph::util::StatusOr<std::vector<std::string>> ReadLines(
    const std::string& path);

/// A running cegraph_serve process. The child dies with the driver
/// (PR_SET_PDEATHSIG), and the destructor stops and reaps it, so no
/// daemon outlives a run on any exit path.
class Daemon {
 public:
  /// Launches `bin` with `args` and waits until it prints its port.
  static cegraph::util::StatusOr<std::unique_ptr<Daemon>> Launch(
      const std::string& bin, const std::vector<std::string>& args);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Sends a shutdown frame and reaps the process; OK iff it exited 0.
  cegraph::util::Status Stop();

 private:
  Daemon() = default;
  void Kill();
  pid_t pid_ = -1;
  int port_ = 0;
  FILE* out_ = nullptr;   ///< the child's stdout
  std::thread drain_;     ///< keeps reading `out_` until the child exits
};

}  // namespace perfbench

#endif  // CEGRAPH_PERFBENCH_COMMON_H_
