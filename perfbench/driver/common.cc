#include "common.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "service/wire.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using cegraph::util::Status;
using cegraph::util::StatusOr;

bool ParseFlags(int argc, char** argv, Flags* flags) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_driver (prepare|run) [flags]\n");
    return false;
  }
  flags->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      flags->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", arg.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      flags->workload = value;
    } else if (arg == "--seed") {
      flags->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      flags->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      flags->trace = value == "1";
    } else if (arg == "--dir") {
      flags->dir = value;
    } else if (arg == "--serve-bin") {
      flags->serve_bin = value;
    } else if (arg == "--commit") {
      flags->commit = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  if (flags->mode != "prepare" && flags->mode != "run") {
    std::fprintf(stderr, "mode must be prepare or run\n");
    return false;
  }
  if (flags->dir.empty() || !(flags->seconds > 0)) {
    std::fprintf(stderr, "--dir and a positive --seconds are required\n");
    return false;
  }
  return true;
}

Sizing SizingFor(const Flags& flags) {
  Sizing sizing;
  sizing.instances = flags.smoke ? 1 : 3;
  sizing.pool_instances = flags.smoke ? 2 : 40;
  sizing.setup_launches = flags.smoke ? 1 : 5;
  sizing.write_probes = flags.smoke ? 2 : 9;
  // Enough batches for every serve_churn fold of the run, with room for
  // the write probes of the other workloads.
  sizing.delta_batches =
      static_cast<int>(std::ceil(flags.seconds / kChurnIntervalSeconds)) + 16;
  return sizing;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

WindowStats Windowed(const std::vector<double>& done_at,
                     const std::vector<double>& latency, double seconds) {
  WindowStats stats;
  stats.seconds = std::min(1.0, seconds);
  stats.count = std::max<size_t>(
      1, static_cast<size_t>(std::floor(seconds / stats.seconds)));
  struct Window {
    std::vector<double> latency;
    double first = 0, last = 0;  ///< completion times
  };
  std::vector<Window> windows(stats.count);
  for (size_t i = 0; i < done_at.size(); ++i) {
    const size_t w = static_cast<size_t>(done_at[i] / stats.seconds);
    if (w >= windows.size()) continue;
    Window& window = windows[w];
    if (window.latency.empty() || done_at[i] < window.first) {
      window.first = done_at[i];
    }
    window.last = std::max(window.last, done_at[i]);
    window.latency.push_back(latency[i]);
  }
  std::vector<double> rate, p50, p99;
  stats.min_samples = windows[0].latency.size();
  for (const Window& w : windows) {
    stats.min_samples = std::min(stats.min_samples, w.latency.size());
    // Completions between the window's first and last one, over that span.
    const double span = w.last - w.first;
    rate.push_back(span > 0 ? static_cast<double>(w.latency.size() - 1) / span
                            : 0);
    p50.push_back(Quantile(w.latency, 0.5));
    p99.push_back(Quantile(w.latency, 0.99));
  }
  stats.throughput = Quantile(rate, 0.75);
  stats.p50 = Quantile(p50, 0.25);
  stats.p99 = Quantile(p99, 0.25);
  return stats;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::Print() const {
  std::printf("%-28s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics_) {
    std::printf("%-28s %18.6f  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double error_rate =
      attempted_ == 0 ? 0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("error_rate %.6g (%llu failed of %llu attempted)\n",
              error_rate, static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::string json = "{\"correct\": ";
  json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintEnvironment(const Flags& flags, int client_threads,
                      int client_connections) {
  std::printf(
      "env: commit=%s nproc=%u build_type=%s workload=%s seed=%llu "
      "seconds=%g trace=%d client_processes=1 client_threads=%d "
      "client_connections=%d server_workers=%d\n",
      flags.commit.empty() ? "unknown" : flags.commit.c_str(),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      flags.workload.c_str(), static_cast<unsigned long long>(flags.seed),
      flags.seconds, flags.trace ? 1 : 0, client_threads, client_connections,
      flags.workload == "plan_job" ? 0 : kServerWorkers);
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return cegraph::util::NotFoundError("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

StatusOr<std::vector<std::string>> ReadLines(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  std::vector<std::string> lines;
  std::istringstream in(*text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines.push_back(line);
  }
  return lines;
}

StatusOr<std::unique_ptr<Daemon>> Daemon::Launch(
    const std::string& bin, const std::vector<std::string>& args) {
  std::vector<std::string> argv_store = {bin};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_store) argv.push_back(s.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    return cegraph::util::InternalError("pipe: " +
                                        std::string(std::strerror(errno)));
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return cegraph::util::InternalError("fork: " +
                                        std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    dup2(fds[1], STDERR_FILENO);
    execv(bin.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->pid_ = pid;
  daemon->out_ = fdopen(fds[0], "r");
  std::string seen;
  char* line = nullptr;
  size_t cap = 0;
  const std::string marker = "listening on 127.0.0.1:";
  while (getline(&line, &cap, daemon->out_) > 0) {
    const std::string text = line;
    if (const size_t at = text.find(marker); at != std::string::npos) {
      daemon->port_ = std::atoi(text.c_str() + at + marker.size());
      break;
    }
    seen += text;
  }
  std::free(line);
  if (daemon->port_ <= 0) {
    return cegraph::util::InternalError("daemon exited before listening: " +
                                        seen);
  }
  daemon->drain_ = std::thread([out = daemon->out_] {
    char buf[4096];
    while (std::fread(buf, 1, sizeof(buf), out) > 0) {
    }
  });
  return daemon;
}

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::OK();
  auto fd = cegraph::service::wire::DialTcp("127.0.0.1", port_);
  if (fd.ok()) {
    cegraph::service::wire::Request request;
    request.type = cegraph::service::wire::MessageType::kShutdown;
    (void)cegraph::service::wire::RoundTrip(*fd, request);
    close(*fd);
  }
  int status = 0;
  for (int i = 0; i < 1000; ++i) {
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      if (drain_.joinable()) drain_.join();
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return Status::OK();
      return cegraph::util::InternalError("daemon exited abnormally");
    }
    usleep(10'000);
  }
  Kill();
  return cegraph::util::InternalError("daemon did not drain within 10 s");
}

void Daemon::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 300 && !reaped; ++i) {
      reaped = waitpid(pid_, &status, WNOHANG) == pid_;
      if (!reaped) usleep(10'000);
    }
    if (!reaped) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (drain_.joinable()) drain_.join();
}

Daemon::~Daemon() {
  Kill();
  if (out_ != nullptr) std::fclose(out_);
}

}  // namespace perfbench
