// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around calls into the program's public functions; nothing in
// the program itself is instrumented.
#ifndef CEGRAPH_PERFBENCH_TRACE_H_
#define CEGRAPH_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

class Tracer {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  /// A disabled tracer records nothing; Span then costs one branch.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Starts a span; `parent` kNone makes it the root of a new request.
  uint32_t Begin(const char* name, uint32_t parent);
  void End(uint32_t span);
  /// Duration of a finished span in microseconds (0 when disabled).
  double Micros(uint32_t span) const;

  /// Per-name totals over every recorded span: call count, total and
  /// self time (duration minus the part covered by child spans).
  struct Layer {
    uint64_t calls = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::map<std::string, Layer> Summarize() const;
  size_t size() const { return spans_.size(); }

  /// Writes every span as `request parent name start_ns end_ns`.
  cegraph::util::Status Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint32_t parent;
    uint32_t request;
    int64_t start_ns;
    int64_t end_ns;
  };
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  bool enabled_ = false;
  uint32_t next_request_ = 0;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class Span {
 public:
  Span(Tracer& tracer, const char* name, uint32_t parent = Tracer::kNone)
      : tracer_(tracer), id_(tracer.Begin(name, parent)) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void End() {
    if (!ended_) tracer_.End(id_);
    ended_ = true;
  }
  uint32_t id() const { return id_; }
  double Micros() const { return tracer_.Micros(id_); }

 private:
  Tracer& tracer_;
  uint32_t id_;
  bool ended_ = false;
};

}  // namespace perfbench

#endif  // CEGRAPH_PERFBENCH_TRACE_H_
