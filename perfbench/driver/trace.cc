#include "trace.h"

#include <fstream>

namespace perfbench {

uint32_t Tracer::Begin(const char* name, uint32_t parent) {
  if (!enabled_) return kNone;
  const uint32_t request =
      parent == kNone ? next_request_++ : spans_[parent].request;
  spans_.push_back({name, parent, request, NowNs(), 0});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void Tracer::End(uint32_t span) {
  if (span != kNone) spans_[span].end_ns = NowNs();
}

double Tracer::Micros(uint32_t span) const {
  if (span == kNone) return 0;
  return static_cast<double>(spans_[span].end_ns - spans_[span].start_ns) /
         1e3;
}

std::map<std::string, Tracer::Layer> Tracer::Summarize() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Layer> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Layer& layer = out[s.name];
    const double total = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    layer.calls += 1;
    layer.total_us += total;
    layer.self_us += total - static_cast<double>(child_ns[i]) / 1e3;
  }
  return out;
}

cegraph::util::Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return cegraph::util::NotFoundError("cannot write " + path);
  out << "# request parent name start_ns end_ns\n";
  for (const Span& s : spans_) {
    out << s.request << ' '
        << (s.parent == kNone ? std::string("-") : std::to_string(s.parent))
        << ' ' << s.name << ' ' << s.start_ns << ' ' << s.end_ns << '\n';
  }
  return out ? cegraph::util::Status::OK()
             : cegraph::util::InternalError("short write to " + path);
}

}  // namespace perfbench
