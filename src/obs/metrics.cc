#include "obs/metrics.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <charconv>
#include <limits>
#include <string_view>
#include <unordered_set>

namespace cegraph::obs {

namespace {

bool EnabledFromEnv() {
  const char* env = std::getenv("CEGRAPH_METRICS");
  if (env == nullptr) return true;
  const std::string value(env);
  return !(value == "off" || value == "0" || value == "false");
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{EnabledFromEnv()};
  return enabled;
}

void AtomicDoubleAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicDoubleMax(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (current < value &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

/// Shortest exact spelling: integers as integers, everything else with
/// 17 significant digits (round-trips through strtod bit for bit), and
/// the text format's own NaN / +Inf / -Inf tokens.
std::string FormatDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::abs(v) < 1e15 &&
      v == static_cast<double>(static_cast<int64_t>(v))) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool MetricsEnabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

// --- Histogram --------------------------------------------------------------

double HistogramSnapshot::BucketUpperBound(size_t i) {
  if (i + 1 >= kHistogramBuckets) {
    return std::numeric_limits<double>::infinity();
  }
  if (i == 0) return 1.0;
  return std::exp2(static_cast<double>(i) / 4.0);
}

size_t Histogram::BucketIndex(double value) {
  if (!(value >= 1.0)) return 0;  // [0,1) and any NaN guarded by caller
  // Bucket i >= 1 covers [2^((i-1)/4), 2^(i/4)).
  const double idx = std::floor(4.0 * std::log2(value));
  if (idx >= static_cast<double>(kHistogramBuckets - 1)) {
    return kHistogramBuckets - 1;
  }
  size_t bucket = 1 + static_cast<size_t>(idx);
  // log2 rounding at exact powers can land one bucket off; nudge so the
  // invariant BucketUpperBound(bucket-1) <= value < BucketUpperBound(bucket)
  // holds exactly.
  while (bucket > 1 &&
         value < HistogramSnapshot::BucketUpperBound(bucket - 1)) {
    --bucket;
  }
  while (bucket + 1 < kHistogramBuckets &&
         value >= HistogramSnapshot::BucketUpperBound(bucket)) {
    ++bucket;
  }
  return std::min(bucket, kHistogramBuckets - 1);
}

void Histogram::Record(double value) {
  if (!(value >= 0) || !std::isfinite(value)) return;
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicDoubleAdd(sum_, value);
  AtomicDoubleMax(max_, value);
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  snapshot.max = max_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    snapshot.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snapshot;
}

double HistogramSnapshot::Quantile(double p) const {
  // Resolve against the bucket counts, not `count` — the two can be
  // torn by one mid-record (see the header's consistency note).
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return 0;
  const double rank = p * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= rank) {
      const double bound = BucketUpperBound(i);
      return std::min(bound, max);
    }
  }
  return max;
}

QuantileSummary HistogramSnapshot::Summary() const {
  QuantileSummary s;
  s.count = count;
  s.mean = count > 0 ? sum / static_cast<double>(count) : 0;
  s.p50 = Quantile(0.50);
  s.p90 = Quantile(0.90);
  s.p99 = Quantile(0.99);
  s.max = max;
  return s;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
}

// --- PromWriter -------------------------------------------------------------

void PromWriter::TypeHeader(const std::string& name, const char* type) {
  if (std::find(typed_.begin(), typed_.end(), name) != typed_.end()) return;
  typed_.push_back(name);
  out_->append("# TYPE ");
  out_->append(name);
  out_->push_back(' ');
  out_->append(type);
  out_->push_back('\n');
}

namespace {
void AppendSeries(std::string* out, const std::string& name,
                  const std::string& labels, const std::string& value) {
  out->append(name);
  if (!labels.empty()) {
    out->push_back('{');
    out->append(labels);
    out->push_back('}');
  }
  out->push_back(' ');
  out->append(value);
  out->push_back('\n');
}
}  // namespace

void PromWriter::WriteCounter(const std::string& name,
                              const std::string& labels, uint64_t value) {
  TypeHeader(name, "counter");
  AppendSeries(out_, name, labels, std::to_string(value));
}

void PromWriter::WriteGauge(const std::string& name,
                            const std::string& labels, double value) {
  TypeHeader(name, "gauge");
  AppendSeries(out_, name, labels, FormatDouble(value));
}

void PromWriter::WriteHistogram(const std::string& name,
                                const std::string& labels,
                                const HistogramSnapshot& snapshot) {
  TypeHeader(name, "histogram");
  const std::string sep = labels.empty() ? "" : ",";
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    cumulative += snapshot.buckets[i];
    // Skip interior empty buckets to keep the page small; always emit
    // the +Inf edge so the series is well-formed.
    if (snapshot.buckets[i] == 0 && i + 1 < kHistogramBuckets) continue;
    const double bound = HistogramSnapshot::BucketUpperBound(i);
    const std::string le =
        std::isinf(bound) ? "+Inf" : FormatDouble(bound);
    AppendSeries(out_, name + "_bucket",
                 labels + sep + "le=\"" + le + "\"",
                 std::to_string(cumulative));
  }
  AppendSeries(out_, name + "_sum", labels, FormatDouble(snapshot.sum));
  AppendSeries(out_, name + "_count", labels,
               std::to_string(snapshot.count));
  AppendSeries(out_, name + "_max", labels, FormatDouble(snapshot.max));
}

// --- Text-format parsing ----------------------------------------------------

std::string PromLabelEscape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string_view PromSample::Label(std::string_view key) const {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return {};
}

namespace {

/// Absent labels read as "", as in Prometheus itself.
bool Matches(const PromSample& sample, const PromMatch& match) {
  return std::all_of(match.begin(), match.end(), [&](const auto& pair) {
    return sample.Label(pair.first) == pair.second;
  });
}

/// True when `sample` carries exactly `labels`, not counting its `le`.
bool SameSeries(const PromSample& sample,
                const std::vector<std::pair<std::string, std::string>>&
                    labels) {
  size_t compared = 0;
  for (const auto& pair : sample.labels) {
    if (pair.first == "le") continue;
    ++compared;
    if (std::find(labels.begin(), labels.end(), pair) == labels.end()) {
      return false;
    }
  }
  return compared == labels.size();
}

/// Consumes a metric (`metric`, colons allowed) or label name at `pos`;
/// empty when none starts there.
std::string_view TakeName(std::string_view line, size_t& pos, bool metric) {
  auto name_char = [metric](char c, bool first) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           (metric && c == ':') || (!first && c >= '0' && c <= '9');
  };
  const size_t start = pos;
  while (pos < line.size() && name_char(line[pos], pos == start)) ++pos;
  return line.substr(start, pos - start);
}

bool ParseValue(std::string_view token, double* out) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (token == "+Inf" || token == "-Inf" || token == "NaN") {
    *out = token == "NaN" ? std::nan("") : token[0] == '+' ? kInf : -kInf;
    return true;
  }
  // from_chars takes no leading '+'; "+-1" must still fail.
  if (token.size() > 1 && token[0] == '+' && token[1] != '-') {
    token.remove_prefix(1);
  }
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, *out);
  return ec == std::errc() && ptr == last;
}

/// A non-negative integral count that fits a uint64_t.
bool ToCount(double value, uint64_t* out) {
  if (!(value >= 0) || value >= 18446744073709551616.0 ||
      value != std::floor(value)) {
    return false;
  }
  *out = static_cast<uint64_t>(value);
  return true;
}

util::Status ParseSample(std::string_view line, PromSample* sample) {
  auto bad = [](const char* what) { return util::InvalidArgumentError(what); };
  size_t pos = 0;
  sample->name = std::string(TakeName(line, pos, /*metric=*/true));
  if (sample->name.empty()) return bad("bad metric name");
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos >= line.size() || line[pos] != '}') {
      const std::string key(TakeName(line, pos, /*metric=*/false));
      if (key.empty()) return bad("bad label name");
      if (line.substr(pos, 2) != "=\"") return bad("expected =\" after label");
      pos += 2;
      std::string value;
      for (;;) {
        if (pos >= line.size()) return bad("unterminated label value");
        const char c = line[pos++];
        if (c == '"') break;
        if (c != '\\') {
          value += c;
          continue;
        }
        const char escaped = pos < line.size() ? line[pos++] : '\0';
        if (escaped != '\\' && escaped != '"' && escaped != 'n') {
          return bad("bad escape in label value");
        }
        value += escaped == 'n' ? '\n' : escaped;
      }
      for (const auto& pair : sample->labels) {
        if (pair.first == key) return bad("repeated label");
      }
      sample->labels.emplace_back(key, std::move(value));
      if (pos < line.size() && line[pos] == ',') {
        ++pos;  // a trailing comma before '}' is allowed
      } else if (pos >= line.size() || line[pos] != '}') {
        return bad("expected , or } in label set");
      }
    }
    ++pos;  // '}'
  }
  if (pos >= line.size() || line[pos++] != ' ') {
    return bad("expected a space before the value");
  }
  const std::string_view rest = line.substr(pos);
  const size_t space = rest.find(' ');
  if (!ParseValue(rest.substr(0, space), &sample->value)) {
    return bad("bad sample value");
  }
  if (space != std::string_view::npos) {
    const std::string_view stamp = rest.substr(space + 1);
    const char* last = stamp.data() + stamp.size();
    int64_t millis = 0;
    const auto [ptr, ec] = std::from_chars(stamp.data(), last, millis);
    if (stamp.empty() || ec != std::errc() || ptr != last) {
      return bad("bad timestamp");
    }
  }
  return util::Status::OK();
}

/// An injective key for duplicate-series detection: the name plus the
/// sorted label pairs, every field length-prefixed.
std::string SeriesKey(const PromSample& sample) {
  auto sorted = sample.labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = std::to_string(sample.name.size()) + ':' + sample.name;
  for (const auto& [k, v] : sorted) {
    key += std::to_string(k.size()) + ':' + k;
    key += std::to_string(v.size()) + ':' + v;
  }
  return key;
}

}  // namespace

std::vector<const PromSample*> PromPage::Select(
    std::string_view name, const PromMatch& match) const {
  std::vector<const PromSample*> out;
  for (const PromSample& sample : samples) {
    if (sample.name == name && Matches(sample, match)) out.push_back(&sample);
  }
  return out;
}

const PromSample* PromPage::Find(std::string_view name,
                                 const PromMatch& match) const {
  for (const PromSample& sample : samples) {
    if (sample.name == name && Matches(sample, match)) return &sample;
  }
  return nullptr;
}

double PromPage::Value(std::string_view name, const PromMatch& match,
                       double fallback) const {
  const PromSample* sample = Find(name, match);
  return sample != nullptr ? sample->value : fallback;
}

util::StatusOr<HistogramSnapshot> PromPage::ReadHistogram(
    std::string_view name, const PromMatch& match) const {
  const std::string base(name);
  const PromSample* count = Find(base + "_count", match);
  if (count == nullptr) return util::NotFoundError("no histogram " + base);
  auto bad = [&base](const char* what) {
    return util::InvalidArgumentError("histogram " + base + ": " + what);
  };
  const PromSample* sum = nullptr;
  const PromSample* max = nullptr;
  for (const PromSample& sample : samples) {
    if (!SameSeries(sample, count->labels)) continue;
    if (sample.name == base + "_sum") sum = &sample;
    if (sample.name == base + "_max") max = &sample;
  }
  if (sum == nullptr || max == nullptr) return bad("missing _sum or _max");
  HistogramSnapshot snapshot;
  if (!ToCount(count->value, &snapshot.count)) return bad("bad _count");
  snapshot.sum = sum->value;
  snapshot.max = max->value;
  const std::string bucket_name = base + "_bucket";
  uint64_t cumulative = 0;
  size_t next = 0;
  for (const PromSample& sample : samples) {
    if (sample.name != bucket_name || !SameSeries(sample, count->labels)) {
      continue;
    }
    const std::string_view le = sample.Label("le");
    size_t index = kHistogramBuckets - 1;
    if (le != "+Inf") {
      double bound = 0;
      if (!ParseValue(le, &bound) || !(bound >= 1.0) ||
          !std::isfinite(bound)) {
        return bad("bad le edge");
      }
      index = Histogram::BucketIndex(bound) - 1;
      if (HistogramSnapshot::BucketUpperBound(index) != bound) {
        return bad("le is not a bucket edge");
      }
    }
    uint64_t total = 0;
    if (index < next || !ToCount(sample.value, &total) ||
        total < cumulative) {
      return bad("buckets out of order");
    }
    snapshot.buckets[index] = total - cumulative;
    cumulative = total;
    next = index + 1;
  }
  if (next != kHistogramBuckets) return bad("no +Inf bucket");
  return snapshot;
}

util::StatusOr<PromPage> ParsePrometheusText(std::string_view text) {
  static constexpr std::string_view kTypes[] = {
      "counter", "gauge", "histogram", "summary", "untyped"};
  PromPage page;
  std::unordered_set<std::string> families;
  std::unordered_set<std::string> series;
  size_t line_no = 0;
  for (size_t start = 0; start < text.size();) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    auto fail = [line_no](const std::string& what) {
      return util::InvalidArgumentError("line " + std::to_string(line_no) +
                                        ": " + what);
    };
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.substr(0, 7) != "# TYPE ") continue;  // HELP, free comments
      size_t pos = 7;
      const std::string_view family = TakeName(line, pos, /*metric=*/true);
      const std::string_view type =
          pos < line.size() && line[pos] == ' ' ? line.substr(pos + 1)
                                                : std::string_view();
      if (family.empty() ||
          std::find(std::begin(kTypes), std::end(kTypes), type) ==
              std::end(kTypes)) {
        return fail("malformed TYPE line");
      }
      if (!families.emplace(family).second) {
        return fail("repeated TYPE for " + std::string(family));
      }
      continue;
    }
    PromSample sample;
    if (util::Status parsed = ParseSample(line, &sample); !parsed.ok()) {
      return fail(parsed.message());
    }
    if (!series.insert(SeriesKey(sample)).second) {
      return fail("repeated series of " + sample.name);
    }
    page.samples.push_back(std::move(sample));
  }
  return page;
}

// --- MetricsRegistry --------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

uint64_t MetricsRegistry::AddCollector(Collector collector) {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t id = next_id_++;
  collectors_.emplace_back(id, std::move(collector));
  return id;
}

void MetricsRegistry::RemoveCollector(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  collectors_.erase(
      std::remove_if(collectors_.begin(), collectors_.end(),
                     [id](const auto& entry) { return entry.first == id; }),
      collectors_.end());
}

std::string MetricsRegistry::RenderPrometheus() const {
  // Copy the collector list so a collector that (un)registers another
  // component mid-render cannot deadlock or invalidate iteration.
  std::vector<std::pair<uint64_t, Collector>> collectors;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    collectors = collectors_;
  }
  std::string out;
  PromWriter writer(&out);
  for (const auto& [id, collector] : collectors) collector(writer);
  return out;
}

size_t MetricsRegistry::collector_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return collectors_.size();
}

// --- MetricsHttpServer ------------------------------------------------------

void MetricsHttpServer::SetHealthBody(
    std::function<std::string()> health_body) {
  health_body_ = std::move(health_body);
}

util::Status MetricsHttpServer::Start(const std::string& host, int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::InternalError("metrics: socket() failed");
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::InvalidArgumentError("metrics: bad host '" + host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::InternalError("metrics: cannot listen on " + host + ":" +
                               std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }
  stopping_.store(false);
  thread_ = std::thread([this] { Serve(); });
  return util::Status::OK();
}

void MetricsHttpServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true);
  // Unblock accept(): shutdown + close makes the blocked call return.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (thread_.joinable()) thread_.join();
  listen_fd_ = -1;
  port_ = 0;
}

void MetricsHttpServer::Serve() {
  while (!stopping_.load()) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (stopping_.load()) return;
      continue;
    }
    // One read is enough for the tiny requests a scraper or a health
    // check sends; only the request line's path matters.
    char buf[1024];
    const ssize_t got = ::recv(client, buf, sizeof(buf) - 1, 0);
    std::string path;
    if (got > 0) {
      buf[got] = '\0';
      const std::string_view line(buf);
      const size_t method_end = line.find(' ');
      if (method_end != std::string_view::npos) {
        const size_t path_end = line.find_first_of(" \r\n", method_end + 1);
        path = std::string(line.substr(
            method_end + 1, path_end == std::string_view::npos
                                ? std::string_view::npos
                                : path_end - method_end - 1));
        const size_t query = path.find('?');
        if (query != std::string::npos) path.resize(query);
      }
    }
    const char* status = "200 OK";
    const char* content_type = "text/plain; charset=utf-8";
    std::string body;
    if (path == "/metrics") {
      content_type = "text/plain; version=0.0.4";
      body = MetricsRegistry::Global().RenderPrometheus();
    } else if (path == "/healthz") {
      body = health_body_ ? health_body_() : std::string("ok\n");
    } else {
      status = "404 Not Found";
      body = "not found: '" + path + "' (try /metrics or /healthz)\n";
    }
    std::string response = "HTTP/1.0 " + std::string(status) +
                           "\r\n"
                           "Content-Type: " +
                           content_type +
                           "\r\n"
                           "Content-Length: " +
                           std::to_string(body.size()) +
                           "\r\n"
                           "Connection: close\r\n\r\n" +
                           body;
    size_t sent = 0;
    while (sent < response.size()) {
      const ssize_t rc =
          ::send(client, response.data() + sent, response.size() - sent,
                 MSG_NOSIGNAL);
      if (rc <= 0) break;
      sent += static_cast<size_t>(rc);
    }
    ::close(client);
  }
}

}  // namespace cegraph::obs
