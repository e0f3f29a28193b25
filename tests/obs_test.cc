#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/stage_trace.h"

namespace cegraph::obs {
namespace {

// ---------------------------------------------------------------------
// Bucket geometry
// ---------------------------------------------------------------------

TEST(HistogramBucketsTest, SubUnitValuesLandInBucketZero) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(0.25), 0u);
  EXPECT_EQ(Histogram::BucketIndex(0.999), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(0), 1.0);
}

TEST(HistogramBucketsTest, ExactPowersOfTwoStartTheirBucket) {
  // Bucket i >= 1 covers [2^((i-1)/4), 2^(i/4)), so 2^k is the inclusive
  // lower edge of bucket 4k + 1.
  for (int k = 0; k <= 20; ++k) {
    const double v = std::ldexp(1.0, k);
    EXPECT_EQ(Histogram::BucketIndex(v), static_cast<size_t>(4 * k + 1))
        << "value 2^" << k;
  }
}

TEST(HistogramBucketsTest, UpperBoundIsExclusive) {
  // For every interior bucket, the `le` edge itself belongs to the next
  // bucket, and a value just below it stays inside.
  for (size_t i = 0; i + 2 < kHistogramBuckets; ++i) {
    const double edge = HistogramSnapshot::BucketUpperBound(i);
    EXPECT_EQ(Histogram::BucketIndex(edge), i + 1) << "edge of bucket " << i;
    const double below = std::nextafter(edge, 0.0);
    EXPECT_EQ(Histogram::BucketIndex(below), i) << "below edge of bucket "
                                                << i;
  }
}

TEST(HistogramBucketsTest, OverflowBucketIsUnbounded) {
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(kHistogramBuckets - 1),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(Histogram::BucketIndex(1e300), kHistogramBuckets - 1);
}

TEST(HistogramBucketsTest, BoundsAreStrictlyIncreasing) {
  for (size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
    EXPECT_LT(HistogramSnapshot::BucketUpperBound(i),
              HistogramSnapshot::BucketUpperBound(i + 1));
  }
}

// ---------------------------------------------------------------------
// Recording and readout
// ---------------------------------------------------------------------

TEST(HistogramTest, RecordUpdatesCountSumMax) {
  Histogram h;
  h.Record(3);
  h.Record(5);
  h.Record(1);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 9.0);
  EXPECT_DOUBLE_EQ(snap.max, 5.0);
}

TEST(HistogramTest, DropsNegativeAndNonFinite) {
  Histogram h;
  h.Record(-1);
  h.Record(std::numeric_limits<double>::quiet_NaN());
  h.Record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 0u);
  h.Record(0);  // zero is a legitimate sample
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, QuantileOfEmptyIsZero) {
  Histogram h;
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_EQ(snap.Summary().count, 0u);
}

TEST(HistogramTest, QuantileOfConstantSamplesIsExact) {
  // The bucket resolves to its upper bound but is clamped to the
  // observed max, so a degenerate distribution reads back exactly.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(137.0);
  const QuantileSummary s = h.Snapshot().Summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50, 137.0);
  EXPECT_DOUBLE_EQ(s.p99, 137.0);
  EXPECT_DOUBLE_EQ(s.max, 137.0);
  EXPECT_DOUBLE_EQ(s.mean, 137.0);
}

TEST(HistogramTest, QuantilesOrderedAndWithinBucketResolution) {
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.Record(v);
  const HistogramSnapshot snap = h.Snapshot();
  const double p50 = snap.Quantile(0.50);
  const double p90 = snap.Quantile(0.90);
  const double p99 = snap.Quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, snap.max);
  // Four buckets per octave gives ~19% relative resolution; the readout
  // is the containing bucket's upper edge, so it can only overshoot.
  EXPECT_GE(p50, 500.0);
  EXPECT_LE(p50, 500.0 * 1.20);
  EXPECT_GE(p99, 990.0);
  EXPECT_LE(p99, 1000.0);  // clamped to max
}

TEST(HistogramTest, MergeAccumulates) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 10; ++i) a.Record(2);
  for (int i = 0; i < 30; ++i) b.Record(64);
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.count, 40u);
  EXPECT_DOUBLE_EQ(merged.sum, 10 * 2.0 + 30 * 64.0);
  EXPECT_DOUBLE_EQ(merged.max, 64.0);
  // p50 sits in the 64-heavy mass (30 of 40 samples are 64).
  EXPECT_GE(merged.Quantile(0.5), 64.0);
}

TEST(HistogramTest, ConcurrentRecordLosesNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<double>(1 + (t * kPerThread + i) % 1000));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads * kPerThread));
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
  // Each thread records the same multiset 1..1000, 50 times over.
  const double expected_sum = kThreads * 50.0 * (1000.0 * 1001.0 / 2.0);
  EXPECT_DOUBLE_EQ(snap.sum, expected_sum);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
}

// ---------------------------------------------------------------------
// Counters, gauges, the enable switch
// ---------------------------------------------------------------------

TEST(CounterGaugeTest, Basics) {
  Counter c;
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  Gauge g;
  g.Set(7);
  g.Add(-3);
  EXPECT_EQ(g.value(), 4);
}

TEST(MetricsEnabledTest, ToggleRoundTrips) {
  const bool before = MetricsEnabled();
  SetMetricsEnabled(false);
  EXPECT_FALSE(MetricsEnabled());
  SetMetricsEnabled(true);
  EXPECT_TRUE(MetricsEnabled());
  SetMetricsEnabled(before);
}

// ---------------------------------------------------------------------
// Prometheus rendering
// ---------------------------------------------------------------------

TEST(PromWriterTest, CounterAndGaugeFormat) {
  std::string out;
  PromWriter w(&out);
  w.WriteCounter("cegraph_things_total", "kind=\"a\"", 5);
  w.WriteCounter("cegraph_things_total", "kind=\"b\"", 7);
  w.WriteGauge("cegraph_depth", "", 3);
  EXPECT_NE(out.find("# TYPE cegraph_things_total counter\n"),
            std::string::npos);
  // One TYPE header per name, even across label sets.
  EXPECT_EQ(out.find("# TYPE cegraph_things_total"),
            out.rfind("# TYPE cegraph_things_total"));
  EXPECT_NE(out.find("cegraph_things_total{kind=\"a\"} 5\n"),
            std::string::npos);
  EXPECT_NE(out.find("cegraph_things_total{kind=\"b\"} 7\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE cegraph_depth gauge\n"), std::string::npos);
  EXPECT_NE(out.find("cegraph_depth 3\n"), std::string::npos);
}

TEST(PromWriterTest, HistogramCumulativeBucketsSumCount) {
  Histogram h;
  h.Record(0.5);  // bucket 0, le="1"
  h.Record(3);
  h.Record(3);
  std::string out;
  PromWriter w(&out);
  w.WriteHistogram("cegraph_lat", "stage=\"parse\"", h.Snapshot());
  EXPECT_NE(out.find("# TYPE cegraph_lat histogram\n"), std::string::npos);
  // Buckets are cumulative and end with +Inf == count.
  EXPECT_NE(out.find("le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(out.find("cegraph_lat_count{stage=\"parse\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("cegraph_lat_sum{stage=\"parse\"} 6.5"),
            std::string::npos);
  // The sub-unit sample shows up under the first edge.
  EXPECT_NE(out.find("le=\"1\"} 1\n"), std::string::npos);
}

TEST(PromWriterTest, HistogramWritesItsMax) {
  Histogram h;
  h.Record(3);
  h.Record(7.25);
  std::string out;
  PromWriter w(&out);
  w.WriteHistogram("cegraph_lat", "", h.Snapshot());
  EXPECT_NE(out.find("cegraph_lat_max 7.25\n"), std::string::npos);
}

// ---------------------------------------------------------------------
// Text-format parser
// ---------------------------------------------------------------------

TEST(PromParseTest, RoundTripsCountersGaugesAndEscapedLabels) {
  const std::string hostile = "a \"quoted\" \\ back\nslash";
  std::string out;
  PromWriter w(&out);
  w.WriteCounter("cegraph_things_total", "kind=\"a\"", 5);
  w.WriteCounter("cegraph_things_total",
                 "kind=\"" + PromLabelEscape(hostile) + "\"",
                 18446744073709549568ull);
  w.WriteGauge("cegraph_depth", "", 0.1);
  w.WriteGauge("cegraph_ratio", "x=\"1\",y=\"2\"", -2.5e-300);
  w.WriteGauge("cegraph_inf", "", std::numeric_limits<double>::infinity());

  auto page = ParsePrometheusText(out);
  ASSERT_TRUE(page.ok()) << page.status();
  EXPECT_EQ(page->Value("cegraph_things_total", {{"kind", "a"}}), 5);
  EXPECT_EQ(page->Value("cegraph_things_total", {{"kind", hostile}}),
            18446744073709549568.0);
  EXPECT_EQ(page->Select("cegraph_things_total").size(), 2u);
  EXPECT_EQ(page->Value("cegraph_depth"), 0.1);  // bit-exact
  EXPECT_EQ(page->Value("cegraph_ratio", {{"y", "2"}}), -2.5e-300);
  EXPECT_EQ(page->Find("cegraph_ratio")->Label("x"), "1");
  EXPECT_TRUE(std::isinf(page->Value("cegraph_inf")));
  EXPECT_EQ(page->Value("cegraph_absent", {}, -1), -1);
  EXPECT_EQ(page->Find("cegraph_depth", {{"kind", "a"}}), nullptr);
}

TEST(PromParseTest, RebuiltHistogramHasTheSourceSummary) {
  Histogram h;
  for (double v : {0.25, 1.0, 1.5, 3.0, 3.0, 17.0, 1e6, 12345.678, 5e12}) {
    h.Record(v);
  }
  const HistogramSnapshot source = h.Snapshot();
  std::string out;
  PromWriter w(&out);
  w.WriteHistogram("cegraph_lat", "stage=\"a\"", source);
  w.WriteHistogram("cegraph_lat", "stage=\"b\"", HistogramSnapshot());

  auto page = ParsePrometheusText(out);
  ASSERT_TRUE(page.ok()) << page.status();
  auto rebuilt = page->ReadHistogram("cegraph_lat", {{"stage", "a"}});
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(rebuilt->buckets, source.buckets);
  const QuantileSummary want = source.Summary();
  const QuantileSummary got = rebuilt->Summary();
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.mean, want.mean);
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p90, want.p90);
  EXPECT_EQ(got.p99, want.p99);
  EXPECT_EQ(got.max, want.max);
  // The empty series rebuilds empty, and an absent one is NotFound.
  auto empty = page->ReadHistogram("cegraph_lat", {{"stage", "b"}});
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->count, 0u);
  EXPECT_EQ(page->ReadHistogram("cegraph_lat", {{"stage", "c"}})
                .status()
                .code(),
            util::StatusCode::kNotFound);
}

TEST(PromParseTest, MalformedLinesAreInvalidArgument) {
  const char* const kBad[] = {
      "9starts_with_digit 1",
      "name{} ",
      "name 1 2 3",
      "name one",
      "name{label=\"unterminated} 1",
      "name{label=\"bad \\t escape\"} 1",
      "name{label=unquoted} 1",
      "name{1label=\"v\"} 1",
      "name{a=\"1\",a=\"2\"} 1",
      "name{a=\"1\"b=\"2\"} 1",
      "name{a=\"1\"",
      "name\t1",
      "name 1 12.5",
      "name ++1",
      "name 1e999",
      "# TYPE name bogus",
      "# TYPE name",
      "# TYPE name counter\n# TYPE name gauge",
      "name{a=\"1\"} 1\nname{a=\"1\"} 2",
      "name{a=\"1\",b=\"2\"} 1\nname{b=\"2\",a=\"1\"} 2",
  };
  for (const char* text : kBad) {
    auto page = ParsePrometheusText(text);
    EXPECT_EQ(page.status().code(), util::StatusCode::kInvalidArgument)
        << "accepted: " << text;
  }
  // The accepted corner cases: comments, blank lines, timestamps, a
  // trailing comma and the special float tokens.
  auto ok = ParsePrometheusText(
      "# HELP name free text\n\n"
      "name{a=\"1\",} 1 1700000000000\n"
      "other NaN\nthird -Inf\nfourth +7\n");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->samples.size(), 4u);
  EXPECT_TRUE(std::isnan(ok->Value("other")));
  EXPECT_EQ(ok->Value("fourth"), 7);
}

TEST(PromParseTest, MalformedHistogramsAreRejected) {
  auto read = [](const std::string& text) {
    auto page = ParsePrometheusText(text);
    EXPECT_TRUE(page.ok()) << page.status();
    return page->ReadHistogram("h").status().code();
  };
  const std::string tail = "h_sum 3\nh_count 2\nh_max 2\n";
  EXPECT_EQ(read("h_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 2\n" + tail),
            util::StatusCode::kOk);
  // 3 is not a bucket edge of this build's histograms.
  EXPECT_EQ(read("h_bucket{le=\"3\"} 2\nh_bucket{le=\"+Inf\"} 2\n" + tail),
            util::StatusCode::kInvalidArgument);
  // Cumulative counts must not decrease, and +Inf must close the series.
  EXPECT_EQ(read("h_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 1\n" + tail),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(read("h_bucket{le=\"2\"} 2\n" + tail),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(read("h_bucket{le=\"+Inf\"} 2\nh_count 2\n"),
            util::StatusCode::kInvalidArgument);  // no _sum / _max
  EXPECT_EQ(read("h_bucket{le=\"+Inf\"} -2\n" + tail),
            util::StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Registry and HTTP exporter
// ---------------------------------------------------------------------

TEST(MetricsRegistryTest, AddRenderRemove) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const size_t before = reg.collector_count();
  const uint64_t id = reg.AddCollector([](PromWriter& w) {
    w.WriteCounter("cegraph_obs_test_total", "", 11);
  });
  EXPECT_NE(id, 0u);
  EXPECT_EQ(reg.collector_count(), before + 1);
  EXPECT_NE(reg.RenderPrometheus().find("cegraph_obs_test_total 11"),
            std::string::npos);
  reg.RemoveCollector(id);
  EXPECT_EQ(reg.collector_count(), before);
  EXPECT_EQ(reg.RenderPrometheus().find("cegraph_obs_test_total"),
            std::string::npos);
}

// Speaks just enough HTTP to act as a scraper against the exporter.
std::string HttpGet(int port, const std::string& path = "/metrics") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttpServerTest, ServesRegistryPage) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const uint64_t id = reg.AddCollector([](PromWriter& w) {
    w.WriteCounter("cegraph_obs_http_test_total", "", 23);
  });

  MetricsHttpServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());
  ASSERT_GT(server.port(), 0);

  const std::string response = HttpGet(server.port());
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("text/plain"), std::string::npos);
  EXPECT_NE(response.find("cegraph_obs_http_test_total 23"),
            std::string::npos);

  // A second scrape works (no one-shot state), then Stop is idempotent.
  EXPECT_NE(HttpGet(server.port()).find("cegraph_obs_http_test_total"),
            std::string::npos);
  server.Stop();
  server.Stop();
  reg.RemoveCollector(id);
}

TEST(MetricsHttpServerTest, RoutesHealthzAndUnknownPaths) {
  MetricsHttpServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());
  ASSERT_GT(server.port(), 0);

  // /healthz answers 200 with a minimal default body...
  std::string response = HttpGet(server.port(), "/healthz");
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("ok"), std::string::npos);

  // ...and with the wired body once the host installs one.
  server.SetHealthBody(
      [] { return std::string("ok\nepoch 7\nversion v5\n"); });
  response = HttpGet(server.port(), "/healthz");
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("epoch 7"), std::string::npos);
  EXPECT_NE(response.find("version v5"), std::string::npos);

  // Query strings are stripped before routing.
  response = HttpGet(server.port(), "/healthz?verbose=1");
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("epoch 7"), std::string::npos);

  // Unknown paths 404 with a hint body instead of an empty hangup.
  response = HttpGet(server.port(), "/nope");
  EXPECT_NE(response.find("404"), std::string::npos);
  EXPECT_NE(response.find("not found: '/nope'"), std::string::npos);

  // /metrics still serves the registry page alongside the new routes.
  response = HttpGet(server.port(), "/metrics");
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("text/plain"), std::string::npos);
  server.Stop();
}

// ---------------------------------------------------------------------
// Stage traces
// ---------------------------------------------------------------------

TEST(StageTraceTest, CurrentFollowsScope) {
  EXPECT_EQ(StageTrace::Current(), nullptr);
  StageTrace trace;
  {
    StageTrace::Scope scope(&trace);
    EXPECT_EQ(StageTrace::Current(), &trace);
    {
      // A disabled install (metrics off) parks nullptr and restores.
      StageTrace::Scope inner(nullptr);
      EXPECT_EQ(StageTrace::Current(), nullptr);
    }
    EXPECT_EQ(StageTrace::Current(), &trace);
  }
  EXPECT_EQ(StageTrace::Current(), nullptr);
}

TEST(StageTraceTest, AddAccumulatesPerStage) {
  StageTrace trace;
  trace.Add(Stage::kEstimate, 10);
  trace.Add(Stage::kEstimate, 2.5);
  trace.Add(Stage::kParse, 1);
  EXPECT_DOUBLE_EQ(trace.micros(Stage::kEstimate), 12.5);
  EXPECT_DOUBLE_EQ(trace.micros(Stage::kParse), 1.0);
  EXPECT_DOUBLE_EQ(trace.micros(Stage::kWrite), 0.0);
}

TEST(StageTraceTest, FormatNamesEveryStage) {
  StageTrace trace;
  for (size_t i = 0; i < kStageCount; ++i) {
    trace.Add(static_cast<Stage>(i), static_cast<double>(i + 1));
  }
  const std::string line = trace.Format();
  for (size_t i = 0; i < kStageCount; ++i) {
    EXPECT_NE(line.find(StageName(static_cast<Stage>(i))),
              std::string::npos)
        << line;
  }
  EXPECT_NE(line.find("queue_wait=1.0us"), std::string::npos) << line;
}

TEST(StageTraceTest, ThreadLocalIsolation) {
  StageTrace outer;
  StageTrace::Scope scope(&outer);
  std::thread other([] {
    // The install above must not leak into a different thread.
    EXPECT_EQ(StageTrace::Current(), nullptr);
    StageTrace mine;
    StageTrace::Scope inner(&mine);
    EXPECT_EQ(StageTrace::Current(), &mine);
  });
  other.join();
  EXPECT_EQ(StageTrace::Current(), &outer);
}

}  // namespace
}  // namespace cegraph::obs
