// Deterministic fuzz/property tests for the wire-protocol codecs:
// encode -> decode must round-trip every request/response shape (the v2
// `dataset` field and the v3 batch frames included), and random byte
// mutations of valid frames — or outright random bytes — must never crash
// the decoders (they return a clean Status instead; ASan/UBSan in CI turns
// any lurking UB into a failure). The same holds for the metrics page a
// v6 stats reply carries: obs::ParsePrometheusText reads it as untrusted
// input. Golden-byte tests pin the v1/v2/v3/v5/v6 layouts: a later
// revision must not shift a single byte of the frames old clients and
// servers exchange. The seed is logged on every run so a failure
// reproduces with CEGRAPH_FUZZ_SEED=<seed>.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "service/request.h"
#include "service/service.h"
#include "service/wire.h"
#include "util/serde.h"

namespace cegraph::service::wire {
namespace {

uint64_t FuzzSeed() {
  if (const char* env = std::getenv("CEGRAPH_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260728;
}

/// One shared generator per test, seed printed for reproduction.
class Fuzz {
 public:
  Fuzz() : seed_(FuzzSeed()), rng_(seed_) {
    std::printf("[ fuzz seed %llu — rerun with CEGRAPH_FUZZ_SEED ]\n",
                static_cast<unsigned long long>(seed_));
  }

  uint64_t U64() { return rng_(); }
  uint32_t U32() { return static_cast<uint32_t>(rng_()); }
  /// Uniform in [0, n).
  size_t Index(size_t n) { return static_cast<size_t>(rng_() % n); }
  bool Coin() { return (rng_() & 1) != 0; }
  /// A finite double that compares bit-identically after a round trip.
  double FiniteDouble() {
    return static_cast<double>(static_cast<int64_t>(rng_())) / 1024.0;
  }
  std::string Bytes(size_t max_len) {
    std::string out(Index(max_len + 1), '\0');
    for (char& c : out) c = static_cast<char>(rng_());
    return out;
  }

 private:
  uint64_t seed_;
  std::mt19937_64 rng_;
};

MessageType RandomType(Fuzz& fuzz) {
  return static_cast<MessageType>(1 + fuzz.Index(7));
}

/// A dataset name that can never collide with an extension string: the
/// wire spec reserves leading 0xFF for extensions, in both directions.
std::string RandomDataset(Fuzz& fuzz) {
  std::string dataset = fuzz.Bytes(16);
  if (!dataset.empty() && dataset[0] == '\xff') dataset[0] = 'd';
  return dataset;
}

Request RandomRequest(Fuzz& fuzz) {
  Request request;
  request.type = RandomType(fuzz);
  if (request.type == MessageType::kBatchEstimate) {
    // v3 frame: a counted line list travels instead of the text field.
    const size_t lines = fuzz.Index(5);
    for (size_t i = 0; i < lines; ++i) {
      request.lines.push_back(fuzz.Bytes(64));
    }
  } else {
    request.text = fuzz.Bytes(64);
  }
  if (fuzz.Coin()) request.dataset = RandomDataset(fuzz);
  // v5: the optional end-to-end request id.
  if (fuzz.Coin()) request.request_id = fuzz.U64();
  return request;
}

EstimateResponse RandomEstimate(Fuzz& fuzz) {
  EstimateResponse estimate;
  estimate.epoch = fuzz.U64();
  estimate.state_version = fuzz.U64();
  estimate.total_micros = fuzz.FiniteDouble();
  estimate.has_truth = fuzz.Coin();
  estimate.truth = fuzz.FiniteDouble();
  const size_t results = fuzz.Index(5);
  for (size_t i = 0; i < results; ++i) {
    EstimatorResult result;
    result.name = fuzz.Bytes(24);
    result.ok = fuzz.Coin();
    result.estimate = fuzz.FiniteDouble();
    result.error = fuzz.Bytes(24);
    result.micros = fuzz.FiniteDouble();
    result.qerror = fuzz.FiniteDouble();
    estimate.results.push_back(std::move(result));
  }
  return estimate;
}

SnapshotLoadBreakdown RandomLoadBreakdown(Fuzz& fuzz) {
  SnapshotLoadBreakdown load;
  load.loaded = fuzz.Coin();
  load.mapped = fuzz.Coin();
  load.mapped_bytes = fuzz.U64();
  load.map_millis = fuzz.FiniteDouble();
  load.materialize_millis = fuzz.FiniteDouble();
  load.snapshot_epoch = fuzz.U64();
  return load;
}

obs::HistogramSnapshot RandomHistogram(Fuzz& fuzz) {
  obs::HistogramSnapshot h;
  for (int i = 0; i < 6; ++i) {
    const uint64_t n = fuzz.Index(1000);
    h.buckets[fuzz.Index(obs::kHistogramBuckets)] += n;
    h.count += n;
  }
  h.sum = fuzz.FiniteDouble();
  h.max = fuzz.FiniteDouble();
  return h;
}

/// A service's stats with every row kind present and hostile label text
/// (arbitrary bytes: quotes, backslashes, newlines) in every name.
ServiceStats RandomStats(Fuzz& fuzz) {
  ServiceStats stats;
  stats.served = fuzz.U32();
  stats.epoch = fuzz.U32();
  stats.mean_latency_micros = fuzz.FiniteDouble();
  stats.latency = RandomHistogram(fuzz);
  stats.batch_lines = RandomHistogram(fuzz);
  stats.snapshot_load = RandomLoadBreakdown(fuzz);
  for (int i = 0; i < 2; ++i) {
    ServiceStats::EstimatorAccounting e;
    e.name = std::to_string(i) + fuzz.Bytes(16);
    e.requests = fuzz.U32();
    e.mean_qerror = fuzz.FiniteDouble();
    e.latency = RandomHistogram(fuzz);
    e.qerror = RandomHistogram(fuzz);
    stats.estimators.push_back(std::move(e));
  }
  stats.caches.push_back({fuzz.Bytes(16), fuzz.U32(), fuzz.U32(), 0, 0});
  stats.recent.push_back({"1m", fuzz.FiniteDouble(), RandomHistogram(fuzz)});
  obs::ScorecardClassReport row;
  row.key = fuzz.Bytes(24);
  row.display = fuzz.Bytes(24);
  row.hits = fuzz.U32();
  row.worst.line = fuzz.Bytes(48);
  row.worst.estimator = fuzz.Bytes(8);
  row.worst.qerror = fuzz.FiniteDouble();
  stats.scorecard.push_back(std::move(row));
  learn::FeedbackClassReport correction;
  correction.key = fuzz.Bytes(24);
  correction.display = fuzz.Bytes(24);
  correction.correction = fuzz.FiniteDouble();
  stats.corrections.push_back(std::move(correction));
  return stats;
}

std::string RenderPage(const ServiceStats& stats) {
  std::string page;
  obs::PromWriter writer(&page);
  WriteMetrics(stats, "dataset=\"fuzz\"", writer);
  return page;
}


Response RandomResponse(Fuzz& fuzz) {
  Response response;
  response.type = RandomType(fuzz);
  if (fuzz.Coin()) {
    response.status =
        util::Status(static_cast<util::StatusCode>(1 + fuzz.Index(7)),
                     fuzz.Bytes(48));
  } else {
    switch (response.type) {
      case MessageType::kEstimate:
        response.estimate = RandomEstimate(fuzz);
        break;
      case MessageType::kApplyDeltas:
      case MessageType::kSwapSnapshot:
        response.swap.epoch = fuzz.U64();
        response.swap.version = fuzz.U64();
        response.swap.applied_ops = fuzz.U32();
        response.swap.trimmed_log_ops = fuzz.U32();
        response.swap.maintenance.inserted_edges = fuzz.U32();
        response.swap.maintenance.deleted_edges = fuzz.U32();
        response.swap.maintenance.changed_labels = fuzz.U32();
        response.swap.maintenance.ceg_evicted = fuzz.U32();
        response.swap.snapshot_stale = fuzz.Coin();
        response.swap.snapshot_replayed_deltas = fuzz.U32();
        response.swap.snapshot_load = RandomLoadBreakdown(fuzz);
        break;
      case MessageType::kStats:
        // v6: the body is one string, the metrics page.
        response.text = RenderPage(RandomStats(fuzz));
        break;
      case MessageType::kPing:
      case MessageType::kShutdown:
        response.text = fuzz.Bytes(48);
        break;
      case MessageType::kBatchEstimate: {
        const size_t items = fuzz.Index(5);
        for (size_t i = 0; i < items; ++i) {
          BatchEstimateItem item;
          if (fuzz.Coin()) {
            item.status = util::Status(
                static_cast<util::StatusCode>(1 + fuzz.Index(7)),
                fuzz.Bytes(48));
          } else {
            item.estimate = RandomEstimate(fuzz);
          }
          response.batch.push_back(std::move(item));
        }
        break;
      }
    }
  }
  if (fuzz.Coin()) response.dataset = RandomDataset(fuzz);
  // v5: the request-id echo travels on error responses too.
  if (fuzz.Coin()) response.request_id = fuzz.U64();
  return response;
}

void ExpectEqual(const Request& a, const Request& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.dataset, b.dataset);
  EXPECT_EQ(a.request_id, b.request_id);
  ASSERT_EQ(a.lines.size(), b.lines.size());
  for (size_t i = 0; i < a.lines.size(); ++i) {
    EXPECT_EQ(a.lines[i], b.lines[i]);
  }
}

void ExpectEqualEstimate(const EstimateResponse& a,
                         const EstimateResponse& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.state_version, b.state_version);
  EXPECT_EQ(a.total_micros, b.total_micros);
  EXPECT_EQ(a.has_truth, b.has_truth);
  EXPECT_EQ(a.truth, b.truth);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].name, b.results[i].name);
    EXPECT_EQ(a.results[i].ok, b.results[i].ok);
    EXPECT_EQ(a.results[i].estimate, b.results[i].estimate);
    EXPECT_EQ(a.results[i].error, b.results[i].error);
    EXPECT_EQ(a.results[i].micros, b.results[i].micros);
    EXPECT_EQ(a.results[i].qerror, b.results[i].qerror);
  }
}

void ExpectEqualLoad(const SnapshotLoadBreakdown& a,
                     const SnapshotLoadBreakdown& b) {
  EXPECT_EQ(a.loaded, b.loaded);
  EXPECT_EQ(a.mapped, b.mapped);
  EXPECT_EQ(a.mapped_bytes, b.mapped_bytes);
  EXPECT_EQ(a.map_millis, b.map_millis);
  EXPECT_EQ(a.materialize_millis, b.materialize_millis);
  EXPECT_EQ(a.snapshot_epoch, b.snapshot_epoch);
}

void ExpectEqual(const Response& a, const Response& b) {
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.status.message(), b.status.message());
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.dataset, b.dataset);
  EXPECT_EQ(a.request_id, b.request_id);
  if (!a.status.ok()) return;  // bodies travel only on OK
  switch (a.type) {
    case MessageType::kEstimate:
      ExpectEqualEstimate(a.estimate, b.estimate);
      break;
    case MessageType::kApplyDeltas:
    case MessageType::kSwapSnapshot:
      EXPECT_EQ(a.swap.epoch, b.swap.epoch);
      EXPECT_EQ(a.swap.version, b.swap.version);
      EXPECT_EQ(a.swap.applied_ops, b.swap.applied_ops);
      EXPECT_EQ(a.swap.trimmed_log_ops, b.swap.trimmed_log_ops);
      EXPECT_EQ(a.swap.maintenance.inserted_edges,
                b.swap.maintenance.inserted_edges);
      EXPECT_EQ(a.swap.maintenance.deleted_edges,
                b.swap.maintenance.deleted_edges);
      EXPECT_EQ(a.swap.maintenance.changed_labels,
                b.swap.maintenance.changed_labels);
      // Evictions travel summed into the CEG slot (see EncodeSwap).
      EXPECT_EQ(a.swap.maintenance.total_evicted(),
                b.swap.maintenance.total_evicted());
      EXPECT_EQ(a.swap.snapshot_stale, b.swap.snapshot_stale);
      EXPECT_EQ(a.swap.snapshot_replayed_deltas,
                b.swap.snapshot_replayed_deltas);
      ExpectEqualLoad(a.swap.snapshot_load, b.swap.snapshot_load);
      break;
    case MessageType::kStats:
    case MessageType::kPing:
    case MessageType::kShutdown:
      EXPECT_EQ(a.text, b.text);
      break;
    case MessageType::kBatchEstimate:
      ASSERT_EQ(a.batch.size(), b.batch.size());
      for (size_t i = 0; i < a.batch.size(); ++i) {
        EXPECT_EQ(a.batch[i].status.code(), b.batch[i].status.code());
        EXPECT_EQ(a.batch[i].status.message(), b.batch[i].status.message());
        if (a.batch[i].status.ok()) {
          ExpectEqualEstimate(a.batch[i].estimate, b.batch[i].estimate);
        }
      }
      break;
  }
}

TEST(WireFuzzTest, RequestRoundTripAllTypesIncludingDataset) {
  Fuzz fuzz;
  for (int i = 0; i < 2000; ++i) {
    const Request request = RandomRequest(fuzz);
    auto decoded = DecodeRequest(EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status() << " at iteration " << i;
    ExpectEqual(request, *decoded);
  }
}

TEST(WireFuzzTest, ResponseRoundTripAllTypesIncludingDataset) {
  Fuzz fuzz;
  for (int i = 0; i < 2000; ++i) {
    const Response response = RandomResponse(fuzz);
    auto decoded = DecodeResponse(EncodeResponse(response));
    ASSERT_TRUE(decoded.ok()) << decoded.status() << " at iteration " << i;
    ExpectEqual(response, *decoded);
  }
}

/// Applies 1..8 random single-byte flips, plus an occasional truncation
/// or extension, to a valid payload.
std::string Mutate(Fuzz& fuzz, std::string payload) {
  const size_t flips = 1 + fuzz.Index(8);
  for (size_t f = 0; f < flips && !payload.empty(); ++f) {
    payload[fuzz.Index(payload.size())] ^=
        static_cast<char>(1 + fuzz.Index(255));
  }
  if (fuzz.Coin() && !payload.empty()) {
    payload.resize(fuzz.Index(payload.size()));  // truncate
  } else if (fuzz.Coin()) {
    payload += fuzz.Bytes(16);  // trailing garbage
  }
  return payload;
}

TEST(WireFuzzTest, MutatedRequestFramesNeverCrashDecoder) {
  Fuzz fuzz;
  size_t decoded_ok = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string payload =
        Mutate(fuzz, EncodeRequest(RandomRequest(fuzz)));
    auto decoded = DecodeRequest(payload);  // must return, never crash
    decoded_ok += decoded.ok() ? 1 : 0;
  }
  // Some mutations legitimately decode (e.g. a flipped text byte); the
  // assertion is only that nothing crashed and both outcomes occur.
  EXPECT_GT(decoded_ok, 0u);
}

TEST(WireFuzzTest, MutatedResponseFramesNeverCrashDecoder) {
  Fuzz fuzz;
  size_t decoded_ok = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string payload =
        Mutate(fuzz, EncodeResponse(RandomResponse(fuzz)));
    auto decoded = DecodeResponse(payload);
    decoded_ok += decoded.ok() ? 1 : 0;
  }
  EXPECT_GT(decoded_ok, 0u);
}

TEST(WireFuzzTest, RandomGarbageNeverCrashesEitherDecoder) {
  Fuzz fuzz;
  for (int i = 0; i < 5000; ++i) {
    const std::string garbage = fuzz.Bytes(128);
    (void)DecodeRequest(garbage);
    (void)DecodeResponse(garbage);
    (void)obs::ParsePrometheusText(garbage);
  }
}

TEST(WireFuzzTest, V1FramesDecodeWithEmptyDataset) {
  // A v1 client's frame is exactly "type + text": the decoder must route
  // it to the default dataset (empty field), not reject it.
  Request v1;
  v1.type = MessageType::kEstimate;
  v1.text = "(a)-[3]->(b)";
  const std::string payload = EncodeRequest(v1);  // empty dataset == v1
  auto decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->dataset.empty());
}

// ---- Golden v1/v2 byte layouts ----
//
// These frames are hand-assembled with util::serde::Writer — the same
// primitive layer the codecs use, but never the codecs themselves. If the
// v3 batch work (or anything later) shifts even one byte of the v1/v2
// layouts, old clients and servers break; these tests pin both directions.

TEST(WireFuzzTest, GoldenV1RequestBytesAreStable) {
  Request request;
  request.type = MessageType::kEstimate;
  request.text = "(a)-[3]->(b)";

  util::serde::Writer w;
  w.WriteU8(1);  // kEstimate
  w.WriteString("(a)-[3]->(b)");
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeRequest(request), golden);
  auto decoded = DecodeRequest(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(request, *decoded);
}

TEST(WireFuzzTest, GoldenV2RequestBytesAreStable) {
  Request request;
  request.type = MessageType::kPing;
  request.text = "hello";
  request.dataset = "alpha";

  util::serde::Writer w;
  w.WriteU8(5);  // kPing
  w.WriteString("hello");
  w.WriteString("alpha");  // v2 trailing dataset
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeRequest(request), golden);
  auto decoded = DecodeRequest(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(request, *decoded);
}

TEST(WireFuzzTest, GoldenV1ResponseBytesAreStable) {
  Response response;
  response.type = MessageType::kPing;
  response.text = "pong";

  util::serde::Writer w;
  w.WriteU8(0);       // status code OK
  w.WriteString("");  // status message
  w.WriteU8(5);       // kPing
  w.WriteString("pong");
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeResponse(response), golden);
  auto decoded = DecodeResponse(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(response, *decoded);
}

TEST(WireFuzzTest, GoldenV2ErrorResponseBytesAreStable) {
  Response response;
  response.type = MessageType::kEstimate;
  response.status = util::InvalidArgumentError("bad line");
  response.dataset = "beta";

  util::serde::Writer w;
  w.WriteU8(static_cast<uint8_t>(util::StatusCode::kInvalidArgument));
  w.WriteString("bad line");
  w.WriteU8(1);           // kEstimate
  w.WriteString("beta");  // v2 trailing dataset echo (no body on error)
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeResponse(response), golden);
  auto decoded = DecodeResponse(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(response, *decoded);
}

TEST(WireFuzzTest, GoldenV3BatchRequestBytesAreStable) {
  Request request;
  request.type = MessageType::kBatchEstimate;
  request.lines = {"(a)-[3]->(b)", "(a)-[1]->(b)"};
  request.dataset = "alpha";

  util::serde::Writer w;
  w.WriteU8(7);   // kBatchEstimate
  w.WriteU32(2);  // line count
  w.WriteString("(a)-[3]->(b)");
  w.WriteString("(a)-[1]->(b)");
  w.WriteString("alpha");  // dataset still trails, v2-style
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeRequest(request), golden);
  auto decoded = DecodeRequest(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(request, *decoded);
}

// ---- v5 request-id extension ----

TEST(WireFuzzTest, GoldenV5RequestIdRequestBytesAreStable) {
  Request request;
  request.type = MessageType::kEstimate;
  request.text = "(a)-[3]->(b)";
  request.dataset = "alpha";
  request.request_id = 0xDEADBEEFCAFEF00Dull;

  util::serde::Writer ext;
  ext.WriteRaw(std::string_view("\xff" "CGR", 4));
  ext.WriteU8(1);  // ext version
  ext.WriteU64(0xDEADBEEFCAFEF00Dull);

  util::serde::Writer w;
  w.WriteU8(1);  // kEstimate
  w.WriteString("(a)-[3]->(b)");
  w.WriteString("alpha");  // v2 dataset still precedes the extension
  w.WriteString(ext.TakeBuffer());
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeRequest(request), golden);
  auto decoded = DecodeRequest(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(request, *decoded);
}

TEST(WireFuzzTest, GoldenV5RequestIdEchoOnErrorResponseBytesAreStable) {
  // The id echo travels on error responses too — that is what makes it
  // useful for correlating a shed or failed request with the journal.
  Response response;
  response.type = MessageType::kEstimate;
  response.status = util::ResourceExhaustedError("saturated");
  response.request_id = 0x42;

  util::serde::Writer ext;
  ext.WriteRaw(std::string_view("\xff" "CGR", 4));
  ext.WriteU8(1);
  ext.WriteU64(0x42);

  util::serde::Writer w;
  w.WriteU8(static_cast<uint8_t>(util::StatusCode::kResourceExhausted));
  w.WriteString("saturated");
  w.WriteU8(1);  // kEstimate
  w.WriteString(ext.TakeBuffer());
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeResponse(response), golden);
  auto decoded = DecodeResponse(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(response, *decoded);
}

// ---- v6 stats reply ----

TEST(WireFuzzTest, GoldenV6StatsResponseBytesAreStable) {
  // The stats body is one string: the metrics page, then the trailing
  // fields as on every other frame.
  const std::string page =
      "# TYPE cegraph_requests_served_total counter\n"
      "cegraph_requests_served_total{dataset=\"alpha\"} 100\n";
  Response response;
  response.type = MessageType::kStats;
  response.text = page;
  response.dataset = "alpha";

  util::serde::Writer w;
  w.WriteU8(0);       // status code OK
  w.WriteString("");  // status message
  w.WriteU8(4);       // kStats
  w.WriteString(page);
  w.WriteString("alpha");  // v2 trailing dataset echo
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeResponse(response), golden);
  auto decoded = DecodeResponse(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(response, *decoded);
  auto parsed = obs::ParsePrometheusText(decoded->text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Value("cegraph_requests_served_total",
                          {{"dataset", "alpha"}}),
            100);
}

TEST(WireFuzzTest, RenderedPagesParseWithHostileLabels) {
  // Whatever bytes the names carry, the rendered page parses and reads
  // back the values and label text that went in.
  Fuzz fuzz;
  for (int i = 0; i < 200; ++i) {
    const ServiceStats stats = RandomStats(fuzz);
    auto page = obs::ParsePrometheusText(RenderPage(stats));
    ASSERT_TRUE(page.ok()) << page.status() << " at iteration " << i;
    const obs::ScorecardClassReport& row = stats.scorecard[0];
    EXPECT_EQ(page->Value("cegraph_scorecard_hits_total",
                          {{"class", row.display}, {"key", row.key}}),
              static_cast<double>(row.hits));
    const obs::PromSample* worst = page->Find(
        "cegraph_scorecard_worst_qerror", {{"key", row.key}});
    ASSERT_NE(worst, nullptr);
    EXPECT_EQ(worst->Label("query"), row.worst.line);
    auto latency = page->ReadHistogram(
        "cegraph_estimator_latency_micros",
        {{"estimator", stats.estimators[1].name}});
    ASSERT_TRUE(latency.ok()) << latency.status();
    EXPECT_EQ(latency->buckets, stats.estimators[1].latency.buckets);
    EXPECT_EQ(latency->sum, stats.estimators[1].latency.sum);
  }
}

TEST(WireFuzzTest, MutatedMetricsPagesNeverCrashParser) {
  Fuzz fuzz;
  size_t parsed_ok = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string page = Mutate(fuzz, RenderPage(RandomStats(fuzz)));
    auto parsed = obs::ParsePrometheusText(page);  // must return
    if (!parsed.ok()) continue;
    ++parsed_ok;
    // Histogram reconstruction validates what the parser let through.
    for (const char* name :
         {"cegraph_request_latency_micros", "cegraph_batch_lines",
          "cegraph_estimator_qerror"}) {
      (void)parsed->ReadHistogram(name);
    }
  }
  EXPECT_GT(parsed_ok, 0u);
}

TEST(WireFuzzTest, UnknownTrailingExtensionsAreSkipped) {
  // A newer peer's extension (any 0xFF-led magic this build does not
  // know) must be skipped, not fail the frame — in both directions.
  util::serde::Writer unknown;
  unknown.WriteRaw(std::string_view("\xff" "CGZ", 4));
  unknown.WriteU64(123456789);

  util::serde::Writer wr;
  wr.WriteU8(5);  // kPing
  wr.WriteString("hello");
  wr.WriteString("alpha");
  wr.WriteString(unknown.buffer());
  auto request = DecodeRequest(wr.TakeBuffer());
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->dataset, "alpha");
  EXPECT_EQ(request->request_id, 0u);

  util::serde::Writer ws;
  ws.WriteU8(0);
  ws.WriteString("");
  ws.WriteU8(5);  // kPing
  ws.WriteString("pong");
  ws.WriteString(unknown.buffer());
  ws.WriteString("beta");  // dataset after the extension: order-free
  auto response = DecodeResponse(ws.TakeBuffer());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->text, "pong");
  EXPECT_EQ(response->dataset, "beta");
}

TEST(WireFuzzTest, RequestRejectsDuplicateDatasetFields) {
  util::serde::Writer w;
  w.WriteU8(5);  // kPing
  w.WriteString("hello");
  w.WriteString("alpha");
  w.WriteString("beta");
  auto decoded = DecodeRequest(w.TakeBuffer());
  EXPECT_FALSE(decoded.ok());
}

TEST(WireFuzzTest, BatchResponseRejectsImplausibleItemCount) {
  // A batch response whose item count exceeds the remaining payload is
  // corruption; the decoder must reject it before reserving memory for it.
  util::serde::Writer w;
  w.WriteU8(0);       // status code OK
  w.WriteString("");  // status message
  w.WriteU8(7);       // kBatchEstimate
  w.WriteU32(0x7fffffff);
  auto decoded = DecodeResponse(w.TakeBuffer());
  EXPECT_FALSE(decoded.ok());
}

TEST(WireFuzzTest, BatchRequestRejectsImplausibleLineCount) {
  util::serde::Writer w;
  w.WriteU8(7);  // kBatchEstimate
  w.WriteU32(0x7fffffff);
  auto decoded = DecodeRequest(w.TakeBuffer());
  EXPECT_FALSE(decoded.ok());
}

}  // namespace
}  // namespace cegraph::service::wire
