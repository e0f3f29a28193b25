// The closed-loop accuracy gate: replaying a truth-carrying workload
// through an EstimationService with feedback on must improve the second
// pass's per-class q-error for consistently biased classes, leave gated
// and opted-out classes bit-identical to raw serving, keep `--feedback
// off` serving bit-identical to a pre-feedback build, and carry learned
// corrections through snapshot save/load and hot swaps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "graph/generators.h"
#include "harness/qerror.h"
#include "query/parser.h"
#include "service/request.h"
#include "service/service.h"

namespace cegraph::service {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& stem)
      : path_((std::filesystem::temp_directory_path() /
               ("cegraph_closed_loop_test_" + stem + ".snap"))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

graph::Graph SmallGraph(uint64_t seed = 7) {
  graph::GeneratorConfig config;
  config.num_vertices = 300;
  config.num_edges = 1800;
  config.num_labels = 6;
  config.seed = seed;
  auto g = graph::GenerateGraph(config);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

/// Deterministic suite: the bit-identical assertions need estimators
/// without sampling.
ServiceOptions FeedbackOptions(FeedbackMode mode) {
  ServiceOptions options;
  options.estimators = {"max-hop-max", "all-hops-avg", "molp", "cbs"};
  options.compact_trigger_ops = 0;
  options.feedback = mode;
  options.feedback_options.min_samples = 4;
  return options;
}

/// Workload-file lines with deliberately biased truths: the truths are
/// orders of magnitude off any summary estimate on a 300-vertex graph,
/// so every estimator's class is consistently biased and the learned
/// correction must help.
const std::vector<std::string>& BiasedLines() {
  static const std::vector<std::string> lines = {
      "chain2 50000 (a)-[0]->(b); (b)-[1]->(c)",
      "fork2 120000 (a)-[2]->(b); (a)-[3]->(c)",
  };
  return lines;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

TEST(ClosedLoopTest, SecondPassImprovesBiasedClassesGatedStaysRaw) {
  auto service =
      EstimationService::Create(SmallGraph(), FeedbackOptions(FeedbackMode::kOn));
  ASSERT_TRUE(service.ok()) << service.status();

  // Pass 1: the first submission of each class serves raw (no class has
  // support yet) and seeds the learner.
  std::vector<double> pass1;  // usable q-errors, (line, estimator) order
  for (const std::string& line : BiasedLines()) {
    auto response = (*service)->EstimateLine(line);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->has_truth);
    for (const EstimatorResult& r : response->results) {
      ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
      EXPECT_FALSE(r.corrected) << r.name << " corrected before any learning";
      EXPECT_EQ(r.estimate, r.raw_estimate);
      if (harness::UsableQError(r.qerror)) pass1.push_back(r.qerror);
    }
  }
  ASSERT_FALSE(pass1.empty());

  // Three more learning submissions cross the min_samples=4 gate.
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::string& line : BiasedLines()) {
      ASSERT_TRUE((*service)->EstimateLine(line).ok());
    }
  }

  // Pass 2: every estimator's class is past the gate; the raw estimates
  // are unchanged (deterministic suite, same state), so the correction —
  // the median of identical ratios — lands the estimate on the truth.
  std::vector<double> pass2;
  for (const std::string& line : BiasedLines()) {
    auto response = (*service)->EstimateLine(line);
    ASSERT_TRUE(response.ok()) << response.status();
    for (const EstimatorResult& r : response->results) {
      ASSERT_TRUE(r.ok);
      EXPECT_TRUE(r.corrected) << r.name << " not corrected past the gate";
      EXPECT_NE(r.correction, 1.0);
      EXPECT_EQ(r.estimate, r.raw_estimate * r.correction)
          << "served estimate must be exactly raw x correction";
      if (harness::UsableQError(r.qerror)) pass2.push_back(r.qerror);
    }
  }
  ASSERT_EQ(pass2.size(), pass1.size());
  for (size_t i = 0; i < pass1.size(); ++i) {
    EXPECT_LE(pass2[i], pass1[i]) << "q-error regressed at " << i;
  }
  const double median1 = Median(pass1);
  const double median2 = Median(pass2);
  std::printf("closed-loop gate: pass-1 median q-error %.4g -> pass-2 "
              "%.4g (%s)\n",
              median1, median2, median2 <= median1 ? "PASS" : "FAIL");
  EXPECT_LT(median2, median1)
      << "biased classes must strictly improve on the second pass";
  // The corrections landed the estimates essentially on the truth.
  EXPECT_LT(median2, 1.0 + 1e-6);

  // A class submitted fewer times than the gate serves raw,
  // bit-identically, on every pass.
  const std::string gated = "tri 7000 (a)-[0]->(b); (b)-[1]->(c); (c)-[2]->(a)";
  auto first = (*service)->EstimateLine(gated);
  ASSERT_TRUE(first.ok());
  auto second = (*service)->EstimateLine(gated);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->results.size(), second->results.size());
  for (size_t i = 0; i < first->results.size(); ++i) {
    EXPECT_FALSE(second->results[i].corrected);
    EXPECT_EQ(second->results[i].estimate, second->results[i].raw_estimate);
    EXPECT_EQ(second->results[i].estimate, first->results[i].estimate)
        << "below the gate, serving is bit-identical to raw";
  }

  // Stats carry the corrections block.
  const ServiceStats stats = (*service)->Stats(/*with_scorecard=*/true);
  EXPECT_EQ(stats.feedback_mode, FeedbackMode::kOn);
  EXPECT_GE(stats.feedback_classes, 8u);  // 2 lines + tri, x4 estimators
  EXPECT_GE(stats.feedback_active, 8u);
  EXPECT_GT(stats.corrections_applied, 0u);
  ASSERT_FALSE(stats.corrections.empty());
  EXPECT_TRUE(stats.corrections[0].active);
}

TEST(ClosedLoopTest, PerRequestOptOutServesRawButStillLearns) {
  auto service =
      EstimationService::Create(SmallGraph(), FeedbackOptions(FeedbackMode::kOn));
  ASSERT_TRUE(service.ok()) << service.status();
  const std::string line = BiasedLines()[0];
  for (int rep = 0; rep < 4; ++rep) {
    ASSERT_TRUE((*service)->EstimateLine(line).ok());
  }

  auto request = ParseRequestLine(line);
  ASSERT_TRUE(request.ok());
  request->no_correction = true;
  auto opted_out = (*service)->Estimate(*request);
  ASSERT_TRUE(opted_out.ok());
  for (const EstimatorResult& r : opted_out->results) {
    ASSERT_TRUE(r.ok);
    EXPECT_FALSE(r.corrected) << r.name;
    EXPECT_EQ(r.estimate, r.raw_estimate)
        << "opt-out must serve the raw estimate bit-identically";
  }
  const ServiceStats stats = (*service)->Stats();
  EXPECT_GT(stats.corrections_suppressed, 0u);

  // Opting out of the answer does not opt out of contributing truth: the
  // class kept accumulating samples.
  const auto report = (*service)->Stats(true).corrections;
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report[0].hits, 5u);
}

TEST(ClosedLoopTest, FeedbackOffServesBitIdenticalToDirectEngine) {
  const graph::Graph g = SmallGraph();
  auto service =
      EstimationService::Create(SmallGraph(), FeedbackOptions(FeedbackMode::kOff));
  ASSERT_TRUE(service.ok()) << service.status();
  engine::EstimationEngine direct(g);

  const std::string line = BiasedLines()[0];
  std::vector<double> first_pass;
  // Eight truth-carrying passes: with feedback off nothing may learn and
  // nothing may move — serving stays bit-identical to the direct engine.
  for (int rep = 0; rep < 8; ++rep) {
    auto response = (*service)->EstimateLine(line);
    ASSERT_TRUE(response.ok());
    for (size_t i = 0; i < response->results.size(); ++i) {
      const EstimatorResult& r = response->results[i];
      ASSERT_TRUE(r.ok);
      EXPECT_FALSE(r.corrected);
      EXPECT_DOUBLE_EQ(r.correction, 1.0);
      EXPECT_EQ(r.estimate, r.raw_estimate);
      if (rep == 0) {
        first_pass.push_back(r.estimate);
        auto estimator = direct.Estimator(r.name);
        ASSERT_TRUE(estimator.ok());
        auto q = query::ParseQuery("(a)-[0]->(b); (b)-[1]->(c)");
        ASSERT_TRUE(q.ok());
        auto expected = (*estimator)->Estimate(*q);
        ASSERT_TRUE(expected.ok());
        EXPECT_EQ(r.estimate, *expected) << r.name;
      } else {
        EXPECT_EQ(r.estimate, first_pass[i]) << "pass " << rep;
      }
    }
  }
  const ServiceStats stats = (*service)->Stats(true);
  EXPECT_EQ(stats.feedback_mode, FeedbackMode::kOff);
  EXPECT_EQ(stats.feedback_classes, 0u);
  EXPECT_EQ(stats.corrections_applied, 0u);
  EXPECT_TRUE(stats.corrections.empty());
}

TEST(ClosedLoopTest, CorrectionsSurviveSnapshotRestartAndHotSwap) {
  TempFile file("carry");
  auto on = FeedbackOptions(FeedbackMode::kOn);
  auto service = EstimationService::Create(SmallGraph(), on);
  ASSERT_TRUE(service.ok()) << service.status();

  const std::string line = BiasedLines()[0];
  for (int rep = 0; rep < 4; ++rep) {
    ASSERT_TRUE((*service)->EstimateLine(line).ok());
  }
  auto learned = (*service)->EstimateLine(line);
  ASSERT_TRUE(learned.ok());
  ASSERT_TRUE(learned->results[0].corrected);

  // Persist the serving state — corrections ride the snapshot.
  {
    const auto state = (*service)->AcquireState();
    ASSERT_TRUE(state->engine->context().SaveSnapshot(file.path()).ok());
  }

  // "Restart": a fresh service loads the snapshot with learning frozen.
  // The stored ratios reproduce the exact same corrected estimates.
  auto frozen_options = FeedbackOptions(FeedbackMode::kFrozen);
  frozen_options.initial_snapshot = file.path();
  auto restarted = EstimationService::Create(SmallGraph(), frozen_options);
  ASSERT_TRUE(restarted.ok()) << restarted.status();
  auto after = (*restarted)->EstimateLine(line);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->results.size(), learned->results.size());
  for (size_t i = 0; i < after->results.size(); ++i) {
    EXPECT_TRUE(after->results[i].corrected) << i;
    EXPECT_EQ(after->results[i].estimate, learned->results[i].estimate)
        << "corrections must survive the restart bit-identically";
  }
  // Frozen: serving applied the correction but recorded nothing. The
  // snapshot carried 5 hits (4 learning passes + the corrected pass, which
  // still contributed its truth); the frozen pass must not add a 6th.
  const auto rows = (*restarted)->Stats(true).corrections;
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].hits, 5u) << "frozen mode must not accumulate samples";

  // Hot swap on the live service: the store carries across (same base
  // graph, same stamp), so the class is still corrected after the swap.
  auto swap = (*service)->HotSwapSnapshot(file.path());
  ASSERT_TRUE(swap.ok()) << swap.status();
  auto post_swap = (*service)->EstimateLine(line);
  ASSERT_TRUE(post_swap.ok());
  for (size_t i = 0; i < post_swap->results.size(); ++i) {
    EXPECT_TRUE(post_swap->results[i].corrected) << i;
    EXPECT_EQ(post_swap->results[i].estimate, learned->results[i].estimate);
  }
}

}  // namespace
}  // namespace cegraph::service
