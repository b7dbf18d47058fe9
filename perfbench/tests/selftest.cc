// Self-tests of the benchmark's own rules: the tail-percentile rule, the
// failed-ratio accounting, the result line's schema and the answer check.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checks.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(TailRule, NeedsTenSamplesBeyondThePercentile) {
  // Nearest rank: p95 of 200 samples is the 190th, leaving 10 beyond.
  EXPECT_EQ(SamplesBeyond(200, 0.95), 10u);
  EXPECT_TRUE(TailRuleHolds(200, 0.95));
  EXPECT_EQ(SamplesBeyond(199, 0.95), 9u);
  EXPECT_FALSE(TailRuleHolds(199, 0.95));
  EXPECT_FALSE(TailRuleHolds(0, 0.5));
}

TEST(TailRule, HighestQuantileIsTheLargestThatHolds) {
  EXPECT_DOUBLE_EQ(HighestTailQuantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(HighestTailQuantile(200), 0.95);
  EXPECT_DOUBLE_EQ(HighestTailQuantile(100), 0.9);
  EXPECT_DOUBLE_EQ(HighestTailQuantile(10), 0.0);
  for (size_t n : {11u, 57u, 333u, 4096u}) {
    const double q = HighestTailQuantile(n);
    EXPECT_TRUE(TailRuleHolds(n, q)) << n;
    if (q < 0.99) {
      EXPECT_FALSE(TailRuleHolds(n, q + 0.01)) << n;
    }
  }
}

TEST(TailRule, TheFixedTailHoldsAtTheSeedSampleCounts) {
  // The fixed percentile holds from 334 samples on: serve-rw, the workload
  // with the fewest, made about 430 in 10 s at the seed commit (README.md).
  EXPECT_TRUE(TailRuleHolds(334, kTailQuantile));
  EXPECT_FALSE(TailRuleHolds(333, kTailQuantile));
}

TEST(Quantile, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.8), 4);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0);
}

TEST(Quantile, SmoothedMedianAveragesAcrossAClusterEdge) {
  // Two clusters in equal counts: the plain median is the slowest sample
  // of the low cluster, the smoothed one lies between the clusters.
  std::vector<double> v;
  for (int i = 0; i < 50; ++i) v.push_back(1.0 + i * 0.001);
  for (int i = 0; i < 50; ++i) v.push_back(2.0 + i * 0.001);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 1.049);
  const double smoothed = SmoothedMedian(v);
  EXPECT_GT(smoothed, 1.4);
  EXPECT_LT(smoothed, 1.6);
  EXPECT_DOUBLE_EQ(SmoothedMedian({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(SmoothedMedian({}), 0.0);
  EXPECT_DOUBLE_EQ(SmoothedMedian(std::vector<double>(7, 2.5)), 2.5);
}

TEST(FailedRatio, CountsErrorsAndWrongAnswersOverAttempts) {
  OpCounts counts;
  EXPECT_DOUBLE_EQ(counts.FailedRatio(), 0);
  counts.Record(true);
  counts.Record(false);
  counts.Record(true);
  counts.Record(true);
  EXPECT_EQ(counts.attempted, 4u);
  EXPECT_EQ(counts.failed, 1u);
  EXPECT_DOUBLE_EQ(counts.FailedRatio(), 0.25);
  OpCounts checks;
  checks.Record(false);
  counts.Merge(checks);
  EXPECT_EQ(counts.attempted, 5u);
  EXPECT_EQ(counts.failed, 2u);
  EXPECT_DOUBLE_EQ(counts.FailedRatio(), 0.4);
}

TEST(ResultSchema, ExactKeysAndUnits) {
  const std::string line =
      FormatResult(true, 12, 0,
                   {{"setup_s", 0.8127, "s"}, {"latency_p50_ms", 1.5, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.81269999999999998, "
            "\"unit\": \"s\"}, \"latency_p50_ms\": {\"value\": 1.5, "
            "\"unit\": \"ms\"}}}");
  EXPECT_NE(FormatResult(false, 3, 1, {}).find("\"correct\": false"),
            std::string::npos);
  EXPECT_EQ(JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "0");
}

TEST(AnswerCheck, OrderInsensitiveDigestOfAResponseBody) {
  const std::string body = "x\ty\n<a>\t<b>\n<c>\t<d>\n";
  AnswerDigest expected;
  expected.AddRow(RenderRow({"<c>", "<d>"}));
  expected.AddRow(RenderRow({"<a>", "<b>"}));
  EXPECT_EQ(DigestResponseBody(body), expected);
  EXPECT_EQ(DigestResponseBody("x\n").rows, 0u);
}

TEST(AnswerCheck, ACorruptedExpectedAnswerFailsTheCheck) {
  const std::string body = "x\n<a>\n<b>\n<b>\n";
  AnswerDigest expected;
  for (const char* row : {"<a>", "<b>", "<b>"}) expected.AddRow(row);
  ASSERT_EQ(DigestResponseBody(body), expected);

  AnswerDigest dropped_row;
  for (const char* row : {"<a>", "<b>"}) dropped_row.AddRow(row);
  AnswerDigest changed_row;
  for (const char* row : {"<a>", "<b>", "<c>"}) changed_row.AddRow(row);
  AnswerDigest extra_row = expected;
  extra_row.AddRow("<d>");
  for (const AnswerDigest& corrupted : {dropped_row, changed_row, extra_row}) {
    OpCounts counts;
    counts.Record(DigestResponseBody(body) == corrupted);
    EXPECT_EQ(counts.failed, 1u);
  }
}

TEST(Trace, NestedSpansShareARequestAndSplitSelfTime) {
  trace::Clear();
  trace::Enable(true);
  {
    trace::Span root(trace::Site::kBenchRead);
    for (int i = 0; i < 3; ++i) {
      trace::Span child(trace::Site::kDecodeRow);
    }
  }
  trace::Enable(false);
  {
    trace::Span ignored(trace::Site::kBenchRead);  // recording is off
  }
  const trace::Summary s = trace::Summarize();
  EXPECT_EQ(s.operations, 1u);
  EXPECT_EQ(s.orphans, 0u);
  // The three sibling DecodeRow calls merge into one record.
  EXPECT_EQ(s.records, 2u);
  const auto& decode = s.in_ops[size_t(trace::Site::kDecodeRow)];
  const auto& root = s.in_ops[size_t(trace::Site::kBenchRead)];
  EXPECT_EQ(decode.calls, 3u);
  EXPECT_NEAR(root.self_ms + decode.total_ms, root.total_ms, 1e-9);
  trace::Clear();
}

}  // namespace
}  // namespace perfbench
