// Statistics, answer digests and result formatting for the wdr benchmark.
// Everything here is pure and deterministic, so tests/selftest.cc covers it
// without running a workload.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Every tail percentile must leave at least this many samples above it.
inline constexpr size_t kTailMinBeyond = 10;

// The tail percentile the end-to-end latency metric reports (the "97" of
// latency_p97_ms in BENCHMARK.json). Fixed once: it is the highest whole
// percentile that leaves kTailMinBeyond samples beyond it on every workload
// at the sample counts the seed commit produced (see README.md).
inline constexpr double kTailQuantile = 0.97;

// Nearest-rank quantile: the smallest sample with at least q*n samples at
// or below it. q is clamped to [0, 1]; an empty input yields 0.
double Quantile(std::vector<double> samples, double q);

// A median that does not jump between neighbouring clusters: the mean of
// the samples ranked between the 45th and 55th percentiles (nearest rank).
// When a run repeats a fixed mix of operation types in equal counts, the
// plain median sits exactly on the edge between two types and reads the
// slowest sample of one of them; the window averages across that edge.
double SmoothedMedian(std::vector<double> samples);

// Samples strictly beyond the nearest-rank q-quantile of n samples.
size_t SamplesBeyond(size_t n, double q);

// Whether the q-quantile of n samples has at least kTailMinBeyond samples
// beyond it — the rule every *_tail metric must satisfy.
bool TailRuleHolds(size_t n, double q);

// The highest whole-percent quantile (0.01 .. 0.99) that satisfies the
// tail rule for n samples, or 0 when none does (n too small).
double HighestTailQuantile(size_t n);

// Attempted and failed operation counts. A failed operation is one that
// returned an error or a wrong answer.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const OpCounts& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  // failed / attempted; 0 when nothing was attempted.
  double FailedRatio() const;
};

// Order-insensitive digest of an answer multiset: the row count plus the
// wrapping sum of a 64-bit hash of every rendered row. Two answers with
// the same rows in any order have equal digests.
struct AnswerDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;

  void AddRow(std::string_view rendered_row);
  bool operator==(const AnswerDigest& other) const = default;
};

// A row rendered the way the server's QUERY response renders it: decoded
// terms joined by tabs.
std::string RenderRow(const std::vector<std::string>& terms);

// Digest of a QUERY response body: the first line (variable names) is
// skipped, every following line is one row.
AnswerDigest DigestResponseBody(std::string_view body);

// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The final output line: one JSON object with exactly the keys correct,
// attempted, failed and metrics. Values print with 17 significant digits.
std::string FormatResult(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<Metric>& metrics);

// Renders a double as a JSON number (17 significant digits; non-finite
// values, which JSON cannot hold, become 0).
std::string JsonNumber(double value);

// Escapes a string for a JSON string literal (quotes included).
std::string JsonString(std::string_view text);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
