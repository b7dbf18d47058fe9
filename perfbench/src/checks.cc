#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double SmoothedMedian(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const size_t lo = std::max<size_t>(1, std::ceil(0.45 * n));
  const size_t hi = std::max<size_t>(lo, std::ceil(0.55 * n));
  double sum = 0;
  for (size_t rank = lo; rank <= hi; ++rank) sum += samples[rank - 1];
  return sum / static_cast<double>(hi - lo + 1);
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  return n - rank;
}

bool TailRuleHolds(size_t n, double q) {
  return SamplesBeyond(n, q) >= kTailMinBeyond;
}

double HighestTailQuantile(size_t n) {
  for (int percent = 99; percent >= 1; --percent) {
    const double q = percent / 100.0;
    if (TailRuleHolds(n, q)) return q;
  }
  return 0;
}

double OpCounts::FailedRatio() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

namespace {

// FNV-1a over the bytes, then a splitmix64 finalizer so that summing row
// hashes does not let structured inputs cancel out.
uint64_t RowHash(std::string_view row) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : row) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

void AnswerDigest::AddRow(std::string_view rendered_row) {
  ++rows;
  sum += RowHash(rendered_row);
}

std::string RenderRow(const std::vector<std::string>& terms) {
  std::string row;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i != 0) row += '\t';
    row += terms[i];
  }
  return row;
}

AnswerDigest DigestResponseBody(std::string_view body) {
  AnswerDigest digest;
  size_t pos = body.find('\n');
  if (pos == std::string_view::npos) return digest;
  ++pos;
  while (pos < body.size()) {
    size_t end = body.find('\n', pos);
    if (end == std::string_view::npos) end = body.size();
    digest.AddRow(body.substr(pos, end - pos));
    pos = end + 1;
  }
  return digest;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string FormatResult(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
