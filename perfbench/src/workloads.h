// The wdr benchmark's workloads. See README.md for what each measures and
// why it exists.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

struct RunOptions {
  std::string workload;  // "serve-read", "serve-rw" or "embedded"
  uint64_t seed = 1;
  int seconds = 10;
  // Traced run: per-layer metrics instead of end-to-end ones. Needs the
  // traced build (wdr_perfbench_traced).
  bool trace = false;
  // Where a traced run writes its spans (TSV); empty writes none.
  std::string trace_out;
};

bool IsWorkload(std::string_view name);

// Runs one workload, printing a report to stdout whose last line is the
// result JSON. Returns the process exit code: 0 when the run completed
// (even with wrong answers, which the result reports), non-zero when it
// could not run at all.
int RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
