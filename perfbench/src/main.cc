// Command line of the wdr benchmark binaries:
//
//   wdr_perfbench --workload NAME --seed N --seconds S --trace 0
//   wdr_perfbench_traced --workload NAME --seed N --seconds S --trace 1
//       [--trace-out PATH]
//
// Normally started through perfbench/run.py, which builds them first.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "workloads.h"

namespace {

bool ParseInt(const char* text, long long min, long long max,
              long long* out) {
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value < min || value > max) return false;
  *out = value;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: wdr_perfbench --workload serve-read|serve-rw|embedded "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin what is measured: these variables flip the library's process-wide
  // defaults (reasoning mode, plan evaluation, hierarchy encoding), and
  // every store below must run the shipped defaults.
  unsetenv("WDR_MODE");
  unsetenv("WDR_PLAN");
  unsetenv("WDR_ENCODING");

  perfbench::RunOptions options;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    long long n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, (1LL << 62), &n)) return Usage();
      options.seed = static_cast<uint64_t>(n);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 3600, &n)) return Usage();
      options.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &n)) return Usage();
      options.trace = n == 1;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_seed) return Usage();
  return perfbench::RunWorkload(options);
}
