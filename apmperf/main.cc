// apmperf: runs one workload from a seed and prints its metrics.
//
//   apmperf --workload served_rsw|apm_fleet|cold_rs --seed N --seconds S
//           --trace 0|1 --data-dir DIR [--trace-out FILE]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Every metric of both sets goes to standard error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void PrintMetrics(FILE* out, const std::vector<apmperf::Metric>& metrics) {
  bool first = true;
  for (const apmperf::Metric& m : metrics) {
    fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
            first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
}

int Usage(const char* message) {
  fprintf(stderr, "apmperf: %s\n", message);
  fprintf(stderr,
          "usage: apmperf --workload served_rsw|apm_fleet|cold_rs --seed N "
          "--seconds S --trace 0|1 --data-dir DIR [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  apmperf::RunConfig config;
  config.process_start_ns = apmperf::NowNs();
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = strcmp(value, "0") != 0;
    } else if (flag == "--data-dir") {
      config.data_dir = value;
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.workload.empty() || config.data_dir.empty()) {
    return Usage("--workload and --data-dir are required");
  }
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");

  apmperf::RunResult result;
  apmbench::Status s = apmperf::RunWorkload(config, &result);
  if (!s.ok()) {
    fprintf(stderr, "apmperf: %s\n", s.ToString().c_str());
    return 1;
  }

  fprintf(stderr, "apmperf %s seed=%llu seconds=%g trace=%d\n",
          config.workload.c_str(), static_cast<unsigned long long>(config.seed),
          config.seconds, config.trace ? 1 : 0);
  for (const auto* set : {&result.end_to_end, &result.per_layer}) {
    for (const apmperf::Metric& m : *set) {
      fprintf(stderr, "  %-36s %14.3f %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
    }
  }
  for (const auto& [check, failures] : result.check_failures) {
    fprintf(stderr, "  check %-30s %llu failed\n", check.c_str(),
            static_cast<unsigned long long>(failures));
  }

  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
         result.failed == 0 ? "true" : "false",
         static_cast<unsigned long long>(result.attempted),
         static_cast<unsigned long long>(result.failed));
  PrintMetrics(stdout, config.trace ? result.per_layer : result.end_to_end);
  printf("}}\n");
  return 0;
}
