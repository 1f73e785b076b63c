// The three apmperf workloads (see README.md for their make-up and why
// each was chosen):
//   served_rsw  Table-1 RSW mix through net::Server/RemoteStore to a
//               1-node Cassandra-like store whose data fits in cache.
//   apm_fleet   a monitored fleet's measurements ingested into an
//               HBase-like store while a dashboard runs window queries.
//   cold_rs     Table-1 RS mix on a 2-node Cassandra-like store preloaded
//               to several times its block cache.

#ifndef APMPERF_WORKLOADS_H_
#define APMPERF_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_core.h"

namespace apmperf {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< the measured phase; the warm-up comes first
  bool trace = false;
  /// Multiplies preload sizes and the fleet size; the self-test runs at a
  /// small scale.
  double scale = 1.0;
  Fault fault = Fault::kNone;
  /// The store's directory; emptied before the run and removed after it.
  std::string data_dir;
  /// When tracing, spans are written here as CSV (empty: not written).
  std::string trace_path;
  /// steady-clock time of process start, for setup_s.
  uint64_t process_start_ns = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Failures by check (names of the Checks fields).
  std::map<std::string, uint64_t> check_failures;
};

/// Runs one workload end to end: set-up, warm-up, measured phase, checks
/// and measurements. Returns an error only when the run itself could not
/// be carried out (store failed to open, unknown workload, ...); wrong
/// answers from the store are counted in `result->failed`.
Status RunWorkload(const RunConfig& config, RunResult* result);

}  // namespace apmperf

#endif  // APMPERF_WORKLOADS_H_
