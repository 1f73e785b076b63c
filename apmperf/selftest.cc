// apmperf self-test: shows that the benchmark's correctness checks catch
// a faulty store. Each case runs a workload at a small scale with a
// FaultyDB between the benchmark and the store (it drops one scan row,
// flips one value byte, loses one acknowledged insert, under-reports disk
// usage, or has a table file damaged before the scrub) and expects the
// named check to report failures; the fault-free cases expect none.
//
//   apmperf_selftest DATA_DIR        (or: python3 apmperf/run.py --selftest)
//
// Exits 0 when every case behaves as expected.

#include <cstdio>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

struct Case {
  const char* workload;
  apmperf::Fault fault;
  double scale;
  /// Checks expected to fail; empty means no check may fail.
  std::vector<const char*> expect;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    fprintf(stderr, "usage: apmperf_selftest DATA_DIR\n");
    return 2;
  }
  using apmperf::Fault;
  const std::vector<Case> cases = {
      {"served_rsw", Fault::kNone, 0.05, {}},
      {"apm_fleet", Fault::kNone, 0.05, {}},
      {"cold_rs", Fault::kNone, 0.05, {}},
      {"served_rsw", Fault::kDropScanRow, 0.05, {"scan_mismatch"}},
      {"apm_fleet", Fault::kDropScanRow, 0.05, {"window_mismatch"}},
      {"cold_rs", Fault::kFlipValueByte, 0.05, {"read_mismatch"}},
      {"apm_fleet", Fault::kFlipValueByte, 0.05, {"read_mismatch"}},
      {"served_rsw", Fault::kLoseInsert, 0.05, {"lost_write", "call_count"}},
      {"apm_fleet", Fault::kLoseInsert, 0.05, {"lost_write"}},
      {"cold_rs", Fault::kShrinkDisk, 0.05, {"disk_usage"}},
      // At this scale the store has flushed tables to damage.
      {"cold_rs", Fault::kCorruptTable, 0.2, {"integrity"}},
  };
  int bad = 0;
  for (const Case& c : cases) {
    apmperf::RunConfig config;
    config.workload = c.workload;
    config.seed = 7;
    config.seconds = 1.5;
    config.scale = c.scale;
    config.fault = c.fault;
    config.data_dir = argv[1];
    config.process_start_ns = apmperf::NowNs();
    apmperf::RunResult result;
    apmbench::Status s = apmperf::RunWorkload(config, &result);
    bool ok = s.ok();
    std::string detail;
    for (const auto& [check, failures] : result.check_failures) {
      bool expected = false;
      for (const char* e : c.expect) expected = expected || check == e;
      // An expected check must fire; with no fault, none may.
      if (expected ? failures == 0 : (c.expect.empty() && failures > 0)) {
        ok = false;
      }
      if (failures > 0) detail += " " + check + "=" + std::to_string(failures);
    }
    printf("%s %-10s %-16s attempted=%llu failed=%llu%s%s\n",
           ok ? "PASS" : "FAIL", c.workload, apmperf::FaultName(c.fault),
           static_cast<unsigned long long>(result.attempted),
           static_cast<unsigned long long>(result.failed), detail.c_str(),
           s.ok() ? "" : (" error: " + s.ToString()).c_str());
    if (!ok) bad++;
  }
  printf("%s: %d of %zu cases as expected\n", bad == 0 ? "ok" : "FAILED",
         static_cast<int>(cases.size()) - bad, cases.size());
  return bad == 0 ? 0 : 1;
}
