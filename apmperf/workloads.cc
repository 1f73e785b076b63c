#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "apm/measurement.h"
#include "apm/queries.h"
#include "net/remote_store.h"
#include "net/server.h"
#include "stores/factory.h"
#include "stores/store_options.h"

namespace apmperf {

using apmbench::apm::MeasurementCodec;
using apmbench::stores::StoreOptions;
using apmbench::ycsb::DB;
using apmbench::ycsb::KeyedRecord;
using apmbench::ycsb::Record;

namespace {

/// Preload threads, and the most client threads any workload runs (nproc
/// on the reference host).
constexpr int kPreloadThreads = 4;
constexpr int kScanLength = 50;

/// Runs fn(i) for i in [0, n) on kPreloadThreads threads; first error wins.
Status ParallelFor(uint64_t n, const std::function<Status(uint64_t)>& fn) {
  std::vector<Status> statuses(kPreloadThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kPreloadThreads; t++) {
    threads.emplace_back([&, t] {
      for (uint64_t i = static_cast<uint64_t>(t); i < n; i += kPreloadThreads) {
        Status s = fn(i);
        if (!s.ok()) {
          statuses[static_cast<size_t>(t)] = s;
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const Status& s : statuses) APM_RETURN_IF_ERROR(s);
  return Status::OK();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// State shared by the three workloads: the store, its decorators, the
/// counters read around the measured phases, and the checks.
struct Harness {
  explicit Harness(const RunConfig& c) : cfg(c) {}
  ~Harness() {
    if (sampler.joinable()) {
      sampling = false;
      sampler.join();
    }
    faulty.reset();
    probe.reset();
    store.reset();
    std::error_code ec;
    std::filesystem::remove_all(cfg.data_dir, ec);
  }

  SpanLog* spans() { return cfg.trace ? &span_log : nullptr; }

  Status OpenStore(const std::string& name, StoreOptions options) {
    std::error_code ec;
    std::filesystem::remove_all(cfg.data_dir, ec);
    std::filesystem::create_directories(cfg.data_dir, ec);
    options.base_dir = cfg.data_dir;
    if (cfg.trace) options.env = &env;
    store_name = name;
    store_options = options;
    return Open(spans());
  }

  Status Open(SpanLog* span_log) {
    APM_RETURN_IF_ERROR(
        apmbench::stores::CreateStore(store_name, store_options, &store));
    APM_RETURN_IF_ERROR(store->Init());
    probe = std::make_unique<ProbeDB>(store.get(), span_log);
    faulty = std::make_unique<FaultyDB>(probe.get(), cfg.fault);
    return Status::OK();
  }

  /// The decorated store: faults (self-test only) over the probe over the
  /// store. Served requests and end-of-run checks go through it.
  DB* chain() { return faulty.get(); }

  /// Runs the warm-up, then the measured phase between BeginMeasure() and
  /// EndMeasure(); `begin` and `end` run right after and before those.
  void Measure(std::vector<ClientSpec>& clients, const std::function<void()>& begin,
               const std::function<void()>& end) {
    RunMeasured(clients, cfg.seconds, cfg.seed, spans(),
                [&](uint8_t phase) {
                  probe->set_phase(phase);
                  if (phase == 1) {
                    BeginMeasure();
                    begin();
                  }
                },
                &warmup, &measured);
    end();
    EndMeasure();
  }

  /// Operations the clients completed, warm-up included.
  uint64_t ClientOps() const { return warmup.ops + measured.ops; }

  /// Counters read at the start of the measured phase.
  void BeginMeasure() {
    ReadLsmTotals(store.get(), &lsm_begin);
    env_begin = env.Snapshot();
    probe_scans_begin = probe->scans.load();
    probe_rows_begin = probe->rows_scanned.load();
    if (cfg.trace) {
      sampling = true;
      sampler = std::thread([this] {
        while (sampling.load()) {
          LsmTotals now;
          ReadLsmTotals(store.get(), &now);
          l0_files_max = std::max(l0_files_max, now.l0_files_max);
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      });
    }
  }

  void EndMeasure() {
    // The end-of-run checks are the benchmark's work, not the program's.
    peak_rss_mib = PeakRssMib();
    probe->set_phase(2);  // later calls are checks, not measured traffic
    ReadLsmTotals(store.get(), &lsm_end);
    env_end = env.Snapshot();
    probe_scans_end = probe->scans.load();
    probe_rows_end = probe->rows_scanned.load();
    if (sampler.joinable()) {
      sampling = false;
      sampler.join();
    }
    l0_files_max = std::max(l0_files_max, lsm_end.l0_files_max);
  }

  /// Ends the set-up: waits for background work to go idle, takes setup_s,
  /// and reports the loaded store's footprint, DiskUsage() over the
  /// `records` preloaded records' payload, as disk_bytes_per_user_byte.
  /// Taken here, on a fixed data set, the figure does not depend on how
  /// much the clients wrote or where the run left the compaction cycle.
  void EndSetup(uint64_t records) {
    WaitForIdle(store.get());
    setup_s = static_cast<double>(NowNs() - cfg.process_start_ns) / 1e9;
    uint64_t disk = 0;
    if (store->DiskUsage(&disk).ok()) {
      disk_per_user_byte = Ratio(static_cast<double>(disk),
                                 static_cast<double>(records * kRecordBytes));
    }
  }

  /// End-of-run checks shared by every workload, on the store closed and
  /// reopened: DiskUsage against the live payload and the scrub. Reopening
  /// gives both a fixed starting point: while the store stays open, tables
  /// a compaction replaced under a reader stay on disk until the next flush
  /// or compaction (CHANGES.md), and the scrub would be served cached
  /// blocks instead of the files.
  Status FinalChecks(uint64_t live_records) {
    faulty.reset();
    probe.reset();
    store.reset();
    APM_RETURN_IF_ERROR(Open(nullptr));
    uint64_t disk = 0;
    Status s = chain()->DiskUsage(&disk);
    uint64_t payload = live_records * kRecordBytes;
    result_attempted += 2;
    if (!s.ok() || disk < payload) checks.disk_usage++;
    if (cfg.fault == Fault::kCorruptTable) CorruptLargestTable(cfg.data_dir);
    if (!VerifyStoreIntegrity(store.get()).ok()) checks.integrity++;
    return Status::OK();
  }

  const RunConfig& cfg;
  Checks checks;
  CountingEnv env;
  SpanLog span_log;
  std::string store_name;
  StoreOptions store_options;
  std::unique_ptr<DB> store;
  std::unique_ptr<ProbeDB> probe;
  std::unique_ptr<FaultyDB> faulty;

  double setup_s = 0;
  uint64_t result_attempted = 0;
  double disk_per_user_byte = 0;
  double peak_rss_mib = 0;
  PhaseResult warmup, measured;

  LsmTotals lsm_begin, lsm_end;
  CountingEnv::Counts env_begin, env_end;
  uint64_t probe_scans_begin = 0, probe_rows_begin = 0;
  uint64_t probe_scans_end = 0, probe_rows_end = 0;
  int l0_files_max = 0;
  std::atomic<bool> sampling{false};
  std::thread sampler;
};

void Add(std::vector<Metric>* out, const char* name, const char* unit,
         double value) {
  out->push_back(Metric{name, unit, value});
}

/// Latency percentiles of store-layer (or wire) time per op kind, from
/// the measured phase's spans.
struct SpanStats {
  std::vector<uint64_t> store_ns[kOpKinds];
  std::vector<uint64_t> wire_ns;
};

SpanStats AnalyzeSpans(const std::vector<Span>& spans, bool match_wire) {
  SpanStats out;
  std::vector<std::pair<uint64_t, uint64_t>> client, store;  // id, ns
  for (const Span& s : spans) {
    if (s.phase != 1) continue;
    uint64_t ns = s.end_ns - s.start_ns;
    if (s.layer == Layer::kStore) {
      out.store_ns[static_cast<int>(s.op)].push_back(ns);
      store.emplace_back(s.id, ns);
    } else {
      client.emplace_back(s.id, ns);
    }
  }
  if (match_wire) {
    std::sort(client.begin(), client.end());
    std::sort(store.begin(), store.end());
    size_t j = 0;
    for (const auto& [id, ns] : client) {
      while (j < store.size() && store[j].first < id) j++;
      if (j < store.size() && store[j].first == id) {
        out.wire_ns.push_back(ns > store[j].second ? ns - store[j].second : 0);
      }
    }
  }
  return out;
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  out << "id,layer,op,phase,start_ns,end_ns\n";
  for (const Span& s : spans) {
    out << s.id << ',' << (s.layer == Layer::kClient ? "client" : "stores")
        << ',' << static_cast<int>(s.op) << ',' << static_cast<int>(s.phase)
        << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
}

/// Per-workload inputs to the per-layer metrics that only some workloads
/// have; zero where the layer is not on the workload's path.
struct LayerExtras {
  bool served = false;
  apmbench::net::Server::Stats net_begin, net_end;
  uint64_t window_queries = 0;
  uint64_t window_samples = 0;
  uint64_t encode_ns = 0;
  uint64_t measurements = 0;
};

void EmitMetrics(Harness& h, uint64_t inserted_in_measure,
                 const LayerExtras& x, RunResult* result) {
  const double ops = static_cast<double>(h.measured.ops);
  static const char* kE2eName[kOpKinds] = {"write", "read", "scan"};
  std::vector<Metric>& e2e = result->end_to_end;
  Add(&e2e, "setup_s", "s", h.setup_s);
  Add(&e2e, "ops_s", "ops/s", MedianOpsPerSecond(h.measured));
  for (int k = 0; k < kOpKinds; k++) {
    LatencySummary l = Summarize(h.measured.samples[k]);
    Add(&e2e, (std::string(kE2eName[k]) + "_p50_us").c_str(), "us", l.p50_us);
    Add(&e2e, (std::string(kE2eName[k]) + "_p99_us").c_str(), "us", l.p99_us);
  }
  Add(&e2e, "disk_bytes_per_user_byte", "B/B", h.disk_per_user_byte);
  Add(&e2e, "peak_rss_mib", "MiB", h.peak_rss_mib);

  // Per-layer metrics (meaningful in traced runs).
  std::vector<Metric>& pl = result->per_layer;
  const std::vector<Span> all_spans = h.span_log.Collect();
  SpanStats spans = AnalyzeSpans(all_spans, x.served);
  const double requests =
      static_cast<double>(x.net_end.requests - x.net_begin.requests);
  Add(&pl, "net.wire_p50_us", "us", Percentile(spans.wire_ns, 0.50) / 1e3);
  Add(&pl, "net.wire_p99_us", "us", Percentile(spans.wire_ns, 0.99) / 1e3);
  Add(&pl, "net.requests_per_batch", "count",
      Ratio(requests, static_cast<double>(x.net_end.batches - x.net_begin.batches)));
  Add(&pl, "net.bytes_per_op", "B",
      Ratio(static_cast<double>((x.net_end.bytes_in - x.net_begin.bytes_in) +
                                (x.net_end.bytes_out - x.net_begin.bytes_out)),
            requests));
  static const char* kStoreName[kOpKinds] = {"insert", "read", "scan"};
  for (int k = 0; k < kOpKinds; k++) {
    std::string base = std::string("stores.") + kStoreName[k];
    Add(&pl, (base + "_p50_us").c_str(), "us", Percentile(spans.store_ns[k], 0.50) / 1e3);
    Add(&pl, (base + "_p99_us").c_str(), "us", Percentile(spans.store_ns[k], 0.99) / 1e3);
  }
  Add(&pl, "apm.store_scans_per_query", "count",
      Ratio(static_cast<double>(h.probe_scans_end - h.probe_scans_begin),
            static_cast<double>(x.window_queries)));
  Add(&pl, "apm.rows_fetched_per_sample", "count",
      Ratio(static_cast<double>(h.probe_rows_end - h.probe_rows_begin),
            static_cast<double>(x.window_samples)));
  Add(&pl, "apm.encode_us_per_measurement", "us",
      Ratio(static_cast<double>(x.encode_ns) / 1e3, static_cast<double>(x.measurements)));
  const LsmTotals& a = h.lsm_begin;
  const LsmTotals& b = h.lsm_end;
  const double user_bytes = static_cast<double>(inserted_in_measure) * kRecordBytes;
  Add(&pl, "lsm.writes_per_group", "count",
      Ratio(static_cast<double>(b.grouped_writes - a.grouped_writes),
            static_cast<double>(b.write_groups - a.write_groups)));
  Add(&pl, "lsm.parallel_apply_groups", "count",
      static_cast<double>(b.parallel_apply_groups - a.parallel_apply_groups));
  Add(&pl, "lsm.flushes", "count", static_cast<double>(b.flushes - a.flushes));
  Add(&pl, "lsm.compactions", "count", static_cast<double>(b.compactions - a.compactions));
  Add(&pl, "lsm.l0_files_max", "count", h.l0_files_max);
  Add(&pl, "lsm.compaction_bytes_per_user_byte", "B/B",
      Ratio(static_cast<double>(b.compaction_bytes_written - a.compaction_bytes_written),
            user_bytes));
  Add(&pl, "lsm.stall_ms", "ms", static_cast<double>(b.stall_micros - a.stall_micros) / 1e3);
  const double hits = static_cast<double>(b.cache_hits - a.cache_hits);
  const double misses = static_cast<double>(b.cache_misses - a.cache_misses);
  Add(&pl, "lsm.cache_hit_ratio", "ratio", Ratio(hits, hits + misses));
  Add(&pl, "lsm.cache_hits", "count", hits);
  Add(&pl, "lsm.cache_misses", "count", misses);
  Add(&pl, "lsm.cache_misses_per_op", "count", Ratio(misses, ops));
  const CountingEnv::Counts& e0 = h.env_begin;
  const CountingEnv::Counts& e1 = h.env_end;
  Add(&pl, "env.bytes_written_per_user_byte", "B/B",
      Ratio(static_cast<double>(e1.bytes_written - e0.bytes_written), user_bytes));
  Add(&pl, "env.syncs_per_kop", "count",
      Ratio(static_cast<double>(e1.syncs - e0.syncs), ops / 1e3));
  Add(&pl, "env.bytes_read_per_op", "B",
      Ratio(static_cast<double>(e1.bytes_read - e0.bytes_read), ops));

  result->attempted = h.ClientOps() + h.result_attempted;
  result->failed = h.checks.Total();
  const Checks& c = h.checks;
  result->check_failures = {
      {"op_errors", c.op_errors},         {"read_mismatch", c.read_mismatch},
      {"scan_mismatch", c.scan_mismatch}, {"window_mismatch", c.window_mismatch},
      {"lost_write", c.lost_write},       {"disk_usage", c.disk_usage},
      {"call_count", c.call_count},       {"integrity", c.integrity}};
  if (h.cfg.trace) WriteSpans(all_spans, h.cfg.trace_path);
}

// ------------------------------------------------------------ YCSB mixes

struct MixShape {
  int nodes = 1;
  size_t block_cache_bytes = 0;
  uint64_t preload = 0;
  double read = 0;  ///< share of point reads
  double scan = 0;  ///< share of 50-row scans; the rest are inserts
  bool served = false;
  /// Closed-loop client threads (at most kPreloadThreads).
  int clients = 0;
};

/// One client thread's inserts: keys it has had acknowledged, in order.
struct MixThread {
  uint64_t next_insert = 0;
  std::vector<uint64_t> acked;
};

Status RunMix(const MixShape& shape, Harness& h, RunResult* result) {
  const RunConfig& cfg = h.cfg;
  const RecordModel model(cfg.seed);
  const uint64_t n = std::max<uint64_t>(
      1000, static_cast<uint64_t>(static_cast<double>(shape.preload) * cfg.scale));

  StoreOptions options;
  options.num_nodes = shape.nodes;
  options.block_cache_bytes = shape.block_cache_bytes;
  APM_RETURN_IF_ERROR(h.OpenStore("cassandra", options));

  std::vector<uint64_t> numbers(n);
  for (uint64_t i = 0; i < n; i++) numbers[i] = model.Number(i);
  APM_RETURN_IF_ERROR(ParallelFor(n, [&](uint64_t i) {
    return h.store->Insert("usertable", RecordModel::Key(numbers[i]),
                           model.Record(numbers[i]));
  }));
  h.EndSetup(n);

  std::vector<uint64_t> sorted = numbers;
  std::sort(sorted.begin(), sorted.end());

  // Served: the server hosts the decorated store; clients share one
  // RemoteStore with a connection each.
  const int n_clients = shape.clients;
  std::unique_ptr<apmbench::net::Server> server;
  std::unique_ptr<apmbench::net::RemoteStore> remote;
  DB* api = h.chain();
  if (shape.served) {
    server = std::make_unique<apmbench::net::Server>(
        apmbench::net::ServerOptions(), h.chain());
    APM_RETURN_IF_ERROR(server->Start());
    apmbench::net::ClientOptions client_options;
    client_options.port = server->port();
    client_options.connections = n_clients;
    APM_RETURN_IF_ERROR(apmbench::net::RemoteStore::Open(client_options, &remote));
    api = remote.get();
  }

  std::vector<MixThread> state(static_cast<size_t>(n_clients));
  Checks& checks = h.checks;
  auto op = [&](ThreadCtx& ctx) -> OpKind {
    MixThread& me = state[static_cast<size_t>(ctx.thread)];
    const std::string table = ctx.Table();
    const double u = ctx.rng.Unit();
    if (u < shape.read) {
      uint64_t pick = ctx.rng.Uniform(n + me.acked.size());
      uint64_t number = pick < n ? numbers[pick] : me.acked[pick - n];
      std::string key = RecordModel::Key(number);
      Record record;
      Status s = api->Read(table, key, &record);
      bool ok = s.ok() && model.Matches(number, record);
      if (!ok) (s.ok() || s.IsNotFound() ? checks.read_mismatch : checks.op_errors)++;
      return OpKind::kRead;
    }
    if (u < shape.read + shape.scan) {
      uint64_t start = numbers[ctx.rng.Uniform(n)];
      std::string key = RecordModel::Key(start);
      std::vector<KeyedRecord> rows;
      Status s = api->ScanKeyed(table, key, kScanLength, &rows);
      bool ok = s.ok() && CheckScan(model, sorted, start, kScanLength, rows);
      if (!ok) (s.ok() ? checks.scan_mismatch : checks.op_errors)++;
      return OpKind::kScan;
    }
    uint64_t number = model.Number(n + static_cast<uint64_t>(ctx.thread) +
                                   me.next_insert++ * static_cast<uint64_t>(n_clients));
    Status s = api->Insert(table, RecordModel::Key(number), model.Record(number));
    if (s.ok()) {
      me.acked.push_back(number);
    } else {
      checks.op_errors++;
    }
    return OpKind::kWrite;
  };
  std::vector<ClientSpec> clients(static_cast<size_t>(n_clients), ClientSpec{op, nullptr});

  LayerExtras extras;
  extras.served = shape.served;
  uint64_t inserted_begin = 0;
  h.Measure(
      clients,
      [&] {
        for (const MixThread& t : state) inserted_begin += t.acked.size();
        if (server) extras.net_begin = server->GetStats();
      },
      [&] { if (server) extras.net_end = server->GetStats(); });
  uint64_t inserted = 0;
  for (const MixThread& t : state) inserted += t.acked.size();

  if (shape.served) {
    // Every operation a client completed was executed exactly once by the
    // server's store.
    h.result_attempted++;
    if (h.probe->calls.load() != h.ClientOps()) checks.call_count++;
    remote.reset();
    server->Stop();
    server.reset();
  }

  // Read back every acknowledged insert.
  WaitForIdle(h.store.get());
  std::vector<std::thread> readers;
  for (int t = 0; t < n_clients; t++) {
    readers.emplace_back([&, t] {
      for (uint64_t number : state[static_cast<size_t>(t)].acked) {
        Record record;
        Status s = h.chain()->Read("usertable", RecordModel::Key(number), &record);
        if (!s.ok() || !model.Matches(number, record)) checks.lost_write++;
      }
    });
  }
  for (auto& reader : readers) reader.join();
  h.result_attempted += inserted;
  APM_RETURN_IF_ERROR(h.FinalChecks(n + inserted));
  EmitMetrics(h, inserted - inserted_begin, extras, result);
  return Status::OK();
}

// ------------------------------------------------------------- APM fleet

/// The monitored fleet: hosts x metrics, one sample per metric per
/// 10-second interval. Values are thousandths in [0, 99999.999], the range
/// the 10-character fixed-point codec represents exactly.
class FleetModel {
 public:
  static constexpr uint64_t kEpoch = 1330000000;  // 2012-02-23
  static constexpr uint32_t kInterval = 10;

  FleetModel(uint64_t seed, int hosts, int metrics_per_host) : seed_(seed) {
    static const char* kKinds[] = {"CPU/Utilization", "Memory/HeapUsed",
                                   "Servlet/AverageResponseTime",
                                   "JDBC/ConnectionsOpen", "GC/PauseTime"};
    for (int h = 0; h < hosts; h++) {
      for (int m = 0; m < metrics_per_host; m++) {
        char name[96];
        snprintf(name, sizeof(name), "host%03d/agent/Component%02d/%s", h,
                 m / 5, kKinds[m % 5]);
        names.push_back(name);
      }
    }
  }

  static uint64_t Timestamp(uint64_t interval) {
    return kEpoch + kInterval * (interval + 1);
  }

  struct Values {
    int64_t value, min, max;  ///< thousandths
  };
  Values At(size_t metric, uint64_t interval) const {
    uint64_t h = Mix64(seed_ ^ Mix64(metric * 1000003 + interval * 7919 + 1));
    int64_t value = 1000000 + static_cast<int64_t>(h % 89000000);
    int64_t below = static_cast<int64_t>((h >> 32) % 1000000);
    int64_t above = static_cast<int64_t>(Mix64(h) % 1000000);
    return Values{value, value - below, value + above};
  }

  /// True when `record` holds this sample, decoded by the benchmark's own
  /// parse of the fixed-width fields.
  bool Matches(size_t metric, uint64_t interval, const Record& record) const {
    if (record.size() != 5) return false;
    const std::string* fields[5] = {};
    for (const auto& [name, value] : record) {
      if (name.size() == 6 && name.compare(0, 5, "field") == 0 &&
          name[5] >= '0' && name[5] <= '4') {
        fields[name[5] - '0'] = &value;
      }
    }
    for (const std::string* f : fields) {
      if (f == nullptr) return false;
    }
    Values v = At(metric, interval);
    return strtod(fields[0]->c_str(), nullptr) == Milli(v.value) &&
           strtod(fields[1]->c_str(), nullptr) == Milli(v.min) &&
           strtod(fields[2]->c_str(), nullptr) == Milli(v.max) &&
           strtoull(fields[3]->c_str(), nullptr, 10) == Timestamp(interval) &&
           strtoull(fields[4]->c_str(), nullptr, 10) == kInterval;
  }

  apmbench::apm::Measurement Sample(size_t metric, uint64_t interval) const {
    Values v = At(metric, interval);
    apmbench::apm::Measurement m;
    m.metric = names[metric];
    m.value = Milli(v.value);
    m.min = Milli(v.min);
    m.max = Milli(v.max);
    m.timestamp = Timestamp(interval);
    m.duration = kInterval;
    return m;
  }

  /// The window aggregate over intervals [first, last], summed in time
  /// order as a reader of the samples would.
  apmbench::apm::WindowAggregate Window(size_t metric, uint64_t first,
                                        uint64_t last) const {
    apmbench::apm::WindowAggregate agg;
    double sum = 0;
    for (uint64_t k = first; k <= last; k++) {
      Values v = At(metric, k);
      sum += Milli(v.value);
      agg.min = agg.samples == 0 ? Milli(v.min) : std::min(agg.min, Milli(v.min));
      agg.max = agg.samples == 0 ? Milli(v.max) : std::max(agg.max, Milli(v.max));
      agg.samples++;
    }
    agg.avg = sum / agg.samples;
    return agg;
  }

  static double Milli(int64_t thousandths) {
    return static_cast<double>(thousandths) / 1000.0;
  }

  std::vector<std::string> names;

 private:
  uint64_t seed_;
};

/// One ingest writer: owns every metric m with m % kWriters == w, writes
/// them interval by interval.
struct FleetWriter {
  std::vector<size_t> metrics;
  uint64_t interval = 0;  ///< the interval being written
  size_t pos = 0;         ///< next metric of `metrics` in that interval
  uint64_t written = 0;
  uint64_t encode_ns = 0;
  uint64_t next_report_ns = 0;  ///< when the next interval is due
  std::atomic<uint64_t> completed{0};  ///< intervals fully acknowledged
};

Status RunFleet(Harness& h, RunResult* result) {
  // Two writers and the dashboard, plus the engines' background work:
  // with three writers the write p99 read x4.5 and measured the scheduler.
  constexpr int kWriters = 2;
  constexpr uint64_t kPreloadIntervals = 64;
  constexpr uint64_t kWindow = 60;  // 10 minutes of 10-second samples
  const RunConfig& cfg = h.cfg;
  const int hosts = std::max(2, static_cast<int>(std::lround(50 * cfg.scale)));
  const FleetModel fleet(cfg.seed, hosts, 20);
  const size_t metrics = fleet.names.size();

  // Keys of different metrics must not share a prefix.
  std::vector<std::pair<std::string, size_t>> by_prefix;
  for (size_t m = 0; m < metrics; m++) {
    by_prefix.emplace_back(MeasurementCodec::MetricPrefix(fleet.names[m]), m);
  }
  std::sort(by_prefix.begin(), by_prefix.end());
  for (size_t i = 1; i < metrics; i++) {
    if (by_prefix[i].first == by_prefix[i - 1].first) {
      return Status::InvalidArgument("fleet metric prefixes collide");
    }
  }

  StoreOptions options;
  options.num_nodes = 2;
  options.block_cache_bytes = 8 << 20;
  for (size_t m = 0; m < metrics; m++) {
    options.region_split_sample.push_back(
        MeasurementCodec::Key(fleet.names[m], FleetModel::Timestamp(0)));
  }
  APM_RETURN_IF_ERROR(h.OpenStore("hbase", options));

  APM_RETURN_IF_ERROR(ParallelFor(metrics, [&](uint64_t m) {
    for (uint64_t k = 0; k < kPreloadIntervals; k++) {
      apmbench::apm::Measurement sample = fleet.Sample(m, k);
      APM_RETURN_IF_ERROR(h.store->Insert(
          "usertable", MeasurementCodec::Key(sample.metric, sample.timestamp),
          MeasurementCodec::ToRecord(sample)));
    }
    return Status::OK();
  }));
  h.EndSetup(metrics * kPreloadIntervals);

  std::vector<FleetWriter> writers(kWriters);
  for (size_t m = 0; m < metrics; m++) writers[m % kWriters].metrics.push_back(m);
  for (FleetWriter& w : writers) {
    w.interval = kPreloadIntervals;
    w.completed = kPreloadIntervals;
  }
  DB* api = h.chain();
  Checks& checks = h.checks;
  const bool trace = cfg.trace;

  auto write = [&](ThreadCtx& ctx) -> OpKind {
    FleetWriter& w = writers[static_cast<size_t>(ctx.thread)];
    uint64_t start = trace ? NowNs() : 0;
    apmbench::apm::Measurement sample = fleet.Sample(w.metrics[w.pos], w.interval);
    std::string key = MeasurementCodec::Key(sample.metric, sample.timestamp);
    Record record = MeasurementCodec::ToRecord(sample);
    if (trace) w.encode_ns += NowNs() - start;
    Status s = api->Insert(ctx.Table(), key, record);
    if (!s.ok()) checks.op_errors++;
    w.written++;
    if (++w.pos == w.metrics.size()) {
      w.pos = 0;
      w.interval++;
      w.completed.store(w.interval, std::memory_order_release);
    }
    return OpKind::kWrite;
  };

  uint64_t window_queries = 0, window_samples = 0;
  auto dashboard = [&](ThreadCtx& ctx) -> OpKind {
    uint64_t completed = writers[0].completed.load(std::memory_order_acquire);
    for (const FleetWriter& w : writers) {
      completed = std::min(completed, w.completed.load(std::memory_order_acquire));
    }
    const uint64_t latest = completed - 1;
    const size_t m = ctx.rng.Uniform(metrics);
    if (ctx.rng.Uniform(2) == 0) {
      apmbench::apm::WindowAggregate got;
      Status s = apmbench::apm::WindowQuery(
          api, ctx.Table(), fleet.names[m],
          FleetModel::Timestamp(latest + 1 - kWindow), FleetModel::Timestamp(latest), &got);
      apmbench::apm::WindowAggregate want = fleet.Window(m, latest + 1 - kWindow, latest);
      bool ok = s.ok() && got.samples == want.samples && got.min == want.min &&
                got.max == want.max &&
                std::fabs(got.avg - want.avg) <= 1e-9 * std::fabs(want.avg);
      if (!ok) (s.ok() || s.IsNotFound() ? checks.window_mismatch : checks.op_errors)++;
      window_queries++;
      window_samples += static_cast<uint64_t>(got.samples);
      return OpKind::kScan;
    }
    Record record;
    Status s = api->Read(ctx.Table(),
                         MeasurementCodec::Key(fleet.names[m], FleetModel::Timestamp(latest)),
                         &record);
    bool ok = s.ok() && fleet.Matches(m, latest, record);
    if (!ok) (s.ok() || s.IsNotFound() ? checks.read_mismatch : checks.op_errors)++;
    return OpKind::kRead;
  };

  // The writers are agents reporting one interval of their metrics every
  // kReportNs, each report sent back to back: 1,000 measurements per
  // 100 ms is 10,000/s, about a fifth of what two writers ingest back to
  // back on the reference host. A fixed ingest rate gives every run the
  // same flushes and compactions. Ingesting back to back, each run wrote as
  // much as it could and the compaction work that followed moved every
  // figure (ten runs spread 0.16-0.24); at 20,000/s five runs still spread
  // 0.14-0.21. A writer that falls behind sends its late reports at once.
  // The dashboard queries back to back.
  constexpr uint64_t kReportNs = 100'000'000;
  auto pace = [&](ThreadCtx& ctx) {
    FleetWriter& w = writers[static_cast<size_t>(ctx.thread)];
    if (w.pos != 0) return;
    const uint64_t now = NowNs();
    if (w.next_report_ns == 0) w.next_report_ns = now;
    if (now < w.next_report_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(w.next_report_ns - now));
    }
    w.next_report_ns += kReportNs;
  };
  std::vector<ClientSpec> clients(kWriters, ClientSpec{write, pace});
  clients.push_back(ClientSpec{dashboard, nullptr});

  LayerExtras extras;
  uint64_t written_begin = 0;
  h.Measure(
      clients,
      [&] {
        for (FleetWriter& w : writers) {
          written_begin += w.written;
          w.encode_ns = 0;
        }
        window_queries = window_samples = 0;
      },
      [] {});
  for (const FleetWriter& w : writers) {
    extras.measurements += w.written;
    extras.encode_ns += w.encode_ns;
  }
  extras.measurements -= written_begin;
  extras.window_queries = window_queries;
  extras.window_samples = window_samples;

  // Sweep the whole table in key order and compare it with every sample
  // preloaded or acknowledged: metrics in prefix order, each time-ordered.
  WaitForIdle(h.store.get());
  std::vector<uint64_t> written_intervals(metrics);
  for (const FleetWriter& w : writers) {
    for (size_t j = 0; j < w.metrics.size(); j++) {
      written_intervals[w.metrics[j]] = w.interval + (j < w.pos ? 1 : 0);
    }
  }
  uint64_t expected_rows = 0;
  size_t mi = 0;   // index into by_prefix
  uint64_t k = 0;  // interval of the next expected sample
  auto skip_exhausted = [&] {
    while (mi < metrics && k >= written_intervals[by_prefix[mi].second]) {
      mi++;
      k = 0;
    }
  };
  skip_exhausted();
  std::string cursor;
  for (;;) {
    std::vector<KeyedRecord> rows;
    Status s = h.chain()->ScanKeyed("usertable", cursor, 1000, &rows);
    h.result_attempted++;
    if (!s.ok()) {
      checks.op_errors++;
      break;
    }
    for (const KeyedRecord& row : rows) {
      // Samples the sweep passed without seeing were lost.
      while (mi < metrics) {
        size_t m = by_prefix[mi].second;
        std::string want = MeasurementCodec::Key(fleet.names[m], FleetModel::Timestamp(k));
        if (want >= row.key) break;
        checks.lost_write++;
        expected_rows++;
        k++;
        skip_exhausted();
      }
      if (mi < metrics) {
        size_t m = by_prefix[mi].second;
        if (row.key == MeasurementCodec::Key(fleet.names[m], FleetModel::Timestamp(k))) {
          expected_rows++;
          if (!fleet.Matches(m, k, row.record)) checks.read_mismatch++;
          k++;
          skip_exhausted();
          continue;
        }
      }
      checks.read_mismatch++;  // a row no one wrote
    }
    if (rows.size() < 1000) break;
    // Keys have a fixed length, so nothing sorts between a key and the
    // key + '\x01'. (Continuing from key + '\0' would be the exact
    // successor, but the HBase-like store returns row `key` again for it;
    // see CHANGES.md.)
    cursor = rows.back().key + '\x01';
  }
  while (mi < metrics) {
    checks.lost_write++;
    expected_rows++;
    k++;
    skip_exhausted();
  }
  h.result_attempted += expected_rows;
  uint64_t live = 0;
  for (uint64_t count : written_intervals) live += count;
  APM_RETURN_IF_ERROR(h.FinalChecks(live));
  EmitMetrics(h, extras.measurements, extras, result);
  return Status::OK();
}

}  // namespace

Status RunWorkload(const RunConfig& cfg, RunResult* result) {
  Harness h(cfg);
  Status s;
  if (cfg.workload == "served_rsw") {
    MixShape shape;
    shape.nodes = 1;
    shape.block_cache_bytes = 32 << 20;
    shape.preload = 100000;
    shape.read = 0.25;
    shape.scan = 0.25;
    shape.served = true;
    // Four clients keep the four cores busy: with two, the cores idle
    // between requests and each hop's wake-up, whose cost depends on the
    // rest of the host, set the latencies (run-to-run spread about twice
    // as wide).
    shape.clients = 4;
    s = RunMix(shape, h, result);
  } else if (cfg.workload == "cold_rs") {
    MixShape shape;
    shape.nodes = 2;
    shape.block_cache_bytes = 4 << 20;
    shape.preload = 300000;
    shape.read = 0.47;
    shape.scan = 0.47;
    // Two clients: each scan fans out to both nodes, so four clients would
    // put more threads on the four cores than they have, and the p99s
    // would measure the scheduler (read p99 x3.7, scan p99 x3.2).
    shape.clients = 2;
    s = RunMix(shape, h, result);
  } else if (cfg.workload == "apm_fleet") {
    s = RunFleet(h, result);
  } else {
    return Status::InvalidArgument("unknown workload " + cfg.workload);
  }
  return s;
}

}  // namespace apmperf
