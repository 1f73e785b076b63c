// Building blocks of the apmperf benchmark: the clock, the seeded input
// model, the correctness checks, latency summaries, spans, the counting
// Env, the store decorators and the closed-loop phase runner.
//
// Everything that decides a reported number or a pass/fail verdict lives
// here or in workloads.cc, not in the program under test: keys, record
// values, the clock, percentiles and every check are the benchmark's own,
// so a change to ycsb or common/histogram cannot move the numbers by
// itself. The program is reached only through its public APIs
// (stores::CreateStore, net::Server/RemoteStore, apm codec and queries,
// NodeStats, Server::GetStats, StoreOptions::env).

#ifndef APMPERF_BENCH_CORE_H_
#define APMPERF_BENCH_CORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"
#include "ycsb/db.h"

namespace apmperf {

using apmbench::Slice;
using apmbench::Status;

// ---------------------------------------------------------------- clock

/// Monotonic nanoseconds (steady_clock).
uint64_t NowNs();

// ---------------------------------------------------------------- model

/// splitmix64's finalizer: a bijection on 64-bit values.
uint64_t Mix64(uint64_t x);

/// Small seeded generator (splitmix64 stream).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// The YCSB-shaped record model: key "user" + 21 decimal digits (25
/// bytes) and five 10-byte fields, 75 payload bytes per record. Key i of a
/// seed is Mix64(i + seed * golden), so distinct indices give distinct
/// keys, and the zero-padded digits sort like the numbers they spell.
/// Field values are a function of the seed and the key number.
constexpr int kKeyBytes = 25;
constexpr int kFields = 5;
constexpr int kFieldBytes = 10;
constexpr int kRecordBytes = kKeyBytes + kFields * kFieldBytes;

class RecordModel {
 public:
  explicit RecordModel(uint64_t seed) : seed_(seed) {}
  uint64_t Number(uint64_t index) const;
  static std::string Key(uint64_t number);
  /// Parses a key back to its number; false if it is not a model key.
  static bool ParseKey(const std::string& key, uint64_t* number);
  std::string FieldValue(uint64_t number, int field) const;
  apmbench::ycsb::Record Record(uint64_t number) const;
  /// True when `record` holds exactly the five model fields of `number`
  /// (in any order).
  bool Matches(uint64_t number, const apmbench::ycsb::Record& record) const;

 private:
  uint64_t seed_;
};

// --------------------------------------------------------------- checks

/// Failed-check counters, one per kind of check, so the self-test can
/// show that each check fires on its own fault.
struct Checks {
  std::atomic<uint64_t> op_errors{0};      ///< a call returned an error
  std::atomic<uint64_t> read_mismatch{0};  ///< point read != model
  std::atomic<uint64_t> scan_mismatch{0};  ///< order/skip/count/values
  std::atomic<uint64_t> window_mismatch{0};  ///< WindowQuery != model
  std::atomic<uint64_t> lost_write{0};     ///< acked write not read back
  std::atomic<uint64_t> disk_usage{0};     ///< DiskUsage < live payload
  std::atomic<uint64_t> call_count{0};     ///< server calls != client ops
  std::atomic<uint64_t> integrity{0};      ///< VerifyIntegrity failed
  uint64_t Total() const;
};

/// Checks one scan of up to `count` rows from `start` against the sorted
/// preloaded key numbers: ascending keys, all >= start, model values, no
/// preloaded key skipped up to the last row, and `count` rows unless the
/// preloaded keys run out. Rows that are not preloaded (acknowledged or
/// in-flight inserts) are checked for their values only.
bool CheckScan(const RecordModel& model,
               const std::vector<uint64_t>& sorted_preloaded, uint64_t start,
               int count, const std::vector<apmbench::ycsb::KeyedRecord>& rows);

// ------------------------------------------------------------ latencies

/// Nearest-rank percentile (q in [0, 1]) of `values`; sorts a copy.
double Percentile(std::vector<uint64_t> values, double q);
double Median(std::vector<double> values);

/// One timed operation of the measured phase.
struct Sample {
  uint64_t start_ns;  ///< when the client issued it (steady clock)
  uint64_t lat_ns;    ///< issue to completion
};

/// p50 and p99 as the medians of the p50s and p99s of consecutive windows
/// of 1,000 or more samples in issue order: each window's p99 has ten
/// samples beyond it, and a slow stretch of the host that covers less than
/// half the run moves the windows it falls in rather than the run's figure.
struct LatencySummary {
  double p50_us = 0;
  double p99_us = 0;
};
LatencySummary Summarize(const std::vector<Sample>& samples);

// ---------------------------------------------------------------- spans

enum class Layer : uint8_t { kClient = 0, kStore = 1 };
enum class OpKind : uint8_t { kWrite = 0, kRead = 1, kScan = 2 };
constexpr int kOpKinds = 3;

struct Span {
  uint64_t id;  ///< request identifier carried in the table name
  uint64_t start_ns;
  uint64_t end_ns;
  Layer layer;
  OpKind op;
  uint8_t phase;  ///< 0 warm-up, 1 measured, 2 after measurement
};

/// In-memory span store: one buffer per recording thread, merged at the
/// end of the run. Recording takes no lock after a thread's first span.
class SpanLog {
 public:
  void Record(const Span& span);
  std::vector<Span> Collect();

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Trace identifiers ride in the table name ("t<id>"), which every store
/// ignores and the wire carries verbatim; untraced runs use "usertable".
std::string TraceTable(uint64_t id);
uint64_t ParseTraceTable(const std::string& table);

// ---------------------------------------------------------- counting Env

/// An Env that forwards to the default POSIX Env and counts bytes
/// appended, syncs and bytes read. Passed to the store through
/// StoreOptions::env in traced runs.
class CountingEnv final : public apmbench::Env {
 public:
  struct Counts {
    uint64_t bytes_written = 0;
    uint64_t syncs = 0;
    uint64_t bytes_read = 0;
  };
  Counts Snapshot() const;

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<apmbench::WritableFile>* f) override;
  Status NewAppendableFile(
      const std::string& path,
      std::unique_ptr<apmbench::WritableFile>* f) override;
  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<apmbench::RandomAccessFile>* f) override;
  Status NewRandomRWFile(const std::string& path,
                         std::unique_ptr<apmbench::RandomRWFile>* f) override;
  Status ReadFileToString(const std::string& path, std::string* data) override;
  Status WriteStringToFile(const std::string& path, const Slice& data) override;
  bool FileExists(const std::string& path) override;
  Status GetFileSize(const std::string& path, uint64_t* size) override;
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* names) override;
  Status CreateDirIfMissing(const std::string& dir) override;
  Status RemoveFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status SyncDir(const std::string& dir) override;
  Status RemoveDirRecursively(const std::string& dir) override;
  Status GetDirectorySize(const std::string& dir, uint64_t* bytes) override;

  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> bytes_read{0};

 private:
  apmbench::Env* base_ = apmbench::Env::Default();
};

// ----------------------------------------------------------- decorators

/// Wraps the store: counts every call (always on, so the served workload
/// can check the server executed exactly what the clients completed) and,
/// when given a SpanLog, records a store-layer span per call.
class ProbeDB final : public apmbench::ycsb::DB {
 public:
  ProbeDB(apmbench::ycsb::DB* inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  Status Read(const std::string& table, const Slice& key,
              apmbench::ycsb::Record* record) override;
  Status ScanKeyed(const std::string& table, const Slice& start_key, int count,
                   std::vector<apmbench::ycsb::KeyedRecord>* records) override;
  Status Insert(const std::string& table, const Slice& key,
                const apmbench::ycsb::Record& record) override;
  Status Update(const std::string& table, const Slice& key,
                const apmbench::ycsb::Record& record) override;
  Status Delete(const std::string& table, const Slice& key) override;
  Status DiskUsage(uint64_t* bytes) override { return inner_->DiskUsage(bytes); }

  void set_phase(uint8_t phase) { phase_.store(phase); }

  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> scans{0};
  std::atomic<uint64_t> rows_scanned{0};

 private:
  void Trace(const std::string& table, OpKind op, uint64_t start_ns);

  apmbench::ycsb::DB* inner_;
  SpanLog* spans_;
  std::atomic<uint8_t> phase_{0};
};

/// Faults the self-test injects between the benchmark and the store.
enum class Fault {
  kNone,
  kDropScanRow,    ///< one scan result loses a row
  kFlipValueByte,  ///< one point read returns a flipped value byte
  kLoseInsert,     ///< one insert is acknowledged but never applied
  kShrinkDisk,     ///< DiskUsage under-reports
  kCorruptTable,   ///< a table file is damaged before VerifyIntegrity
};
const char* FaultName(Fault fault);

/// A deliberately faulty decorator: passes every call through except the
/// one its fault targets (the tenth call of that kind, so the fault lands
/// after the run has started).
class FaultyDB final : public apmbench::ycsb::DB {
 public:
  FaultyDB(apmbench::ycsb::DB* inner, Fault fault)
      : inner_(inner), fault_(fault) {}

  Status Read(const std::string& table, const Slice& key,
              apmbench::ycsb::Record* record) override;
  Status ScanKeyed(const std::string& table, const Slice& start_key, int count,
                   std::vector<apmbench::ycsb::KeyedRecord>* records) override;
  Status Insert(const std::string& table, const Slice& key,
                const apmbench::ycsb::Record& record) override;
  Status Update(const std::string& table, const Slice& key,
                const apmbench::ycsb::Record& record) override;
  Status Delete(const std::string& table, const Slice& key) override;
  Status DiskUsage(uint64_t* bytes) override;

 private:
  bool Fire(std::atomic<uint64_t>* counter);

  apmbench::ycsb::DB* inner_;
  Fault fault_;
  std::atomic<uint64_t> reads_{0}, scans_{0}, inserts_{0};
};

/// Damages the largest table file under `dir` (one byte in every 64 KiB),
/// so that a scrub reading it finds checksum failures.
void CorruptLargestTable(const std::string& dir);

// ---------------------------------------------------------- LSM counters

/// Sum of the store's per-node engine counters (NodeStats of the
/// Cassandra-like or HBase-like store).
struct LsmTotals {
  uint64_t flushes = 0, compactions = 0, compaction_bytes_written = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t write_groups = 0, grouped_writes = 0, parallel_apply_groups = 0;
  uint64_t stall_micros = 0, running_compactions = 0;
  int l0_files_max = 0;
};
/// Reads the engine counters of an LSM-backed store; false if `db` is not
/// one of the LSM stores.
bool ReadLsmTotals(apmbench::ycsb::DB* db, LsmTotals* totals);
Status VerifyStoreIntegrity(apmbench::ycsb::DB* db);
/// Waits until no flush or compaction has run for 300 ms and none is
/// running (the LSM's background work is idle).
void WaitForIdle(apmbench::ycsb::DB* db);

/// Peak resident set size of this process, MiB.
double PeakRssMib();

// ---------------------------------------------------------------- runner

/// Per-client-thread state handed to each operation.
struct ThreadCtx {
  int thread = 0;
  Rng rng{0};
  uint64_t trace_id = 0;  ///< identifier of the operation in flight
  bool tracing = false;
  /// Table name for the operation in flight (carries trace_id if traced).
  std::string Table() const;
};

/// Runs one operation, counting any wrong answer in the run's Checks, and
/// returns its kind.
using OpFn = std::function<OpKind(ThreadCtx&)>;

/// One client thread: its operation and, when set, a pacer called before
/// each operation, outside its timing, that holds the client back until
/// its next batch of operations is due.
struct ClientSpec {
  OpFn op;
  std::function<void(ThreadCtx&)> pace;
};

struct PhaseResult {
  uint64_t ops = 0;
  uint64_t start_ns = 0;  ///< when the phase started
  std::vector<Sample> samples[kOpKinds];
};

/// The median over the phase's whole seconds of the operations completed
/// in each, robust to a slow stretch of the host as Summarize is.
double MedianOpsPerSecond(const PhaseResult& phase);

/// Runs every client on its own thread for `seconds`, each sending its
/// next operation as soon as the previous one completed (a closed loop)
/// or, if it has a pacer, as soon as the pacer lets it, and times every
/// operation from issue to completion. `phase` (0 warm-up,
/// 1 measured) seeds the clients' generators and tags their spans; when
/// `spans` is set, each operation also records a client-layer span.
PhaseResult RunPhase(std::vector<ClientSpec>& clients, double seconds,
                     uint64_t seed, uint8_t phase, SpanLog* spans);

/// The timed part of a run: a warm-up of a tenth of `seconds` (at most 2 s;
/// it fills the caches and is not reported, in `warmup`), then the measured
/// phase of `seconds` (in `measured`). `set_phase` is told 0 or 1 before
/// each.
void RunMeasured(std::vector<ClientSpec>& clients, double seconds, uint64_t seed,
                 SpanLog* spans, const std::function<void(uint8_t)>& set_phase,
                 PhaseResult* warmup, PhaseResult* measured);

}  // namespace apmperf

#endif  // APMPERF_BENCH_CORE_H_
