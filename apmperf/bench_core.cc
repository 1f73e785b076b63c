#include "bench_core.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "stores/cassandra_store.h"
#include "stores/hbase_store.h"

namespace apmperf {

using apmbench::ycsb::KeyedRecord;
using apmbench::ycsb::Record;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t Rng::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return Mix64(state_);
}

// ---------------------------------------------------------------- model

uint64_t RecordModel::Number(uint64_t index) const {
  return Mix64(index + seed_ * 0x9e3779b97f4a7c15ULL);
}

std::string RecordModel::Key(uint64_t number) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%021" PRIu64, number);
  return std::string(buf, kKeyBytes);
}

bool RecordModel::ParseKey(const std::string& key, uint64_t* number) {
  if (key.size() != kKeyBytes || key.compare(0, 4, "user") != 0) return false;
  uint64_t n = 0;
  for (size_t i = 4; i < key.size(); i++) {
    if (key[i] < '0' || key[i] > '9') return false;
    n = n * 10 + static_cast<uint64_t>(key[i] - '0');
  }
  *number = n;
  return true;
}

std::string RecordModel::FieldValue(uint64_t number, int field) const {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz012345";
  uint64_t bits = Mix64(number ^ Mix64(seed_ * 8 + static_cast<uint64_t>(field)));
  std::string value(kFieldBytes, ' ');
  for (int i = 0; i < kFieldBytes; i++) {
    value[static_cast<size_t>(i)] = kAlphabet[bits & 31];
    bits >>= 5;
  }
  return value;
}

Record RecordModel::Record(uint64_t number) const {
  apmbench::ycsb::Record record;
  for (int f = 0; f < kFields; f++) {
    record.emplace_back("field" + std::to_string(f), FieldValue(number, f));
  }
  return record;
}

bool RecordModel::Matches(uint64_t number,
                          const apmbench::ycsb::Record& record) const {
  if (record.size() != kFields) return false;
  bool seen[kFields] = {false, false, false, false, false};
  for (const auto& [name, value] : record) {
    if (name.size() != 6 || name.compare(0, 5, "field") != 0) return false;
    int f = name[5] - '0';
    if (f < 0 || f >= kFields || seen[f]) return false;
    seen[f] = true;
    if (value != FieldValue(number, f)) return false;
  }
  return true;
}

// --------------------------------------------------------------- checks

uint64_t Checks::Total() const {
  return op_errors + read_mismatch + scan_mismatch + window_mismatch +
         lost_write + disk_usage + call_count + integrity;
}

bool CheckScan(const RecordModel& model,
               const std::vector<uint64_t>& sorted_preloaded, uint64_t start,
               int count, const std::vector<KeyedRecord>& rows) {
  if (static_cast<int>(rows.size()) > count) return false;
  auto next = std::lower_bound(sorted_preloaded.begin(),
                               sorted_preloaded.end(), start);
  uint64_t prev = 0;
  bool first = true;
  for (const KeyedRecord& row : rows) {
    uint64_t number = 0;
    if (!RecordModel::ParseKey(row.key, &number)) return false;
    if (number < start || (!first && number <= prev)) return false;
    first = false;
    prev = number;
    // A preloaded key below this row that was not returned was skipped.
    if (next != sorted_preloaded.end() && *next < number) return false;
    if (next != sorted_preloaded.end() && *next == number) ++next;
    if (!model.Matches(number, row.record)) return false;
  }
  // Fewer rows than asked for only when no preloaded key is left.
  return static_cast<int>(rows.size()) == count ||
         next == sorted_preloaded.end();
}

// ------------------------------------------------------------ latencies

double Percentile(std::vector<uint64_t> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return static_cast<double>(values[index]);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

LatencySummary Summarize(const std::vector<Sample>& samples) {
  LatencySummary summary;
  if (samples.empty()) return summary;
  std::vector<Sample> by_start = samples;
  std::sort(by_start.begin(), by_start.end(),
            [](const Sample& a, const Sample& b) { return a.start_ns < b.start_ns; });
  std::vector<uint64_t> all;
  all.reserve(by_start.size());
  for (const Sample& s : by_start) all.push_back(s.lat_ns);
  const size_t n = all.size();
  const size_t windows = std::max<size_t>(1, n / 1000);
  std::vector<double> p50s, p99s;
  for (size_t w = 0; w < windows; w++) {
    std::vector<uint64_t> window(all.begin() + static_cast<long>(w * n / windows),
                                 all.begin() + static_cast<long>((w + 1) * n / windows));
    p50s.push_back(Percentile(window, 0.50));
    p99s.push_back(Percentile(std::move(window), 0.99));
  }
  summary.p50_us = Median(p50s) / 1e3;
  summary.p99_us = Median(p99s) / 1e3;
  return summary;
}

double MedianOpsPerSecond(const PhaseResult& phase) {
  std::vector<double> per_second;
  for (const auto& samples : phase.samples) {
    for (const Sample& s : samples) {
      size_t second = (s.start_ns + s.lat_ns - phase.start_ns) / 1'000'000'000;
      if (second >= per_second.size()) per_second.resize(second + 1, 0);
      per_second[second]++;
    }
  }
  // The last second holds only the operations in flight at the deadline.
  if (per_second.size() > 1) per_second.pop_back();
  return Median(per_second);
}

// ---------------------------------------------------------------- spans

void SpanLog::Record(const Span& span) {
  struct Local {
    SpanLog* owner = nullptr;
    std::vector<Span>* buffer = nullptr;
  };
  thread_local Local local;
  if (local.owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffers_.back()->reserve(1 << 14);
    local.owner = this;
    local.buffer = buffers_.back().get();
  }
  local.buffer->push_back(span);
}

std::vector<Span> SpanLog::Collect() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

std::string TraceTable(uint64_t id) {
  char buf[24];
  snprintf(buf, sizeof(buf), "t%" PRIu64, id);
  return buf;
}

uint64_t ParseTraceTable(const std::string& table) {
  if (table.size() < 2 || table[0] != 't') return 0;
  return strtoull(table.c_str() + 1, nullptr, 10);
}

std::string ThreadCtx::Table() const {
  return tracing ? TraceTable(trace_id) : std::string("usertable");
}

// ---------------------------------------------------------- counting Env

namespace {

class CountingWritable final : public apmbench::WritableFile {
 public:
  CountingWritable(std::unique_ptr<apmbench::WritableFile> base,
                   CountingEnv* env)
      : base_(std::move(base)), env_(env) {}
  Status Append(const Slice& data) override {
    env_->bytes_written.fetch_add(data.size(), std::memory_order_relaxed);
    return base_->Append(data);
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    env_->syncs.fetch_add(1, std::memory_order_relaxed);
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<apmbench::WritableFile> base_;
  CountingEnv* env_;
};

class CountingRandomAccess final : public apmbench::RandomAccessFile {
 public:
  CountingRandomAccess(std::unique_ptr<apmbench::RandomAccessFile> base,
                       CountingEnv* env)
      : base_(std::move(base)), env_(env) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = base_->Read(offset, n, result, scratch);
    env_->bytes_read.fetch_add(result->size(), std::memory_order_relaxed);
    return s;
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<apmbench::RandomAccessFile> base_;
  CountingEnv* env_;
};

class CountingRW final : public apmbench::RandomRWFile {
 public:
  CountingRW(std::unique_ptr<apmbench::RandomRWFile> base, CountingEnv* env)
      : base_(std::move(base)), env_(env) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = base_->Read(offset, n, result, scratch);
    env_->bytes_read.fetch_add(result->size(), std::memory_order_relaxed);
    return s;
  }
  Status Write(uint64_t offset, const Slice& data) override {
    env_->bytes_written.fetch_add(data.size(), std::memory_order_relaxed);
    return base_->Write(offset, data);
  }
  Status Sync() override {
    env_->syncs.fetch_add(1, std::memory_order_relaxed);
    return base_->Sync();
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<apmbench::RandomRWFile> base_;
  CountingEnv* env_;
};

}  // namespace

CountingEnv::Counts CountingEnv::Snapshot() const {
  return Counts{bytes_written.load(), syncs.load(), bytes_read.load()};
}

Status CountingEnv::NewWritableFile(
    const std::string& path, std::unique_ptr<apmbench::WritableFile>* f) {
  std::unique_ptr<apmbench::WritableFile> base;
  Status s = base_->NewWritableFile(path, &base);
  if (s.ok()) *f = std::make_unique<CountingWritable>(std::move(base), this);
  return s;
}

Status CountingEnv::NewAppendableFile(
    const std::string& path, std::unique_ptr<apmbench::WritableFile>* f) {
  std::unique_ptr<apmbench::WritableFile> base;
  Status s = base_->NewAppendableFile(path, &base);
  if (s.ok()) *f = std::make_unique<CountingWritable>(std::move(base), this);
  return s;
}

Status CountingEnv::NewRandomAccessFile(
    const std::string& path, std::unique_ptr<apmbench::RandomAccessFile>* f) {
  std::unique_ptr<apmbench::RandomAccessFile> base;
  Status s = base_->NewRandomAccessFile(path, &base);
  if (s.ok()) *f = std::make_unique<CountingRandomAccess>(std::move(base), this);
  return s;
}

Status CountingEnv::NewRandomRWFile(const std::string& path,
                                    std::unique_ptr<apmbench::RandomRWFile>* f) {
  std::unique_ptr<apmbench::RandomRWFile> base;
  Status s = base_->NewRandomRWFile(path, &base);
  if (s.ok()) *f = std::make_unique<CountingRW>(std::move(base), this);
  return s;
}

Status CountingEnv::ReadFileToString(const std::string& path,
                                     std::string* data) {
  Status s = base_->ReadFileToString(path, data);
  bytes_read.fetch_add(data->size(), std::memory_order_relaxed);
  return s;
}

Status CountingEnv::WriteStringToFile(const std::string& path,
                                      const Slice& data) {
  bytes_written.fetch_add(data.size(), std::memory_order_relaxed);
  return base_->WriteStringToFile(path, data);
}

bool CountingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}
Status CountingEnv::GetFileSize(const std::string& path, uint64_t* size) {
  return base_->GetFileSize(path, size);
}
Status CountingEnv::GetChildren(const std::string& dir,
                                std::vector<std::string>* names) {
  return base_->GetChildren(dir, names);
}
Status CountingEnv::CreateDirIfMissing(const std::string& dir) {
  return base_->CreateDirIfMissing(dir);
}
Status CountingEnv::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}
Status CountingEnv::RenameFile(const std::string& from, const std::string& to) {
  return base_->RenameFile(from, to);
}
Status CountingEnv::SyncDir(const std::string& dir) {
  syncs.fetch_add(1, std::memory_order_relaxed);
  return base_->SyncDir(dir);
}
Status CountingEnv::RemoveDirRecursively(const std::string& dir) {
  return base_->RemoveDirRecursively(dir);
}
Status CountingEnv::GetDirectorySize(const std::string& dir, uint64_t* bytes) {
  return base_->GetDirectorySize(dir, bytes);
}

// ----------------------------------------------------------- decorators

void ProbeDB::Trace(const std::string& table, OpKind op, uint64_t start_ns) {
  calls.fetch_add(1, std::memory_order_relaxed);
  if (spans_ != nullptr) {
    spans_->Record(Span{ParseTraceTable(table), start_ns, NowNs(),
                        Layer::kStore, op, phase_.load(std::memory_order_relaxed)});
  }
}

Status ProbeDB::Read(const std::string& table, const Slice& key,
                     Record* record) {
  uint64_t start = spans_ != nullptr ? NowNs() : 0;
  Status s = inner_->Read(table, key, record);
  Trace(table, OpKind::kRead, start);
  return s;
}

Status ProbeDB::ScanKeyed(const std::string& table, const Slice& start_key,
                          int count, std::vector<KeyedRecord>* records) {
  uint64_t start = spans_ != nullptr ? NowNs() : 0;
  Status s = inner_->ScanKeyed(table, start_key, count, records);
  Trace(table, OpKind::kScan, start);
  scans.fetch_add(1, std::memory_order_relaxed);
  rows_scanned.fetch_add(records->size(), std::memory_order_relaxed);
  return s;
}

Status ProbeDB::Insert(const std::string& table, const Slice& key,
                       const Record& record) {
  uint64_t start = spans_ != nullptr ? NowNs() : 0;
  Status s = inner_->Insert(table, key, record);
  Trace(table, OpKind::kWrite, start);
  return s;
}

Status ProbeDB::Update(const std::string& table, const Slice& key,
                       const Record& record) {
  uint64_t start = spans_ != nullptr ? NowNs() : 0;
  Status s = inner_->Update(table, key, record);
  Trace(table, OpKind::kWrite, start);
  return s;
}

Status ProbeDB::Delete(const std::string& table, const Slice& key) {
  uint64_t start = spans_ != nullptr ? NowNs() : 0;
  Status s = inner_->Delete(table, key);
  Trace(table, OpKind::kWrite, start);
  return s;
}

const char* FaultName(Fault fault) {
  switch (fault) {
    case Fault::kNone: return "none";
    case Fault::kDropScanRow: return "drop_scan_row";
    case Fault::kFlipValueByte: return "flip_value_byte";
    case Fault::kLoseInsert: return "lose_insert";
    case Fault::kShrinkDisk: return "shrink_disk";
    case Fault::kCorruptTable: return "corrupt_table";
  }
  return "?";
}

bool FaultyDB::Fire(std::atomic<uint64_t>* counter) {
  return counter->fetch_add(1) == 9;
}

Status FaultyDB::Read(const std::string& table, const Slice& key,
                      Record* record) {
  Status s = inner_->Read(table, key, record);
  if (fault_ == Fault::kFlipValueByte && s.ok() && !record->empty() &&
      !(*record)[0].second.empty() && Fire(&reads_)) {
    (*record)[0].second[0] ^= 0x01;
  }
  return s;
}

Status FaultyDB::ScanKeyed(const std::string& table, const Slice& start_key,
                           int count, std::vector<KeyedRecord>* records) {
  Status s = inner_->ScanKeyed(table, start_key, count, records);
  if (fault_ == Fault::kDropScanRow && s.ok() && records->size() >= 3 &&
      Fire(&scans_)) {
    records->erase(records->begin() + 1);
  }
  return s;
}

Status FaultyDB::Insert(const std::string& table, const Slice& key,
                        const Record& record) {
  if (fault_ == Fault::kLoseInsert && Fire(&inserts_)) return Status::OK();
  return inner_->Insert(table, key, record);
}

Status FaultyDB::Update(const std::string& table, const Slice& key,
                        const Record& record) {
  return inner_->Update(table, key, record);
}

Status FaultyDB::Delete(const std::string& table, const Slice& key) {
  return inner_->Delete(table, key);
}

Status FaultyDB::DiskUsage(uint64_t* bytes) {
  Status s = inner_->DiskUsage(bytes);
  if (fault_ == Fault::kShrinkDisk) *bytes /= 100;
  return s;
}

void CorruptLargestTable(const std::string& dir) {
  namespace fs = std::filesystem;
  fs::path largest;
  uintmax_t largest_size = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".sst" &&
        entry.file_size() > largest_size) {
      largest = entry.path();
      largest_size = entry.file_size();
    }
  }
  if (largest.empty()) return;
  std::fstream file(largest, std::ios::in | std::ios::out | std::ios::binary);
  for (uintmax_t offset = 100; offset + 1024 < largest_size; offset += 65536) {
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(offset));
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
  }
}

// ---------------------------------------------------------- LSM counters

namespace {

template <typename Store>
void AddNodeStats(Store* store, int nodes, LsmTotals* t) {
  for (int i = 0; i < nodes; i++) {
    apmbench::lsm::DB::Stats s = store->NodeStats(i);
    t->flushes += s.num_flushes;
    t->compactions += s.num_compactions;
    t->compaction_bytes_written += s.compaction_bytes_written;
    t->cache_hits += s.cache_hits;
    t->cache_misses += s.cache_misses;
    t->write_groups += s.write_groups;
    t->grouped_writes += s.grouped_writes;
    t->parallel_apply_groups += s.parallel_apply_groups;
    t->stall_micros += s.stall_slowdown_micros + s.stall_stop_micros;
    t->running_compactions += s.running_compactions;
    if (!s.files_per_level.empty()) {
      t->l0_files_max = std::max(t->l0_files_max, s.files_per_level[0]);
    }
  }
}

}  // namespace

bool ReadLsmTotals(apmbench::ycsb::DB* db, LsmTotals* totals) {
  *totals = LsmTotals();
  if (auto* c = dynamic_cast<apmbench::stores::CassandraStore*>(db)) {
    AddNodeStats(c, c->ring().num_nodes(), totals);
    return true;
  }
  if (auto* h = dynamic_cast<apmbench::stores::HBaseStore*>(db)) {
    AddNodeStats(h, h->regions().num_servers(), totals);
    return true;
  }
  return false;
}

Status VerifyStoreIntegrity(apmbench::ycsb::DB* db) {
  if (auto* c = dynamic_cast<apmbench::stores::CassandraStore*>(db)) {
    return c->VerifyIntegrity();
  }
  if (auto* h = dynamic_cast<apmbench::stores::HBaseStore*>(db)) {
    return h->VerifyIntegrity();
  }
  return Status::NotSupported("not an LSM store");
}

void WaitForIdle(apmbench::ycsb::DB* db) {
  LsmTotals last;
  ReadLsmTotals(db, &last);
  // 10 ms polls: idleness is seen within 10 ms of the 300 ms it needs,
  // so set-up time is not rounded up to a coarse poll.
  int quiet_polls = 0;
  for (int i = 0; i < 12000 && quiet_polls < 30; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    LsmTotals now;
    ReadLsmTotals(db, &now);
    bool quiet = now.running_compactions == 0 &&
                 now.flushes == last.flushes &&
                 now.compactions == last.compactions;
    quiet_polls = quiet ? quiet_polls + 1 : 0;
    last = now;
  }
}

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------- runner

PhaseResult RunPhase(std::vector<ClientSpec>& clients, double seconds,
                     uint64_t seed, uint8_t phase, SpanLog* spans) {
  const size_t n = clients.size();
  std::vector<PhaseResult> per_thread(n);
  std::atomic<bool> go{false};
  uint64_t t0 = 0;
  const uint64_t phase_ns = static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n; t++) {
    threads.emplace_back([&, t] {
      ThreadCtx ctx;
      ctx.thread = static_cast<int>(t);
      ctx.rng = Rng(Mix64(seed ^ Mix64(t + 1 + 64 * phase)));
      ctx.tracing = spans != nullptr;
      PhaseResult& r = per_thread[t];
      uint64_t seq = 0;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const uint64_t deadline = t0 + phase_ns;
      for (;;) {
        if (clients[t].pace) clients[t].pace(ctx);
        const uint64_t start = NowNs();
        if (start >= deadline) break;
        ctx.trace_id = (static_cast<uint64_t>(phase) << 40) |
                       (static_cast<uint64_t>(t + 1) << 32) | ++seq;
        const OpKind op = clients[t].op(ctx);
        const uint64_t end = NowNs();
        r.ops++;
        if (spans != nullptr) {
          spans->Record(Span{ctx.trace_id, start, end, Layer::kClient, op, phase});
        }
        r.samples[static_cast<int>(op)].push_back(Sample{start, end - start});
      }
    });
  }
  t0 = NowNs();
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

  PhaseResult total;
  total.start_ns = t0;
  for (size_t t = 0; t < n; t++) {
    total.ops += per_thread[t].ops;
    for (int k = 0; k < kOpKinds; k++) {
      total.samples[k].insert(total.samples[k].end(),
                              per_thread[t].samples[k].begin(),
                              per_thread[t].samples[k].end());
    }
  }
  return total;
}

void RunMeasured(std::vector<ClientSpec>& clients, double seconds, uint64_t seed,
                 SpanLog* spans, const std::function<void(uint8_t)>& set_phase,
                 PhaseResult* warmup, PhaseResult* measured) {
  set_phase(0);
  *warmup = RunPhase(clients, std::min(2.0, seconds / 10), seed, 0, spans);
  set_phase(1);
  *measured = RunPhase(clients, seconds, seed, 1, spans);
}

}  // namespace apmperf
