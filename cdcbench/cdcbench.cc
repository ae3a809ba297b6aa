// End-to-end CDC benchmark: drives hub::DeltaHub from seeded source
// transactions to the warehouse on one named workload, checks that the
// warehouse ends equal to the source, and prints one JSON object with the
// run's parameters, exact input counts and metrics.
//
// With --trace 1 it also makes a second, traced run of the same inputs: the
// benchmark itself drives the source through the layers' public functions
// in the order SourceLeg::ExtractAndShip and SourceLeg::Integrate call them,
// recording one span per call, and reports time per layer. run.py builds
// this binary, runs it and prints the final result line; README.md
// documents the workloads and metrics.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/digest.h"
#include "common/env.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "extract/log_extractor.h"
#include "extract/op_delta.h"
#include "hub/delta_hub.h"
#include "pipeline/source_leg.h"
#include "sql/executor.h"
#include "sql/statement_cache.h"
#include "transport/persistent_queue.h"
#include "warehouse/apply_ledger.h"
#include "warehouse/apply_scheduler.h"
#include "warehouse/integrator.h"
#include "workload/workload.h"

namespace opdelta::cdcbench {
namespace {

constexpr char kTable[] = "parts";
constexpr char kOpLog[] = "op_log";
constexpr char kSourceName[] = "src";
// The one-byte tag pipeline::IsOpDeltaMessage recognizes on a serialized
// op-delta transaction log.
constexpr char kOpDeltaTag = 'O';
// HubOptions::ledger_compact_every's default: the traced path compacts the
// ledger as often as the hub does.
constexpr uint64_t kLedgerCompactEvery = 256;

// Open-loop rate of the trickle, in source transactions per second: far
// below the hub's drain capacity at the end of a run, even on a slowed host.
constexpr double kTrickleRate = 150;
// Batch-window cycles per second of --seconds.
constexpr double kCyclesPerSecond = 10;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "cdcbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// A quantile that one burst of host noise cannot move on its own: the
// samples, in time order, are cut into ten consecutive parts, and the
// median of the parts' q-quantiles is reported.
double TenthsQuantile(const std::vector<double>& values, double q) {
  if (values.size() < 10) return Percentile(values, q);
  std::vector<double> parts;
  for (size_t i = 0; i < 10; ++i) {
    parts.push_back(Percentile(
        std::vector<double>(values.begin() + values.size() * i / 10,
                            values.begin() + values.size() * (i + 1) / 10),
        q));
  }
  return Percentile(parts, 0.5);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------------------------
// Workloads and their seeded inputs.

struct Spec {
  std::string name;
  pipeline::Method method = pipeline::Method::kOpDelta;
  int64_t table_rows = 0;
  size_t apply_threads = 1;
  // Open loop (trickle).
  double rate_tps = 0;
  uint64_t txns = 0;
  uint64_t delete_one_in = 0;
  // Closed batch-window cycles.
  uint64_t cycles = 0;
  int64_t update_rows = 0;
  int64_t delete_rows = 0;
  int64_t insert_rows = 0;
  // One OLAP probe query on the warehouse the round thread has just caught
  // up, after every probe_every-th round (open loop) or cycle (closed), so
  // the probes sample the whole run.
  uint64_t probe_every = 0;
  int setups = 1;
};

bool MakeSpec(const std::string& name, int seconds, bool tiny, Spec* spec) {
  spec->name = name;
  spec->setups = tiny ? 1 : 5;
  if (name == "opdelta_trickle") {
    spec->method = pipeline::Method::kOpDelta;
    spec->table_rows = tiny ? 2000 : 20000;
    spec->apply_threads = 4;
    spec->rate_tps = tiny ? 100 : kTrickleRate;
    spec->txns = static_cast<uint64_t>(spec->rate_tps * seconds);
    spec->delete_one_in = 4;
    spec->probe_every = 10;
    return true;
  }
  if (name == "log_batch_window") {
    spec->method = pipeline::Method::kLog;
    spec->table_rows = tiny ? 5000 : 200000;
    spec->cycles = std::max<uint64_t>(
        1, static_cast<uint64_t>(kCyclesPerSecond * seconds));
    spec->update_rows = tiny ? 50 : 500;
    spec->delete_rows = tiny ? 10 : 100;
    spec->insert_rows = tiny ? 10 : 100;
    spec->probe_every = 5;
    spec->setups = tiny ? 1 : 3;
    return true;
  }
  return false;
}

struct SourceTxn {
  std::vector<sql::Statement> stmts;
  bool cycle_end = false;  // last transaction of a batch-window burst
};

sql::Statement UpdateKey(int64_t key, std::string status) {
  sql::UpdateStmt stmt;
  stmt.table = kTable;
  stmt.sets.push_back(
      engine::Assignment{"status", catalog::Value::String(std::move(status))});
  stmt.where = engine::Predicate::Where("id", engine::CompareOp::kEq,
                                        catalog::Value::Int64(key));
  return sql::Statement(std::move(stmt));
}

sql::Statement DeleteKey(int64_t key) {
  sql::DeleteStmt stmt;
  stmt.table = kTable;
  stmt.where = engine::Predicate::Where("id", engine::CompareOp::kEq,
                                        catalog::Value::Int64(key));
  return sql::Statement(std::move(stmt));
}

workload::PartsWorkload::Options RowOptions(uint64_t seed) {
  workload::PartsWorkload::Options options;
  options.seed = seed;
  return options;
}

// Every source transaction of a run, generated up front from the seed so
// the inputs (and their counts) never depend on timing.
std::vector<SourceTxn> GenerateInputs(const Spec& spec, uint64_t seed) {
  workload::PartsWorkload rows(RowOptions(seed * 2 + 1));
  Rng rng(seed * 2 + 2);
  std::vector<SourceTxn> out;
  int64_t next_id = spec.table_rows;
  if (spec.method == pipeline::Method::kOpDelta) {
    // Small OLTP transactions: a 2-row INSERT, two key UPDATEs and, in one
    // transaction of delete_one_in, a key DELETE, over the live keys.
    std::vector<int64_t> live(static_cast<size_t>(spec.table_rows));
    std::iota(live.begin(), live.end(), 0);
    out.reserve(spec.txns);
    for (uint64_t i = 0; i < spec.txns; ++i) {
      SourceTxn t;
      t.stmts.push_back(rows.MakeInsert(kTable, next_id, 2));
      live.push_back(next_id);
      live.push_back(next_id + 1);
      next_id += 2;
      for (int u = 0; u < 2; ++u) {
        const int64_t key = live[rng.Uniform(live.size())];
        t.stmts.push_back(
            UpdateKey(key, "u" + std::to_string(rng.Uniform(1000000))));
      }
      if (rng.OneIn(spec.delete_one_in)) {
        const size_t at = rng.Uniform(live.size());
        t.stmts.push_back(DeleteKey(live[at]));
        live[at] = live.back();
        live.pop_back();
      }
      out.push_back(std::move(t));
    }
    return out;
  }
  // Batch window: per cycle a range UPDATE, a range DELETE and an INSERT
  // burst, each its own set-oriented transaction.
  for (uint64_t c = 0; c < spec.cycles; ++c) {
    const int64_t lo_u =
        rng.UniformRange(0, std::max<int64_t>(0, next_id - spec.update_rows));
    SourceTxn update;
    update.stmts.push_back(rows.MakeUpdate(kTable, lo_u, lo_u + spec.update_rows,
                                           "w" + std::to_string(c)));
    out.push_back(std::move(update));
    const int64_t lo_d =
        rng.UniformRange(0, std::max<int64_t>(0, next_id - spec.delete_rows));
    SourceTxn del;
    del.stmts.push_back(rows.MakeDelete(kTable, lo_d, lo_d + spec.delete_rows));
    out.push_back(std::move(del));
    SourceTxn insert;
    insert.stmts.push_back(rows.MakeInsert(
        kTable, next_id, static_cast<size_t>(spec.insert_rows)));
    next_id += spec.insert_rows;
    insert.cycle_end = true;
    out.push_back(std::move(insert));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans: one per timed call, kept in memory and written out at the end.

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  // index in the same log; -1 for a root span
  uint64_t work;   // round spans: records drained (0 = empty round)
};

class SpanLog {
 public:
  int64_t Open(const char* name, int64_t parent) {
    spans_.push_back(Span{name, NowNs(), 0, parent, 0});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t id, uint64_t work) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    spans_[static_cast<size_t>(id)].work = work;
  }
  template <typename F>
  auto Time(const char* name, int64_t parent, F&& fn) {
    const int64_t start = NowNs();
    auto result = fn();
    spans_.push_back(Span{name, start, NowNs(), parent, 0});
    return result;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

template <typename F>
auto Timed(SpanLog* log, const char* name, int64_t parent, F&& fn) {
  if (log == nullptr) return fn();
  return log->Time(name, parent, std::forward<F>(fn));
}

// ---------------------------------------------------------------------------
// Files: the process-wide Env with every fdatasync counted and skipped.
//
// On a host whose disk other tenants share, one fdatasync takes anywhere
// from a fraction of a millisecond to tens of milliseconds, and every round
// pays several (durable enqueue, queue cursor, watermark file). Timed with
// them, the metrics follow the neighbours' disk traffic; timed without, they
// follow the program's own work, and the number of syncs it asked for is
// reported (io.syncs_per_round), so a change that adds one still shows.

class NoSyncWritableFile : public WritableFile {
 public:
  NoSyncWritableFile(std::unique_ptr<WritableFile> base,
                     std::atomic<uint64_t>* syncs)
      : base_(std::move(base)), syncs_(syncs) {}
  Status Append(Slice data) override { return base_->Append(data); }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    syncs_->fetch_add(1, std::memory_order_relaxed);
    return base_->Flush();
  }
  Status Close() override { return base_->Close(); }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<WritableFile> base_;
  std::atomic<uint64_t>* syncs_;
};

class NoSyncRandomRWFile : public RandomRWFile {
 public:
  NoSyncRandomRWFile(std::unique_ptr<RandomRWFile> base,
                     std::atomic<uint64_t>* syncs)
      : base_(std::move(base)), syncs_(syncs) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    return base_->Read(offset, n, result, scratch);
  }
  Status Write(uint64_t offset, Slice data) override {
    return base_->Write(offset, data);
  }
  Status Sync() override {
    syncs_->fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  Status Close() override { return base_->Close(); }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomRWFile> base_;
  std::atomic<uint64_t>* syncs_;
};

class NoSyncEnv : public Env {
 public:
  explicit NoSyncEnv(Env* base) : base_(base) {}
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override {
    OPDELTA_RETURN_IF_ERROR(base_->NewWritableFile(path, out));
    *out = std::make_unique<NoSyncWritableFile>(std::move(*out), &syncs_);
    return Status::OK();
  }
  Status NewAppendableFile(const std::string& path,
                           std::unique_ptr<WritableFile>* out) override {
    OPDELTA_RETURN_IF_ERROR(base_->NewAppendableFile(path, out));
    *out = std::make_unique<NoSyncWritableFile>(std::move(*out), &syncs_);
    return Status::OK();
  }
  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override {
    return base_->NewRandomAccessFile(path, out);
  }
  Status NewRandomRWFile(const std::string& path,
                         std::unique_ptr<RandomRWFile>* out) override {
    OPDELTA_RETURN_IF_ERROR(base_->NewRandomRWFile(path, out));
    *out = std::make_unique<NoSyncRandomRWFile>(std::move(*out), &syncs_);
    return Status::OK();
  }
  Status ReadFileToString(const std::string& path, std::string* out) override {
    return base_->ReadFileToString(path, out);
  }
  Status WriteStringToFile(const std::string& path, Slice data) override {
    return base_->WriteStringToFile(path, data);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  bool DirExists(const std::string& path) override {
    return base_->DirExists(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status GetFileSize(const std::string& path, uint64_t* size) override {
    return base_->GetFileSize(path, size);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Status RemoveDirAll(const std::string& path) override {
    return base_->RemoveDirAll(path);
  }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* children) override {
    return base_->ListDir(path, children);
  }

 private:
  Env* base_;
  std::atomic<uint64_t> syncs_{0};
};

// The benchmark's Env, installed as the process default before anything
// opens a file.
NoSyncEnv& Files() {
  static NoSyncEnv env(Env::Default());
  return env;
}

// ---------------------------------------------------------------------------
// Databases.

std::unique_ptr<engine::Database> OpenDb(const std::string& dir) {
  std::unique_ptr<engine::Database> db;
  Check(engine::Database::Open(dir, engine::DatabaseOptions(), &db),
        "open " + dir);
  return db;
}

struct Rig {
  std::unique_ptr<engine::Database> src;
  std::unique_ptr<engine::Database> wh;
};

// Source and warehouse after the initial sync: both hold the same seeded
// rows, indexed on the key. The source's log restarts at the sync point,
// as an archive retained from the initial load on would.
Rig BuildRig(const Spec& spec, uint64_t seed, const std::string& dir) {
  (void)Env::Default()->RemoveDirAll(dir);
  Check(Env::Default()->CreateDir(dir), "create " + dir);
  {
    std::unique_ptr<engine::Database> src = OpenDb(dir + "/src");
    workload::PartsWorkload rows(RowOptions(seed * 2));
    Check(rows.CreateTable(src.get(), kTable), "create source table");
    Check(rows.Populate(src.get(), kTable, spec.table_rows), "populate source");
    Check(src->Close(), "close source");
  }
  Check(Env::Default()->RemoveDirAll(dir + "/src/wal"), "reset source log");
  Rig rig;
  rig.src = OpenDb(dir + "/src");
  Check(rig.src->CreateIndex(kTable, "id"), "index source");
  rig.wh = OpenDb(dir + "/wh");
  workload::PartsWorkload rows(RowOptions(seed * 2));
  Check(rows.CreateTable(rig.wh.get(), kTable), "create warehouse table");
  Check(rows.Populate(rig.wh.get(), kTable, spec.table_rows),
        "load warehouse");
  Check(rig.wh->CreateIndex(kTable, "id"), "index warehouse");
  return rig;
}

// Order-insensitive digest of the table, skipping the auto-timestamp
// column (the warehouse re-stamps it on apply), encoded as the scrubber
// encodes rows.
SetDigest TableDigest(engine::Database* db) {
  const catalog::Schema& schema = db->GetTable(kTable)->schema();
  const int ts_col = schema.TimestampColumnIndex();
  SetDigest digest;
  std::string buf;
  Check(db->Scan(nullptr, kTable, engine::Predicate::True(),
                 [&](const storage::Rid&, const catalog::Row& row) {
                   buf.clear();
                   for (size_t i = 0; i < row.size(); ++i) {
                     if (static_cast<int>(i) == ts_col) continue;
                     const catalog::Value& v = row[i];
                     buf.push_back(static_cast<char>(v.type()));
                     switch (v.type()) {
                       case catalog::ValueType::kNull:
                         break;
                       case catalog::ValueType::kInt64:
                       case catalog::ValueType::kTimestamp:
                         PutFixed64(&buf, static_cast<uint64_t>(v.AsInt64()));
                         break;
                       case catalog::ValueType::kDouble:
                         PutFixed64(&buf,
                                    std::bit_cast<uint64_t>(v.AsDouble()));
                         break;
                       case catalog::ValueType::kString:
                         PutLengthPrefixed(&buf, Slice(v.AsString()));
                         break;
                     }
                   }
                   digest.Add(buf);
                   return true;
                 }),
        "digest scan");
  return digest;
}

// Deletes one warehouse row: the self-test that the digest gate can fail.
void CorruptWarehouse(engine::Database* wh) {
  int64_t key = -1;
  Check(wh->Scan(nullptr, kTable, engine::Predicate::True(),
                 [&](const storage::Rid&, const catalog::Row& row) {
                   key = row[0].AsInt64();
                   return false;
                 }),
        "corrupt scan");
  Check(wh->WithTransaction([&](txn::Transaction* txn) -> Status {
          return wh->DeleteWhere(txn, kTable,
                                 engine::Predicate::Where(
                                     "id", engine::CompareOp::kEq,
                                     catalog::Value::Int64(key)))
              .status();
        }),
        "corrupt delete");
}

// ---------------------------------------------------------------------------
// Source transactions and the timed phase.

struct TxnRecord {
  int64_t due_ns = 0;
  int64_t commit_ns = 0;
  uint64_t rows = 0;  // rows the transaction changed
  bool ok = false;
};

struct RoundRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t apply_ns = 0;  // warehouse apply: decode, integrate, acknowledge
  bool applied = false;
  bool ok = true;
};

struct Phase {
  std::vector<TxnRecord> txns;
  std::vector<RoundRecord> rounds;
  std::vector<double> send_lag_ms;
  std::vector<double> query_ms;
  uint64_t query_errors = 0;
  uint64_t statements = 0;
  uint64_t rows_changed = 0;
  uint64_t txn_failures = 0;
  uint64_t drain_rounds = 0;
  uint64_t drain_failures = 0;
  int64_t start_ns = 0;
};

// One source transaction: through the op-delta capture wrapper when
// `capture` is set, otherwise through the plain executor (the log method's
// no-capture baseline). `spans` (optional) records each capture call.
bool ExecuteSourceTxn(engine::Database* src, extract::OpDeltaCapture* capture,
                      const SourceTxn& t, SpanLog* spans, uint64_t* rows) {
  uint64_t affected = 0;
  if (capture != nullptr) {
    const int64_t parent = spans != nullptr ? spans->Open("source.txn", -1) : -1;
    Result<std::unique_ptr<txn::Transaction>> begun =
        Timed(spans, "extract.capture_begin", parent,
              [&] { return capture->Begin(); });
    if (!begun.ok()) return false;
    txn::Transaction* txn = begun->get();
    for (const sql::Statement& stmt : t.stmts) {
      Result<size_t> n = Timed(spans, "extract.capture_execute", parent,
                               [&] { return capture->Execute(txn, stmt); });
      if (!n.ok()) {
        (void)capture->Abort(txn);
        return false;
      }
      affected += *n;
    }
    Status st = Timed(spans, "extract.capture_commit", parent,
                      [&] { return capture->Commit(txn); });
    if (spans != nullptr) spans->Close(parent, 0);
    if (!st.ok()) {
      (void)capture->Abort(txn);
      return false;
    }
  } else {
    sql::Executor exec(src);
    std::unique_ptr<txn::Transaction> txn = src->Begin();
    for (const sql::Statement& stmt : t.stmts) {
      Result<size_t> n = exec.Execute(txn.get(), stmt);
      if (!n.ok()) {
        (void)src->Abort(txn.get());
        return false;
      }
      affected += *n;
    }
    if (!src->Commit(txn.get()).ok()) {
      (void)src->Abort(txn.get());
      return false;
    }
  }
  *rows = affected;
  return true;
}

// Runs scheduled transaction `t` and records when it committed.
void CommitScheduled(engine::Database* src, extract::OpDeltaCapture* capture,
                     const SourceTxn& t, SpanLog* spans, TxnRecord* rec,
                     Phase* phase) {
  rec->ok = ExecuteSourceTxn(src, capture, t, spans, &rec->rows);
  rec->commit_ns = NowNs();
  if (rec->ok) {
    phase->statements += t.stmts.size();
    phase->rows_changed += rec->rows;
  } else {
    ++phase->txn_failures;
  }
}

// A round function: runs one round, fills in whether it applied work and how
// long the warehouse apply took, and returns false when the round failed.
using RoundFn = std::function<bool(RoundRecord* r)>;

RoundRecord TimeRound(const RoundFn& round) {
  RoundRecord r;
  r.start_ns = NowNs();
  r.ok = round(&r);
  r.end_ns = NowNs();
  return r;
}

// One OLAP query on the warehouse, timed alone.
void ProbeQuery(engine::Database* wh, Phase* phase) {
  Result<workload::OlapQueryResult> q = workload::RunOlapQuery(wh, kTable);
  if (q.ok()) {
    phase->query_ms.push_back(static_cast<double>(q->latency_micros) / 1e3);
  } else {
    ++phase->query_errors;
  }
}

// Open loop: a writer thread commits the scheduled transactions at a fixed
// rate while this thread runs rounds at the cadence of DeltaHub::Start's
// background loop: a round, then poll_interval idle, with a probe query
// after every probe_every-th round.
// Ends with the first round that began after the last commit.
void RunOpenLoop(const Spec& spec, const std::vector<SourceTxn>& inputs,
                 engine::Database* src, engine::Database* wh,
                 extract::OpDeltaCapture* capture, SpanLog* writer_spans,
                 const RoundFn& round, Phase* phase) {
  phase->txns.resize(inputs.size());
  phase->send_lag_ms.reserve(inputs.size());
  std::atomic<bool> writer_done{false};
  const int64_t period_ns = static_cast<int64_t>(1e9 / spec.rate_tps);
  phase->start_ns = NowNs();
  std::thread writer([&] {
    for (size_t i = 0; i < inputs.size(); ++i) {
      const int64_t due =
          phase->start_ns + static_cast<int64_t>(i) * period_ns;
      int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNs();
      }
      phase->send_lag_ms.push_back(static_cast<double>(now - due) / 1e6);
      TxnRecord& rec = phase->txns[i];
      rec.due_ns = due;
      CommitScheduled(src, capture, inputs[i], writer_spans, &rec, phase);
    }
    writer_done.store(true);
  });
  const std::chrono::milliseconds poll = hub::HubOptions().poll_interval;
  while (true) {
    const bool last = writer_done.load();
    phase->rounds.push_back(TimeRound(round));
    if (last) break;
    if (phase->rounds.size() % spec.probe_every == 0) ProbeQuery(wh, phase);
    std::this_thread::sleep_for(poll);
  }
  writer.join();
}

// Closed batch-window cycles: commit a burst, then one round catches the
// warehouse up. No extraction overlaps a source write. Every
// probe_every-th caught-up warehouse answers one probe query.
void RunCycles(const Spec& spec, const std::vector<SourceTxn>& inputs,
               engine::Database* src, engine::Database* wh,
               const RoundFn& round, Phase* phase) {
  phase->txns.resize(inputs.size());
  phase->start_ns = NowNs();
  uint64_t cycles = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    TxnRecord& rec = phase->txns[i];
    rec.due_ns = NowNs();
    CommitScheduled(src, nullptr, inputs[i], nullptr, &rec, phase);
    if (!inputs[i].cycle_end) continue;
    phase->rounds.push_back(TimeRound(round));
    if (++cycles % spec.probe_every == 0) ProbeQuery(wh, phase);
  }
}

void RunPhase(const Spec& spec, const std::vector<SourceTxn>& inputs,
              engine::Database* src, engine::Database* wh,
              extract::OpDeltaCapture* capture, SpanLog* writer_spans,
              const RoundFn& round, Phase* phase) {
  if (spec.method == pipeline::Method::kOpDelta) {
    RunOpenLoop(spec, inputs, src, wh, capture, writer_spans, round, phase);
  } else {
    RunCycles(spec, inputs, src, wh, round, phase);
  }
  // Drain whatever the last round left (nothing, when RunRound's "absorbed
  // everything pending" holds), so the gate compares a caught-up warehouse.
  for (int i = 0; i < 1000; ++i) {
    RoundRecord r = TimeRound(round);
    ++phase->drain_rounds;
    if (!r.ok) ++phase->drain_failures;
    if (r.ok && !r.applied) break;
  }
}

// Time from each commit to the end of the first round that began after it.
// For each transaction, the round that made it warehouse-visible: the first
// round that began after its commit (-1 for a failed transaction).
std::vector<int64_t> VisibleRound(const Phase& phase) {
  std::vector<int64_t> out;
  size_t j = 0;
  for (const TxnRecord& t : phase.txns) {
    if (!t.ok) {
      out.push_back(-1);
      continue;
    }
    while (j < phase.rounds.size() && phase.rounds[j].start_ns < t.commit_ns) {
      ++j;
    }
    if (j == phase.rounds.size()) Die("a commit has no later round");
    out.push_back(static_cast<int64_t>(j));
  }
  return out;
}

std::vector<double> FreshnessMs(const Phase& phase) {
  std::vector<double> out;
  const std::vector<int64_t> visible = VisibleRound(phase);
  for (size_t i = 0; i < phase.txns.size(); ++i) {
    if (visible[i] < 0) continue;
    const RoundRecord& r = phase.rounds[static_cast<size_t>(visible[i])];
    out.push_back(static_cast<double>(r.end_ns - phase.txns[i].commit_ns) /
                  1e6);
  }
  return out;
}

std::vector<double> SourceTxnUs(const Phase& phase) {
  std::vector<double> out;
  for (const TxnRecord& t : phase.txns) {
    if (t.ok) out.push_back(static_cast<double>(t.commit_ns - t.due_ns) / 1e3);
  }
  return out;
}

// Source rows changed per second of warehouse apply: the median over ten
// consecutive parts of the run, each part's rows (credited to the round
// that made them visible) over its rounds' apply time.
double ApplyRowsPerSec(const Phase& phase) {
  std::vector<uint64_t> rows(phase.rounds.size());
  const std::vector<int64_t> visible = VisibleRound(phase);
  for (size_t i = 0; i < phase.txns.size(); ++i) {
    if (visible[i] >= 0) rows[static_cast<size_t>(visible[i])] += phase.txns[i].rows;
  }
  const size_t n = phase.rounds.size();
  const size_t parts = std::min<size_t>(10, n);
  std::vector<double> rates;
  for (size_t k = 0; k < parts; ++k) {
    uint64_t part_rows = 0;
    int64_t busy_ns = 0;
    for (size_t j = n * k / parts; j < n * (k + 1) / parts; ++j) {
      part_rows += rows[j];
      busy_ns += phase.rounds[j].apply_ns;
    }
    if (busy_ns > 0) {
      rates.push_back(static_cast<double>(part_rows) /
                      (static_cast<double>(busy_ns) / 1e9));
    }
  }
  return Percentile(rates, 0.5);
}

uint64_t RoundFailures(const Phase& phase) {
  uint64_t n = phase.drain_failures;
  for (const RoundRecord& r : phase.rounds) n += r.ok ? 0 : 1;
  return n;
}

// ---------------------------------------------------------------------------
// The untraced run: the hub itself.

std::unique_ptr<hub::DeltaHub> StartHub(const Spec& spec, Rig* rig,
                                        const std::string& dir) {
  hub::HubOptions options;
  options.work_dir = dir + "/hub";
  options.extract_threads = 1;
  options.apply_workers = 1;
  Result<std::unique_ptr<hub::DeltaHub>> created =
      hub::DeltaHub::Create(rig->wh.get(), options);
  Check(created.status(), "create hub");
  std::unique_ptr<hub::DeltaHub> hub = std::move(*created);
  hub::SourceSpec source;
  source.name = kSourceName;
  source.source = rig->src.get();
  source.method = spec.method;
  source.source_table = kTable;
  source.warehouse_table = kTable;
  source.op_log_table = kOpLog;
  source.apply_threads = spec.apply_threads;
  Check(hub->AddSource(source), "add source");
  Check(hub->Setup(), "hub setup");
  Check(hub->RunRound(), "warm-up round");
  return hub;
}

struct HubRun {
  Phase phase;
  hub::HubStats stats;
  uint64_t syncs = 0;  // fdatasyncs the timed phase asked for
  std::vector<double> setup_s;
  SetDigest source_digest;
  SetDigest warehouse_digest;
};

HubRun RunHub(const Spec& spec, uint64_t seed, int setups,
              const std::vector<SourceTxn>& inputs, const std::string& dir,
              bool corrupt) {
  HubRun run;
  Rig rig;
  std::unique_ptr<hub::DeltaHub> hub;
  // Set-up is timed several times; the last set-up is the one measured.
  for (int i = 0; i < setups; ++i) {
    if (hub != nullptr) Check(hub->Stop(), "stop hub");
    hub.reset();
    rig = Rig();
    const int64_t start = NowNs();
    rig = BuildRig(spec, seed, dir);
    hub = StartHub(spec, &rig, dir);
    run.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  hub::HubStats last = hub->Stats();
  RoundFn round = [&](RoundRecord* r) {
    Status st = hub->RunRound();
    const hub::HubStats now = hub->Stats();
    r->applied = now.batches_applied > last.batches_applied;
    r->apply_ns = (now.apply_micros_total - last.apply_micros_total) * 1000;
    last = now;
    if (!st.ok()) std::fprintf(stderr, "round: %s\n", st.ToString().c_str());
    return st.ok();
  };
  const uint64_t syncs = Files().syncs();
  RunPhase(spec, inputs, rig.src.get(), rig.wh.get(),
           hub->capture(kSourceName), nullptr, round, &run.phase);
  run.syncs = Files().syncs() - syncs;
  run.stats = hub->Stats();
  Check(hub->Stop(), "stop hub");
  if (corrupt) CorruptWarehouse(rig.wh.get());
  run.source_digest = TableDigest(rig.src.get());
  run.warehouse_digest = TableDigest(rig.wh.get());
  return run;
}

// ---------------------------------------------------------------------------
// The traced run: the same source driven through the layers' public
// functions, one span per call.

// One applied traced round: what the two seed cost signals are fitted on.
struct RoundSample {
  double drain_us = 0;     // extract.drain
  double wal_mb = 0;       // source WAL appended before the drain
  double get_us = 0;       // warehouse.ledger_get
  double ledger_rows = 0;  // ledger size after the round
};

class TracedPath {
 public:
  TracedPath(const Spec& spec, Rig* rig, const std::string& dir,
             SpanLog* spans)
      : spec_(spec),
        src_(rig->src.get()),
        wh_(rig->wh.get()),
        dir_(dir),
        spans_(spans),
        ledger_(rig->wh.get()) {}

  // What SourceLeg::Setup and DeltaHub::Setup prepare for one source.
  void Setup() {
    Check(Env::Default()->CreateDir(dir_), "create trace dir");
    Check(queue_.Open(dir_ + "/queue"), "open queue");
    Check(ledger_.Setup(), "ledger setup");
    if (spec_.method == pipeline::Method::kOpDelta) {
      Check(src_->CreateTable(kOpLog, extract::OpDeltaLogTableSchema()),
            "create op log");
      executor_ = std::make_unique<sql::Executor>(src_);
      capture_ = std::make_unique<extract::OpDeltaCapture>(
          executor_.get(), std::make_shared<extract::OpDeltaDbSink>(kOpLog));
    }
    if (spec_.apply_threads > 1) {
      pool_ = std::make_unique<ThreadPool>(spec_.apply_threads);
    }
  }

  void Shutdown() {
    if (pool_ != nullptr) pool_->Shutdown();
  }

  extract::OpDeltaCapture* capture() { return capture_.get(); }

  bool Round(RoundRecord* r) {
    uint64_t records = 0;
    const int64_t round = spans_->Open("hub.round", -1);
    Status st = RoundBody(round, &records);
    spans_->Close(round, records);
    r->applied = st.ok() && records > 0;
    // What the hub's apply worker times: Integrate, then the acknowledge.
    const std::vector<Span>& spans = spans_->spans();
    for (size_t i = static_cast<size_t>(round) + 1; i < spans.size(); ++i) {
      const std::string_view name = spans[i].name;
      if (name == "pipeline.decode" || name == "warehouse.ledger_admit" ||
          name == "warehouse.apply" || name == "transport.ack") {
        r->apply_ns += spans[i].end_ns - spans[i].start_ns;
      }
    }
    if (r->applied) {
      // The ledger's size is read outside the round span.
      Result<uint64_t> rows = wh_->CountRows(ledger_.table());
      sample_.ledger_rows = rows.ok() ? static_cast<double>(*rows) : 0;
      samples_.push_back(sample_);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "traced round: %s\n", st.ToString().c_str());
    }
    return st.ok();
  }

  const warehouse::IntegrationStats& integration() const { return stats_; }
  const std::vector<RoundSample>& samples() const { return samples_; }
  uint64_t frame_bytes() const { return frame_bytes_; }
  uint64_t records() const { return records_; }
  sql::StatementCacheStats cache_stats() const { return cache_.stats(); }

 private:
  Status SaveWatermark(int64_t round) {
    // SourceLeg::SaveState persists its watermarks this way every round.
    std::string state(40, '\0');
    return spans_->Time("pipeline.watermark_save", round, [&] {
      return WriteFileAtomic(Env::Default(), dir_ + "/watermarks",
                             Slice(state));
    });
  }

  // Extract: drains the source into the inner message; `*records` = 0
  // means nothing was pending.
  Status Extract(int64_t round, std::string* inner, uint64_t* records) {
    sample_ = RoundSample();
    sample_.wal_mb = static_cast<double>(src_->wal()->bytes_appended()) / 1e6;
    Status st = ExtractBody(round, inner, records);
    for (auto it = spans_->spans().rbegin(); it != spans_->spans().rend();
         ++it) {
      if (std::string_view(it->name) == "extract.drain") {
        sample_.drain_us = static_cast<double>(it->end_ns - it->start_ns) / 1e3;
        break;
      }
    }
    return st;
  }

  Status ExtractBody(int64_t round, std::string* inner, uint64_t* records) {
    if (spec_.method == pipeline::Method::kOpDelta) {
      std::vector<extract::OpDeltaTxn> drained;
      OPDELTA_RETURN_IF_ERROR(spans_->Time("extract.drain", round, [&]() -> Status {
        Result<std::shared_ptr<const catalog::SchemaMap>> schemas =
            src_->SchemaMapAt(src_->ddl_epoch());
        if (!schemas.ok()) return schemas.status();
        return extract::OpDeltaLogReader::DrainDbTable(src_, kOpLog,
                                                       **schemas, &drained);
      }));
      for (const extract::OpDeltaTxn& t : drained) *records += t.ops.size();
      if (drained.empty()) return Status::OK();
      spans_->Time("pipeline.encode", round, [&] {
        inner->assign(1, kOpDeltaTag);
        inner->append(extract::SerializeOpDeltaTxns(drained));
        return 0;
      });
      return Status::OK();
    }
    engine::Table* table = src_->GetTable(kTable);
    extract::LogExtractor extractor(src_->wal()->dir());
    txn::Lsn next = lsn_;
    Result<extract::DeltaBatch> batch =
        spans_->Time("extract.drain", round, [&] {
          return extractor.ExtractSince(lsn_, table->id(), kTable,
                                        table->schema(), &next);
        });
    OPDELTA_RETURN_IF_ERROR(batch.status());
    lsn_ = next;
    *records = batch->records.size();
    if (batch->records.empty()) return Status::OK();
    spans_->Time("pipeline.encode", round, [&] {
      pipeline::EncodeValueDeltaMessage(*batch, inner);
      return 0;
    });
    return Status::OK();
  }

  // Decode and apply one shipped message, as SourceLeg::Integrate does.
  Status Integrate(int64_t round, const std::string& message) {
    extract::BatchId id;
    std::string payload;
    std::vector<extract::OpDeltaTxn> txns;
    extract::DeltaBatch batch;
    const bool op_delta = spec_.method == pipeline::Method::kOpDelta;
    OPDELTA_RETURN_IF_ERROR(spans_->Time("pipeline.decode", round, [&]() -> Status {
      OPDELTA_RETURN_IF_ERROR(
          pipeline::DecodeBatchFrame(message, &id, &payload));
      if (!op_delta) return pipeline::DecodeValueDeltaMessage(payload, &batch);
      if (!pipeline::IsOpDeltaMessage(payload)) {
        return Status::Corruption("not an op-delta message");
      }
      OPDELTA_ASSIGN_OR_RETURN(
          std::shared_ptr<const catalog::SchemaMap> schemas,
          src_->SchemaMapAt(id.schema_epoch));
      return extract::ParseOpDeltaLog(payload.substr(1), *schemas, &txns);
    }));
    // Probe: the admission scan the apply below performs first.
    OPDELTA_RETURN_IF_ERROR(
        spans_->Time("warehouse.ledger_admit", round, [&] {
          return ledger_.Admit(id, op_delta ? txns.size() : 1).status();
        }));
    warehouse::IntegrationStats local;
    OPDELTA_RETURN_IF_ERROR(spans_->Time("warehouse.apply", round, [&]() -> Status {
      if (!op_delta) {
        return warehouse::ApplyNetChanges(wh_, kTable, batch, id, &ledger_,
                                          &local);
      }
      warehouse::ParallelApplyScheduler::Options options;
      options.pool = pool_.get();
      options.max_inflight = spec_.apply_threads;
      options.cache = &cache_;
      warehouse::ParallelApplyScheduler scheduler(wh_, options);
      return scheduler.Apply(txns, id, &ledger_, &local);
    }));
    stats_.rows_affected += local.rows_affected;
    stats_.transactions += local.transactions;
    stats_.txns_parallel += local.txns_parallel;
    stats_.outage_micros += local.outage_micros;
    return Status::OK();
  }

  Status RoundBody(int64_t round, uint64_t* records) {
    std::string inner;
    OPDELTA_RETURN_IF_ERROR(Extract(round, &inner, records));
    if (*records == 0) return SaveWatermark(round);
    extract::BatchId id{kSourceName, 1, next_seq_++};
    id.schema_epoch = src_->ddl_epoch();
    std::string frame;
    spans_->Time("pipeline.encode", round, [&] {
      pipeline::EncodeBatchFrame(id, inner, &frame);
      return 0;
    });
    OPDELTA_RETURN_IF_ERROR(spans_->Time("transport.enqueue", round, [&] {
      return queue_.Enqueue(Slice(frame), /*durable=*/true);
    }));
    frame_bytes_ += frame.size();
    records_ += *records;
    OPDELTA_RETURN_IF_ERROR(SaveWatermark(round));
    // DeltaHub::DrainBacklog: peek until the backlog is empty.
    while (true) {
      std::string message;
      Status peek = spans_->Time("transport.peek", round,
                                 [&] { return queue_.Peek(&message); });
      if (peek.IsNotFound()) break;
      OPDELTA_RETURN_IF_ERROR(peek);
      OPDELTA_RETURN_IF_ERROR(Integrate(round, message));
      OPDELTA_RETURN_IF_ERROR(
          spans_->Time("transport.ack", round, [&] { return queue_.Ack(); }));
      if (++batches_ % kLedgerCompactEvery == 0) {
        OPDELTA_RETURN_IF_ERROR(
            spans_->Time("warehouse.ledger_compact", round,
                         [&] { return ledger_.Compact(); }));
      }
    }
    // Probe: the ledger scan every ApplyLedger::Advance pays, once a round.
    const int64_t start = NowNs();
    Result<warehouse::ApplyLedger::Watermark> mark =
        spans_->Time("warehouse.ledger_get", round,
                     [&] { return ledger_.Get(kSourceName); });
    sample_.get_us = static_cast<double>(NowNs() - start) / 1e3;
    return mark.status();
  }

  const Spec& spec_;
  engine::Database* src_;
  engine::Database* wh_;
  std::string dir_;
  SpanLog* spans_;
  transport::PersistentQueue queue_;
  warehouse::ApplyLedger ledger_;
  sql::StatementCache cache_;
  std::unique_ptr<sql::Executor> executor_;
  std::unique_ptr<extract::OpDeltaCapture> capture_;
  std::unique_ptr<ThreadPool> pool_;
  txn::Lsn lsn_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t batches_ = 0;
  uint64_t frame_bytes_ = 0;
  uint64_t records_ = 0;
  warehouse::IntegrationStats stats_;
  RoundSample sample_;  // the round in progress
  std::vector<RoundSample> samples_;
};

struct TracedRun {
  Phase phase;
  SpanLog round_spans;
  SpanLog writer_spans;
  warehouse::IntegrationStats integration;
  std::vector<RoundSample> samples;
  sql::StatementCacheStats cache;
  uint64_t frame_bytes = 0;
  uint64_t records = 0;
  uint64_t source_wal_bytes = 0;
  uint64_t wh_wal_bytes = 0;
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  SetDigest source_digest;
  SetDigest warehouse_digest;
};

void RunTraced(const Spec& spec, uint64_t seed,
               const std::vector<SourceTxn>& inputs, const std::string& dir,
               TracedRun* run) {
  Rig rig = BuildRig(spec, seed, dir);
  TracedPath path(spec, &rig, dir + "/trace", &run->round_spans);
  path.Setup();
  RoundRecord warm;
  Check(path.Round(&warm) ? Status::OK() : Status::Internal("round failed"),
        "warm-up traced round");
  const uint64_t wh_wal0 = rig.wh->wal()->bytes_appended();
  uint64_t reads0 = 0, writes0 = 0;
  rig.wh->AggregateIoStats(&reads0, &writes0);
  RoundFn round = [&](RoundRecord* r) { return path.Round(r); };
  RunPhase(spec, inputs, rig.src.get(), rig.wh.get(), path.capture(),
           &run->writer_spans, round, &run->phase);
  path.Shutdown();
  run->integration = path.integration();
  run->samples = path.samples();
  run->cache = path.cache_stats();
  run->frame_bytes = path.frame_bytes();
  run->records = path.records();
  run->source_wal_bytes = rig.src->wal()->bytes_appended();
  run->wh_wal_bytes = rig.wh->wal()->bytes_appended() - wh_wal0;
  rig.wh->AggregateIoStats(&run->page_reads, &run->page_writes);
  run->page_reads -= reads0;
  run->page_writes -= writes0;
  run->source_digest = TableDigest(rig.src.get());
  run->warehouse_digest = TableDigest(rig.wh.get());
}

// ---------------------------------------------------------------------------
// Reporting.

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({name, value, unit});
  }
  void Param(const std::string& name, double value) {
    params_.emplace_back(name, Number(value));
  }
  void Param(const std::string& name, const std::string& value) {
    params_.emplace_back(name, "\"" + value + "\"");
  }
  void Count(const std::string& name, uint64_t value) {
    counts_.emplace_back(name, std::to_string(value));
  }

  // Sample count and shape of one measured distribution.
  void Distribution(const std::string& name, const std::vector<double>& v) {
    std::string out = "{\"n\":" + std::to_string(v.size());
    for (const auto& [label, q] : {std::pair{"p50", 0.5}, {"p90", 0.9},
                                   {"p95", 0.95}, {"p99", 0.99},
                                   {"p999", 0.999}, {"max", 1.0}}) {
      out += std::string(",\"") + label + "\":" + Number(Percentile(v, q));
    }
    dists_.emplace_back(name, out + "}");
  }

  std::string Json(const std::string& head) const {
    std::string out = "{" + head;
    out += ",\"params\":" + Object(params_);
    out += ",\"counts\":" + Object(counts_);
    out += ",\"distributions\":" + Object(dists_);
    out += ",\"metrics\":{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + metrics_[i].name + "\":{\"value\":" +
             Number(metrics_[i].value) + ",\"unit\":\"" + metrics_[i].unit +
             "\"}";
    }
    return out + "}}";
  }

  static std::string Number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  static std::string Object(
      const std::vector<std::pair<std::string, std::string>>& fields) {
    std::string out = "{";
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + fields[i].first + "\":" + fields[i].second;
    }
    return out + "}";
  }

  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::pair<std::string, std::string>> counts_;
  std::vector<std::pair<std::string, std::string>> dists_;
};

void EndToEndMetrics(const HubRun& run, Report* report) {
  const Phase& p = run.phase;
  const std::vector<double> fresh = FreshnessMs(p);
  const std::vector<double> txn_us = SourceTxnUs(p);
  std::vector<double> round_ms;
  for (const RoundRecord& r : p.rounds) {
    round_ms.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
  }
  report->Distribution("freshness_ms", fresh);
  report->Distribution("source_txn_us", txn_us);
  report->Distribution("olap_query_ms", p.query_ms);
  report->Distribution("round_ms", round_ms);
  report->Distribution("send_lag_ms", p.send_lag_ms);
  report->Metric("freshness_p50_ms", TenthsQuantile(fresh, 0.50), "ms");
  report->Metric("source_txn_p50_us", TenthsQuantile(txn_us, 0.50), "us");
  report->Metric("apply_rows_per_s", ApplyRowsPerSec(p), "rows/s");
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  report->Metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                 "MB");
  report->Metric("setup_s", Percentile(run.setup_s, 0.5), "s");
}

// Least-squares slope of y on x over the samples; 0 when x does not vary.
double Slope(const std::vector<RoundSample>& samples,
             double RoundSample::*x, double RoundSample::*y) {
  const double n = static_cast<double>(samples.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const RoundSample& s : samples) {
    sx += s.*x;
    sy += s.*y;
    sxx += s.*x * s.*x;
    sxy += s.*x * s.*y;
  }
  const double den = n * sxx - sx * sx;
  return den == 0 ? 0 : (n * sxy - sx * sy) / den;
}

void PerLayerMetrics(const HubRun& hub, const TracedRun& traced,
                     Report* report) {
  // hub: from the untraced run.
  const Phase& hp = hub.phase;
  std::vector<double> round_ms;
  uint64_t empty = 0;
  for (const RoundRecord& r : hp.rounds) {
    round_ms.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
    if (!r.applied) ++empty;
  }
  const hub::HubStats& hs = hub.stats;
  report->Metric("hub.round_ms_p50", Percentile(round_ms, 0.5), "ms");
  report->Metric("hub.round_ms_p99", Percentile(round_ms, 0.99), "ms");
  report->Metric("hub.empty_round_ratio",
                 Ratio(static_cast<double>(empty),
                       static_cast<double>(hp.rounds.size())),
                 "ratio");
  report->Metric("hub.txns_per_batch",
                 Ratio(static_cast<double>(hs.transactions_applied),
                       static_cast<double>(hs.batches_applied)),
                 "txns");
  report->Metric("hub.staging_peak_bytes",
                 static_cast<double>(hs.staging_peak_bytes), "bytes");
  report->Metric("hub.producer_stalls",
                 static_cast<double>(hs.producer_stalls), "count");
  report->Metric("hub.apply_ms_max",
                 static_cast<double>(hs.apply_micros_max) / 1e3, "ms");
  report->Metric("workload.send_lag_p99_ms", Percentile(hp.send_lag_ms, 0.99),
                 "ms");
  report->Metric("io.syncs_per_round",
                 Ratio(static_cast<double>(hub.syncs),
                       static_cast<double>(hp.rounds.size() + hp.drain_rounds)),
                 "count");
  report->Metric("warehouse.olap_query_p50_ms",
                 TenthsQuantile(hp.query_ms, 0.50), "ms");

  // Every other layer: from the traced run's spans.
  struct Agg {
    double total_us = 0;
    uint64_t calls = 0;
    double Mean() const { return Ratio(total_us, static_cast<double>(calls)); }
  };
  std::map<std::string, Agg> by_name;  // every span, by name
  std::map<std::string, Agg> drain_busy;
  std::map<std::string, double> layer_us;  // round children, by layer
  double round_us = 0, child_us = 0;
  const std::vector<Span>& ds = traced.round_spans.spans();
  for (const Span& s : ds) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    Agg& a = by_name[s.name];
    a.total_us += us;
    ++a.calls;
    if (s.parent < 0) {
      round_us += us;
      continue;
    }
    const Span& round = ds[static_cast<size_t>(s.parent)];
    child_us += us;
    const std::string name = s.name;
    layer_us[name.substr(0, name.find('.'))] += us;
    if (name == "extract.drain" && round.work > 0) {
      drain_busy[name].total_us += us;
      ++drain_busy[name].calls;
    }
  }
  for (const Span& s : traced.writer_spans.spans()) {
    Agg& a = by_name[s.name];
    a.total_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    ++a.calls;
  }
  const double rows = static_cast<double>(traced.phase.rows_changed);
  const warehouse::IntegrationStats& is = traced.integration;
  report->Metric("extract.capture_execute_us",
                 by_name["extract.capture_execute"].Mean(), "us");
  report->Metric("extract.capture_commit_us",
                 by_name["extract.capture_commit"].Mean(), "us");
  report->Metric("extract.drain_us", drain_busy["extract.drain"].Mean(), "us");
  report->Metric("extract.drain_us_per_record",
                 Ratio(drain_busy["extract.drain"].total_us,
                       static_cast<double>(traced.records)),
                 "us");
  report->Metric("extract.drain_us_per_wal_mb",
                 Slope(traced.samples, &RoundSample::wal_mb,
                       &RoundSample::drain_us),
                 "us");
  report->Metric("extract.source_wal_bytes",
                 static_cast<double>(traced.source_wal_bytes), "bytes");
  report->Metric("pipeline.encode_us",
                 Ratio(by_name["pipeline.encode"].total_us,
                       static_cast<double>(by_name["transport.enqueue"].calls)),
                 "us");
  report->Metric("pipeline.decode_us", by_name["pipeline.decode"].Mean(),
                 "us");
  report->Metric("pipeline.frame_bytes_per_row",
                 Ratio(static_cast<double>(traced.frame_bytes), rows), "bytes");
  report->Metric("transport.enqueue_us", by_name["transport.enqueue"].Mean(),
                 "us");
  report->Metric("transport.peek_us", by_name["transport.peek"].Mean(), "us");
  report->Metric("transport.ack_us", by_name["transport.ack"].Mean(), "us");
  report->Metric("transport.bytes_enqueued",
                 static_cast<double>(traced.frame_bytes), "bytes");
  report->Metric("warehouse.ledger_admit_us",
                 by_name["warehouse.ledger_admit"].Mean(), "us");
  report->Metric("warehouse.ledger_get_us",
                 by_name["warehouse.ledger_get"].Mean(), "us");
  double ledger_rows = 0;
  for (const RoundSample& s : traced.samples) ledger_rows += s.ledger_rows;
  report->Metric("warehouse.ledger_rows",
                 Ratio(ledger_rows,
                       static_cast<double>(traced.samples.size())),
                 "rows");
  report->Metric("warehouse.ledger_get_us_per_krow",
                 Slope(traced.samples, &RoundSample::ledger_rows,
                       &RoundSample::get_us) *
                     1000,
                 "us");
  report->Metric("warehouse.apply_us_per_txn",
                 Ratio(by_name["warehouse.apply"].total_us,
                       static_cast<double>(is.transactions)),
                 "us");
  report->Metric("warehouse.txns_parallel_ratio",
                 Ratio(static_cast<double>(is.txns_parallel),
                       static_cast<double>(is.transactions)),
                 "ratio");
  report->Metric("warehouse.apply_us_per_row",
                 Ratio(by_name["warehouse.apply"].total_us, rows), "us");
  report->Metric("warehouse.outage_ms",
                 static_cast<double>(is.outage_micros) / 1e3, "ms");
  report->Metric("sql.stmt_cache_hit_rate", traced.cache.HitRate(), "ratio");
  report->Metric("sql.stmt_cache_misses",
                 static_cast<double>(traced.cache.misses), "count");
  report->Metric("txn.wh_wal_bytes_per_row",
                 Ratio(static_cast<double>(traced.wh_wal_bytes), rows),
                 "bytes");
  report->Metric("storage.page_reads_per_row",
                 Ratio(static_cast<double>(traced.page_reads), rows), "pages");
  report->Metric("storage.page_writes_per_row",
                 Ratio(static_cast<double>(traced.page_writes), rows),
                 "pages");
  for (const char* layer : {"extract", "pipeline", "transport", "warehouse"}) {
    report->Metric(std::string(layer) + ".self_ms", layer_us[layer] / 1e3,
                   "ms");
  }
  report->Metric("trace.round_self_ms", (round_us - child_us) / 1e3, "ms");
  report->Metric("trace.coverage", Ratio(child_us, round_us), "ratio");
  report->Metric("trace.overhead_ratio",
                 Ratio(ApplyRowsPerSec(hub.phase),
                       ApplyRowsPerSec(traced.phase)),
                 "ratio");
}

void WriteSpans(const TracedRun& run, const std::string& path) {
  std::string out;
  const int64_t t0 = run.phase.start_ns;
  auto emit = [&](const char* thread, const std::vector<Span>& spans) {
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"thread\":\"%s\",\"id\":%zu,\"parent\":%lld,"
                    "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                    "\"work\":%llu}\n",
                    thread, i, static_cast<long long>(s.parent), s.name,
                    static_cast<double>(s.start_ns - t0) / 1e3,
                    static_cast<double>(s.end_ns - t0) / 1e3,
                    static_cast<unsigned long long>(s.work));
      out += line;
    }
  };
  emit("rounds", run.round_spans.spans());
  emit("writer", run.writer_spans.spans());
  Check(WriteFileAtomic(Env::Default(), path, Slice(out)), "write spans");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
  std::string work_dir;
  std::string spans;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stoi(value());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else if (flag == "--spans") {
      args.spans = value();
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--corrupt-warehouse") {
      args.corrupt = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.work_dir.empty()) Die("--work-dir is required");
  if (args.seconds < 1) Die("--seconds must be at least 1");
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Env::SetDefault(&Files());
  // One malloc arena and a fixed mmap threshold: otherwise peak RSS depends
  // on which threads happened to get an arena of their own and on how far
  // glibc's adaptive threshold had moved, and jumps by megabytes between
  // identical runs.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Spec spec;
  if (!MakeSpec(args.workload, args.seconds, args.tiny, &spec)) {
    Die("unknown workload " + args.workload);
  }
  const std::vector<SourceTxn> inputs = GenerateInputs(spec, args.seed);

  Report report;
  report.Param("method", pipeline::MethodName(spec.method));
  report.Param("table_rows", static_cast<double>(spec.table_rows));
  report.Param("loop", spec.method == pipeline::Method::kOpDelta ? "open"
                                                                  : "closed");
  report.Param("rate_tps", spec.rate_tps);
  report.Param("scheduled_txns", static_cast<double>(inputs.size()));
  report.Param("cycles", static_cast<double>(spec.cycles));
  report.Param("update_rows", static_cast<double>(spec.update_rows));
  report.Param("delete_rows", static_cast<double>(spec.delete_rows));
  report.Param("insert_rows", static_cast<double>(spec.insert_rows));
  report.Param("probe_every", static_cast<double>(spec.probe_every));
  report.Param("setups", args.trace ? 1 : spec.setups);
  report.Param("extract_threads", 1);
  report.Param("apply_workers", 1);
  report.Param("apply_threads", static_cast<double>(spec.apply_threads));
  report.Param("buffer_pool_pages",
               static_cast<double>(engine::DatabaseOptions().buffer_pool_pages));

  const HubRun hub = RunHub(spec, args.seed, args.trace ? 1 : spec.setups,
                            inputs, args.work_dir + "/hub_run", args.corrupt);
  (void)Env::Default()->RemoveDirAll(args.work_dir + "/hub_run");
  const Phase& p = hub.phase;
  bool correct = hub.source_digest == hub.warehouse_digest;
  std::string gate = "\"source_digest\":\"" + hub.source_digest.ToString() +
                     "\",\"warehouse_digest\":\"" +
                     hub.warehouse_digest.ToString() + "\"";
  uint64_t attempted = p.txns.size() + p.rounds.size() + p.drain_rounds +
                       p.query_ms.size() + p.query_errors;
  uint64_t failed = p.txn_failures + RoundFailures(p) + p.query_errors;

  if (!args.trace) {
    EndToEndMetrics(hub, &report);
  } else {
    TracedRun traced;
    RunTraced(spec, args.seed, inputs, args.work_dir + "/traced_run", &traced);
    (void)Env::Default()->RemoveDirAll(args.work_dir + "/traced_run");
    const Phase& tp = traced.phase;
    // The traced run must reach the untraced run's final state.
    correct = correct && traced.source_digest == traced.warehouse_digest &&
              traced.source_digest == hub.source_digest;
    gate += ",\"traced_digest\":\"" + traced.warehouse_digest.ToString() +
            "\"";
    attempted += tp.txns.size() + tp.rounds.size() + tp.drain_rounds;
    failed += tp.txn_failures + RoundFailures(tp);
    PerLayerMetrics(hub, traced, &report);
    if (!args.spans.empty()) WriteSpans(traced, args.spans);
  }

  uint64_t cycles = 0;
  for (const SourceTxn& t : inputs) cycles += t.cycle_end ? 1 : 0;
  report.Count("transactions", p.txns.size() - p.txn_failures);
  report.Count("statements", p.statements);
  report.Count("rows_changed", p.rows_changed);
  report.Count("cycles", cycles);
  report.Count("rounds", p.rounds.size());
  report.Count("queries", p.query_ms.size());

  std::string head = "\"workload\":\"" + spec.name +
                     "\",\"seed\":" + std::to_string(args.seed) +
                     ",\"trace\":" + (args.trace ? "1" : "0") +
                     ",\"correct\":" + (correct ? "true" : "false") +
                     ",\"gate\":{" + gate + "}" +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"failed_ops_ratio\":" +
                     Report::Number(Ratio(static_cast<double>(failed),
                                          static_cast<double>(attempted)));
  std::printf("%s\n", report.Json(head).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace opdelta::cdcbench

int main(int argc, char** argv) { return opdelta::cdcbench::Main(argc, argv); }
