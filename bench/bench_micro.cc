// Micro-benchmarks (google-benchmark) of the substrate primitives every
// experiment rests on: row codec, slotted pages, B+tree, WAL append, the
// persistent queue, engine DML (the window's range UPDATE and DELETE among
// them), net-change apply, archive-log extraction rounds, statement
// parse/render, and CRC. Useful for spotting regressions that would
// distort the paper-level benches.
#include <benchmark/benchmark.h>

#include <mutex>

#include "bench/harness.h"
#include "common/crc32.h"
#include "common/random.h"
#include "common/sync.h"
#include "catalog/row_codec.h"
#include "extract/log_extractor.h"
#include "index/bplus_tree.h"
#include "sql/parser.h"
#include "storage/page.h"
#include "transport/persistent_queue.h"
#include "txn/wal.h"
#include "warehouse/integrator.h"
#include "workload/workload.h"

namespace opdelta {
namespace {

void BM_RowCodecEncode(benchmark::State& state) {
  workload::PartsWorkload wl;
  catalog::Schema schema = workload::PartsWorkload::Schema();
  catalog::Row row = wl.MakeRow(42);
  row[3] = catalog::Value::Timestamp(123456789);
  for (auto _ : state) {
    std::string out;
    catalog::RowCodec::Encode(schema, row, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RowCodecEncode);

void BM_RowCodecDecode(benchmark::State& state) {
  workload::PartsWorkload wl;
  catalog::Schema schema = workload::PartsWorkload::Schema();
  catalog::Row row = wl.MakeRow(42);
  row[3] = catalog::Value::Timestamp(123456789);
  std::string encoded = catalog::RowCodec::Encode(schema, row);
  for (auto _ : state) {
    catalog::Row out;
    Status st = catalog::RowCodec::Decode(schema, Slice(encoded), &out);
    benchmark::DoNotOptimize(st);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RowCodecDecode);

void BM_SlottedPageInsert(benchmark::State& state) {
  alignas(8) char buf[storage::kPageSize];
  const std::string record(100, 'r');
  for (auto _ : state) {
    storage::SlottedPage page(buf);
    page.Init();
    uint16_t slot;
    while (page.Insert(Slice(record), &slot).ok()) {
    }
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_SlottedPageInsert);

void BM_BPlusTreeInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    index::BPlusTree tree;
    for (int64_t i = 0; i < n; ++i) {
      tree.Insert(i, storage::Rid{static_cast<uint32_t>(i), 0});
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(1000)->Arg(10000);

void BM_BPlusTreeRangeScan(benchmark::State& state) {
  index::BPlusTree tree;
  for (int64_t i = 0; i < 100000; ++i) {
    tree.Insert(i, storage::Rid{static_cast<uint32_t>(i), 0});
  }
  for (auto _ : state) {
    int64_t sum = 0;
    tree.ScanRange(5000, 15000, [&](int64_t k, const storage::Rid&) {
      sum += k;
      return true;
    });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BPlusTreeRangeScan);

void BM_WalAppend(benchmark::State& state) {
  bench::ScratchDir dir("micro_wal");
  txn::Wal wal;
  txn::WalOptions options;
  BENCH_OK(wal.Open(dir.Sub("wal"), options));
  txn::LogRecord rec;
  rec.type = txn::LogRecordType::kInsert;
  rec.after = std::string(100, 'v');
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.Append(&rec));
  }
  state.SetBytesProcessed(state.iterations() * 100);
}
BENCHMARK(BM_WalAppend);

// One transaction-shaped burst per iteration: N 100-byte appends, then one
// Sync (a commit without fdatasync, as sync_on_commit is off). Items are
// records.
void BM_WalCommit(benchmark::State& state) {
  bench::ScratchDir dir("micro_wal_commit");
  txn::Wal wal;
  BENCH_OK(wal.Open(dir.Sub("wal"), txn::WalOptions()));
  txn::LogRecord rec;
  rec.type = txn::LogRecordType::kInsert;
  rec.after = std::string(100, 'v');
  const int64_t records = state.range(0);
  for (auto _ : state) {
    for (int64_t i = 0; i < records; ++i) BENCH_OK(wal.Append(&rec));
    BENCH_OK(wal.Sync());
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_WalCommit)->Arg(1)->Arg(8)->Arg(100)->Arg(500);

// The hub's per-batch queue traffic: a durable Enqueue of an N-byte message
// (one fdatasync), then Peek and Ack. Bytes are message bytes.
void BM_QueueRoundTrip(benchmark::State& state) {
  bench::ScratchDir dir("micro_queue");
  transport::PersistentQueue queue;
  BENCH_OK(queue.Open(dir.Sub("queue")));
  const std::string message(static_cast<size_t>(state.range(0)), 'q');
  std::string peeked;
  for (auto _ : state) {
    BENCH_OK(queue.Enqueue(Slice(message), /*durable=*/true));
    BENCH_OK(queue.Peek(&peeked));
    BENCH_OK(queue.Ack());
    benchmark::DoNotOptimize(peeked.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QueueRoundTrip)->Arg(256)->Arg(65536);

void BM_EngineInsert(benchmark::State& state) {
  bench::ScratchDir dir("micro_insert");
  workload::PartsWorkload wl;
  std::unique_ptr<engine::Database> db;
  BENCH_OK(engine::Database::Open(dir.Sub("db"), engine::DatabaseOptions(),
                                  &db));
  BENCH_OK(wl.CreateTable(db.get(), "parts"));
  int64_t id = 0;
  for (auto _ : state) {
    Status st = db->WithTransaction([&](txn::Transaction* txn) {
      return db->Insert(txn, "parts", wl.MakeRow(id++));
    });
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineInsert);

void BM_EngineScan100k(benchmark::State& state) {
  bench::ScratchDir dir("micro_scan");
  workload::PartsWorkload wl;
  std::unique_ptr<engine::Database> db;
  BENCH_OK(engine::Database::Open(dir.Sub("db"), engine::DatabaseOptions(),
                                  &db));
  BENCH_OK(wl.CreateTable(db.get(), "parts"));
  BENCH_OK(wl.Populate(db.get(), "parts", 100000));
  for (auto _ : state) {
    uint64_t count = 0;
    BENCH_OK(db->Scan(nullptr, "parts", engine::Predicate::True(),
                      [&](const storage::Rid&, const catalog::Row&) {
                        ++count;
                        return true;
                      }));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_EngineScan100k);

// `lo <= id < hi`, the window workload's range predicate.
engine::Predicate KeyRange(int64_t lo, int64_t hi) {
  return engine::Predicate::Where("id", engine::CompareOp::kGe,
                                  catalog::Value::Int64(lo))
      .And("id", engine::CompareOp::kLt, catalog::Value::Int64(hi));
}

// The batch window's source UPDATE (cdcbench's log_batch_window): one
// committed 500-row range UPDATE per iteration on a 20k-row table, found
// by a heap scan (Arg 0) or through a B+tree range on id (Arg 1). The range
// slides by 500 each iteration. Items are rows updated.
void BM_EngineUpdateRange(benchmark::State& state) {
  bench::ScratchDir dir("micro_update_range");
  workload::PartsWorkload wl;
  std::unique_ptr<engine::Database> db;
  BENCH_OK(engine::Database::Open(dir.Sub("db"), engine::DatabaseOptions(),
                                  &db));
  BENCH_OK(wl.CreateTable(db.get(), "parts"));
  constexpr int64_t kRows = 20000, kUpdate = 500;
  BENCH_OK(wl.Populate(db.get(), "parts", kRows));
  if (state.range(0) != 0) BENCH_OK(db->CreateIndex("parts", "id"));
  int64_t lo = 0;
  for (auto _ : state) {
    BENCH_OK(db->WithTransaction([&](txn::Transaction* txn) {
      return db
          ->UpdateWhere(txn, "parts", KeyRange(lo, lo + kUpdate),
                        {engine::Assignment{
                            "status", catalog::Value::String(
                                          lo % 1000 == 0 ? "revise" : "active")}})
          .status();
    }));
    lo = (lo + kUpdate) % kRows;
  }
  state.SetItemsProcessed(state.iterations() * kUpdate);
}
BENCHMARK(BM_EngineUpdateRange)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The batch window's source DELETE: one committed 100-row range DELETE
// through the B+tree range on id per iteration, on a 20k-row table. The
// deleted keys are inserted again untimed, so the table keeps 20k rows.
// Items are rows deleted.
void BM_EngineDeleteRange(benchmark::State& state) {
  bench::ScratchDir dir("micro_delete_range");
  workload::PartsWorkload wl;
  std::unique_ptr<engine::Database> db;
  BENCH_OK(engine::Database::Open(dir.Sub("db"), engine::DatabaseOptions(),
                                  &db));
  BENCH_OK(wl.CreateTable(db.get(), "parts"));
  constexpr int64_t kRows = 20000, kDelete = 100;
  BENCH_OK(wl.Populate(db.get(), "parts", kRows));
  BENCH_OK(db->CreateIndex("parts", "id"));
  int64_t lo = 0;
  for (auto _ : state) {
    BENCH_OK(db->WithTransaction([&](txn::Transaction* txn) {
      return db->DeleteWhere(txn, "parts", KeyRange(lo, lo + kDelete))
          .status();
    }));
    state.PauseTiming();
    BENCH_OK(db->WithTransaction([&](txn::Transaction* txn) -> Status {
      for (int64_t id = lo; id < lo + kDelete; ++id) {
        OPDELTA_RETURN_IF_ERROR(db->Insert(txn, "parts", wl.MakeRow(id)));
      }
      return Status::OK();
    }));
    lo = (lo + kDelete) % kRows;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kDelete);
}
BENCHMARK(BM_EngineDeleteRange)->Unit(benchmark::kMicrosecond);

// Net-change apply of one window-shaped batch per iteration, as a log
// source ships it after a batch-window cycle: 500 upserts of present keys,
// 100 deletes and 100 inserts of new keys, applied by ApplyNetChanges to an
// indexed 20k-row warehouse. The live key range slides by 100 each
// iteration, so the table keeps 20k rows. Items are rows applied.
void BM_ApplyNetChanges(benchmark::State& state) {
  bench::ScratchDir dir("micro_apply_net");
  workload::PartsWorkload wl;
  engine::DatabaseOptions options;
  options.auto_timestamp = false;  // the warehouse keeps the source's stamps
  std::unique_ptr<engine::Database> db;
  BENCH_OK(engine::Database::Open(dir.Sub("wh"), options, &db));
  BENCH_OK(wl.CreateTable(db.get(), "parts"));
  constexpr int64_t kRows = 20000;
  BENCH_OK(wl.Populate(db.get(), "parts", kRows));
  BENCH_OK(db->CreateIndex("parts", "id"));
  int64_t lo = 0;  // live keys are [lo, lo + kRows)
  int64_t pass = 0;
  for (auto _ : state) {
    state.PauseTiming();
    extract::DeltaBatch batch;
    batch.table = "parts";
    batch.schema = workload::PartsWorkload::Schema();
    auto add = [&](extract::DeltaOp op, int64_t id) {
      catalog::Row image = wl.MakeRow(id);
      image[1] = catalog::Value::String(pass % 2 == 0 ? "revise" : "active");
      image[3] = catalog::Value::Timestamp(pass);
      batch.records.push_back(
          extract::DeltaRecord{op, 0, batch.records.size(), std::move(image)});
    };
    for (int64_t id = lo; id < lo + 100; ++id) {
      add(extract::DeltaOp::kDelete, id);
    }
    for (int64_t id = lo + 100; id < lo + 600; ++id) {
      add(extract::DeltaOp::kUpsert, id);
    }
    for (int64_t id = lo + kRows; id < lo + kRows + 100; ++id) {
      add(extract::DeltaOp::kInsert, id);
    }
    lo += 100;
    ++pass;
    state.ResumeTiming();
    BENCH_OK(warehouse::ApplyNetChanges(db.get(), "parts", batch, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * 700);
}
BENCHMARK(BM_ApplyNetChanges)->Unit(benchmark::kMicrosecond);

// One log-method extraction round on a kept LogExtractor — a small
// committed transaction, then one ExtractSince — after `range(0)` MB of
// prior archive. A round reads only the log written since the previous
// one, so the time per iteration should be flat across archive sizes.
void BM_LogExtractorRound(benchmark::State& state) {
  bench::ScratchDir dir("micro_log_round");
  workload::PartsWorkload wl;
  std::unique_ptr<engine::Database> db;
  BENCH_OK(engine::Database::Open(dir.Sub("db"), engine::DatabaseOptions(),
                                  &db));
  BENCH_OK(wl.CreateTable(db.get(), "parts"));
  constexpr int64_t kRows = 1000;
  BENCH_OK(wl.Populate(db.get(), "parts", kRows));
  const uint64_t archive_bytes = static_cast<uint64_t>(state.range(0)) << 20;
  for (int64_t pass = 0; db->wal()->bytes_appended() < archive_bytes;
       ++pass) {
    BENCH_OK(db->WithTransaction([&](txn::Transaction* txn) {
      return db->UpdateWhere(
                   txn, "parts", engine::Predicate::True(),
                   {engine::Assignment{
                       "status", catalog::Value::String(
                                     "pass-" + std::to_string(pass))}})
          .status();
    }));
  }

  engine::Table* table = db->GetTable("parts");
  extract::LogExtractor extractor(db->wal()->dir());
  // The archive is already shipped: the first call reads all of it once,
  // as after a restart, and selects nothing.
  txn::Lsn watermark = db->wal()->last_lsn();
  BENCH_OK(extractor
               .ExtractSince(watermark, table->id(), "parts", table->schema(),
                             &watermark)
               .status());
  int64_t id = kRows;
  for (auto _ : state) {
    BENCH_OK(db->WithTransaction([&](txn::Transaction* txn) {
      return db->Insert(txn, "parts", wl.MakeRow(id++));
    }));
    Result<extract::DeltaBatch> batch = extractor.ExtractSince(
        watermark, table->id(), "parts", table->schema(), &watermark);
    BENCH_OK(batch.status());
    benchmark::DoNotOptimize(batch->records.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogExtractorRound)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

// One window-shaped extraction per iteration on a kept LogExtractor. A
// 500-row range UPDATE, a 100-row range DELETE and a 100-row INSERT commit
// on an indexed 20k-row table (untimed), then one ExtractSince reads their
// log and returns their 1,200 records (timed). The live key range slides
// by 100 each iteration, so the table keeps 20k rows. Items are records.
void BM_LogExtractorWindow(benchmark::State& state) {
  bench::ScratchDir dir("micro_log_window");
  workload::PartsWorkload wl;
  std::unique_ptr<engine::Database> db;
  BENCH_OK(engine::Database::Open(dir.Sub("db"), engine::DatabaseOptions(),
                                  &db));
  BENCH_OK(wl.CreateTable(db.get(), "parts"));
  constexpr int64_t kRows = 20000;
  BENCH_OK(wl.Populate(db.get(), "parts", kRows));
  BENCH_OK(db->CreateIndex("parts", "id"));

  engine::Table* table = db->GetTable("parts");
  extract::LogExtractor extractor(db->wal()->dir());
  txn::Lsn watermark = db->wal()->last_lsn();
  BENCH_OK(extractor
               .ExtractSince(watermark, table->id(), "parts", table->schema(),
                             &watermark)
               .status());
  auto range = [](int64_t lo, int64_t hi) {
    return engine::Predicate::Where("id", engine::CompareOp::kGe,
                                    catalog::Value::Int64(lo))
        .And("id", engine::CompareOp::kLt, catalog::Value::Int64(hi));
  };
  int64_t lo = 0;  // live keys are [lo, lo + kRows)
  uint64_t records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BENCH_OK(db->WithTransaction([&](txn::Transaction* txn) {
      return db
          ->UpdateWhere(txn, "parts", range(lo + 100, lo + 600),
                        {engine::Assignment{
                            "status", catalog::Value::String(
                                          lo % 200 == 0 ? "revise" : "active")}})
          .status();
    }));
    BENCH_OK(db->WithTransaction([&](txn::Transaction* txn) {
      return db->DeleteWhere(txn, "parts", range(lo, lo + 100)).status();
    }));
    BENCH_OK(db->WithTransaction([&](txn::Transaction* txn) -> Status {
      for (int64_t id = lo + kRows; id < lo + kRows + 100; ++id) {
        OPDELTA_RETURN_IF_ERROR(db->Insert(txn, "parts", wl.MakeRow(id)));
      }
      return Status::OK();
    }));
    lo += 100;
    state.ResumeTiming();
    Result<extract::DeltaBatch> batch = extractor.ExtractSince(
        watermark, table->id(), "parts", table->schema(), &watermark);
    BENCH_OK(batch.status());
    benchmark::DoNotOptimize(batch->records.data());
    records += batch->records.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(records));
}
BENCHMARK(BM_LogExtractorWindow)->Unit(benchmark::kMicrosecond);

void BM_SqlParseUpdate(benchmark::State& state) {
  const std::string sql =
      "UPDATE parts SET status = 'revised' WHERE last_modified > TS:942652800";
  for (auto _ : state) {
    Result<sql::Statement> stmt = sql::Parser::Parse(sql);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_SqlParseUpdate);

// OrderedMutex must cost the same as std::mutex in release builds (the
// alias collapses to a passthrough wrapper). Comparing these two series is
// the acceptance check for the lock-hierarchy migration: any gap here means
// the checker leaked into the release path.
void BM_StdMutexLockUnlock(benchmark::State& state) {
  std::mutex mu;
  for (auto _ : state) {
    mu.lock();
    benchmark::DoNotOptimize(&mu);
    mu.unlock();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdMutexLockUnlock);

void BM_OrderedMutexLockUnlock(benchmark::State& state) {
  common::OrderedMutex mu{OPDELTA_LOCK_RANK(bench_mu, 50)};
  for (auto _ : state) {
    mu.lock();
    benchmark::DoNotOptimize(&mu);
    mu.unlock();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OrderedMutexLockUnlock);

void BM_OrderedSharedMutexSharedLock(benchmark::State& state) {
  common::OrderedSharedMutex mu{OPDELTA_LOCK_RANK(bench_shared_mu, 50)};
  for (auto _ : state) {
    mu.lock_shared();
    benchmark::DoNotOptimize(&mu);
    mu.unlock_shared();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OrderedSharedMutexSharedLock);

void BM_Crc32c(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(100)->Arg(8192)->Arg(128 << 10);

}  // namespace
}  // namespace opdelta

BENCHMARK_MAIN();
