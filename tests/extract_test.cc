#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "catalog/row_codec.h"
#include "common/random.h"
#include "engine/snapshot.h"
#include "extract/delta.h"
#include "extract/log_extractor.h"
#include "extract/reconciler.h"
#include "extract/snapshot_differential.h"
#include "extract/timestamp_extractor.h"
#include "extract/trigger_extractor.h"
#include "sql/executor.h"
#include "workload/workload.h"
#include "tests/test_util.h"

namespace opdelta::extract {
namespace {

using catalog::Row;
using catalog::Value;
using engine::CompareOp;
using engine::Predicate;
using opdelta::testing::CountRows;
using opdelta::testing::OpenDb;
using opdelta::testing::TablesEqual;
using opdelta::testing::TempDir;

class ExtractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenDb(dir_, "src");
    OPDELTA_ASSERT_OK(wl_.CreateTable(db_.get(), "parts"));
  }

  Status RunUpdate(int64_t lo, int64_t hi, const std::string& status) {
    sql::Executor exec(db_.get());
    return exec.ExecuteSql(wl_.MakeUpdate("parts", lo, hi, status).ToSql())
        .status();
  }

  Status RunDelete(int64_t lo, int64_t hi) {
    sql::Executor exec(db_.get());
    return exec.ExecuteSql(wl_.MakeDelete("parts", lo, hi).ToSql()).status();
  }

  TempDir dir_;
  workload::PartsWorkload wl_;
  std::unique_ptr<engine::Database> db_;
};

// ----------------------------------------------------- DeltaBatch framing

TEST(DeltaBatchTest, EncodeDecodeRoundTrip) {
  DeltaBatch batch;
  batch.table = "parts";
  batch.schema = workload::PartsWorkload::Schema();
  batch.records.push_back(DeltaRecord{
      DeltaOp::kInsert, 7, 0,
      {Value::Int64(1), Value::String("a"), Value::String("p"),
       Value::Timestamp(5)}});
  batch.records.push_back(DeltaRecord{
      DeltaOp::kDelete, 8, 1,
      {Value::Int64(2), Value::Null(), Value::Null(), Value::Null()}});

  std::string buf;
  batch.EncodeTo(&buf);
  DeltaBatch out;
  OPDELTA_ASSERT_OK(DeltaBatch::DecodeFrom(Slice(buf), &out));
  EXPECT_EQ(out.table, "parts");
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0].op, DeltaOp::kInsert);
  EXPECT_EQ(out.records[0].source_txn, 7u);
  EXPECT_EQ(out.records[1].op, DeltaOp::kDelete);
  EXPECT_EQ(catalog::CompareRows(out.records[0].image,
                                 batch.records[0].image),
            0);
}

TEST(DeltaBatchTest, NetChangesCollapseUpdateChains) {
  DeltaBatch batch;
  batch.schema = workload::PartsWorkload::Schema();
  auto row = [](int64_t id, const char* s) -> Row {
    return {Value::Int64(id), Value::String(s), Value::Null(), Value::Null()};
  };
  batch.records = {
      DeltaRecord{DeltaOp::kInsert, 1, 0, row(1, "v1")},
      DeltaRecord{DeltaOp::kUpdateBefore, 2, 1, row(1, "v1")},
      DeltaRecord{DeltaOp::kUpdateAfter, 2, 2, row(1, "v2")},
      DeltaRecord{DeltaOp::kInsert, 3, 3, row(2, "x")},
      DeltaRecord{DeltaOp::kDelete, 4, 4, row(2, "x")},
  };
  NetChanges net;
  OPDELTA_ASSERT_OK(ComputeNetChanges(batch, &net));
  ASSERT_EQ(net.size(), 2u);
  ASSERT_TRUE(net.at(Value::Int64(1)).has_value());
  EXPECT_EQ((*net.at(Value::Int64(1)))[1].AsString(), "v2");
  EXPECT_FALSE(net.at(Value::Int64(2)).has_value());  // net delete
}

// ---------------------------------------------------- TimestampExtractor

TEST_F(ExtractTest, TimestampExtractorSeesOnlyNewerRows) {
  OPDELTA_ASSERT_OK(wl_.Populate(db_.get(), "parts", 100));
  const Micros watermark = db_->clock()->NowMicros();
  OPDELTA_ASSERT_OK(RunUpdate(0, 10, "revised"));

  TimestampExtractor extractor(db_.get(), "parts", "last_modified");
  Result<DeltaBatch> batch = extractor.ExtractSince(watermark);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->records.size(), 10u);
  for (const DeltaRecord& r : batch->records) {
    EXPECT_EQ(r.op, DeltaOp::kUpsert);
    EXPECT_EQ(r.image[1].AsString(), "revised");
  }
}

TEST_F(ExtractTest, TimestampExtractorMissesDeletes) {
  // The documented blind spot: deletes leave no timestamped row behind.
  OPDELTA_ASSERT_OK(wl_.Populate(db_.get(), "parts", 50));
  const Micros watermark = db_->clock()->NowMicros();
  OPDELTA_ASSERT_OK(RunDelete(0, 25));
  TimestampExtractor extractor(db_.get(), "parts", "last_modified");
  Result<DeltaBatch> batch = extractor.ExtractSince(watermark);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->records.empty());
}

TEST_F(ExtractTest, TimestampExtractorSeesOnlyFinalState) {
  OPDELTA_ASSERT_OK(wl_.Populate(db_.get(), "parts", 20));
  const Micros watermark = db_->clock()->NowMicros();
  OPDELTA_ASSERT_OK(RunUpdate(0, 20, "v1"));
  OPDELTA_ASSERT_OK(RunUpdate(0, 20, "v2"));
  TimestampExtractor extractor(db_.get(), "parts", "last_modified");
  Result<DeltaBatch> batch = extractor.ExtractSince(watermark);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->records.size(), 20u);  // one final state per row
  for (const DeltaRecord& r : batch->records) {
    EXPECT_EQ(r.image[1].AsString(), "v2");
  }
}

TEST_F(ExtractTest, TimestampExtractToFileMatchesToTable) {
  OPDELTA_ASSERT_OK(wl_.Populate(db_.get(), "parts", 200));
  const Micros watermark = db_->clock()->NowMicros();
  OPDELTA_ASSERT_OK(RunUpdate(50, 150, "touched"));

  TimestampExtractor extractor(db_.get(), "parts", "last_modified");
  uint64_t file_rows = 0, table_rows = 0;
  OPDELTA_ASSERT_OK(extractor.ExtractToFile(watermark, dir_.Sub("d.csv"),
                                            &file_rows));
  OPDELTA_ASSERT_OK(
      db_->CreateTable("parts_ts_delta", workload::PartsWorkload::Schema()));
  OPDELTA_ASSERT_OK(
      extractor.ExtractToTable(watermark, "parts_ts_delta", &table_rows));
  EXPECT_EQ(file_rows, 100u);
  EXPECT_EQ(table_rows, 100u);
  EXPECT_EQ(CountRows(db_.get(), "parts_ts_delta"), 100u);
}

TEST_F(ExtractTest, TimestampExtractionOnAnIndexedColumn) {
  OPDELTA_ASSERT_OK(wl_.Populate(db_.get(), "parts", 300));
  OPDELTA_ASSERT_OK(db_->CreateIndex("parts", "last_modified"));
  const Micros watermark = db_->clock()->NowMicros();
  OPDELTA_ASSERT_OK(RunUpdate(100, 130, "idx"));

  // `last_modified > watermark` takes the B+tree range.
  TimestampExtractor extractor(db_.get(), "parts", "last_modified");
  Result<DeltaBatch> batch = extractor.ExtractSince(watermark);
  OPDELTA_ASSERT_OK(batch.status());
  std::set<int64_t> ids;
  for (const DeltaRecord& r : batch->records) {
    EXPECT_GT(r.image[3].AsTimestamp(), watermark);
    ids.insert(r.image[0].AsInt64());
  }
  EXPECT_EQ(batch->records.size(), 30u);
  ASSERT_EQ(ids.size(), 30u);
  EXPECT_EQ(*ids.begin(), 100);
  EXPECT_EQ(*ids.rbegin(), 129);
}

TEST_F(ExtractTest, TimestampExtractorRejectsNonTimestampColumn) {
  TimestampExtractor extractor(db_.get(), "parts", "status");
  EXPECT_FALSE(extractor.ExtractSince(0).ok());
}

// ------------------------------------------------- SnapshotDifferential

class SnapshotDiffTest
    : public ::testing::TestWithParam<SnapshotDifferential::Algorithm> {};

TEST_P(SnapshotDiffTest, DiffCapturesInsertDeleteUpdate) {
  TempDir dir;
  workload::PartsWorkload wl;
  auto db = OpenDb(dir, "src");
  OPDELTA_ASSERT_OK(wl.CreateTable(db.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.Populate(db.get(), "parts", 100));
  OPDELTA_ASSERT_OK(engine::Snapshot::Write(db.get(), "parts",
                                            dir.Sub("old.snap")));

  sql::Executor exec(db.get());
  OPDELTA_ASSERT_OK(
      exec.ExecuteSql(wl.MakeDelete("parts", 0, 10).ToSql()).status());
  OPDELTA_ASSERT_OK(
      exec.ExecuteSql(wl.MakeUpdate("parts", 50, 60, "mod").ToSql())
          .status());
  OPDELTA_ASSERT_OK(
      exec.ExecuteSql(wl.MakeInsert("parts", 100, 5).ToSql()).status());
  OPDELTA_ASSERT_OK(engine::Snapshot::Write(db.get(), "parts",
                                            dir.Sub("new.snap")));

  SnapshotDifferential::Options options;
  options.algorithm = GetParam();
  options.window_rows = 32;  // force spills for the window variant
  SnapshotDifferential::Stats stats;
  Result<DeltaBatch> diff = SnapshotDifferential::Diff(
      dir.Sub("old.snap"), dir.Sub("new.snap"), options, &stats);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();

  int inserts = 0, deletes = 0, upd_before = 0, upd_after = 0;
  for (const DeltaRecord& r : diff->records) {
    switch (r.op) {
      case DeltaOp::kInsert:
        ++inserts;
        break;
      case DeltaOp::kDelete:
        ++deletes;
        break;
      case DeltaOp::kUpdateBefore:
        ++upd_before;
        break;
      case DeltaOp::kUpdateAfter:
        ++upd_after;
        break;
      default:
        FAIL() << "unexpected op";
    }
  }
  EXPECT_EQ(inserts, 5);
  EXPECT_EQ(deletes, 10);
  EXPECT_EQ(upd_before, 10);
  EXPECT_EQ(upd_after, 10);
  EXPECT_EQ(stats.old_rows, 100u);
  EXPECT_EQ(stats.new_rows, 95u);
}

TEST_P(SnapshotDiffTest, ApplyDiffReproducesNewSnapshot) {
  // Property: apply(diff(S1, S2), S1) == S2, under random workloads.
  TempDir dir;
  workload::PartsWorkload wl;
  auto db = OpenDb(dir, "src");
  OPDELTA_ASSERT_OK(wl.CreateTable(db.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.Populate(db.get(), "parts", 200));
  OPDELTA_ASSERT_OK(engine::Snapshot::Write(db.get(), "parts",
                                            dir.Sub("s1.snap")));

  // Rebuild a replica of S1 before mutating the source.
  auto replica = OpenDb(dir, "replica");
  OPDELTA_ASSERT_OK(wl.CreateTable(replica.get(), "parts"));
  OPDELTA_ASSERT_OK(replica->WithTransaction([&](txn::Transaction* txn) {
    Status st;
    return engine::Snapshot::Read(dir.Sub("s1.snap"), nullptr,
                                  [&](const Row& row) {
                                    st = replica->InsertRaw(txn, "parts", row);
                                    return st.ok();
                                  });
  }));

  Rng rng(99);
  sql::Executor exec(db.get());
  for (int i = 0; i < 10; ++i) {
    int64_t lo = rng.Uniform(200);
    int64_t hi = lo + 1 + rng.Uniform(30);
    switch (rng.Uniform(3)) {
      case 0:
        OPDELTA_ASSERT_OK(
            exec.ExecuteSql(wl.MakeDelete("parts", lo, hi).ToSql()).status());
        break;
      case 1:
        OPDELTA_ASSERT_OK(
            exec.ExecuteSql(
                    wl.MakeUpdate("parts", lo, hi, "r" + std::to_string(i))
                        .ToSql())
                .status());
        break;
      default:
        OPDELTA_ASSERT_OK(
            exec.ExecuteSql(wl.MakeInsert("parts", 200 + i * 10, 5).ToSql())
                .status());
        break;
    }
  }
  OPDELTA_ASSERT_OK(engine::Snapshot::Write(db.get(), "parts",
                                            dir.Sub("s2.snap")));

  SnapshotDifferential::Options options;
  options.algorithm = GetParam();
  options.window_rows = 64;
  Result<DeltaBatch> diff = SnapshotDifferential::Diff(
      dir.Sub("s1.snap"), dir.Sub("s2.snap"), options, nullptr);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  OPDELTA_ASSERT_OK(
      SnapshotDifferential::Apply(replica.get(), "parts", *diff));
  EXPECT_TRUE(TablesEqual(db.get(), "parts", replica.get(), "parts"));
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, SnapshotDiffTest,
    ::testing::Values(SnapshotDifferential::Algorithm::kSortMerge,
                      SnapshotDifferential::Algorithm::kWindow));

TEST(SnapshotDiffErrorTest, SchemaMismatchRejected) {
  TempDir dir;
  workload::PartsWorkload wl;
  auto db = OpenDb(dir, "db");
  OPDELTA_ASSERT_OK(wl.CreateTable(db.get(), "parts"));
  OPDELTA_ASSERT_OK(db->CreateTable(
      "other",
      catalog::Schema({catalog::Column{"k", catalog::ValueType::kInt64}})));
  OPDELTA_ASSERT_OK(
      engine::Snapshot::Write(db.get(), "parts", dir.Sub("a.snap")));
  OPDELTA_ASSERT_OK(
      engine::Snapshot::Write(db.get(), "other", dir.Sub("b.snap")));
  EXPECT_FALSE(
      SnapshotDifferential::Diff(dir.Sub("a.snap"), dir.Sub("b.snap")).ok());
}

// ------------------------------------------------------ TriggerExtractor

TEST_F(ExtractTest, TriggerCapturesImagesPerPaperRules) {
  Result<std::string> delta_table =
      TriggerExtractor::Install(db_.get(), "parts");
  ASSERT_TRUE(delta_table.ok()) << delta_table.status().ToString();

  sql::Executor exec(db_.get());
  OPDELTA_ASSERT_OK(
      exec.ExecuteSql(wl_.MakeInsert("parts", 0, 5).ToSql()).status());
  OPDELTA_ASSERT_OK(RunUpdate(0, 3, "upd"));
  OPDELTA_ASSERT_OK(RunDelete(4, 5));

  // 5 inserts (1 row each) + 3 updates (2 rows each) + 1 delete (1 row).
  EXPECT_EQ(CountRows(db_.get(), *delta_table), 5u + 6u + 1u);

  Result<DeltaBatch> batch = TriggerExtractor::Drain(db_.get(), "parts");
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->records.size(), 12u);
  EXPECT_EQ(CountRows(db_.get(), *delta_table), 0u);  // drained

  // Net changes must equal the source's live state for touched keys.
  NetChanges net;
  OPDELTA_ASSERT_OK(ComputeNetChanges(*batch, &net));
  EXPECT_TRUE(net.at(Value::Int64(0)).has_value());
  EXPECT_EQ((*net.at(Value::Int64(0)))[1].AsString(), "upd");
  EXPECT_FALSE(net.at(Value::Int64(4)).has_value());
}

TEST_F(ExtractTest, TriggerCaptureRollsBackWithUserTransaction) {
  Result<std::string> delta_table =
      TriggerExtractor::Install(db_.get(), "parts");
  ASSERT_TRUE(delta_table.ok());

  auto txn = db_->Begin();
  OPDELTA_ASSERT_OK(db_->Insert(
      txn.get(), "parts",
      {Value::Int64(1), Value::String("x"), Value::String("p"),
       Value::Null()}));
  OPDELTA_ASSERT_OK(db_->Abort(txn.get()));

  EXPECT_EQ(CountRows(db_.get(), "parts"), 0u);
  EXPECT_EQ(CountRows(db_.get(), *delta_table), 0u);  // capture undone too
}

TEST_F(ExtractTest, TriggerUninstallStopsCapture) {
  Result<std::string> delta_table =
      TriggerExtractor::Install(db_.get(), "parts");
  ASSERT_TRUE(delta_table.ok());
  OPDELTA_ASSERT_OK(TriggerExtractor::Uninstall(db_.get(), "parts"));
  sql::Executor exec(db_.get());
  OPDELTA_ASSERT_OK(
      exec.ExecuteSql(wl_.MakeInsert("parts", 0, 3).ToSql()).status());
  EXPECT_EQ(CountRows(db_.get(), *delta_table), 0u);
}

TEST_F(ExtractTest, DeltaTableSchemaShape) {
  catalog::Schema s =
      DeltaTableSchemaFor(workload::PartsWorkload::Schema());
  EXPECT_EQ(s.num_columns(), 3u + 4u);
  EXPECT_EQ(s.column(0).name, "delta_op");
  EXPECT_EQ(s.column(3).name, "src_id");
}

// ---------------------------------------------------------- LogExtractor

TEST_F(ExtractTest, LogExtractorSeesOnlyCommitted) {
  OPDELTA_ASSERT_OK(wl_.Populate(db_.get(), "parts", 10));
  // One aborted transaction that must not appear.
  auto txn = db_->Begin();
  OPDELTA_ASSERT_OK(db_->Insert(
      txn.get(), "parts",
      {Value::Int64(999), Value::String("ghost"), Value::String("p"),
       Value::Null()}));
  OPDELTA_ASSERT_OK(db_->Abort(txn.get()));

  engine::Table* t = db_->GetTable("parts");
  LogExtractor extractor(db_->wal()->dir());
  txn::Lsn watermark = 0;
  Result<DeltaBatch> batch = extractor.ExtractSince(
      0, t->id(), "parts", t->schema(), &watermark);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->records.size(), 10u);
  EXPECT_GT(watermark, 0u);
  for (const DeltaRecord& r : batch->records) {
    EXPECT_EQ(r.op, DeltaOp::kInsert);
    EXPECT_NE(r.image[0].AsInt64(), 999);
  }
}

TEST_F(ExtractTest, LogExtractorWatermarkIsIncremental) {
  OPDELTA_ASSERT_OK(wl_.Populate(db_.get(), "parts", 5));
  engine::Table* t = db_->GetTable("parts");
  LogExtractor extractor(db_->wal()->dir());
  txn::Lsn watermark = 0;
  Result<DeltaBatch> first =
      extractor.ExtractSince(0, t->id(), "parts", t->schema(), &watermark);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->records.size(), 5u);

  OPDELTA_ASSERT_OK(RunUpdate(0, 2, "second-round"));
  txn::Lsn watermark2 = 0;
  Result<DeltaBatch> second = extractor.ExtractSince(
      watermark, t->id(), "parts", t->schema(), &watermark2);
  ASSERT_TRUE(second.ok());
  // Two updated rows -> before+after pairs only.
  EXPECT_EQ(second->records.size(), 4u);
  EXPECT_EQ(second->records[0].op, DeltaOp::kUpdateBefore);
  EXPECT_EQ(second->records[1].op, DeltaOp::kUpdateAfter);
}

TEST_F(ExtractTest, LogExtractorShipsTransactionStraddlingAnExtraction) {
  // Transaction A writes, then B commits — B's commit syncs the log, so
  // A's uncommitted records land in the segment below the watermark the
  // next extraction sets. A commits afterwards; its rows must ship with the
  // extraction that sees the commit, exactly once.
  engine::Table* t = db_->GetTable("parts");
  std::unique_ptr<txn::Transaction> a = db_->Begin();
  OPDELTA_ASSERT_OK(db_->Insert(a.get(), "parts", wl_.MakeRow(100)));
  OPDELTA_ASSERT_OK(db_->Insert(a.get(), "parts", wl_.MakeRow(101)));
  OPDELTA_ASSERT_OK(wl_.Populate(db_.get(), "parts", 5));  // B

  LogExtractor extractor(db_->wal()->dir());
  txn::Lsn first_mark = 0;
  Result<DeltaBatch> first = extractor.ExtractSince(
      0, t->id(), "parts", t->schema(), &first_mark);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->records.size(), 5u);  // B only: A has not committed

  OPDELTA_ASSERT_OK(db_->Commit(a.get()));
  txn::Lsn second_mark = 0;
  Result<DeltaBatch> second = extractor.ExtractSince(
      first_mark, t->id(), "parts", t->schema(), &second_mark);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->records.size(), 2u);
  EXPECT_EQ(second->records[0].op, DeltaOp::kInsert);
  EXPECT_EQ(second->records[0].image[0].AsInt64(), 100);
  EXPECT_EQ(second->records[1].image[0].AsInt64(), 101);

  Result<DeltaBatch> third = extractor.ExtractSince(
      second_mark, t->id(), "parts", t->schema(), nullptr);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_TRUE(third->records.empty());
}

// Both batches carry the same records: ops, images, txn ids, in order.
void ExpectSameBatch(const DeltaBatch& x, const DeltaBatch& y) {
  ASSERT_EQ(x.records.size(), y.records.size());
  for (size_t i = 0; i < x.records.size(); ++i) {
    const DeltaRecord& a = x.records[i];
    const DeltaRecord& b = y.records[i];
    EXPECT_EQ(a.op, b.op) << "record " << i;
    EXPECT_EQ(a.source_txn, b.source_txn) << "record " << i;
    EXPECT_EQ(a.seq, b.seq) << "record " << i;
    EXPECT_EQ(catalog::CompareRows(a.image, b.image), 0) << "record " << i;
  }
}

// The batch as a two-pass read of the whole log defines it: the records
// on the table of every transaction whose commit lies above the watermark,
// in log order. Independent of LogExtractor's single-pass buffering.
DeltaBatch WholeLogBatch(engine::Database* db, txn::Lsn watermark,
                         txn::Lsn* new_watermark) {
  engine::Table* t = db->GetTable("parts");
  std::set<txn::TxnId> committed;
  *new_watermark = watermark;
  EXPECT_TRUE(txn::Wal::ReadAll(db->wal()->dir(), [&](const txn::LogRecord& r) {
                *new_watermark = std::max(*new_watermark, r.lsn);
                if (r.type == txn::LogRecordType::kCommit && r.lsn > watermark) {
                  committed.insert(r.txn_id);
                }
                return true;
              }).ok());
  DeltaBatch batch;
  auto add = [&](DeltaOp op, const txn::LogRecord& r, const std::string& enc) {
    Row row;
    EXPECT_TRUE(catalog::RowCodec::Decode(t->schema(), Slice(enc), &row).ok());
    batch.records.push_back(
        DeltaRecord{op, r.txn_id, batch.records.size(), std::move(row)});
  };
  EXPECT_TRUE(txn::Wal::ReadAll(db->wal()->dir(), [&](const txn::LogRecord& r) {
                if (r.table_id != t->id() || !committed.count(r.txn_id)) {
                  return true;
                }
                if (r.type == txn::LogRecordType::kInsert) {
                  add(DeltaOp::kInsert, r, r.after);
                } else if (r.type == txn::LogRecordType::kUpdate) {
                  add(DeltaOp::kUpdateBefore, r, r.before);
                  add(DeltaOp::kUpdateAfter, r, r.after);
                } else if (r.type == txn::LogRecordType::kDelete) {
                  add(DeltaOp::kDelete, r, r.before);
                }
                return true;
              }).ok());
  return batch;
}

// One extraction step: a kept extractor, a fresh one and the whole-log
// definition, handed the same watermark, must agree on the batch and on
// the next watermark.
DeltaBatch ExtractBoth(LogExtractor* kept, engine::Database* db,
                       txn::Lsn* watermark) {
  engine::Table* t = db->GetTable("parts");
  LogExtractor fresh(db->wal()->dir());
  txn::Lsn kept_next = 0, fresh_next = 0, whole_next = 0;
  Result<DeltaBatch> a = kept->ExtractSince(*watermark, t->id(), "parts",
                                            t->schema(), &kept_next);
  Result<DeltaBatch> b = fresh.ExtractSince(*watermark, t->id(), "parts",
                                            t->schema(), &fresh_next);
  const DeltaBatch whole = WholeLogBatch(db, *watermark, &whole_next);
  EXPECT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(b.ok()) << b.status().ToString();
  if (!a.ok() || !b.ok()) return DeltaBatch();
  ExpectSameBatch(*a, *b);
  ExpectSameBatch(*a, whole);
  EXPECT_EQ(kept_next, fresh_next);
  EXPECT_EQ(kept_next, whole_next);
  *watermark = kept_next;
  return std::move(*a);
}

engine::Predicate KeyIs(int64_t id) {
  return engine::Predicate::Where("id", CompareOp::kEq, Value::Int64(id));
}

TEST(LogExtractorCursorTest, KeptExtractorMatchesFreshOnSeededInterleavings) {
  // Source transactions interleave with extractions: some commit, some
  // abort, many straddle one or more extractions, and one never ends.
  // Small segments make the kept extractor's resume point cross segment
  // rolls. Every committed row must ship exactly once, in one batch.
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TempDir dir;
    engine::DatabaseOptions options;
    options.wal.segment_size = 4096;
    auto db = OpenDb(dir, "src", options);
    workload::PartsWorkload wl;
    OPDELTA_ASSERT_OK(wl.CreateTable(db.get(), "parts"));
    OPDELTA_ASSERT_OK(wl.CreateTable(db.get(), "other"));
    OPDELTA_ASSERT_OK(wl.Populate(db.get(), "parts", 20));
    Rng rng(seed);

    // A transaction only touches rows it owns: rows it inserted, or
    // committed rows it claimed from `pool`. Nothing ever waits on a lock.
    struct Live {
      std::unique_ptr<txn::Transaction> txn;
      std::vector<int64_t> claimed, inserted, deleted;
      size_t records = 0;     // delta records it will ship on commit
      int extractions = 0;    // extractions it stayed open across
    };
    std::vector<int64_t> pool;
    for (int64_t id = 0; id < 20; ++id) pool.push_back(id);
    int64_t next_id = 1000;
    std::map<txn::TxnId, size_t> committed;  // txn -> expected records
    std::set<txn::TxnId> never_shipped;      // aborted or never ending
    int straddled = 0, straddled_twice = 0;

    std::vector<Live> live;
    auto begin_txn = [&]() {
      live.push_back(Live{db->Begin(), {}, {}, {}, 0, 0});
    };
    // Begun mid-run, so the resume point first moves freely across segment
    // rolls and is then pinned: it writes once, then never ends.
    std::unique_ptr<txn::Transaction> forever;

    LogExtractor kept(db->wal()->dir());
    txn::Lsn watermark = 0;
    std::map<txn::TxnId, size_t> shipped;
    std::map<txn::TxnId, int> batches;
    auto extract = [&]() {
      const DeltaBatch batch = ExtractBoth(&kept, db.get(), &watermark);
      std::set<txn::TxnId> in_batch;
      for (const DeltaRecord& r : batch.records) {
        shipped[r.source_txn]++;
        in_batch.insert(r.source_txn);
      }
      for (txn::TxnId id : in_batch) batches[id]++;
      for (Live& l : live) l.extractions++;
    };
    auto end_txn = [&](size_t i, bool commit) {
      Live l = std::move(live[i]);
      live.erase(live.begin() + static_cast<long>(i));
      if (commit) {
        OPDELTA_ASSERT_OK(db->Commit(l.txn.get()));
        committed[l.txn->id()] = l.records;
        if (l.records > 0 && l.extractions >= 1) ++straddled;
        if (l.records > 0 && l.extractions >= 2) ++straddled_twice;
        for (int64_t id : l.claimed) pool.push_back(id);
        for (int64_t id : l.inserted) pool.push_back(id);
        for (int64_t id : l.deleted) {
          pool.erase(std::find(pool.begin(), pool.end(), id));
        }
      } else {
        OPDELTA_ASSERT_OK(db->Abort(l.txn.get()));
        never_shipped.insert(l.txn->id());
        for (int64_t id : l.claimed) pool.push_back(id);
      }
    };
    auto write_row = [&](Live& l) {
      const uint64_t kind = rng.Uniform(3);
      std::vector<int64_t> owned = l.inserted;
      owned.insert(owned.end(), l.claimed.begin(), l.claimed.end());
      for (int64_t id : l.deleted) {
        owned.erase(std::find(owned.begin(), owned.end(), id));
      }
      if (kind == 0 || (owned.empty() && pool.empty())) {
        const int64_t id = next_id++;
        OPDELTA_ASSERT_OK(db->Insert(l.txn.get(), "parts", wl.MakeRow(id)));
        l.inserted.push_back(id);
        l.records += 1;
        return;
      }
      int64_t id = 0;
      if (!pool.empty() && (owned.empty() || rng.OneIn(2))) {
        const size_t at = rng.Uniform(pool.size());
        id = pool[at];
        pool.erase(pool.begin() + static_cast<long>(at));
        l.claimed.push_back(id);
      } else {
        id = owned[rng.Uniform(owned.size())];
      }
      if (kind == 1) {
        Result<size_t> n = db->UpdateWhere(
            l.txn.get(), "parts", KeyIs(id),
            {engine::Assignment{"status", Value::String(rng.NextString(6))}});
        ASSERT_TRUE(n.ok()) << n.status().ToString();
        ASSERT_EQ(*n, 1u);
        l.records += 2;
      } else {
        Result<size_t> n = db->DeleteWhere(l.txn.get(), "parts", KeyIs(id));
        ASSERT_TRUE(n.ok()) << n.status().ToString();
        ASSERT_EQ(*n, 1u);
        l.deleted.push_back(id);
        l.records += 1;
      }
    };

    for (int step = 0; step < 400; ++step) {
      if (step == 250) {
        forever = db->Begin();
        OPDELTA_ASSERT_OK(db->Insert(forever.get(), "parts", wl.MakeRow(-1)));
        never_shipped.insert(forever->id());
      }
      const uint64_t action = rng.Uniform(100);
      if (action < 12) {
        extract();
      } else if (action < 27 && live.size() < 4) {
        begin_txn();
      } else if (action < 62 && !live.empty()) {
        write_row(live[rng.Uniform(live.size())]);
      } else if (action < 70) {
        // Committed work on another table: log records the extractor
        // must step over.
        OPDELTA_ASSERT_OK(db->WithTransaction([&](txn::Transaction* t) {
          return db->Insert(t, "other", wl.MakeRow(next_id++));
        }));
      } else if (action < 90 && !live.empty()) {
        end_txn(rng.Uniform(live.size()), /*commit=*/true);
      } else if (!live.empty()) {
        end_txn(rng.Uniform(live.size()), /*commit=*/false);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    while (!live.empty()) end_txn(0, /*commit=*/true);
    extract();
    extract();

    std::vector<std::string> segments;
    OPDELTA_ASSERT_OK(db->wal()->ListSegments(&segments));
    EXPECT_GT(segments.size(), 4u);
    EXPECT_GT(straddled, 0);
    EXPECT_GT(straddled_twice, 0);
    EXPECT_FALSE(never_shipped.empty());
    for (const auto& [id, records] : committed) {
      EXPECT_EQ(shipped[id], records) << "txn " << id;
      if (records > 0) {
        EXPECT_EQ(batches[id], 1) << "txn " << id;
      }
    }
    for (txn::TxnId id : never_shipped) EXPECT_EQ(shipped[id], 0u);
    OPDELTA_ASSERT_OK(db->Abort(forever.get()));
  }
}

TEST_F(ExtractTest, LogExtractorRewoundWatermarkReadsFromTheStart) {
  // The restart path: a watermark the instance did not just return (here
  // an older one) must not resume from the remembered position.
  engine::Table* t = db_->GetTable("parts");
  LogExtractor kept(db_->wal()->dir());
  OPDELTA_ASSERT_OK(wl_.Populate(db_.get(), "parts", 5));
  txn::Lsn first_mark = 0;
  ASSERT_TRUE(kept.ExtractSince(0, t->id(), "parts", t->schema(),
                                &first_mark).ok());
  OPDELTA_ASSERT_OK(RunUpdate(0, 3, "second"));
  txn::Lsn second_mark = first_mark;
  const DeltaBatch second = ExtractBoth(&kept, db_.get(), &second_mark);
  EXPECT_EQ(second.records.size(), 6u);

  txn::Lsn rewound = first_mark;
  const DeltaBatch again = ExtractBoth(&kept, db_.get(), &rewound);
  ExpectSameBatch(again, second);
  EXPECT_EQ(rewound, second_mark);

  txn::Lsn from_zero = 0;
  const DeltaBatch everything = ExtractBoth(&kept, db_.get(), &from_zero);
  EXPECT_EQ(everything.records.size(), 5u + 6u);
}

TEST(LogExtractorCursorTest, RecyclingCheckpointBehavesAsOnAFreshExtractor) {
  // archive_mode=false: Checkpoint deletes closed segments, possibly the
  // one the kept extractor would resume in. The kept extractor must then
  // return what a fresh one reads from the remaining log.
  TempDir dir;
  engine::DatabaseOptions options;
  options.wal.archive_mode = false;
  options.wal.segment_size = 4096;
  auto db = OpenDb(dir, "rec", options);
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(db.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.Populate(db.get(), "parts", 50));
  LogExtractor kept(db->wal()->dir());
  txn::Lsn watermark = 0;
  ExtractBoth(&kept, db.get(), &watermark);

  // Pin the resume point in the current segment with an open transaction,
  // then roll past it and recycle.
  std::unique_ptr<txn::Transaction> open = db->Begin();
  OPDELTA_ASSERT_OK(db->Insert(open.get(), "parts", wl.MakeRow(500)));
  ExtractBoth(&kept, db.get(), &watermark);
  sql::Executor exec(db.get());
  OPDELTA_ASSERT_OK(
      exec.ExecuteSql(wl.MakeUpdate("parts", 0, 40, "rolled").ToSql())
          .status());
  OPDELTA_ASSERT_OK(db->wal()->Checkpoint());
  OPDELTA_ASSERT_OK(db->Insert(open.get(), "parts", wl.MakeRow(501)));
  OPDELTA_ASSERT_OK(db->Commit(open.get()));
  OPDELTA_ASSERT_OK(
      exec.ExecuteSql(wl.MakeUpdate("parts", 0, 5, "late").ToSql()).status());

  // Row 500's insert was recycled with its segment, so only 501 ships
  // (with whatever of the updates the remaining segment holds).
  const DeltaBatch batch = ExtractBoth(&kept, db.get(), &watermark);
  std::set<int64_t> inserted;
  for (const DeltaRecord& r : batch.records) {
    if (r.op == DeltaOp::kInsert) inserted.insert(r.image[0].AsInt64());
  }
  EXPECT_EQ(inserted, std::set<int64_t>{501});
  EXPECT_TRUE(ExtractBoth(&kept, db.get(), &watermark).records.empty());
}

TEST_F(ExtractTest, LogExtractorAbortReleasesTheResumePin) {
  // An open transaction pins the resume point at its first record on the
  // table, so each call re-reads from there; its abort must release the
  // pin. A byte flipped inside that record shows which calls re-read it.
  engine::Table* t = db_->GetTable("parts");
  OPDELTA_ASSERT_OK(wl_.Populate(db_.get(), "parts", 5));
  std::unique_ptr<txn::Transaction> a = db_->Begin();
  OPDELTA_ASSERT_OK(db_->Insert(a.get(), "parts", wl_.MakeRow(100)));
  OPDELTA_ASSERT_OK(RunUpdate(0, 2, "b"));  // B commits after A's insert

  txn::WalPosition pinned;
  OPDELTA_ASSERT_OK(txn::Wal::ReadFrom(
      db_->wal()->dir(), txn::WalPosition{},
      [&](const txn::LogRecord& r, const txn::WalPosition& at) {
        if (r.txn_id != a->id() || r.table_id != t->id()) return true;
        pinned = at;
        return false;
      },
      nullptr));
  ASSERT_NE(pinned.segment, 0u);
  const std::string seg =
      db_->wal()->dir() + "/" + txn::WalSegmentName(pinned.segment);
  auto flip = [&]() {
    std::unique_ptr<RandomRWFile> file;
    OPDELTA_ASSERT_OK(Env::Default()->NewRandomRWFile(seg, &file));
    char byte = 0;
    Slice got;
    OPDELTA_ASSERT_OK(file->Read(pinned.offset + 8, 1, &got, &byte));
    ASSERT_EQ(got.size(), 1u);
    byte = static_cast<char>(byte ^ 0x5a);
    OPDELTA_ASSERT_OK(file->Write(pinned.offset + 8, Slice(&byte, 1)));
    OPDELTA_ASSERT_OK(file->Close());
  };

  LogExtractor kept(db_->wal()->dir());
  txn::Lsn watermark = 0;
  Result<DeltaBatch> first =
      kept.ExtractSince(watermark, t->id(), "parts", t->schema(), &watermark);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->records.size(), 5u + 4u);  // A has not committed

  // While A is open, the kept extractor re-reads A's record.
  flip();
  Result<DeltaBatch> pinned_read =
      kept.ExtractSince(watermark, t->id(), "parts", t->schema(), nullptr);
  EXPECT_TRUE(pinned_read.status().IsCorruption())
      << pinned_read.status().ToString();
  flip();

  OPDELTA_ASSERT_OK(db_->Abort(a.get()));
  txn::Lsn after_abort = watermark;
  EXPECT_TRUE(ExtractBoth(&kept, db_.get(), &after_abort).records.empty());

  // Released: the kept extractor resumes past A, a fresh one still reads it.
  flip();
  Result<DeltaBatch> released =
      kept.ExtractSince(after_abort, t->id(), "parts", t->schema(), nullptr);
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_TRUE(released->records.empty());
  LogExtractor fresh(db_->wal()->dir());
  EXPECT_TRUE(fresh.ExtractSince(after_abort, t->id(), "parts", t->schema(),
                                 nullptr)
                  .status()
                  .IsCorruption());
}

TEST_F(ExtractTest, ReopenReleasesTheResumePinOfATransactionLeftOpen) {
  // A crash leaves a transaction open for good: no commit or abort record
  // ever follows its records. The next open logs its abort, so even an
  // extractor created after the reopen stops re-reading it. A byte flipped
  // inside its record shows which calls re-read it.
  OPDELTA_ASSERT_OK(wl_.Populate(db_.get(), "parts", 5));
  std::unique_ptr<txn::Transaction> a = db_->Begin();
  OPDELTA_ASSERT_OK(db_->Insert(a.get(), "parts", wl_.MakeRow(100)));
  OPDELTA_ASSERT_OK(RunUpdate(0, 2, "b"));  // B commits after A's insert
  const txn::TxnId loser = a->id();
  OPDELTA_ASSERT_OK(db_->Close());  // with A open, as a crash leaves it
  db_ = OpenDb(dir_, "src");
  ASSERT_NE(db_, nullptr);
  engine::Table* t = db_->GetTable("parts");

  txn::WalPosition pinned;
  OPDELTA_ASSERT_OK(txn::Wal::ReadFrom(
      db_->wal()->dir(), txn::WalPosition{},
      [&](const txn::LogRecord& r, const txn::WalPosition& at) {
        if (r.txn_id != loser || r.table_id != t->id()) return true;
        pinned = at;
        return false;
      },
      nullptr));
  ASSERT_NE(pinned.segment, 0u);
  const std::string seg =
      db_->wal()->dir() + "/" + txn::WalSegmentName(pinned.segment);
  std::unique_ptr<RandomRWFile> file;
  OPDELTA_ASSERT_OK(Env::Default()->NewRandomRWFile(seg, &file));
  char byte = 0;
  Slice got;
  OPDELTA_ASSERT_OK(file->Read(pinned.offset + 8, 1, &got, &byte));
  ASSERT_EQ(got.size(), 1u);

  LogExtractor kept(db_->wal()->dir());
  txn::Lsn watermark = 0;
  Result<DeltaBatch> first =
      kept.ExtractSince(watermark, t->id(), "parts", t->schema(), &watermark);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->records.size(), 5u + 4u);  // A never committed

  byte = static_cast<char>(byte ^ 0x5a);
  OPDELTA_ASSERT_OK(file->Write(pinned.offset + 8, Slice(&byte, 1)));
  OPDELTA_ASSERT_OK(file->Close());
  Result<DeltaBatch> second =
      kept.ExtractSince(watermark, t->id(), "parts", t->schema(), nullptr);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->records.empty());
  LogExtractor fresh(db_->wal()->dir());
  EXPECT_TRUE(
      fresh.ExtractSince(watermark, t->id(), "parts", t->schema(), nullptr)
          .status()
          .IsCorruption());
}

TEST_F(ExtractTest, ReplayIntoRebuildsExactReplica) {
  // "These logs contain deltas and can be shipped to another similar
  // database and applied using tools based on the DBMS recovery managers."
  OPDELTA_ASSERT_OK(wl_.Populate(db_.get(), "parts", 100));
  OPDELTA_ASSERT_OK(RunUpdate(10, 40, "u1"));
  OPDELTA_ASSERT_OK(RunDelete(50, 70));
  OPDELTA_ASSERT_OK(RunUpdate(0, 5, "u2"));

  auto dest = OpenDb(dir_, "standby");
  OPDELTA_ASSERT_OK(wl_.CreateTable(dest.get(), "parts"));
  txn::RecoveryStats stats;
  OPDELTA_ASSERT_OK(LogExtractor::ReplayInto(
      db_->wal()->dir(), dest.get(),
      {{db_->GetTable("parts")->id(), "parts"}}, &stats));
  EXPECT_TRUE(TablesEqual(db_.get(), "parts", dest.get(), "parts"));
  EXPECT_GT(stats.redo_applied, 100u);
}

TEST_F(ExtractTest, ReplayIntoRequiresEmptyDestination) {
  OPDELTA_ASSERT_OK(wl_.Populate(db_.get(), "parts", 5));
  auto dest = OpenDb(dir_, "standby");
  OPDELTA_ASSERT_OK(wl_.CreateTable(dest.get(), "parts"));
  OPDELTA_ASSERT_OK(wl_.Populate(dest.get(), "parts", 1));
  Status st = LogExtractor::ReplayInto(
      db_->wal()->dir(), dest.get(),
      {{db_->GetTable("parts")->id(), "parts"}});
  EXPECT_FALSE(st.ok());
}

TEST(LogArchiveModeTest, RecyclingCheckpointLosesHistoryArchiveKeepsIt) {
  // The reason the paper's method 4 needs "archiving turned on": with a
  // recycling redo log, deltas before the last checkpoint are gone.
  for (bool archive : {true, false}) {
    TempDir dir;
    workload::PartsWorkload wl;
    engine::DatabaseOptions options;
    options.wal.archive_mode = archive;
    options.wal.segment_size = 4096;  // small segments so recycling bites
    auto db = OpenDb(dir, archive ? "arch" : "rec", options);
    OPDELTA_ASSERT_OK(wl.CreateTable(db.get(), "parts"));
    OPDELTA_ASSERT_OK(wl.Populate(db.get(), "parts", 200));

    // The DBA's periodic checkpoint runs between batches of changes.
    OPDELTA_ASSERT_OK(db->wal()->Checkpoint());

    sql::Executor exec(db.get());
    OPDELTA_ASSERT_OK(
        exec.ExecuteSql(wl.MakeUpdate("parts", 0, 10, "late").ToSql())
            .status());

    engine::Table* t = db->GetTable("parts");
    LogExtractor extractor(db->wal()->dir());
    txn::Lsn wm = 0;
    Result<DeltaBatch> batch =
        extractor.ExtractSince(0, t->id(), "parts", t->schema(), &wm);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();

    size_t inserts = 0;
    for (const DeltaRecord& r : batch->records) {
      if (r.op == DeltaOp::kInsert) ++inserts;
    }
    if (archive) {
      EXPECT_EQ(inserts, 200u);  // full history retained
    } else {
      EXPECT_LT(inserts, 200u);  // pre-checkpoint deltas recycled away
    }
  }
}

TEST_F(ExtractTest, LogExtractionRequiresExactSchema) {
  // Physiological logging: decoding with the wrong schema fails rather
  // than silently producing wrong rows.
  OPDELTA_ASSERT_OK(wl_.Populate(db_.get(), "parts", 5));
  catalog::Schema wrong({catalog::Column{"a", catalog::ValueType::kString},
                         catalog::Column{"b", catalog::ValueType::kString}});
  engine::Table* t = db_->GetTable("parts");
  LogExtractor extractor(db_->wal()->dir());
  txn::Lsn wm = 0;
  Result<DeltaBatch> batch =
      extractor.ExtractSince(0, t->id(), "parts", wrong, &wm);
  EXPECT_FALSE(batch.ok());
}

// ------------------------------------------------------------ Reconciler

TEST(ReconcilerTest, CollapsesReplicatedDeltas) {
  DeltaBatch a, b;
  a.table = b.table = "parts";
  a.schema = b.schema = workload::PartsWorkload::Schema();
  auto row = [](int64_t id, const char* s) -> Row {
    return {Value::Int64(id), Value::String(s), Value::Null(), Value::Null()};
  };
  // Both replicas saw the same two changes (replicated capture).
  a.records = {DeltaRecord{DeltaOp::kInsert, 1, 0, row(1, "x")},
               DeltaRecord{DeltaOp::kDelete, 2, 1, row(2, "y")}};
  b.records = a.records;

  Reconciler::Stats stats;
  Result<DeltaBatch> merged = Reconciler::Reconcile({&a, &b}, &stats);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->records.size(), 2u);
  EXPECT_EQ(stats.duplicates_dropped, 2u);
  EXPECT_EQ(stats.conflicts, 0u);
}

TEST(ReconcilerTest, SitePriorityWinsConflicts) {
  DeltaBatch a, b;
  a.schema = b.schema = workload::PartsWorkload::Schema();
  a.table = b.table = "parts";
  auto row = [](int64_t id, const char* s) -> Row {
    return {Value::Int64(id), Value::String(s), Value::Null(), Value::Null()};
  };
  a.records = {DeltaRecord{DeltaOp::kInsert, 1, 0, row(1, "primary")}};
  b.records = {DeltaRecord{DeltaOp::kInsert, 1, 0, row(1, "replica")}};

  Reconciler::Stats stats;
  Result<DeltaBatch> merged = Reconciler::Reconcile({&a, &b}, &stats);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->records.size(), 1u);
  EXPECT_EQ(merged->records[0].image[1].AsString(), "primary");
  EXPECT_EQ(stats.conflicts, 1u);
}

TEST(ReconcilerTest, RejectsMismatchedSchemas) {
  DeltaBatch a, b;
  a.schema = workload::PartsWorkload::Schema();
  b.schema =
      catalog::Schema({catalog::Column{"x", catalog::ValueType::kInt64}});
  EXPECT_FALSE(Reconciler::Reconcile({&a, &b}, nullptr).ok());
  EXPECT_FALSE(Reconciler::Reconcile({}, nullptr).ok());
}

// --------------------------------------- Cross-method agreement property

TEST_F(ExtractTest, TriggerAndLogMethodsAgreeOnNetChanges) {
  Result<std::string> delta_table =
      TriggerExtractor::Install(db_.get(), "parts");
  ASSERT_TRUE(delta_table.ok());
  const catalog::TableId parts_id = db_->GetTable("parts")->id();

  // Random workload.
  Rng rng(7);
  sql::Executor exec(db_.get());
  OPDELTA_ASSERT_OK(
      exec.ExecuteSql(wl_.MakeInsert("parts", 0, 50).ToSql()).status());
  for (int i = 0; i < 15; ++i) {
    int64_t lo = rng.Uniform(50);
    int64_t hi = lo + 1 + rng.Uniform(10);
    switch (rng.Uniform(3)) {
      case 0:
        OPDELTA_ASSERT_OK(RunUpdate(lo, hi, "s" + std::to_string(i)));
        break;
      case 1:
        OPDELTA_ASSERT_OK(RunDelete(lo, hi));
        break;
      default:
        OPDELTA_ASSERT_OK(
            exec.ExecuteSql(wl_.MakeInsert("parts", 100 + i * 20, 3).ToSql())
                .status());
        break;
    }
  }

  Result<DeltaBatch> trigger_batch =
      TriggerExtractor::Drain(db_.get(), "parts");
  ASSERT_TRUE(trigger_batch.ok());

  LogExtractor log_extractor(db_->wal()->dir());
  txn::Lsn wm = 0;
  Result<DeltaBatch> log_batch = log_extractor.ExtractSince(
      0, parts_id, "parts", workload::PartsWorkload::Schema(), &wm);
  ASSERT_TRUE(log_batch.ok());

  NetChanges trigger_net, log_net;
  OPDELTA_ASSERT_OK(ComputeNetChanges(*trigger_batch, &trigger_net));
  OPDELTA_ASSERT_OK(ComputeNetChanges(*log_batch, &log_net));
  ASSERT_EQ(trigger_net.size(), log_net.size());
  for (const auto& [key, state] : trigger_net) {
    auto it = log_net.find(key);
    ASSERT_NE(it, log_net.end());
    ASSERT_EQ(state.has_value(), it->second.has_value());
    if (state.has_value()) {
      EXPECT_EQ(catalog::CompareRows(*state, *it->second), 0);
    }
  }
}

}  // namespace
}  // namespace opdelta::extract
