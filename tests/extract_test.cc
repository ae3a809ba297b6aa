#include <gtest/gtest.h>

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

TEST_F(ExtractTest, TimestampIndexVariantAgreesWithScan) {
  OPDELTA_ASSERT_OK(wl_.Populate(db_.get(), "parts", 300));
  OPDELTA_ASSERT_OK(db_->CreateIndex("parts", "last_modified"));
  const Micros watermark = db_->clock()->NowMicros();
  OPDELTA_ASSERT_OK(RunUpdate(100, 130, "idx"));

  TimestampExtractor scan_extractor(db_.get(), "parts", "last_modified");
  TimestampExtractor::Options opts;
  opts.use_index = true;
  TimestampExtractor index_extractor(db_.get(), "parts", "last_modified",
                                     opts);
  Result<DeltaBatch> a = scan_extractor.ExtractSince(watermark);
  Result<DeltaBatch> b = index_extractor.ExtractSince(watermark);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->records.size(), 30u);
  EXPECT_EQ(b->records.size(), 30u);
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
