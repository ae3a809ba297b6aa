#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "extract/op_delta.h"
#include "extract/trigger_extractor.h"
#include "warehouse/apply_ledger.h"
#include "sql/executor.h"
#include "warehouse/integrator.h"
#include "warehouse/view.h"
#include "workload/workload.h"
#include "tests/test_util.h"

namespace opdelta::warehouse {
namespace {

using catalog::Row;
using catalog::Value;
using engine::CompareOp;
using engine::Predicate;
using extract::DeltaBatch;
using extract::DeltaOp;
using extract::DeltaRecord;
using extract::OpDeltaTxn;
using opdelta::testing::CountRows;
using opdelta::testing::OpenDb;
using opdelta::testing::TableContents;
using opdelta::testing::TablesEqual;
using opdelta::testing::TempDir;

class WarehouseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine::DatabaseOptions options;
    options.auto_timestamp = false;  // warehouses preserve source values
    wh_ = OpenDb(dir_, "wh", options);
    OPDELTA_ASSERT_OK(wl_.CreateTable(wh_.get(), "parts"));
  }

  Row PartsRow(int64_t id, const std::string& status) {
    return {Value::Int64(id), Value::String(status), Value::String("p"),
            Value::Timestamp(id * 10)};
  }

  Status Preload(int64_t n) {
    return wh_->WithTransaction([&](txn::Transaction* txn) -> Status {
      for (int64_t i = 0; i < n; ++i) {
        OPDELTA_RETURN_IF_ERROR(
            wh_->InsertRaw(txn, "parts", PartsRow(i, "base")));
      }
      return Status::OK();
    });
  }

  TempDir dir_;
  workload::PartsWorkload wl_;
  std::unique_ptr<engine::Database> wh_;
};

// ---------------------------------------------------- ValueDeltaIntegrator

TEST_F(WarehouseTest, ValueDeltaAppliesInsertDeleteUpdate) {
  OPDELTA_ASSERT_OK(Preload(10));
  DeltaBatch batch;
  batch.table = "parts";
  batch.schema = workload::PartsWorkload::Schema();
  batch.records = {
      DeltaRecord{DeltaOp::kInsert, 1, 0, PartsRow(100, "new")},
      DeltaRecord{DeltaOp::kDelete, 2, 1, PartsRow(3, "base")},
      DeltaRecord{DeltaOp::kUpdateBefore, 3, 2, PartsRow(5, "base")},
      DeltaRecord{DeltaOp::kUpdateAfter, 3, 3, PartsRow(5, "mut")},
      DeltaRecord{DeltaOp::kUpsert, 4, 4, PartsRow(7, "upserted")},
  };

  ValueDeltaIntegrator integrator(wh_.get(), "parts");
  IntegrationStats stats;
  OPDELTA_ASSERT_OK(integrator.Apply(batch, &stats));

  auto contents = TableContents(wh_.get(), "parts");
  EXPECT_EQ(contents.size(), 10u);  // +1 insert, -1 delete
  EXPECT_EQ(contents.at(Value::Int64(100))[1].AsString(), "new");
  EXPECT_EQ(contents.count(Value::Int64(3)), 0u);
  EXPECT_EQ(contents.at(Value::Int64(5))[1].AsString(), "mut");
  EXPECT_EQ(contents.at(Value::Int64(7))[1].AsString(), "upserted");

  // One transaction; one statement per record (update pair = 2, upsert = 2).
  EXPECT_EQ(stats.transactions, 1u);
  EXPECT_EQ(stats.statements_executed, 6u);
  EXPECT_GT(stats.outage_micros, 0);
}

TEST_F(WarehouseTest, ValueDeltaUpsertInsertsWhenAbsent) {
  DeltaBatch batch;
  batch.table = "parts";
  batch.schema = workload::PartsWorkload::Schema();
  batch.records = {DeltaRecord{DeltaOp::kUpsert, 1, 0, PartsRow(1, "fresh")}};
  ValueDeltaIntegrator integrator(wh_.get(), "parts");
  OPDELTA_ASSERT_OK(integrator.Apply(batch, nullptr));
  EXPECT_EQ(CountRows(wh_.get(), "parts"), 1u);
}

// ------------------------------------------------------ OpDeltaIntegrator

TEST_F(WarehouseTest, OpDeltaAppliesPerSourceTransaction) {
  OPDELTA_ASSERT_OK(Preload(20));
  OpDeltaTxn t1{101, {}};
  t1.ops.push_back(extract::OpDeltaRecord{
      101, 1, "UPDATE parts SET status = 'x' WHERE id < 5", false, {}});
  OpDeltaTxn t2{102, {}};
  t2.ops.push_back(
      extract::OpDeltaRecord{102, 2, "DELETE FROM parts WHERE id >= 18", false, {}});

  OpDeltaIntegrator integrator(wh_.get());
  IntegrationStats stats;
  OPDELTA_ASSERT_OK(integrator.Apply({t1, t2}, &stats));
  EXPECT_EQ(stats.transactions, 2u);
  EXPECT_EQ(stats.statements_executed, 2u);
  EXPECT_EQ(stats.rows_affected, 7u);
  EXPECT_EQ(stats.outage_micros, 0);  // never takes a table-X lock

  auto contents = TableContents(wh_.get(), "parts");
  EXPECT_EQ(contents.size(), 18u);
  EXPECT_EQ(contents.at(Value::Int64(0))[1].AsString(), "x");
}

TEST_F(WarehouseTest, OpDeltaBadStatementAbortsItsTransactionOnly) {
  OPDELTA_ASSERT_OK(Preload(5));
  OpDeltaTxn good{1, {extract::OpDeltaRecord{
                         1, 1, "UPDATE parts SET status = 'ok'", false, {}}}};
  OpDeltaTxn bad{2, {extract::OpDeltaRecord{2, 2, "NOT SQL AT ALL", false, {}}}};

  OpDeltaIntegrator integrator(wh_.get());
  OPDELTA_ASSERT_OK(integrator.Apply({good}, nullptr));
  EXPECT_FALSE(integrator.Apply({bad}, nullptr).ok());
  // The first transaction's effect survives.
  EXPECT_EQ(TableContents(wh_.get(), "parts").at(Value::Int64(0))[1]
                .AsString(),
            "ok");
}

// ------------------------------------------------- Online maintenance story

TEST_F(WarehouseTest, ValueDeltaBlocksOlapQueriesOpDeltaDoesNot) {
  OPDELTA_ASSERT_OK(Preload(2000));

  // A long value-delta batch holding the table-X lock.
  DeltaBatch batch;
  batch.table = "parts";
  batch.schema = workload::PartsWorkload::Schema();
  for (int i = 0; i < 400; ++i) {
    batch.records.push_back(
        DeltaRecord{DeltaOp::kUpdateBefore, 1, static_cast<uint64_t>(2 * i),
                    PartsRow(i, "base")});
    batch.records.push_back(
        DeltaRecord{DeltaOp::kUpdateAfter, 1,
                    static_cast<uint64_t>(2 * i + 1), PartsRow(i, "vd")});
  }

  std::atomic<bool> integration_started{false};
  std::atomic<Micros> query_latency{0};
  std::thread integrator_thread([&]() {
    ValueDeltaIntegrator integrator(wh_.get(), "parts");
    integration_started = true;
    IntegrationStats stats;
    Status st = integrator.Apply(batch, &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  while (!integration_started) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // OLAP query issued while the batch runs: it must wait out the outage.
  Result<workload::OlapQueryResult> blocked =
      workload::RunOlapQuery(wh_.get(), "parts");
  integrator_thread.join();
  ASSERT_TRUE(blocked.ok()) << blocked.status().ToString();

  // Compare with the same query against Op-Delta integration.
  OpDeltaTxn op_txn{9, {extract::OpDeltaRecord{
                           9, 1,
                           "UPDATE parts SET status = 'od' WHERE id < 400", false, {}}}};
  std::thread op_thread([&]() {
    OpDeltaIntegrator integrator(wh_.get());
    IntegrationStats stats;
    Status st = integrator.Apply({op_txn}, &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  Result<workload::OlapQueryResult> concurrent =
      workload::RunOlapQuery(wh_.get(), "parts");
  op_thread.join();
  ASSERT_TRUE(concurrent.ok());

  // Both queries eventually answered; the blocked one saw the post-batch
  // state (it could not read during the outage).
  EXPECT_EQ(blocked->rows_scanned, 2000u);
  EXPECT_EQ(concurrent->rows_scanned, 2000u);
}

TEST_F(WarehouseTest, OlapQueriesNeverSeeTornOpDeltaTransactions) {
  // §4.1: Op-Delta "can interleave with OLAP queries without impacting the
  // integrity of the query result". Each applied source transaction
  // rewrites EVERY row's status to one generation tag; a table-S OLAP
  // query must always observe exactly one generation — never a mix.
  OPDELTA_ASSERT_OK(Preload(800));
  OPDELTA_ASSERT_OK(wh_->CreateIndex("parts", "id"));

  std::vector<OpDeltaTxn> txns;
  for (int gen = 0; gen < 25; ++gen) {
    txns.push_back(OpDeltaTxn{
        static_cast<txn::TxnId>(gen + 1),
        {extract::OpDeltaRecord{
            static_cast<txn::TxnId>(gen + 1), 1,
            "UPDATE parts SET status = 'gen" + std::to_string(gen) + "'",
            false,
            {}}}});
  }

  std::atomic<bool> done{false};
  std::atomic<int> torn_reads{0};
  std::atomic<int> queries{0};
  std::thread olap([&]() {
    while (!done.load()) {
      auto txn = wh_->Begin();
      if (!wh_->LockTableShared(txn.get(), "parts").ok()) {
        (void)wh_->Abort(txn.get());
        continue;
      }
      std::set<std::string> generations;
      Status st = wh_->Scan(txn.get(), "parts", Predicate::True(),
                            [&](const storage::Rid&, const Row& row) {
                              generations.insert(row[1].AsString());
                              return true;
                            });
      (void)wh_->Commit(txn.get());
      if (st.ok()) {
        ++queries;
        if (generations.size() > 1) ++torn_reads;
      }
    }
  });

  warehouse::OpDeltaIntegrator integrator(wh_.get());
  OPDELTA_ASSERT_OK(integrator.Apply(txns, nullptr));
  done = true;
  olap.join();

  EXPECT_GT(queries.load(), 0);
  EXPECT_EQ(torn_reads.load(), 0)
      << "a query observed rows from two different source transactions";
  auto contents = TableContents(wh_.get(), "parts");
  EXPECT_EQ(contents.at(Value::Int64(0))[1].AsString(), "gen24");
}

// ------------------------------------------------------------------ Views

class ViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine::DatabaseOptions options;
    options.auto_timestamp = false;
    src_ = OpenDb(dir_, "src", options);
    wh_ = OpenDb(dir_, "wh", options);
    OPDELTA_ASSERT_OK(wl_.CreateTable(src_.get(), "parts"));

    def_.view_table = "active_parts";
    def_.source_table = "parts";
    def_.projection = {{"id", "part_id"}, {"status", "part_status"}};
    def_.selection =
        Predicate::Where("status", CompareOp::kNe, Value::String("retired"));

    Result<std::unique_ptr<ViewMaintainer>> vm = ViewMaintainer::CreateViewTable(
        wh_.get(), def_, workload::PartsWorkload::Schema());
    ASSERT_TRUE(vm.ok()) << vm.status().ToString();
    maintainer_ = std::move(*vm);

    exec_ = std::make_unique<sql::Executor>(src_.get());
    Result<std::unique_ptr<extract::OpDeltaFileSink>> sink =
        extract::OpDeltaFileSink::Create(dir_.Sub("ops.log"));
    ASSERT_TRUE(sink.ok());
    extract::OpDeltaCapture::Options copt;
    copt.hybrid_before_images = true;
    capture_ = std::make_unique<extract::OpDeltaCapture>(
        exec_.get(), std::shared_ptr<extract::OpDeltaSink>(std::move(*sink)),
        copt);
  }

  /// Runs stmts as one captured source txn and applies it to the view.
  Status RunAndMaintain(const std::vector<sql::Statement>& stmts) {
    OPDELTA_RETURN_IF_ERROR(capture_->RunTransaction(stmts).status());
    std::vector<OpDeltaTxn> txns;
    OPDELTA_RETURN_IF_ERROR(extract::OpDeltaLogReader::ReadFile(
        dir_.Sub("ops.log"), workload::PartsWorkload::Schema(), &txns));
    // Apply only the newest txn (the file accumulates).
    return maintainer_->ApplyTxn(txns.back());
  }

  ::testing::AssertionResult ViewMatchesRecompute() {
    Result<std::vector<Row>> expected =
        ViewMaintainer::ComputeFromSource(src_.get(), def_);
    if (!expected.ok()) {
      return ::testing::AssertionFailure() << expected.status().ToString();
    }
    Result<std::vector<Row>> actual = maintainer_->Materialized();
    if (!actual.ok()) {
      return ::testing::AssertionFailure() << actual.status().ToString();
    }
    if (expected->size() != actual->size()) {
      return ::testing::AssertionFailure()
             << "view has " << actual->size() << " rows, recompute says "
             << expected->size();
    }
    for (size_t i = 0; i < expected->size(); ++i) {
      if (catalog::CompareRows((*expected)[i], (*actual)[i]) != 0) {
        return ::testing::AssertionFailure() << "row " << i << " differs";
      }
    }
    return ::testing::AssertionSuccess();
  }

  TempDir dir_;
  workload::PartsWorkload wl_;
  std::unique_ptr<engine::Database> src_, wh_;
  ViewDef def_;
  std::unique_ptr<ViewMaintainer> maintainer_;
  std::unique_ptr<sql::Executor> exec_;
  std::unique_ptr<extract::OpDeltaCapture> capture_;
};

TEST_F(ViewTest, SchemaRenamesColumns) {
  engine::Table* vt = wh_->GetTable("active_parts");
  ASSERT_NE(vt, nullptr);
  EXPECT_EQ(vt->schema().column(0).name, "part_id");
  EXPECT_EQ(vt->schema().column(1).name, "part_status");
  EXPECT_EQ(vt->schema().num_columns(), 2u);
}

TEST_F(ViewTest, AnalyzeClassifiesStatements) {
  // INSERT: always op-only.
  EXPECT_EQ(maintainer_->Analyze(wl_.MakeInsert("parts", 0, 1)),
            Maintainability::kOpOnly);
  // DELETE on projected columns: op-only.
  sql::DeleteStmt d1;
  d1.table = "parts";
  d1.where = Predicate::Where("id", CompareOp::kLt, Value::Int64(5));
  EXPECT_EQ(maintainer_->Analyze(sql::Statement(d1)),
            Maintainability::kOpOnly);
  // DELETE on a non-projected column: needs before images.
  sql::DeleteStmt d2;
  d2.table = "parts";
  d2.where =
      Predicate::Where("payload", CompareOp::kEq, Value::String("x"));
  EXPECT_EQ(maintainer_->Analyze(sql::Statement(d2)),
            Maintainability::kNeedsBeforeImage);
  // UPDATE touching a selection column: membership may change.
  EXPECT_EQ(maintainer_->Analyze(wl_.MakeUpdate("parts", 0, 1, "retired")),
            Maintainability::kNeedsBeforeImage);
  // UPDATE of a non-selection, projected-where statement: op-only.
  sql::UpdateStmt u;
  u.table = "parts";
  u.sets = {engine::Assignment{"payload", Value::String("pp")}};
  u.where = Predicate::Where("id", CompareOp::kEq, Value::Int64(1));
  EXPECT_EQ(maintainer_->Analyze(sql::Statement(u)),
            Maintainability::kOpOnly);
}

TEST_F(ViewTest, InsertMaintainsSelectionAndProjection) {
  OPDELTA_ASSERT_OK(RunAndMaintain({wl_.MakeInsert("parts", 0, 5)}));
  Result<std::vector<Row>> rows = maintainer_->Materialized();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ((*rows)[0].size(), 2u);  // projected
  EXPECT_TRUE(ViewMatchesRecompute());
}

TEST_F(ViewTest, InsertFilteredBySelection) {
  sql::InsertStmt ins;
  ins.table = "parts";
  ins.rows.push_back({Value::Int64(1), Value::String("retired"),
                      Value::String("p"), Value::Timestamp(0)});
  ins.rows.push_back({Value::Int64(2), Value::String("active"),
                      Value::String("p"), Value::Timestamp(0)});
  OPDELTA_ASSERT_OK(RunAndMaintain({sql::Statement(ins)}));
  Result<std::vector<Row>> rows = maintainer_->Materialized();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);  // retired row filtered out
  EXPECT_EQ((*rows)[0][0].AsInt64(), 2);
  EXPECT_TRUE(ViewMatchesRecompute());
}

TEST_F(ViewTest, OpOnlyDeleteAndUpdate) {
  OPDELTA_ASSERT_OK(RunAndMaintain({wl_.MakeInsert("parts", 0, 10)}));
  OPDELTA_ASSERT_OK(RunAndMaintain({wl_.MakeDelete("parts", 0, 3)}));
  EXPECT_TRUE(ViewMatchesRecompute());
  // status is projected AND a selection column — but setting it to a value
  // that keeps rows in the view still needs before images per our analysis;
  // use an id-based op-only update on a projected non-selection column.
  sql::UpdateStmt u;
  u.table = "parts";
  u.sets = {engine::Assignment{"payload", Value::String("zz")}};
  u.where = Predicate::Where("id", CompareOp::kGe, Value::Int64(5));
  OPDELTA_ASSERT_OK(RunAndMaintain({sql::Statement(u)}));
  EXPECT_TRUE(ViewMatchesRecompute());
}

TEST_F(ViewTest, MembershipTransitionsViaBeforeImages) {
  OPDELTA_ASSERT_OK(RunAndMaintain({wl_.MakeInsert("parts", 0, 10)}));
  // Retire rows 0..4: they leave the view (selection column updated).
  OPDELTA_ASSERT_OK(RunAndMaintain({wl_.MakeUpdate("parts", 0, 5, "retired")}));
  EXPECT_TRUE(ViewMatchesRecompute());
  Result<std::vector<Row>> rows = maintainer_->Materialized();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);

  // Re-activate rows 0..2: they re-enter with current values.
  OPDELTA_ASSERT_OK(RunAndMaintain({wl_.MakeUpdate("parts", 0, 3, "active")}));
  EXPECT_TRUE(ViewMatchesRecompute());
  rows = maintainer_->Materialized();
  EXPECT_EQ(rows->size(), 8u);
}

TEST_F(ViewTest, NeedsBeforeImageFailsWithoutHybridCapture) {
  // Capture WITHOUT hybrid mode, then try a membership-changing update.
  Result<std::unique_ptr<extract::OpDeltaFileSink>> sink =
      extract::OpDeltaFileSink::Create(dir_.Sub("plain.log"));
  ASSERT_TRUE(sink.ok());
  extract::OpDeltaCapture plain(
      exec_.get(), std::shared_ptr<extract::OpDeltaSink>(std::move(*sink)),
      extract::OpDeltaCapture::Options());

  OPDELTA_ASSERT_OK(plain.RunTransaction({wl_.MakeInsert("parts", 0, 3)})
                        .status());
  OPDELTA_ASSERT_OK(
      plain.RunTransaction({wl_.MakeUpdate("parts", 0, 2, "retired")})
          .status());
  std::vector<OpDeltaTxn> txns;
  OPDELTA_ASSERT_OK(extract::OpDeltaLogReader::ReadFile(
      dir_.Sub("plain.log"), workload::PartsWorkload::Schema(), &txns));
  OPDELTA_ASSERT_OK(maintainer_->ApplyTxn(txns[0]));  // insert: op-only
  Status st = maintainer_->ApplyTxn(txns[1]);
  EXPECT_EQ(st.code(), StatusCode::kNotSupported);
}

TEST_F(ViewTest, RandomizedMaintenanceMatchesRecompute) {
  Rng rng(77);
  int64_t next_id = 0;
  OPDELTA_ASSERT_OK(RunAndMaintain({wl_.MakeInsert("parts", 0, 30)}));
  next_id = 30;
  const char* statuses[] = {"active", "retired", "hold"};
  for (int i = 0; i < 25; ++i) {
    std::vector<sql::Statement> stmts;
    switch (rng.Uniform(3)) {
      case 0: {
        size_t n = 1 + rng.Uniform(8);
        stmts.push_back(wl_.MakeInsert("parts", next_id, n));
        next_id += static_cast<int64_t>(n);
        break;
      }
      case 1: {
        int64_t lo = rng.Uniform(next_id);
        stmts.push_back(wl_.MakeUpdate("parts", lo, lo + 1 + rng.Uniform(10),
                                       statuses[rng.Uniform(3)]));
        break;
      }
      default: {
        int64_t lo = rng.Uniform(next_id);
        stmts.push_back(wl_.MakeDelete("parts", lo, lo + 1 + rng.Uniform(6)));
        break;
      }
    }
    OPDELTA_ASSERT_OK(RunAndMaintain(stmts));
    ASSERT_TRUE(ViewMatchesRecompute()) << "after step " << i;
  }
}

TEST(ViewValidationTest, RequiresKeyProjection) {
  TempDir dir;
  engine::DatabaseOptions options;
  auto wh = OpenDb(dir, "wh", options);
  ViewDef def;
  def.view_table = "v";
  def.source_table = "parts";
  def.projection = {{"status", "s"}};  // key column missing
  Result<std::unique_ptr<ViewMaintainer>> vm = ViewMaintainer::CreateViewTable(
      wh.get(), def, workload::PartsWorkload::Schema());
  EXPECT_FALSE(vm.ok());
}

TEST(ViewValidationTest, RejectsUnknownColumns) {
  TempDir dir;
  auto wh = OpenDb(dir, "wh");
  ViewDef def;
  def.view_table = "v";
  def.source_table = "parts";
  def.projection = {{"id", "id"}, {"ghost", "g"}};
  EXPECT_FALSE(ViewMaintainer::CreateViewTable(
                   wh.get(), def, workload::PartsWorkload::Schema())
                   .ok());
}

// --------------------------------------------------------------- ApplyLedger

extract::BatchId Bid(const std::string& source, uint64_t epoch, uint64_t seq) {
  extract::BatchId id;
  id.source_id = source;
  id.epoch = epoch;
  id.seq = seq;
  return id;
}

class ApplyLedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wh_ = OpenDb(dir_, "wh");
    ledger_ = std::make_unique<ApplyLedger>(wh_.get());
    OPDELTA_ASSERT_OK(ledger_->Setup());
  }

  /// Applies `id` through `txns` source transactions in one warehouse txn.
  Status Apply(const extract::BatchId& id, uint64_t txns) {
    return wh_->WithTransaction([&](txn::Transaction* txn) {
      return ledger_->Advance(txn, id, txns);
    });
  }

  ApplyLedger::Admission Admit(const extract::BatchId& id, uint64_t txns) {
    Result<ApplyLedger::Admission> a = ledger_->Admit(id, txns);
    EXPECT_TRUE(a.ok()) << a.status().ToString();
    return a.ok() ? a.value() : ApplyLedger::Admission{};
  }

  ApplyLedger::Watermark Get(const std::string& source) {
    Result<ApplyLedger::Watermark> w = ledger_->Get(source);
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    return w.ok() ? w.value() : ApplyLedger::Watermark{};
  }

  /// One 'W' row per source and one 'H' row per (source, epoch, seq).
  ::testing::AssertionResult OneRowPerKey() {
    return opdelta::testing::OneRowPerKey(
        wh_.get(), ledger_->table(), [](const Row& row) {
          std::string key = row[0].AsString() + "/" + row[1].AsString();
          if (row[1].AsString() == "H") {
            key += "/" + std::to_string(row[2].AsInt64()) + "." +
                   std::to_string(row[3].AsInt64());
          }
          return key;
        });
  }

  TempDir dir_;
  std::unique_ptr<engine::Database> wh_;
  std::unique_ptr<ApplyLedger> ledger_;
};

using Decision = ApplyLedger::Decision;

TEST_F(ApplyLedgerTest, SetupIsIdempotentAndUnknownSourceHasNoWatermark) {
  OPDELTA_ASSERT_OK(ledger_->Setup());
  OPDELTA_ASSERT_OK(ledger_->Setup());
  Result<ApplyLedger::Watermark> w = ledger_->Get("never-seen");
  OPDELTA_ASSERT_OK(w.status());
  EXPECT_FALSE(w.value().exists);
  EXPECT_EQ(Admit(Bid("never-seen", 1, 1), 3).decision, Decision::kFresh);
}

TEST_F(ApplyLedgerTest, FreshThenDuplicateThenResume) {
  const extract::BatchId b1 = Bid("s1", 1, 1);
  EXPECT_EQ(Admit(b1, 2).decision, Decision::kFresh);
  OPDELTA_ASSERT_OK(Apply(b1, 2));

  // Fully-applied batch redelivered: dropped.
  EXPECT_EQ(Admit(b1, 2).decision, Decision::kDuplicate);

  // Next batch applied only through txn 1 of 3 (crash mid-batch): the
  // redelivery resumes past the applied prefix instead of repeating it.
  const extract::BatchId b2 = Bid("s1", 1, 2);
  OPDELTA_ASSERT_OK(Apply(b2, 1));
  ApplyLedger::Admission a = Admit(b2, 3);
  EXPECT_EQ(a.decision, Decision::kResume);
  EXPECT_EQ(a.skip_txns, 1u);

  EXPECT_EQ(CountRows(wh_.get(), ledger_->table()), 1u);

  // Anything at or below the watermark is a duplicate; above it is fresh.
  EXPECT_EQ(Admit(b1, 2).decision, Decision::kDuplicate);
  EXPECT_EQ(Admit(Bid("s1", 1, 3), 1).decision, Decision::kFresh);
  EXPECT_EQ(Admit(Bid("s1", 2, 1), 1).decision, Decision::kFresh);
  // Other sources are independent.
  EXPECT_EQ(Admit(Bid("s2", 1, 1), 1).decision, Decision::kFresh);
}

TEST_F(ApplyLedgerTest, RolledBackAdvanceLeavesNoProgress) {
  const extract::BatchId id = Bid("s1", 1, 1);
  Status st = wh_->WithTransaction([&](txn::Transaction* txn) -> Status {
    OPDELTA_RETURN_IF_ERROR(ledger_->Advance(txn, id, 5));
    return Status::IOError("simulated apply failure after Advance");
  });
  EXPECT_FALSE(st.ok());
  Result<ApplyLedger::Watermark> w = ledger_->Get("s1");
  OPDELTA_ASSERT_OK(w.status());
  EXPECT_FALSE(w.value().exists);
  EXPECT_EQ(Admit(id, 5).decision, Decision::kFresh);
}

TEST_F(ApplyLedgerTest, HoleAdmitsOperatorReplayBelowWatermark) {
  // Batch 2 is dead-lettered past after 1 of its 3 txns; batch 3 applies.
  const extract::BatchId b2 = Bid("s1", 1, 2);
  OPDELTA_ASSERT_OK(Apply(b2, 1));
  OPDELTA_ASSERT_OK(ledger_->RecordSkip(b2));
  OPDELTA_ASSERT_OK(Apply(Bid("s1", 1, 3), 2));

  // An operator replay of b2 lands below the watermark but is admitted,
  // resuming past the prefix captured in the hole.
  ApplyLedger::Admission a = Admit(b2, 3);
  EXPECT_EQ(a.decision, Decision::kResume);
  EXPECT_EQ(a.skip_txns, 1u);

  // The replay is dead-lettered again: the hole keeps its applied prefix
  // (the watermark is batch 3 now, so the new skip carries none).
  OPDELTA_ASSERT_OK(ledger_->RecordSkip(b2));
  EXPECT_TRUE(OneRowPerKey());
  a = Admit(b2, 3);
  EXPECT_EQ(a.decision, Decision::kResume);
  EXPECT_EQ(a.skip_txns, 1u);

  // Completing the replay clears the hole: a second replay is a duplicate.
  OPDELTA_ASSERT_OK(Apply(b2, 3));
  EXPECT_EQ(Admit(b2, 3).decision, Decision::kDuplicate);
  // The replay below the watermark leaves the watermark at batch 3.
  const ApplyLedger::Watermark w = Get("s1");
  EXPECT_EQ(w.seq, 3u);
  EXPECT_EQ(w.txns, 2u);
  EXPECT_EQ(Admit(Bid("s1", 1, 3), 2).decision, Decision::kDuplicate);
  EXPECT_EQ(CountRows(wh_.get(), ledger_->table()), 1u);
  // A batch never skipped stays a duplicate below the watermark.
  EXPECT_EQ(Admit(Bid("s1", 1, 1), 1).decision, Decision::kDuplicate);
}

TEST_F(ApplyLedgerTest, CompactPrunesSupersededRowsOnly) {
  // Every write replaces the row it supersedes, so the ledger stays at one
  // watermark per source plus its open holes without any compaction pass.
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    OPDELTA_ASSERT_OK(Apply(Bid("s1", 1, seq), 1));
    EXPECT_EQ(CountRows(wh_.get(), ledger_->table()), 1u);
  }
  OPDELTA_ASSERT_OK(Apply(Bid("s2", 1, 1), 1));
  const extract::BatchId skipped = Bid("s2", 1, 2);
  OPDELTA_ASSERT_OK(ledger_->RecordSkip(skipped));
  OPDELTA_ASSERT_OK(Apply(Bid("s2", 1, 3), 1));

  EXPECT_EQ(CountRows(wh_.get(), ledger_->table()), 3u);
  EXPECT_TRUE(OneRowPerKey());

  const ApplyLedger::Watermark w1 = Get("s1");
  EXPECT_TRUE(w1.exists);
  EXPECT_EQ(w1.seq, 5u);
  EXPECT_EQ(Admit(Bid("s1", 1, 5), 1).decision, Decision::kDuplicate);
  EXPECT_EQ(Admit(Bid("s1", 1, 4), 1).decision, Decision::kDuplicate);
  // The s2 hole survives the advances around it and still admits its
  // replay.
  EXPECT_EQ(Admit(skipped, 1).decision, Decision::kResume);
}

TEST_F(ApplyLedgerTest, AdvanceRewritesTheWatermarkInPlace) {
  // Per-transaction ledger cost must not grow with the batches applied:
  // after the first write the watermark row is updated in place, so the
  // heap stays one page instead of gaining a record per transaction.
  for (uint64_t seq = 1; seq <= 2000; ++seq) {
    OPDELTA_ASSERT_OK(Apply(Bid("s1", 1, seq), 1));
  }
  EXPECT_EQ(CountRows(wh_.get(), ledger_->table()), 1u);
  EXPECT_EQ(wh_->GetTable(ledger_->table())->heap()->num_pages(), 1u);
  EXPECT_EQ(Get("s1").seq, 2000u);
}

TEST_F(ApplyLedgerTest, AppendOnlyTableReadsUnchangedAndCollapsesOnWrite) {
  // The ledger as an append-only build left it: several watermark rows per
  // source in no particular order, and two hole rows for one batch.
  const auto row = [](const char* source, const char* kind, int64_t epoch,
                      int64_t seq, int64_t txns) {
    return Row{Value::String(source), Value::String(kind),
               Value::Int64(epoch), Value::Int64(seq), Value::Int64(txns)};
  };
  OPDELTA_ASSERT_OK(wh_->WithTransaction([&](txn::Transaction* txn) {
    for (Row r : {row("s1", "W", 1, 3, 2), row("s1", "W", 1, 5, 1),
                  row("s1", "H", 1, 4, 1), row("s1", "W", 1, 4, 3),
                  row("s1", "W", 1, 5, 2), row("s1", "H", 1, 4, 2),
                  row("s1", "W", 1, 2, 1), row("s2", "W", 2, 1, 1),
                  row("s2", "H", 1, 7, 0), row("s2", "W", 1, 9, 4)}) {
      OPDELTA_RETURN_IF_ERROR(
          wh_->InsertRaw(txn, ledger_->table(), std::move(r)));
    }
    return Status::OK();
  }));
  EXPECT_FALSE(OneRowPerKey());

  // Reads take the newest row of each key, as the append-only build did.
  const auto expect_reads = [&](uint64_t s1_txns) {
    const ApplyLedger::Watermark w1 = Get("s1");
    EXPECT_EQ(w1.epoch, 1u);
    EXPECT_EQ(w1.seq, 5u);
    EXPECT_EQ(w1.txns, s1_txns);
    ApplyLedger::Admission a = Admit(Bid("s1", 1, 4), 3);
    EXPECT_EQ(a.decision, Decision::kResume);  // the larger hole prefix
    EXPECT_EQ(a.skip_txns, 2u);
    EXPECT_EQ(Admit(Bid("s1", 1, 4), 2).decision, Decision::kDuplicate);
    EXPECT_EQ(Admit(Bid("s1", 1, 3), 2).decision, Decision::kDuplicate);
    EXPECT_EQ(Admit(Bid("s1", 1, 6), 1).decision, Decision::kFresh);
    a = Admit(Bid("s2", 1, 7), 1);
    EXPECT_EQ(a.decision, Decision::kResume);
    EXPECT_EQ(a.skip_txns, 0u);
    EXPECT_EQ(Admit(Bid("s2", 1, 9), 4).decision, Decision::kDuplicate);
    EXPECT_EQ(Admit(Bid("s2", 2, 1), 1).decision, Decision::kDuplicate);
  };
  expect_reads(2);
  ApplyLedger::Admission a = Admit(Bid("s1", 1, 5), 3);
  EXPECT_EQ(a.decision, Decision::kResume);
  EXPECT_EQ(a.skip_txns, 2u);
  EXPECT_EQ(Admit(Bid("s2", 2, 2), 1).decision, Decision::kFresh);

  // A write that rolls back leaves every row in place.
  Status rolled_back = wh_->WithTransaction([&](txn::Transaction* txn) {
    OPDELTA_RETURN_IF_ERROR(ledger_->Advance(txn, Bid("s1", 1, 6), 1));
    return Status::Aborted("simulated apply failure after Advance");
  });
  EXPECT_EQ(rolled_back.code(), StatusCode::kAborted);
  EXPECT_EQ(CountRows(wh_.get(), ledger_->table()), 10u);
  expect_reads(2);

  // The first write of each key leaves that key one row.
  OPDELTA_ASSERT_OK(Apply(Bid("s1", 1, 5), 3));
  OPDELTA_ASSERT_OK(ledger_->RecordSkip(Bid("s1", 1, 4)));
  OPDELTA_ASSERT_OK(ledger_->RecordSkip(Bid("s2", 1, 7)));
  OPDELTA_ASSERT_OK(Apply(Bid("s2", 2, 2), 1));
  EXPECT_TRUE(OneRowPerKey());
  EXPECT_EQ(CountRows(wh_.get(), ledger_->table()), 4u);
  expect_reads(3);
  EXPECT_EQ(Admit(Bid("s2", 2, 2), 1).decision, Decision::kDuplicate);
}

TEST_F(ApplyLedgerTest, InvalidIdentityBypassesDeduplication) {
  extract::BatchId anon;  // legacy frame: no identity stamped
  ASSERT_FALSE(anon.valid());
  EXPECT_EQ(Admit(anon, 1).decision, Decision::kFresh);
  OPDELTA_ASSERT_OK(Apply(anon, 1));
  // No watermark row is written for identity-less batches...
  EXPECT_EQ(CountRows(wh_.get(), ledger_->table()), 0u);
  // ...so a redelivery is (by design) applied again.
  EXPECT_EQ(Admit(anon, 1).decision, Decision::kFresh);
}

// ---------------------------------------------------------- ApplyNetChanges

Row NetRow(int64_t id, const std::string& status, Micros stamp) {
  return {Value::Int64(id), Value::String(status), Value::String("p"),
          Value::Timestamp(stamp)};
}

// Seeded final-state batches over a source that starts with keys
// [0, preloaded): before/after update pairs (some with a longer image, so
// the row relocates), deletes, inserts of new keys and re-inserts of
// deleted keys. A third of the writes pick one of the five smallest live
// keys, so a batch often writes a key several times.
std::vector<DeltaBatch> NetChangeBatches(uint64_t seed, int64_t preloaded,
                                         int batches) {
  Rng rng(seed);
  std::map<int64_t, Row> source;
  for (int64_t id = 0; id < preloaded; ++id) source[id] = NetRow(id, "base", 0);
  std::vector<int64_t> deleted;
  int64_t next_key = preloaded;
  uint64_t seq = 0;
  auto live_key = [&]() {
    auto it = source.lower_bound(static_cast<int64_t>(rng.Uniform(next_key)));
    if (rng.OneIn(3) || it == source.end()) {
      it = source.begin();
      std::advance(it, rng.Uniform(std::min<size_t>(5, source.size())));
    }
    return it->first;
  };
  std::vector<DeltaBatch> out;
  for (int b = 0; b < batches; ++b) {
    DeltaBatch batch;
    batch.table = "parts";
    batch.schema = workload::PartsWorkload::Schema();
    auto add = [&](DeltaOp op, const Row& image) {
      batch.records.push_back(DeltaRecord{op, 0, seq++, image});
    };
    for (int i = 0; i < 40; ++i) {
      const Micros stamp = b * 1000 + i + 1;
      const std::string tag = std::to_string(b) + "." + std::to_string(i);
      const uint64_t op = source.empty() ? 9 : rng.Uniform(10);
      if (op < 5) {
        const int64_t id = live_key();
        Row after = source[id];
        after[1] = Value::String("u" + tag);
        after[3] = Value::Timestamp(stamp);
        if (rng.OneIn(4)) {
          after[2] = Value::String(std::string(100 + rng.Uniform(300), 'g'));
        }
        add(DeltaOp::kUpdateBefore, source[id]);
        add(DeltaOp::kUpdateAfter, after);
        source[id] = after;
      } else if (op < 7) {
        const int64_t id = live_key();
        add(DeltaOp::kDelete, source[id]);
        source.erase(id);
        deleted.push_back(id);
      } else {
        int64_t id = next_key;
        if (!deleted.empty() && rng.OneIn(2)) {
          id = deleted.back();
          deleted.pop_back();
        } else {
          ++next_key;
        }
        source[id] = NetRow(id, "i" + tag, stamp);
        add(DeltaOp::kInsert, source[id]);
      }
    }
    out.push_back(std::move(batch));
  }
  return out;
}

// ApplyNetChanges writes each surviving key in place; the paper's
// incumbent, ValueDeltaIntegrator, deletes and re-inserts it. Fed the same
// net changes as upsert/delete records, the two must leave equal rows and
// equal ledger watermarks, with and without an index on the key and with
// the warehouse keeping or re-stamping the timestamp column.
TEST(NetChangeApplyTest, KeyedWritesMatchDeleteInsertTranslation) {
  const std::vector<DeltaBatch> batches = NetChangeBatches(20, 200, 30);
  for (bool indexed : {false, true}) {
    for (bool auto_timestamp : {false, true}) {
      SCOPED_TRACE(std::string(indexed ? "indexed" : "scan") +
                   (auto_timestamp ? ", auto_timestamp" : ""));
      TempDir dir;
      engine::DatabaseOptions options;
      options.auto_timestamp = auto_timestamp;
      auto keyed = OpenDb(dir, "keyed", options);
      auto twin = OpenDb(dir, "twin", options);
      ApplyLedger keyed_ledger(keyed.get());
      ApplyLedger twin_ledger(twin.get());
      for (auto [db, ledger] : {std::pair{keyed.get(), &keyed_ledger},
                                std::pair{twin.get(), &twin_ledger}}) {
        OPDELTA_ASSERT_OK(
            db->CreateTable("parts", workload::PartsWorkload::Schema()));
        OPDELTA_ASSERT_OK(db->WithTransaction([&](txn::Transaction* txn) {
          for (int64_t id = 0; id < 200; ++id) {
            OPDELTA_RETURN_IF_ERROR(
                db->InsertRaw(txn, "parts", NetRow(id, "base", 0)));
          }
          return Status::OK();
        }));
        if (indexed) OPDELTA_ASSERT_OK(db->CreateIndex("parts", "id"));
        OPDELTA_ASSERT_OK(ledger->Setup());
      }

      for (size_t b = 0; b < batches.size(); ++b) {
        const extract::BatchId id = Bid("src", 1, b + 1);
        IntegrationStats stats;
        OPDELTA_ASSERT_OK(ApplyNetChanges(keyed.get(), "parts", batches[b],
                                          id, &keyed_ledger, &stats));
        extract::NetChanges net;
        OPDELTA_ASSERT_OK(extract::ComputeNetChanges(batches[b], &net));
        EXPECT_EQ(stats.statements_executed, net.size());
        DeltaBatch records;
        records.table = "parts";
        records.schema = batches[b].schema;
        for (const auto& [key, state] : net) {
          Row image = state.value_or(Row(records.schema.num_columns()));
          image[0] = key;
          records.records.push_back(DeltaRecord{
              state.has_value() ? DeltaOp::kUpsert : DeltaOp::kDelete, 0,
              records.records.size(), std::move(image)});
        }
        ValueDeltaIntegrator incumbent(twin.get(), "parts");
        OPDELTA_ASSERT_OK(incumbent.Apply(records, id, &twin_ledger, nullptr));
      }

      // With auto_timestamp on, each side stamps its own apply time.
      auto expect_rows = [&](const std::map<Value, Row>& got,
                             const std::map<Value, Row>& want) {
        ASSERT_EQ(got.size(), want.size());
        for (const auto& [key, want_row] : want) {
          ASSERT_EQ(got.count(key), 1u) << key.ToSqlLiteral();
          Row a = got.at(key);
          Row b = want_row;
          if (auto_timestamp) a[3] = b[3] = Value::Null();
          EXPECT_EQ(catalog::CompareRows(a, b), 0) << key.ToSqlLiteral();
        }
      };
      const auto keyed_rows = TableContents(keyed.get(), "parts");
      ASSERT_NO_FATAL_FAILURE(
          expect_rows(keyed_rows, TableContents(twin.get(), "parts")));
      const Result<ApplyLedger::Watermark> keyed_mark = keyed_ledger.Get("src");
      const Result<ApplyLedger::Watermark> twin_mark = twin_ledger.Get("src");
      OPDELTA_ASSERT_OK(keyed_mark.status());
      OPDELTA_ASSERT_OK(twin_mark.status());
      EXPECT_TRUE(keyed_mark->exists);
      EXPECT_EQ(keyed_mark->exists, twin_mark->exists);
      EXPECT_EQ(keyed_mark->epoch, twin_mark->epoch);
      EXPECT_EQ(keyed_mark->seq, twin_mark->seq);
      EXPECT_EQ(keyed_mark->txns, twin_mark->txns);
      EXPECT_EQ(keyed_mark->seq, batches.size());

      // A redelivered batch is dropped whole.
      IntegrationStats again;
      OPDELTA_ASSERT_OK(ApplyNetChanges(keyed.get(), "parts", batches.back(),
                                        Bid("src", 1, batches.size()),
                                        &keyed_ledger, &again));
      EXPECT_EQ(again.duplicate_batches, 1u);
      EXPECT_EQ(again.statements_executed, 0u);
      const auto after_redelivery = TableContents(keyed.get(), "parts");
      ASSERT_EQ(after_redelivery.size(), keyed_rows.size());
      for (const auto& [key, row] : keyed_rows) {
        EXPECT_EQ(catalog::CompareRows(after_redelivery.at(key), row), 0)
            << key.ToSqlLiteral();
      }
    }
  }
}

// Same-size images are rewritten where they are: 50 batches upserting the
// same 500 keys leave the heap exactly as large as the preload made it.
// Deleting and re-inserting each row (the incumbent's translation) moves
// every row of every batch.
TEST_F(WarehouseTest, RepeatedUpsertsKeepTheHeapFlat) {
  OPDELTA_ASSERT_OK(Preload(2000));
  OPDELTA_ASSERT_OK(wh_->CreateIndex("parts", "id"));
  const storage::FileManager* file = wh_->GetTable("parts")->file();
  const uint32_t preloaded_pages = file->num_pages();
  uint32_t first_batch_pages = 0;
  for (int b = 0; b < 50; ++b) {
    DeltaBatch batch;
    batch.table = "parts";
    batch.schema = workload::PartsWorkload::Schema();
    std::string status = std::to_string(1000 + b);  // "1000".."1049"
    status[0] = 's';                                 // same size as "base"
    for (int64_t id = 0; id < 500; ++id) {
      batch.records.push_back(DeltaRecord{DeltaOp::kUpsert, 0,
                                          static_cast<uint64_t>(id),
                                          PartsRow(id, status)});
    }
    IntegrationStats stats;
    OPDELTA_ASSERT_OK(ApplyNetChanges(wh_.get(), "parts", batch, &stats));
    EXPECT_EQ(stats.statements_executed, 500u);
    if (b == 0) first_batch_pages = file->num_pages();
  }
  EXPECT_EQ(first_batch_pages, preloaded_pages);
  EXPECT_EQ(file->num_pages(), first_batch_pages);
  const auto contents = TableContents(wh_.get(), "parts");
  EXPECT_EQ(contents.size(), 2000u);
  EXPECT_EQ(contents.at(Value::Int64(499))[1].AsString(), "s049");
  EXPECT_EQ(contents.at(Value::Int64(500))[1].AsString(), "base");
}

}  // namespace
}  // namespace opdelta::warehouse
