// End-to-end tests: run an OLTP workload at a source system, extract deltas
// with each of the paper's methods, transport them, and integrate them into
// a warehouse — then check the warehouse converged to the source state.
#include <gtest/gtest.h>

#include "common/random.h"
#include "dbutils/ascii_dump.h"
#include "dbutils/export.h"
#include "dbutils/loader.h"
#include "extract/log_extractor.h"
#include "extract/op_delta.h"
#include "extract/reconciler.h"
#include "extract/snapshot_differential.h"
#include "extract/timestamp_extractor.h"
#include "extract/trigger_extractor.h"
#include "sql/executor.h"
#include "transport/file_transport.h"
#include "transport/persistent_queue.h"
#include "warehouse/integrator.h"
#include "workload/workload.h"
#include "tests/test_util.h"

namespace opdelta {
namespace {

using catalog::Row;
using catalog::Value;
using extract::DeltaBatch;
using extract::DeltaOp;
using extract::DeltaRecord;
using opdelta::testing::CountRows;
using opdelta::testing::OpenDb;
using opdelta::testing::TablesEqual;
using opdelta::testing::TempDir;

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine::DatabaseOptions options;
    options.auto_timestamp = false;  // keep rows byte-comparable end to end
    src_ = OpenDb(dir_, "src", options);
    wh_ = OpenDb(dir_, "wh", options);
    OPDELTA_ASSERT_OK(wl_.CreateTable(src_.get(), "parts"));
    OPDELTA_ASSERT_OK(wl_.CreateTable(wh_.get(), "parts"));
    exec_ = std::make_unique<sql::Executor>(src_.get());
  }

  /// Runs a deterministic mixed workload of `txns` transactions.
  Status RunWorkload(uint64_t seed, int txns) {
    Rng rng(seed);
    for (int i = 0; i < txns; ++i) {
      sql::Statement stmt;
      switch (rng.Uniform(3)) {
        case 0: {
          size_t n = 1 + rng.Uniform(10);
          stmt = wl_.MakeInsert("parts", next_id_, n);
          next_id_ += static_cast<int64_t>(n);
          break;
        }
        case 1: {
          int64_t lo = rng.Uniform(std::max<int64_t>(next_id_, 1));
          stmt = wl_.MakeUpdate("parts", lo, lo + 1 + rng.Uniform(10),
                                "s" + std::to_string(i));
          break;
        }
        default: {
          int64_t lo = rng.Uniform(std::max<int64_t>(next_id_, 1));
          stmt = wl_.MakeDelete("parts", lo, lo + 1 + rng.Uniform(4));
          break;
        }
      }
      OPDELTA_RETURN_IF_ERROR(exec_->ExecuteSql(stmt.ToSql()).status());
    }
    return Status::OK();
  }

  /// Applies net changes (from upsert/delete-style batches) to the
  /// warehouse — how timestamp/snapshot deltas integrate.
  Status ApplyNetChanges(const DeltaBatch& batch) {
    extract::NetChanges net;
    OPDELTA_RETURN_IF_ERROR(ComputeNetChanges(batch, &net));
    DeltaBatch upserts;
    upserts.table = "parts";
    upserts.schema = batch.schema;
    uint64_t seq = 0;
    for (const auto& [key, state] : net) {
      if (state.has_value()) {
        upserts.records.push_back(
            DeltaRecord{DeltaOp::kUpsert, 0, seq++, *state});
      } else {
        Row img(batch.schema.num_columns());
        img[0] = key;
        upserts.records.push_back(
            DeltaRecord{DeltaOp::kDelete, 0, seq++, img});
      }
    }
    warehouse::ValueDeltaIntegrator integrator(wh_.get(), "parts");
    return integrator.Apply(upserts, nullptr);
  }

  TempDir dir_;
  workload::PartsWorkload wl_;
  std::unique_ptr<engine::Database> src_, wh_;
  std::unique_ptr<sql::Executor> exec_;
  int64_t next_id_ = 0;
};

TEST_F(EndToEndTest, TriggerExtractShipIntegrate) {
  Result<std::string> delta_table =
      extract::TriggerExtractor::Install(src_.get(), "parts");
  ASSERT_TRUE(delta_table.ok());

  OPDELTA_ASSERT_OK(RunWorkload(1, 30));

  // Extract: drain the delta table; ship via persistent queue; integrate.
  Result<DeltaBatch> batch = extract::TriggerExtractor::Drain(src_.get(),
                                                              "parts");
  ASSERT_TRUE(batch.ok());

  transport::PersistentQueue queue;
  OPDELTA_ASSERT_OK(queue.Open(dir_.Sub("queue")));
  std::string encoded;
  batch->EncodeTo(&encoded);
  OPDELTA_ASSERT_OK(queue.Enqueue(Slice(encoded), /*durable=*/true));

  std::string shipped;
  OPDELTA_ASSERT_OK(queue.Peek(&shipped));
  DeltaBatch received;
  OPDELTA_ASSERT_OK(DeltaBatch::DecodeFrom(Slice(shipped), &received));
  OPDELTA_ASSERT_OK(queue.Ack());

  warehouse::ValueDeltaIntegrator integrator(wh_.get(), "parts");
  OPDELTA_ASSERT_OK(integrator.Apply(received, nullptr));
  EXPECT_TRUE(TablesEqual(src_.get(), "parts", wh_.get(), "parts"));
}

TEST_F(EndToEndTest, LogExtractShipIntegrate) {
  OPDELTA_ASSERT_OK(RunWorkload(2, 30));

  engine::Table* t = src_->GetTable("parts");
  extract::LogExtractor extractor(src_->wal()->dir());
  txn::Lsn wm = 0;
  Result<DeltaBatch> batch =
      extractor.ExtractSince(0, t->id(), "parts", t->schema(), &wm);
  ASSERT_TRUE(batch.ok());

  warehouse::ValueDeltaIntegrator integrator(wh_.get(), "parts");
  OPDELTA_ASSERT_OK(integrator.Apply(*batch, nullptr));
  EXPECT_TRUE(TablesEqual(src_.get(), "parts", wh_.get(), "parts"));
}

TEST_F(EndToEndTest, TimestampExtractConvergesLiveRows) {
  // Timestamp extraction misses deletes; run an insert/update-only workload
  // so the method can converge (its documented applicability condition).
  OPDELTA_ASSERT_OK(wl_.Populate(src_.get(), "parts", 50));
  // Give pre-existing rows a visible timestamp: populate stamped nothing
  // (auto_timestamp off), so touch every row once.
  OPDELTA_ASSERT_OK(
      exec_->ExecuteSql("UPDATE parts SET last_modified = 1").status());

  // Mirror the base state at the warehouse first (initial load).
  const std::string base_csv = dir_.Sub("base.csv");
  OPDELTA_ASSERT_OK(dbutils::AsciiDump::DumpTable(
      src_.get(), "parts", engine::Predicate::True(), base_csv));
  OPDELTA_ASSERT_OK(dbutils::Loader::Load(wh_.get(), "parts", base_csv));

  const Micros watermark = 1;
  OPDELTA_ASSERT_OK(
      exec_->ExecuteSql("UPDATE parts SET status = 'hot', "
                        "last_modified = 5 WHERE id < 10")
          .status());
  sql::Statement ins = wl_.MakeInsert("parts", 50, 5);
  // Stamp inserted rows manually (auto stamping disabled in this fixture).
  for (Row& r : ins.mutable_insert().rows) r[3] = Value::Timestamp(6);
  OPDELTA_ASSERT_OK(exec_->ExecuteSql(ins.ToSql()).status());

  extract::TimestampExtractor extractor(src_.get(), "parts",
                                        "last_modified");
  Result<DeltaBatch> batch = extractor.ExtractSince(watermark);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->records.size(), 15u);
  OPDELTA_ASSERT_OK(ApplyNetChanges(*batch));
  EXPECT_TRUE(TablesEqual(src_.get(), "parts", wh_.get(), "parts"));
}

TEST_F(EndToEndTest, SnapshotDifferentialExtractIntegrate) {
  OPDELTA_ASSERT_OK(wl_.Populate(src_.get(), "parts", 80));
  OPDELTA_ASSERT_OK(
      dbutils::ExportUtil::Export(src_.get(), "parts", dir_.Sub("s1.snap")));

  // Initial-load the warehouse from the first snapshot.
  OPDELTA_ASSERT_OK(
      dbutils::ImportUtil::Import(wh_.get(), "parts", dir_.Sub("s1.snap")));

  next_id_ = 80;
  OPDELTA_ASSERT_OK(RunWorkload(3, 20));
  OPDELTA_ASSERT_OK(
      dbutils::ExportUtil::Export(src_.get(), "parts", dir_.Sub("s2.snap")));

  // Ship both snapshots (the method's transport cost) then diff + apply.
  transport::NetworkSimulator net(transport::NetworkSimulator::Loopback());
  transport::FileTransport transport(&net);
  OPDELTA_ASSERT_OK(transport.Ship(dir_.Sub("s2.snap"), dir_.Sub("s2w.snap")));

  Result<DeltaBatch> diff = extract::SnapshotDifferential::Diff(
      dir_.Sub("s1.snap"), dir_.Sub("s2w.snap"));
  ASSERT_TRUE(diff.ok());
  OPDELTA_ASSERT_OK(
      warehouse::ApplyNetChanges(wh_.get(), "parts", *diff, nullptr));
  EXPECT_TRUE(TablesEqual(src_.get(), "parts", wh_.get(), "parts"));
}

TEST_F(EndToEndTest, OpDeltaCaptureShipIntegrate) {
  const std::string log_path = dir_.Sub("ops.log");
  Result<std::unique_ptr<extract::OpDeltaFileSink>> sink =
      extract::OpDeltaFileSink::Create(log_path);
  ASSERT_TRUE(sink.ok());
  extract::OpDeltaCapture capture(
      exec_.get(), std::shared_ptr<extract::OpDeltaSink>(std::move(*sink)),
      extract::OpDeltaCapture::Options());

  Rng rng(4);
  for (int i = 0; i < 25; ++i) {
    std::vector<sql::Statement> stmts;
    size_t n = 1 + rng.Uniform(5);
    stmts.push_back(wl_.MakeInsert("parts", next_id_, n));
    next_id_ += static_cast<int64_t>(n);
    if (i % 3 == 1) {
      stmts.push_back(wl_.MakeUpdate("parts", 0, next_id_ / 2,
                                     "r" + std::to_string(i)));
    }
    if (i % 5 == 2) {
      stmts.push_back(
          wl_.MakeDelete("parts", rng.Uniform(next_id_), next_id_ / 3));
    }
    OPDELTA_ASSERT_OK(capture.RunTransaction(stmts).status());
  }

  // Ship the op log file, then integrate preserving txn boundaries.
  transport::NetworkSimulator net(transport::NetworkSimulator::Loopback());
  transport::FileTransport transport(&net);
  const std::string shipped = dir_.Sub("ops_at_wh.log");
  OPDELTA_ASSERT_OK(transport.Ship(log_path, shipped));

  std::vector<extract::OpDeltaTxn> txns;
  OPDELTA_ASSERT_OK(extract::OpDeltaLogReader::ReadFile(
      shipped, workload::PartsWorkload::Schema(), &txns));
  warehouse::OpDeltaIntegrator integrator(wh_.get());
  warehouse::IntegrationStats stats;
  OPDELTA_ASSERT_OK(integrator.Apply(txns, &stats));

  EXPECT_TRUE(TablesEqual(src_.get(), "parts", wh_.get(), "parts"));
  EXPECT_EQ(stats.transactions, 25u);
  EXPECT_EQ(stats.outage_micros, 0);
}

TEST_F(EndToEndTest, ReplicatedSourcesReconcileToOneAuthoritativeCopy) {
  // Two COTS instances replicate the same logical data; triggers capture
  // the "same" deltas twice. Reconciliation must collapse them before
  // warehouse integration (§2.2 / §4.1).
  engine::DatabaseOptions options;
  options.auto_timestamp = false;
  auto replica = OpenDb(dir_, "replica", options);
  OPDELTA_ASSERT_OK(wl_.CreateTable(replica.get(), "parts"));

  ASSERT_TRUE(extract::TriggerExtractor::Install(src_.get(), "parts").ok());
  ASSERT_TRUE(extract::TriggerExtractor::Install(replica.get(), "parts").ok());

  // The COTS layer applies every business transaction to both replicas.
  sql::Executor replica_exec(replica.get());
  auto run_both = [&](const sql::Statement& stmt) -> Status {
    OPDELTA_RETURN_IF_ERROR(exec_->ExecuteSql(stmt.ToSql()).status());
    return replica_exec.ExecuteSql(stmt.ToSql()).status();
  };
  OPDELTA_ASSERT_OK(run_both(wl_.MakeInsert("parts", 0, 20)));
  OPDELTA_ASSERT_OK(run_both(wl_.MakeUpdate("parts", 5, 12, "dup")));
  OPDELTA_ASSERT_OK(run_both(wl_.MakeDelete("parts", 0, 3)));

  Result<DeltaBatch> a = extract::TriggerExtractor::Drain(src_.get(), "parts");
  Result<DeltaBatch> b =
      extract::TriggerExtractor::Drain(replica.get(), "parts");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->records.size(), b->records.size());

  extract::Reconciler::Stats rstats;
  Result<DeltaBatch> merged =
      extract::Reconciler::Reconcile({&*a, &*b}, &rstats);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(rstats.duplicates_dropped, merged->records.size());

  warehouse::ValueDeltaIntegrator integrator(wh_.get(), "parts");
  OPDELTA_ASSERT_OK(integrator.Apply(*merged, nullptr));
  EXPECT_TRUE(TablesEqual(src_.get(), "parts", wh_.get(), "parts"));
}

TEST_F(EndToEndTest, ExportImportMovesDeltaTableBetweenSystems) {
  // The Table-2 "table output + Export" pipeline: extract to a local delta
  // table, Export it, ship, Import at the staging area.
  Result<std::string> delta_table =
      extract::TriggerExtractor::Install(src_.get(), "parts");
  ASSERT_TRUE(delta_table.ok());
  OPDELTA_ASSERT_OK(RunWorkload(5, 15));

  const std::string exported = dir_.Sub("delta.exp");
  OPDELTA_ASSERT_OK(dbutils::ExportUtil::Export(src_.get(), *delta_table,
                                                exported));

  transport::NetworkSimulator net(transport::NetworkSimulator::Loopback());
  transport::FileTransport transport(&net);
  const std::string shipped = dir_.Sub("delta_at_wh.exp");
  OPDELTA_ASSERT_OK(transport.Ship(exported, shipped));

  // Staging area must have the *exact* delta-table schema (the method's
  // same-product/same-schema constraint).
  OPDELTA_ASSERT_OK(wh_->CreateTable(
      "parts_delta_staged",
      extract::DeltaTableSchemaFor(workload::PartsWorkload::Schema())));
  OPDELTA_ASSERT_OK(
      dbutils::ImportUtil::Import(wh_.get(), "parts_delta_staged", shipped));
  EXPECT_EQ(CountRows(wh_.get(), "parts_delta_staged"),
            CountRows(src_.get(), *delta_table));
}

TEST_F(EndToEndTest, AllValueDeltaMethodsAgreeOnNetChanges) {
  ASSERT_TRUE(extract::TriggerExtractor::Install(src_.get(), "parts").ok());
  OPDELTA_ASSERT_OK(
      dbutils::ExportUtil::Export(src_.get(), "parts", dir_.Sub("pre.snap")));

  OPDELTA_ASSERT_OK(RunWorkload(6, 25));

  OPDELTA_ASSERT_OK(
      dbutils::ExportUtil::Export(src_.get(), "parts", dir_.Sub("post.snap")));

  Result<DeltaBatch> trigger_batch =
      extract::TriggerExtractor::Drain(src_.get(), "parts");
  ASSERT_TRUE(trigger_batch.ok());

  engine::Table* t = src_->GetTable("parts");
  extract::LogExtractor log_extractor(src_->wal()->dir());
  txn::Lsn wm = 0;
  Result<DeltaBatch> log_batch =
      log_extractor.ExtractSince(0, t->id(), "parts", t->schema(), &wm);
  ASSERT_TRUE(log_batch.ok());

  Result<DeltaBatch> snap_batch = extract::SnapshotDifferential::Diff(
      dir_.Sub("pre.snap"), dir_.Sub("post.snap"));
  ASSERT_TRUE(snap_batch.ok());

  extract::NetChanges trigger_net, log_net, snap_net;
  OPDELTA_ASSERT_OK(ComputeNetChanges(*trigger_batch, &trigger_net));
  OPDELTA_ASSERT_OK(ComputeNetChanges(*log_batch, &log_net));
  OPDELTA_ASSERT_OK(ComputeNetChanges(*snap_batch, &snap_net));

  // Trigger and log methods observe every change and must agree exactly.
  ASSERT_EQ(trigger_net.size(), log_net.size());
  for (const auto& [key, state] : trigger_net) {
    auto it = log_net.find(key);
    ASSERT_NE(it, log_net.end());
    ASSERT_EQ(state.has_value(), it->second.has_value());
    if (state.has_value()) {
      EXPECT_EQ(catalog::CompareRows(*state, *it->second), 0);
    }
  }
  // Snapshot diff sees only final states; every snap-net entry must match
  // the trigger net (inserted-then-deleted keys are invisible to it).
  for (const auto& [key, state] : snap_net) {
    auto it = trigger_net.find(key);
    ASSERT_NE(it, trigger_net.end()) << key.ToSqlLiteral();
    ASSERT_EQ(state.has_value(), it->second.has_value());
    if (state.has_value()) {
      EXPECT_EQ(catalog::CompareRows(*state, *it->second), 0);
    }
  }
}

}  // namespace
}  // namespace opdelta
