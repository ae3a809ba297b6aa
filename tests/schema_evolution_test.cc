// Schema-evolution robustness: epoch-versioned DDL capture, online
// warehouse migration, and drift-proof parsing. Exercises the full chain —
// ALTER grammar, catalog epoch history and persistence, the engine's
// online migration, epoch-stamped transport frames, the warehouse's
// idempotent schema-event apply, quarantine of incompatible DDL, crash
// recovery at every dead-disk fault point of a migration, and a randomized
// DDL-under-concurrent-writes convergence sweep.

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/fault_env.h"
#include "engine/database.h"
#include "extract/op_delta.h"
#include "extract/schema_event.h"
#include "hub/delta_hub.h"
#include "pipeline/source_leg.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/statement_cache.h"
#include "warehouse/apply_ledger.h"
#include "warehouse/integrator.h"
#include "workload/workload.h"
#include "tests/test_util.h"

namespace opdelta {
namespace {

using catalog::AlterTableSpec;
using catalog::Column;
using catalog::Value;
using catalog::ValueType;
using opdelta::testing::CountRows;
using opdelta::testing::OpenDb;
using opdelta::testing::ScopedEnvOverride;
using opdelta::testing::TablesEqual;
using opdelta::testing::TempDir;

engine::DatabaseOptions NoTimestampOptions() {
  engine::DatabaseOptions options;
  options.auto_timestamp = false;
  return options;
}

// ------------------------------------------------------------ SQL layer

TEST(AlterParserTest, AddColumnWithDefaultRoundTrips) {
  Result<sql::Statement> stmt =
      sql::Parser::Parse("ALTER TABLE parts ADD COLUMN qty INT64 DEFAULT 7");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(stmt->is_alter());
  const sql::AlterStmt& a = stmt->alter();
  EXPECT_EQ(a.table, "parts");
  EXPECT_EQ(a.spec.kind, AlterTableSpec::Kind::kAddColumn);
  EXPECT_EQ(a.spec.column.name, "qty");
  EXPECT_EQ(a.spec.column.type, ValueType::kInt64);
  ASSERT_TRUE(a.spec.column.has_default());
  EXPECT_EQ(a.spec.column.default_value.AsInt64(), 7);

  // Canonical text re-parses to the same statement.
  Result<sql::Statement> again = sql::Parser::Parse(stmt->ToSql());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->alter().spec.ToString(), a.spec.ToString());
}

TEST(AlterParserTest, DropAndAlterColumnForms) {
  Result<sql::Statement> drop =
      sql::Parser::Parse("ALTER TABLE parts DROP COLUMN payload");
  ASSERT_TRUE(drop.ok()) << drop.status().ToString();
  EXPECT_EQ(drop->alter().spec.kind, AlterTableSpec::Kind::kDropColumn);
  EXPECT_EQ(drop->alter().spec.column.name, "payload");

  Result<sql::Statement> retype =
      sql::Parser::Parse("ALTER TABLE parts ALTER COLUMN status INT64");
  ASSERT_TRUE(retype.ok()) << retype.status().ToString();
  EXPECT_EQ(retype->alter().spec.kind, AlterTableSpec::Kind::kAlterType);
  EXPECT_EQ(retype->alter().spec.column.type, ValueType::kInt64);

  EXPECT_FALSE(sql::Parser::Parse("ALTER TABLE parts RENAME COLUMN a").ok());
}

// -------------------------------------------------- catalog epoch history

TEST(SchemaEpochTest, HistoryAndPersistenceAcrossRestart) {
  TempDir dir;
  workload::PartsWorkload wl;
  {
    std::unique_ptr<engine::Database> db =
        OpenDb(dir, "db", NoTimestampOptions());
    OPDELTA_ASSERT_OK(wl.CreateTable(db.get(), "parts"));
    EXPECT_EQ(db->ddl_epoch(), 1u);

    AlterTableSpec add;
    add.kind = AlterTableSpec::Kind::kAddColumn;
    add.column = Column{"qty", ValueType::kInt64, Value::Int64(5)};
    OPDELTA_ASSERT_OK(db->AlterTable("parts", add));
    EXPECT_EQ(db->ddl_epoch(), 2u);

    // Epoch 1 still decodes with the pre-DDL schema; epoch 2 is current.
    Result<catalog::SchemaMap> old_map = db->catalog().SchemasAt(1);
    ASSERT_TRUE(old_map.ok()) << old_map.status().ToString();
    EXPECT_EQ(old_map->at("parts").num_columns(), 4u);
    Result<catalog::SchemaMap> new_map = db->catalog().SchemasAt(2);
    ASSERT_TRUE(new_map.ok()) << new_map.status().ToString();
    EXPECT_EQ(new_map->at("parts").num_columns(), 5u);

    // Unknown/future epochs fail loud, never guess.
    Result<catalog::SchemaMap> future = db->catalog().SchemasAt(9);
    EXPECT_EQ(future.status().code(), StatusCode::kSchemaMismatch);
    EXPECT_EQ(db->SchemaMapAt(9).status().code(),
              StatusCode::kSchemaMismatch);
    OPDELTA_ASSERT_OK(db->Close());
  }
  {
    // Epoch, history, and the added column's default survive restart.
    std::unique_ptr<engine::Database> db =
        OpenDb(dir, "db", NoTimestampOptions());
    EXPECT_EQ(db->ddl_epoch(), 2u);
    Result<catalog::SchemaMap> old_map = db->catalog().SchemasAt(1);
    ASSERT_TRUE(old_map.ok()) << old_map.status().ToString();
    EXPECT_EQ(old_map->at("parts").num_columns(), 4u);
    const catalog::Schema& live = db->GetTable("parts")->schema();
    ASSERT_EQ(live.num_columns(), 5u);
    EXPECT_TRUE(live.column(4).has_default());
    EXPECT_EQ(live.column(4).default_value.AsInt64(), 5);
    OPDELTA_ASSERT_OK(db->Close());
  }
}

// ------------------------------------------------------ engine migration

TEST(SchemaEpochTest, OnlineMigrationRewritesRowsAndRebuildsIndexes) {
  TempDir dir;
  workload::PartsWorkload wl;
  std::unique_ptr<engine::Database> db =
      OpenDb(dir, "db", NoTimestampOptions());
  OPDELTA_ASSERT_OK(wl.CreateTable(db.get(), "parts"));
  sql::Executor exec(db.get());
  OPDELTA_ASSERT_OK(
      exec.ExecuteSql(wl.MakeInsert("parts", 0, 50).ToSql()).status());
  OPDELTA_ASSERT_OK(db->CreateIndex("parts", "id"));

  // ADD: every existing row is extended with the default.
  OPDELTA_ASSERT_OK(
      exec.ExecuteSql("ALTER TABLE parts ADD COLUMN qty INT64 DEFAULT 3")
          .status());
  EXPECT_EQ(CountRows(db.get(), "parts"), 50u);
  uint64_t defaulted = 0;
  OPDELTA_ASSERT_OK(db->Scan(nullptr, "parts", engine::Predicate::True(),
                             [&](const storage::Rid&,
                                 const catalog::Row& row) {
                               if (row.size() == 5 && row[4].AsInt64() == 3) {
                                 ++defaulted;
                               }
                               return true;
                             }));
  EXPECT_EQ(defaulted, 50u);
  EXPECT_TRUE(db->GetTable("parts")->HasIndex("id"));

  // The index still answers point queries against the rewritten heap.
  uint64_t hits = 0;
  OPDELTA_ASSERT_OK(db->Scan(
      nullptr, "parts",
      engine::Predicate::Where("id", engine::CompareOp::kEq,
                               Value::Int64(17)),
      [&](const storage::Rid&, const catalog::Row&) {
        ++hits;
        return true;
      }));
  EXPECT_EQ(hits, 1u);

  // DROP: rows shrink back, remaining data intact.
  OPDELTA_ASSERT_OK(
      exec.ExecuteSql("ALTER TABLE parts DROP COLUMN qty").status());
  EXPECT_EQ(db->GetTable("parts")->schema().num_columns(), 4u);
  EXPECT_EQ(CountRows(db.get(), "parts"), 50u);
  EXPECT_EQ(db->ddl_epoch(), 3u);
  OPDELTA_ASSERT_OK(db->Close());
}

// ---------------------------------------------- transport frame compat

TEST(FrameCompatTest, VersionedFrameCarriesSchemaEpoch) {
  extract::BatchId id;
  id.source_id = "s1";
  id.epoch = 7;
  id.seq = 42;
  id.schema_epoch = 3;
  id.position = 9001;
  std::string frame;
  pipeline::EncodeBatchFrame(id, "payload", &frame);
  ASSERT_FALSE(frame.empty());
  EXPECT_EQ(frame[0], 'F');
  EXPECT_EQ(frame[1], 2);  // version 2 carries the extraction position

  extract::BatchId out;
  std::string body;
  OPDELTA_ASSERT_OK(pipeline::DecodeBatchFrame(frame, &out, &body));
  EXPECT_EQ(out.source_id, "s1");
  EXPECT_EQ(out.epoch, 7u);
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.schema_epoch, 3u);
  EXPECT_EQ(out.position, 9001u);
  EXPECT_FALSE(out.snapshot);
  EXPECT_EQ(body, "payload");
}

std::string LegacyFrame(char tag, const std::string& source_id,
                        uint64_t epoch, uint64_t seq,
                        const std::string& inner) {
  std::string frame;
  frame.push_back(tag);
  PutLengthPrefixed(&frame, Slice(source_id));
  PutFixed64(&frame, epoch);
  PutFixed64(&frame, seq);
  PutFixed32(&frame, Crc32c(inner.data(), inner.size()));
  frame.append(inner);
  return frame;
}

TEST(FrameCompatTest, LegacyFramesNoLongerDecode) {
  // The unversioned 'B'/'C' frames and unframed payloads predate the 'F'
  // frame; no build writes them, and the decoder refuses them loudly
  // rather than guessing an identity or a schema epoch.
  extract::BatchId id;
  std::string body;
  for (const std::string& message :
       {LegacyFrame('B', "old", 2, 9, "payload"),
        LegacyFrame('C', "old", 2, 10, "rows"), std::string("Vpayload")}) {
    const Status st = pipeline::DecodeBatchFrame(message, &id, &body);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_NE(st.ToString().find("unknown pipeline message"),
              std::string::npos)
        << st.ToString();
    EXPECT_FALSE(id.valid());
    EXPECT_FALSE(pipeline::DecodeBatchHeader(Slice(message), &id).ok());
    EXPECT_FALSE(id.valid());
  }
}

TEST(FrameCompatTest, UnknownVersionFeatureAndKindFailLoud) {
  extract::BatchId id;
  id.source_id = "s";
  id.seq = 1;
  std::string frame;
  pipeline::EncodeBatchFrame(id, "x", &frame);

  // Future frame version: refuse with the version named.
  std::string bad_version = frame;
  bad_version[1] = 9;
  extract::BatchId out;
  std::string body;
  Status st = pipeline::DecodeBatchFrame(bad_version, &out, &body);
  EXPECT_EQ(st.code(), StatusCode::kSchemaMismatch);
  EXPECT_NE(st.ToString().find("version"), std::string::npos)
      << st.ToString();

  // Unknown feature bit: refuse with the bit named in hex.
  std::string bad_features = frame;
  bad_features[2] = 1;  // low byte of the fixed32 feature mask
  st = pipeline::DecodeBatchFrame(bad_features, &out, &body);
  EXPECT_EQ(st.code(), StatusCode::kSchemaMismatch);
  EXPECT_NE(st.ToString().find("0x"), std::string::npos) << st.ToString();

  // Unknown section/kind tag inside the versioned preamble.
  std::string bad_kind = frame;
  bad_kind[6] = 'Z';
  st = pipeline::DecodeBatchFrame(bad_kind, &out, &body);
  EXPECT_EQ(st.code(), StatusCode::kSchemaMismatch);
  EXPECT_NE(st.ToString().find("kind"), std::string::npos) << st.ToString();
}

// ----------------------------------------------- schema-map cache (sat 1)

TEST(SchemaMapCacheTest, SharedSnapshotInvalidatedByDdl) {
  TempDir dir;
  workload::PartsWorkload wl;
  std::unique_ptr<engine::Database> db =
      OpenDb(dir, "db", NoTimestampOptions());
  OPDELTA_ASSERT_OK(wl.CreateTable(db.get(), "parts"));

  std::shared_ptr<const catalog::SchemaMap> a = db->CurrentSchemaMap();
  std::shared_ptr<const catalog::SchemaMap> b = db->CurrentSchemaMap();
  EXPECT_EQ(a.get(), b.get()) << "repeated calls must share one snapshot";

  AlterTableSpec add;
  add.kind = AlterTableSpec::Kind::kAddColumn;
  add.column = Column{"qty", ValueType::kInt64, Value::Int64(0)};
  OPDELTA_ASSERT_OK(db->AlterTable("parts", add));
  std::shared_ptr<const catalog::SchemaMap> c = db->CurrentSchemaMap();
  EXPECT_NE(a.get(), c.get()) << "DDL must invalidate the cached snapshot";
  EXPECT_EQ(a->at("parts").num_columns(), 4u);  // old snapshot unchanged
  EXPECT_EQ(c->at("parts").num_columns(), 5u);

  // SchemaMapAt: epoch 0 and the current epoch resolve to the live cache;
  // the prior epoch resolves through the history.
  Result<std::shared_ptr<const catalog::SchemaMap>> at0 = db->SchemaMapAt(0);
  ASSERT_TRUE(at0.ok());
  EXPECT_EQ(at0->get(), c.get());
  Result<std::shared_ptr<const catalog::SchemaMap>> at1 = db->SchemaMapAt(1);
  ASSERT_TRUE(at1.ok());
  EXPECT_EQ((*at1)->at("parts").num_columns(), 4u);
  OPDELTA_ASSERT_OK(db->Close());
}

// -------------------------------------- schema pointer stability (sat 3)

TEST(SchemaMapCacheTest, SchemaReferencesStableUnderConcurrentDdl) {
  // Readers bind a schema reference, then a concurrent ALTER rewrites the
  // table. COW snapshots keep old references valid; TSan watches the
  // accesses. Run under the TSan CI job.
  TempDir dir;
  workload::PartsWorkload wl;
  std::unique_ptr<engine::Database> db =
      OpenDb(dir, "db", NoTimestampOptions());
  OPDELTA_ASSERT_OK(wl.CreateTable(db.get(), "parts"));
  sql::Executor exec(db.get());
  OPDELTA_ASSERT_OK(
      exec.ExecuteSql(wl.MakeInsert("parts", 0, 20).ToSql()).status());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        engine::Table* table = db->GetTable("parts");
        ASSERT_NE(table, nullptr);
        const catalog::Schema& schema = table->schema();
        // Hold the reference across a full pass over its columns — a
        // migration freeing the old schema would fault or race here.
        size_t cols = 0;
        for (size_t i = 0; i < schema.num_columns(); ++i) {
          cols += schema.column(i).name.size();
        }
        ASSERT_GT(cols, 0u);
        std::shared_ptr<const catalog::SchemaMap> map =
            db->CurrentSchemaMap();
        ASSERT_NE(map->find("parts"), map->end());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 6; ++i) {
    AlterTableSpec spec;
    if (i % 2 == 0) {
      spec.kind = AlterTableSpec::Kind::kAddColumn;
      spec.column = Column{"extra", ValueType::kInt64, Value::Int64(1)};
    } else {
      spec.kind = AlterTableSpec::Kind::kDropColumn;
      spec.column.name = "extra";
    }
    OPDELTA_ASSERT_OK(db->AlterTable("parts", spec));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);
  OPDELTA_ASSERT_OK(db->Close());
}

// ------------------------------------- warehouse migration (idempotency)

class WarehouseMigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wh_ = OpenDb(dir_, "wh", NoTimestampOptions());
    OPDELTA_ASSERT_OK(wl_.CreateTable(wh_.get(), "parts"));
    ledger_ = std::make_unique<warehouse::ApplyLedger>(wh_.get());
    OPDELTA_ASSERT_OK(ledger_->Setup());
  }

  /// A captured one-event transaction carrying `spec` over the live
  /// warehouse schema.
  extract::OpDeltaTxn EventTxn(const AlterTableSpec& spec, uint64_t epoch) {
    auto event = std::make_shared<extract::SchemaEvent>();
    event->table = "parts";
    event->ddl_epoch = epoch;
    event->spec = spec;
    event->old_schema = wh_->GetTable("parts")->schema();
    Status migrated =
        catalog::ApplyAlter(event->old_schema, spec, &event->new_schema);
    EXPECT_TRUE(migrated.ok()) << migrated.ToString();
    event->ddl_sql = "ALTER TABLE parts " + spec.ToString();

    extract::OpDeltaTxn txn;
    txn.id = 77;
    extract::OpDeltaRecord op;
    op.source_txn = 77;
    op.seq = 1;
    op.sql = event->ddl_sql;
    op.schema_event = std::move(event);
    txn.ops.push_back(std::move(op));
    return txn;
  }

  extract::BatchId Id(uint64_t seq) {
    extract::BatchId id;
    id.source_id = "s1";
    id.epoch = 1;
    id.seq = seq;
    id.schema_epoch = 1;
    return id;
  }

  TempDir dir_;
  workload::PartsWorkload wl_;
  std::unique_ptr<engine::Database> wh_;
  std::unique_ptr<warehouse::ApplyLedger> ledger_;
};

TEST_F(WarehouseMigrationTest, SchemaEventAppliesOnceUnderRedelivery) {
  AlterTableSpec add;
  add.kind = AlterTableSpec::Kind::kAddColumn;
  add.column = Column{"qty", ValueType::kInt64, Value::Int64(4)};
  std::vector<extract::OpDeltaTxn> txns = {EventTxn(add, 2)};

  warehouse::OpDeltaIntegrator integrator(wh_.get());
  warehouse::IntegrationStats stats;
  OPDELTA_ASSERT_OK(integrator.Apply(txns, Id(1), ledger_.get(), &stats));
  EXPECT_EQ(stats.schema_migrations, 1u);
  EXPECT_EQ(wh_->GetTable("parts")->schema().num_columns(), 5u);

  // Redelivery of the same batch: the ledger drops it whole.
  warehouse::IntegrationStats redeliver;
  OPDELTA_ASSERT_OK(
      integrator.Apply(txns, Id(1), ledger_.get(), &redeliver));
  EXPECT_EQ(redeliver.schema_migrations, 0u);
  EXPECT_EQ(redeliver.duplicate_batches, 1u);

  // Crash-between-migration-and-ledger shape: the warehouse is already at
  // the new schema but the batch arrives under a fresh identity. The
  // idempotent re-check makes it a no-op migration, not an error.
  warehouse::IntegrationStats replay;
  OPDELTA_ASSERT_OK(integrator.Apply(txns, Id(2), ledger_.get(), &replay));
  EXPECT_EQ(replay.schema_migrations, 0u);
  EXPECT_EQ(wh_->GetTable("parts")->schema().num_columns(), 5u);
}

// Regression: prepared-statement skeletons are keyed by the warehouse
// ddl_epoch. A migration landing mid-stream must force the next statement
// of every previously-cached shape to re-parse under the new epoch; a
// cache that ignored the epoch would keep the warm entry and skip exactly
// that re-parse, which this test would catch as an unchanged miss count.
TEST_F(WarehouseMigrationTest, ParallelApplyReParsesCachedShapesAcrossDdl) {
  sql::Executor exec(wh_.get());
  OPDELTA_ASSERT_OK(
      exec.ExecuteSql(wl_.MakeInsert("parts", 0, 8).ToSql()).status());

  sql::StatementCache cache;
  warehouse::OpDeltaIntegrator integrator(wh_.get(), &cache);

  auto update_txn = [](uint64_t id, uint64_t key, const std::string& tag) {
    extract::OpDeltaTxn txn;
    txn.id = id;
    extract::OpDeltaRecord op;
    op.source_txn = id;
    op.seq = 1;
    op.sql = "UPDATE parts SET status = '" + tag +
             "' WHERE id = " + std::to_string(key);
    txn.ops.push_back(std::move(op));
    return txn;
  };

  // Warm one UPDATE shape under the initial epoch: one miss, then hits.
  std::vector<extract::OpDeltaTxn> warm;
  for (uint64_t t = 0; t < 4; ++t) {
    warm.push_back(update_txn(t + 1, t, "warm"));
  }
  warehouse::IntegrationStats stats;
  OPDELTA_ASSERT_OK(integrator.Apply(warm, Id(1), ledger_.get(), &stats));
  const sql::StatementCacheStats warmed = cache.stats();
  EXPECT_EQ(warmed.misses, 1u);
  EXPECT_EQ(warmed.hits, 3u);

  // The migration bumps the warehouse ddl_epoch.
  const uint64_t epoch_before = wh_->ddl_epoch();
  AlterTableSpec add;
  add.kind = AlterTableSpec::Kind::kAddColumn;
  add.column = Column{"qty", ValueType::kInt64, Value::Int64(4)};
  std::vector<extract::OpDeltaTxn> ddl = {EventTxn(add, 2)};
  warehouse::IntegrationStats ddl_stats;
  OPDELTA_ASSERT_OK(integrator.Apply(ddl, Id(2), ledger_.get(), &ddl_stats));
  EXPECT_EQ(ddl_stats.schema_migrations, 1u);
  EXPECT_GT(wh_->ddl_epoch(), epoch_before);

  // Same shape after the DDL: exactly one fresh parse, then hits again,
  // and the statements execute against the five-column schema.
  std::vector<extract::OpDeltaTxn> post;
  for (uint64_t t = 0; t < 4; ++t) {
    post.push_back(update_txn(t + 101, t + 4, "post"));
  }
  warehouse::IntegrationStats post_stats;
  OPDELTA_ASSERT_OK(
      integrator.Apply(post, Id(3), ledger_.get(), &post_stats));
  const sql::StatementCacheStats after = cache.stats();
  EXPECT_EQ(after.misses, warmed.misses + 1);
  EXPECT_EQ(after.hits, warmed.hits + 3);

  uint64_t post_rows = 0;
  OPDELTA_ASSERT_OK(wh_->Scan(nullptr, "parts", engine::Predicate::True(),
                              [&](const storage::Rid&,
                                  const catalog::Row& row) {
                                EXPECT_EQ(row.size(), 5u);
                                EXPECT_EQ(row[4].AsInt64(), 4);
                                if (row[1].AsString() == "post") ++post_rows;
                                return true;
                              }));
  EXPECT_EQ(post_rows, 4u);
}

TEST_F(WarehouseMigrationTest, IncompatibleAndDriftedEventsQuarantine) {
  // Type changes cannot be applied online: refuse with a reason.
  AlterTableSpec retype;
  retype.kind = AlterTableSpec::Kind::kAlterType;
  retype.column = Column{"status", ValueType::kInt64};
  std::vector<extract::OpDeltaTxn> txns = {EventTxn(retype, 2)};
  warehouse::OpDeltaIntegrator integrator(wh_.get());
  warehouse::IntegrationStats stats;
  Status st = integrator.Apply(txns, Id(1), ledger_.get(), &stats);
  EXPECT_EQ(st.code(), StatusCode::kSchemaMismatch);
  EXPECT_NE(st.ToString().find("incompatible"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(wh_->GetTable("parts")->schema().num_columns(), 4u);

  // Drift: the warehouse schema matches neither side of the captured DDL.
  AlterTableSpec add;
  add.kind = AlterTableSpec::Kind::kAddColumn;
  add.column = Column{"qty", ValueType::kInt64, Value::Int64(0)};
  std::vector<extract::OpDeltaTxn> drifted = {EventTxn(add, 2)};
  AlterTableSpec unrelated;
  unrelated.kind = AlterTableSpec::Kind::kAddColumn;
  unrelated.column = Column{"other", ValueType::kString};
  OPDELTA_ASSERT_OK(wh_->AlterTable("parts", unrelated));
  st = integrator.Apply(drifted, Id(3), ledger_.get(), &stats);
  EXPECT_EQ(st.code(), StatusCode::kSchemaMismatch);
  EXPECT_NE(st.ToString().find("drifted"), std::string::npos)
      << st.ToString();
}

// -------------------------------------------------- hub end-to-end DDL

class HubSchemaEvolutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    src_ = OpenDb(dir_, "src", NoTimestampOptions());
    wh_ = OpenDb(dir_, "wh", NoTimestampOptions());
    OPDELTA_ASSERT_OK(wl_.CreateTable(src_.get(), "parts"));
    OPDELTA_ASSERT_OK(
        wh_->CreateTable("parts", workload::PartsWorkload::Schema()));
  }

  Result<std::unique_ptr<hub::DeltaHub>> MakeHub(bool backfill = false,
                                                 bool scrub = false) {
    hub::HubOptions options;
    options.work_dir = dir_.Sub("hub");
    options.quarantine_after = 2;
    OPDELTA_ASSIGN_OR_RETURN(std::unique_ptr<hub::DeltaHub> hub,
                             hub::DeltaHub::Create(wh_.get(), options));
    hub::SourceSpec spec;
    spec.name = "s1";
    spec.source = src_.get();
    spec.method = pipeline::Method::kOpDelta;
    spec.source_table = "parts";
    spec.warehouse_table = "parts";
    spec.backfill = backfill;
    spec.backfill_chunk_rows = 16;
    spec.scrub = scrub;
    spec.scrub_chunk_rows = 512;
    OPDELTA_RETURN_IF_ERROR(hub->AddSource(spec));
    OPDELTA_RETURN_IF_ERROR(hub->Setup());
    return hub;
  }

  /// Retries lock conflicts like a real OLTP client.
  template <typename Fn>
  Status Retry(Fn&& fn) {
    Status st;
    for (int attempt = 0; attempt < 200; ++attempt) {
      st = fn();
      if (!st.IsConflict() && st.code() != StatusCode::kBusy) return st;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return st;
  }

  Status Captured(extract::OpDeltaCapture* capture, const std::string& sql) {
    return Retry([&] {
      OPDELTA_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parser::Parse(sql));
      return capture->RunTransaction({std::move(stmt)}).status();
    });
  }

  TempDir dir_;
  workload::PartsWorkload wl_;
  std::unique_ptr<engine::Database> src_;
  std::unique_ptr<engine::Database> wh_;
};

TEST_F(HubSchemaEvolutionTest, DdlMigratesWarehouseAndConverges) {
  Result<std::unique_ptr<hub::DeltaHub>> hub = MakeHub();
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  extract::OpDeltaCapture* capture = (*hub)->capture("s1");
  ASSERT_NE(capture, nullptr);

  OPDELTA_ASSERT_OK(Retry([&] {
    return capture->RunTransaction({wl_.MakeInsert("parts", 0, 30)}).status();
  }));
  OPDELTA_ASSERT_OK((*hub)->RunRound());

  // Live DDL, with captured traffic before and after it still pending in
  // the op log: the extraction must split the drain at the epoch boundary.
  OPDELTA_ASSERT_OK(Retry([&] {
    return capture->RunTransaction({wl_.MakeUpdate("parts", 0, 10, "pre")})
        .status();
  }));
  Result<uint64_t> epoch = capture->ExecuteDdl(
      sql::Parser::Parse("ALTER TABLE parts ADD COLUMN qty INT64 DEFAULT 2")
          ->alter());
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 2u);
  OPDELTA_ASSERT_OK(Captured(
      capture, "INSERT INTO parts VALUES (100, 'new', 'p100', 0, 9)"));
  OPDELTA_ASSERT_OK(Captured(capture,
                             "UPDATE parts SET status = 'post' WHERE id <= "
                             "5"));

  for (int i = 0; i < 4; ++i) OPDELTA_ASSERT_OK((*hub)->RunRound());

  EXPECT_EQ(wh_->GetTable("parts")->schema().num_columns(), 5u);
  EXPECT_TRUE(TablesEqual(src_.get(), "parts", wh_.get(), "parts"));
  const hub::SourceStats s = (*hub)->Stats().sources[0];
  EXPECT_EQ(s.source_schema_epoch, 2u);
  EXPECT_EQ(s.applied_schema_epoch, 2u);
  EXPECT_EQ(s.dead_letters, 0u);
  EXPECT_FALSE(s.quarantined);
  OPDELTA_ASSERT_OK((*hub)->Stop());
}

TEST_F(HubSchemaEvolutionTest, RestartBetweenCaptureAndApplyCatchesUp) {
  // A hub restart can land after a DDL was captured but before any round
  // shipped it: the warehouse still has the old schema while the migration
  // event sits in the durable queue. AddSource must recognize the
  // warehouse as lagging-by-captured-DDL (it matches an earlier source
  // epoch) instead of refusing as drifted, and replay must catch it up.
  {
    Result<std::unique_ptr<hub::DeltaHub>> hub = MakeHub(/*backfill=*/false,
                                                         /*scrub=*/true);
    ASSERT_TRUE(hub.ok()) << hub.status().ToString();
    extract::OpDeltaCapture* capture = (*hub)->capture("s1");
    ASSERT_NE(capture, nullptr);
    OPDELTA_ASSERT_OK(Retry([&] {
      return capture->RunTransaction({wl_.MakeInsert("parts", 0, 20)})
          .status();
    }));
    OPDELTA_ASSERT_OK((*hub)->RunRound());
    Result<uint64_t> epoch = capture->ExecuteDdl(
        sql::Parser::Parse("ALTER TABLE parts ADD COLUMN qty INT64 DEFAULT 4")
            ->alter());
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    OPDELTA_ASSERT_OK((*hub)->Stop());  // no round: the 'D' event is queued
  }
  ASSERT_EQ(src_->GetTable("parts")->schema().num_columns(), 5u);
  ASSERT_EQ(wh_->GetTable("parts")->schema().num_columns(), 4u);

  Result<std::unique_ptr<hub::DeltaHub>> hub = MakeHub(/*backfill=*/false,
                                                       /*scrub=*/true);
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  for (int i = 0; i < 6; ++i) OPDELTA_ASSERT_OK((*hub)->RunRound());
  EXPECT_EQ(wh_->GetTable("parts")->schema().num_columns(), 5u);
  EXPECT_TRUE(TablesEqual(src_.get(), "parts", wh_.get(), "parts"));
  const hub::SourceStats s = (*hub)->Stats().sources[0];
  EXPECT_EQ(s.source_schema_epoch, s.applied_schema_epoch);
  EXPECT_EQ(s.chunks_mismatched, 0u);
  EXPECT_FALSE(s.quarantined);
  OPDELTA_ASSERT_OK((*hub)->Stop());
}

TEST_F(HubSchemaEvolutionTest, MigrationRestartsBackfillForAddedColumns) {
  sql::Executor exec(src_.get());
  OPDELTA_ASSERT_OK(
      exec.ExecuteSql(wl_.MakeInsert("parts", 0, 64).ToSql()).status());

  Result<std::unique_ptr<hub::DeltaHub>> hub = MakeHub(/*backfill=*/true);
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  extract::OpDeltaCapture* capture = (*hub)->capture("s1");
  ASSERT_NE(capture, nullptr);
  for (int i = 0; i < 40 && !(*hub)->Stats().sources[0].backfill_done; ++i) {
    OPDELTA_ASSERT_OK((*hub)->RunRound());
  }
  ASSERT_TRUE((*hub)->Stats().sources[0].backfill_done);
  ASSERT_TRUE(TablesEqual(src_.get(), "parts", wh_.get(), "parts"));

  Result<uint64_t> epoch = capture->ExecuteDdl(
      sql::Parser::Parse("ALTER TABLE parts ADD COLUMN qty INT64 DEFAULT 6")
          ->alter());
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  OPDELTA_ASSERT_OK((*hub)->RunRound());  // ships + applies the migration

  // The migration restarted the backfill from chunk one: the done flag and
  // cursor were reset, and driving it to completion again re-ships every
  // chunk with post-DDL row images.
  EXPECT_FALSE((*hub)->Stats().sources[0].backfill_done)
      << "migration did not restart the backfill";
  for (int i = 0; i < 40 && !(*hub)->Stats().sources[0].backfill_done; ++i) {
    OPDELTA_ASSERT_OK((*hub)->RunRound());
  }
  const hub::SourceStats s = (*hub)->Stats().sources[0];
  EXPECT_TRUE(s.backfill_done);
  EXPECT_EQ(s.rows_backfilled, 64u) << "restart must re-ship every chunk";
  EXPECT_TRUE(TablesEqual(src_.get(), "parts", wh_.get(), "parts"));
  OPDELTA_ASSERT_OK((*hub)->Stop());
}

TEST_F(HubSchemaEvolutionTest, IncompatibleDdlQuarantinesWithReason) {
  Result<std::unique_ptr<hub::DeltaHub>> hub = MakeHub();
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  extract::OpDeltaCapture* capture = (*hub)->capture("s1");
  ASSERT_NE(capture, nullptr);
  OPDELTA_ASSERT_OK(Retry([&] {
    return capture->RunTransaction({wl_.MakeInsert("parts", 0, 10)}).status();
  }));
  OPDELTA_ASSERT_OK((*hub)->RunRound());

  // A compatible ADD first: an all-null column the source can later retype.
  Result<uint64_t> added = capture->ExecuteDdl(
      sql::Parser::Parse("ALTER TABLE parts ADD COLUMN note STRING")
          ->alter());
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  OPDELTA_ASSERT_OK((*hub)->RunRound());
  ASSERT_EQ(wh_->GetTable("parts")->schema().num_columns(), 5u);

  // A column type change is incompatible with online migration: the source
  // migrates (all-null column, every cell coerces), the warehouse must
  // refuse and quarantine — never guess, never dead-letter past the
  // consistency boundary.
  Result<uint64_t> epoch = capture->ExecuteDdl(
      sql::Parser::Parse("ALTER TABLE parts ALTER COLUMN note INT64")
          ->alter());
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

  // Rounds fail until the quarantine threshold; afterwards the source is
  // skipped and rounds go back to OK — so count failures, don't require
  // the last round to fail.
  int failed_rounds = 0;
  for (int i = 0; i < 4; ++i) {
    if (!(*hub)->RunRound().ok()) ++failed_rounds;
  }
  EXPECT_GE(failed_rounds, 2);
  const hub::SourceStats s = (*hub)->Stats().sources[0];
  EXPECT_TRUE(s.quarantined);
  EXPECT_EQ(s.dead_letters, 0u) << "poison DDL must not be dead-lettered";
  EXPECT_NE(s.last_error.find("incompatible"), std::string::npos)
      << s.last_error;
  // The warehouse kept its pre-retype schema; nothing was half-applied.
  EXPECT_EQ(wh_->GetTable("parts")->schema().column(4).type,
            ValueType::kString);
  OPDELTA_ASSERT_OK((*hub)->Stop());
}

// ------------------------------------------- migration crash sweep (sat 4)

TEST(SchemaMigrationCrashTest, RecoversAtEveryDeadDiskFaultPoint) {
  // Sweep a dead-disk crash across every I/O the migration performs. After
  // each crash + power loss, recovery must land on exactly the old or the
  // new schema with all rows decodable — never a torn hybrid.
  workload::PartsWorkload wl;
  // Synced commits: this test is about what the *migration* loses at power
  // loss, so the pre-DDL traffic must be durable.
  engine::DatabaseOptions durable = NoTimestampOptions();
  durable.wal.sync_on_commit = true;
  bool completed = false;
  int crash_point = 1;
  for (; !completed && crash_point < 200; ++crash_point) {
    TempDir dir;
    FaultInjectionEnv fenv(Env::Default(),
                           static_cast<uint64_t>(crash_point));
    ScopedEnvOverride scoped(&fenv);
    {
      // Durable baseline: the clean Close flushes and syncs the heap, so
      // the sweep measures what the *migration* can lose, nothing else.
      std::unique_ptr<engine::Database> db = OpenDb(dir, "db", durable);
      OPDELTA_ASSERT_OK(wl.CreateTable(db.get(), "parts"));
      sql::Executor exec(db.get());
      OPDELTA_ASSERT_OK(
          exec.ExecuteSql(wl.MakeInsert("parts", 0, 12).ToSql()).status());
      OPDELTA_ASSERT_OK(db->Close());
    }
    {
      std::unique_ptr<engine::Database> db = OpenDb(dir, "db", durable);
      fenv.FailAllOpsAfter(static_cast<uint64_t>(crash_point));
      AlterTableSpec add;
      add.kind = AlterTableSpec::Kind::kAddColumn;
      add.column = Column{"qty", ValueType::kInt64, Value::Int64(8)};
      Status st = db->AlterTable("parts", add);
      completed = st.ok();
      // No Close(): the process dies here.
    }
    fenv.ClearFaults();
    // Power failure: drop whatever never reached disk, torn tails included.
    OPDELTA_ASSERT_OK(fenv.CrashAndDropUnsynced(/*torn_tails=*/true));

    std::unique_ptr<engine::Database> db;
    Status open = engine::Database::Open(dir.Sub("db"), durable, &db);
    ASSERT_TRUE(open.ok()) << "crash point " << crash_point << ": "
                           << open.ToString();
    const catalog::Schema& schema = db->GetTable("parts")->schema();
    ASSERT_TRUE(schema.num_columns() == 4 || schema.num_columns() == 5)
        << "crash point " << crash_point << " left a torn schema";
    // Committed rows survive and decode under the recovered schema; an
    // added column landed with its default everywhere.
    EXPECT_EQ(CountRows(db.get(), "parts"), 12u)
        << "crash point " << crash_point;
    OPDELTA_ASSERT_OK(db->Scan(
        nullptr, "parts", engine::Predicate::True(),
        [&](const storage::Rid&, const catalog::Row& row) {
          EXPECT_EQ(row.size(), schema.num_columns());
          if (schema.num_columns() == 5) {
            EXPECT_EQ(row[4].AsInt64(), 8);
          }
          return true;
        }));
    // The epoch history stays self-consistent with the survivor schema.
    EXPECT_EQ(db->ddl_epoch(), schema.num_columns() == 5 ? 2u : 1u)
        << "crash point " << crash_point;
    OPDELTA_ASSERT_OK(db->Close());
  }
  EXPECT_TRUE(completed) << "sweep never reached a fault-free migration";
  EXPECT_GT(crash_point, 2);
}

// --------------------------------- randomized DDL-under-writes (5 seeds)

class RandomizedDdlTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedDdlTest, ConcurrentWritesAndDdlConverge) {
  const uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  TempDir dir;
  workload::PartsWorkload wl;
  std::unique_ptr<engine::Database> src =
      OpenDb(dir, "src", NoTimestampOptions());
  std::unique_ptr<engine::Database> wh =
      OpenDb(dir, "wh", NoTimestampOptions());
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(
      wh->CreateTable("parts", workload::PartsWorkload::Schema()));

  auto make_hub = [&]() -> Result<std::unique_ptr<hub::DeltaHub>> {
    hub::HubOptions options;
    options.work_dir = dir.Sub("hub");
    OPDELTA_ASSIGN_OR_RETURN(std::unique_ptr<hub::DeltaHub> hub,
                             hub::DeltaHub::Create(wh.get(), options));
    hub::SourceSpec spec;
    spec.name = "s1";
    spec.source = src.get();
    spec.method = pipeline::Method::kOpDelta;
    spec.source_table = "parts";
    spec.warehouse_table = "parts";
    spec.scrub = true;
    spec.scrub_chunk_rows = 512;
    OPDELTA_RETURN_IF_ERROR(hub->AddSource(spec));
    OPDELTA_RETURN_IF_ERROR(hub->Setup());
    return hub;
  };

  auto retry = [](auto&& fn) {
    Status st;
    for (int attempt = 0; attempt < 400; ++attempt) {
      st = fn();
      if (!st.IsConflict() && st.code() != StatusCode::kBusy) return st;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return st;
  };

  Result<std::unique_ptr<hub::DeltaHub>> hub = make_hub();
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  extract::OpDeltaCapture* capture = (*hub)->capture("s1");
  ASSERT_NE(capture, nullptr);

  // Atomic: the writer thread reads it while the main thread increments.
  std::atomic<int64_t> next_key{0};
  std::vector<std::string> extra_columns;  // columns added by this test
  int added = 0;

  auto insert_sql = [&](int64_t key) {
    std::string sql = "INSERT INTO parts VALUES (" + std::to_string(key) +
                      ", 'new', 'p" + std::to_string(key) + "', 0";
    for (size_t i = 0; i < extra_columns.size(); ++i) sql += ", 1";
    return sql + ")";
  };

  const int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    // Concurrent writer: arity-independent captured traffic racing the
    // round's DDL. Updates and deletes survive any column set.
    std::atomic<bool> writer_failed{false};
    std::string writer_error;
    std::thread writer([&] {
      for (int i = 0; i < 8; ++i) {
        Status st = retry([&] {
          Result<sql::Statement> stmt = sql::Parser::Parse(
              "UPDATE parts SET status = 'w" + std::to_string(i) +
              "' WHERE id <= " + std::to_string(next_key.load()));
          if (!stmt.ok()) return stmt.status();
          return capture->RunTransaction({*std::move(stmt)}).status();
        });
        if (!st.ok()) {
          writer_error = st.ToString();
          writer_failed.store(true);
          return;
        }
      }
    });

    // Mainline traffic: inserts at the live arity plus the occasional DDL.
    for (int i = 0; i < 4; ++i) {
      OPDELTA_ASSERT_OK(retry([&] {
        Result<sql::Statement> stmt =
            sql::Parser::Parse(insert_sql(next_key.load()));
        if (!stmt.ok()) return stmt.status();
        Status st = capture->RunTransaction({*std::move(stmt)}).status();
        // A concurrent reader never sees this, but the *writer thread's*
        // DDL below can land between Parse and Run: re-generate on arity
        // mismatch instead of failing the round.
        if (st.code() == StatusCode::kInvalidArgument) {
          return Status::Conflict(st.ToString());
        }
        return st;
      }));
      ++next_key;
    }
    const int dice = static_cast<int>(rng() % 3);
    if (dice == 0) {
      const std::string name = "extra" + std::to_string(added++);
      Result<sql::Statement> ddl = sql::Parser::Parse(
          "ALTER TABLE parts ADD COLUMN " + name + " INT64 DEFAULT " +
          std::to_string(rng() % 100));
      ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
      OPDELTA_ASSERT_OK(retry(
          [&] { return capture->ExecuteDdl(ddl->alter()).status(); }));
      extra_columns.push_back(name);
    } else if (dice == 1 && !extra_columns.empty()) {
      const std::string name = extra_columns.back();
      Result<sql::Statement> ddl =
          sql::Parser::Parse("ALTER TABLE parts DROP COLUMN " + name);
      ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
      OPDELTA_ASSERT_OK(retry(
          [&] { return capture->ExecuteDdl(ddl->alter()).status(); }));
      extra_columns.pop_back();
    }
    writer.join();
    ASSERT_FALSE(writer_failed.load())
        << "writer gave up, seed " << seed << ": " << writer_error;
    OPDELTA_ASSERT_OK((*hub)->RunRound());

    if (round == kRounds / 2) {
      // Crash-restart the whole transport mid-stream: the durable queue
      // replays and its newest frame restores the drained epoch; the
      // ledger dedupes; epochs keep decoding.
      OPDELTA_ASSERT_OK((*hub)->Stop());
      hub->reset();
      hub = make_hub();
      ASSERT_TRUE(hub.ok()) << hub.status().ToString();
      capture = (*hub)->capture("s1");
      ASSERT_NE(capture, nullptr);
    }
  }

  // Drain to empty and converge: source and warehouse byte-equal, schemas
  // included, with zero divergence under the epoch-aware scrub digest.
  for (int i = 0; i < 30; ++i) OPDELTA_ASSERT_OK((*hub)->RunRound());
  EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"))
      << "seed " << seed;
  EXPECT_TRUE(src->GetTable("parts")->schema() ==
              wh->GetTable("parts")->schema())
      << "seed " << seed;
  const hub::SourceStats s = (*hub)->Stats().sources[0];
  EXPECT_EQ(s.chunks_mismatched, 0u)
      << "seed " << seed << ": epoch-aware scrub false positive";
  EXPECT_EQ(s.dead_letters, 0u) << "seed " << seed;
  EXPECT_FALSE(s.quarantined) << "seed " << seed;
  EXPECT_EQ(s.source_schema_epoch, s.applied_schema_epoch)
      << "seed " << seed;
  OPDELTA_ASSERT_OK((*hub)->Stop());
  OPDELTA_ASSERT_OK(src->Close());
  OPDELTA_ASSERT_OK(wh->Close());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedDdlTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace opdelta
