// Op-delta apply (warehouse::OpDeltaIntegrator: inline, one source
// transaction at a time, in source commit order) and the prepared-statement
// cache (sql/statement_cache.h).
//
// The load-bearing property is convergence: for any op-delta batch, apply
// must produce the warehouse state an independent oracle produces by
// replaying each transaction through a plain executor, with the ledger
// semantics on top — same committed prefix and error on failure, the same
// duplicate/resume decisions. The randomized suites drive that with seeded
// workloads, both disjoint (every transaction its own keys) and
// conflicting (a hot key set where source order decides the outcome).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/digest.h"
#include "common/random.h"
#include "engine/trigger.h"
#include "hub/delta_hub.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/statement_cache.h"
#include "extract/schema_event.h"
#include "warehouse/apply_ledger.h"
#include "warehouse/integrator.h"
#include "workload/workload.h"
#include "tests/test_util.h"

namespace opdelta::warehouse {
namespace {

using opdelta::testing::CountRows;
using opdelta::testing::OpenDb;
using opdelta::testing::TablesEqual;
using opdelta::testing::TempDir;

engine::DatabaseOptions NoTimestampOptions() {
  engine::DatabaseOptions options;
  options.auto_timestamp = false;  // deterministic rows for digest equality
  return options;
}

extract::OpDeltaRecord Op(uint64_t seq, std::string sql) {
  return extract::OpDeltaRecord{0, seq, std::move(sql), false, {}, nullptr};
}

extract::OpDeltaTxn Txn(txn::TxnId id, std::vector<std::string> sqls) {
  extract::OpDeltaTxn txn;
  txn.id = id;
  uint64_t seq = 1;
  for (std::string& s : sqls) txn.ops.push_back(Op(seq++, std::move(s)));
  return txn;
}

extract::BatchId Batch(uint64_t seq) {
  extract::BatchId id;
  id.source_id = "src";
  id.epoch = 1;
  id.seq = seq;
  return id;
}

/// Order-independent digest of every cell of every row — unlike
/// testing::TableContents this tolerates duplicate key values, which the
/// randomized workloads can legitimately produce.
SetDigest DigestTable(engine::Database* db, const std::string& table) {
  SetDigest digest;
  Status st = db->Scan(nullptr, table, engine::Predicate::True(),
                       [&](const storage::Rid&, const catalog::Row& row) {
                         std::string encoded;
                         for (const catalog::Value& v : row) {
                           encoded += v.ToSqlLiteral();
                           encoded += '|';
                         }
                         digest.Add(encoded);
                         return true;
                       });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return digest;
}

// ------------------------------------------------------ statement cache

TEST(StatementCacheTest, MatchesParserAcrossLiteralEdgeCases) {
  // Cache + rebind must reproduce a full parse on every normalizable
  // shape: multi-row inserts, negatives, floats, doubled quotes, NULL and
  // timestamp literals, compound WHERE clauses.
  const std::vector<std::string> statements = {
      "INSERT INTO parts VALUES (1, 'new', 'p-1', TS:5)",
      "INSERT INTO parts VALUES (9, 'it''s', 'p', TS:1)",
      "INSERT INTO parts VALUES (-2, 'a', 'x', TS:0), (3, 'c', NULL, TS:7)",
      "INSERT INTO metrics VALUES (1.5, -2.25)",
      "UPDATE parts SET status = 'u' WHERE id = -4",
      "UPDATE parts SET status = NULL, payload = 'q' "
      "WHERE id = 7 AND status = 's'",
      "DELETE FROM parts WHERE id = 12",
  };
  sql::StatementCache cache;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& s : statements) {
      Result<sql::Statement> direct = sql::Parser::Parse(s);
      ASSERT_TRUE(direct.ok()) << s << ": " << direct.status().ToString();
      Result<sql::Statement> cached = cache.Parse(s);
      ASSERT_TRUE(cached.ok()) << s << ": " << cached.status().ToString();
      EXPECT_EQ(cached.value().ToSql(), direct.value().ToSql())
          << "pass " << pass << ": " << s;
    }
  }
  const sql::StatementCacheStats stats = cache.stats();
  EXPECT_EQ(stats.bypasses, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 2 * statements.size());
  // The second pass is all hits; the first may add more via shared shapes.
  EXPECT_GE(stats.hits, statements.size());
}

TEST(StatementCacheTest, SharedShapeHitsWithRebinding) {
  sql::StatementCache cache;
  Result<sql::Statement> a = cache.Parse("INSERT INTO t VALUES (1, 'a')");
  Result<sql::Statement> b = cache.Parse("INSERT INTO t VALUES (2, 'b')");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  // The hit is rebound with its own literals, not the skeleton's.
  EXPECT_EQ(b.value().ToSql(),
            sql::Parser::Parse("INSERT INTO t VALUES (2, 'b')")
                .value()
                .ToSql());
  EXPECT_NE(a.value().ToSql(), b.value().ToSql());
}

TEST(StatementCacheTest, NonDmlBypassesTheCache) {
  sql::StatementCache cache;
  for (const char* s :
       {"SELECT * FROM parts",
        "ALTER TABLE parts ADD COLUMN qty INT64 DEFAULT 7"}) {
    Result<sql::Statement> direct = sql::Parser::Parse(s);
    Result<sql::Statement> cached = cache.Parse(s);
    ASSERT_EQ(cached.ok(), direct.ok()) << s;
    if (direct.ok()) {
      EXPECT_EQ(cached.value().ToSql(), direct.value().ToSql());
    }
  }
  EXPECT_EQ(cache.stats().bypasses, 2u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
  // Parse errors surface unchanged through the cache path.
  EXPECT_FALSE(cache.Parse("INSERT INTO").ok());
}

TEST(StatementCacheTest, SchemaEpochInvalidatesEntries) {
  // Entries are keyed by (shape, ddl_epoch): a migration can never be
  // served a skeleton parsed under the previous schema.
  const std::string sql = "INSERT INTO parts VALUES (1, 'a', 'b', TS:1)";
  sql::StatementCache cache;
  OPDELTA_ASSERT_OK(cache.Parse(sql, 1).status());
  OPDELTA_ASSERT_OK(cache.Parse(sql, 1).status());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  OPDELTA_ASSERT_OK(cache.Parse(sql, 2).status());  // post-DDL: re-parse
  EXPECT_EQ(cache.stats().misses, 2u);
  OPDELTA_ASSERT_OK(cache.Parse(sql, 2).status());
  EXPECT_EQ(cache.stats().hits, 2u);
  // The old epoch's entry survives until evicted, still keyed apart.
  OPDELTA_ASSERT_OK(cache.Parse(sql, 1).status());
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(StatementCacheTest, LruBoundEvictsOldestShape) {
  sql::StatementCache cache(2);
  OPDELTA_ASSERT_OK(cache.Parse("DELETE FROM a WHERE id = 1").status());
  OPDELTA_ASSERT_OK(cache.Parse("DELETE FROM b WHERE id = 1").status());
  OPDELTA_ASSERT_OK(cache.Parse("DELETE FROM c WHERE id = 1").status());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  // Shape `a` was the LRU victim: parsing it again is a miss.
  OPDELTA_ASSERT_OK(cache.Parse("DELETE FROM a WHERE id = 2").status());
  EXPECT_EQ(cache.stats().misses, 4u);

  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  OPDELTA_ASSERT_OK(cache.Parse("DELETE FROM a WHERE id = 3").status());
  EXPECT_EQ(cache.stats().misses, 5u);
}

// -------------------------------------------------------- shared helpers

/// Applies `txns` through one OpDeltaIntegrator parsing through `cache`
/// (may be nullptr), in `batch`-sized ledger batches, accumulating stats.
Status ApplyAll(engine::Database* wh, ApplyLedger* ledger,
                const std::vector<extract::OpDeltaTxn>& txns, size_t batch,
                sql::StatementCache* cache, IntegrationStats* total) {
  OpDeltaIntegrator integrator(wh, cache);
  uint64_t seq = 1;
  for (size_t off = 0; off < txns.size(); off += batch) {
    const size_t n = std::min(batch, txns.size() - off);
    std::vector<extract::OpDeltaTxn> slice(txns.begin() + off,
                                           txns.begin() + off + n);
    IntegrationStats stats;
    OPDELTA_RETURN_IF_ERROR(
        integrator.Apply(slice, Batch(seq++), ledger, &stats));
    total->statements_executed += stats.statements_executed;
    total->transactions += stats.transactions;
    total->duplicate_txns += stats.duplicate_txns;
    total->duplicate_batches += stats.duplicate_batches;
  }
  return Status::OK();
}

/// A seeded op-delta workload over the parts table. Disjoint mode gives
/// every transaction its own key range; conflicting mode draws all keys
/// from a 16-row hot set and sprinkles non-key predicates, so source order
/// decides the outcome.
std::vector<extract::OpDeltaTxn> RandomWorkload(uint64_t seed,
                                                bool conflicting,
                                                size_t txn_count) {
  Rng rng(seed);
  std::vector<extract::OpDeltaTxn> txns;
  txns.reserve(txn_count);
  for (size_t t = 0; t < txn_count; ++t) {
    const size_t ops = 1 + rng.Uniform(3);
    std::vector<std::string> sqls;
    for (size_t o = 0; o < ops; ++o) {
      const int64_t key = conflicting
                              ? static_cast<int64_t>(rng.Uniform(16))
                              : static_cast<int64_t>(t * 8 + rng.Uniform(8));
      const uint64_t r = rng.Next();
      const std::string k = std::to_string(key);
      const std::string tag = std::to_string(r % 1000);
      switch (r % 4) {
        case 0:
        case 1:
          sqls.push_back("INSERT INTO parts VALUES (" + k + ", 's" + tag +
                         "', 'p" + tag + "', TS:" + tag + ")");
          break;
        case 2:
          if (conflicting && r % 16 == 2) {
            // Non-key predicate: a whole-table write in the middle of the
            // batch, whose row set depends on every write before it.
            sqls.push_back("UPDATE parts SET payload = 'w" + tag +
                           "' WHERE status = 's" + std::to_string(r % 7) +
                           "'");
          } else {
            sqls.push_back("UPDATE parts SET status = 'u" + tag +
                           "' WHERE id = " + k);
          }
          break;
        default:
          sqls.push_back("DELETE FROM parts WHERE id = " + k);
          break;
      }
    }
    txns.push_back(Txn(static_cast<txn::TxnId>(t + 1), std::move(sqls)));
  }
  return txns;
}

/// Independent oracle: every source transaction replayed through a plain
/// sql::Executor in its own engine transaction, in source order — none of
/// the integrator's cache or ledger involved. `committed` (may be nullptr)
/// receives the number of transactions that committed.
Status ReplayThroughExecutor(engine::Database* wh,
                             const std::vector<extract::OpDeltaTxn>& txns,
                             size_t* committed = nullptr) {
  sql::Executor executor(wh);
  size_t done = 0;
  Status result;
  for (const extract::OpDeltaTxn& source_txn : txns) {
    std::unique_ptr<txn::Transaction> txn = wh->Begin();
    for (const extract::OpDeltaRecord& op : source_txn.ops) {
      Result<sql::Statement> stmt =
          sql::Parser::Parse(op.sql);  // NOLINT(opdelta-R6: cache-free oracle)
      result = stmt.status();
      if (result.ok()) {
        result = executor.Execute(txn.get(), stmt.value()).status();
      }
      if (!result.ok()) break;
    }
    if (result.ok()) result = wh->Commit(txn.get());
    if (!result.ok()) {
      (void)wh->Abort(txn.get());
      break;
    }
    ++done;
  }
  if (committed != nullptr) *committed = done;
  return result;
}

// ------------------------------------------- statement patterns vs oracle
//
// Statement patterns where replay order or literal handling decides the
// outcome — multi-row inserts, key renames, non-key predicates, literal
// coercion, trigger-bearing and unknown tables, disjoint, shared,
// whole-table and repeated keys — each feed one check: inline apply with a
// ledger must land exactly what the plain-executor oracle lands. (The
// FootprintTest/ConflictBarrierTest suite names predate inline apply.)

/// Copies every row image a trigger sees into `audit`: a trigger body
/// writes rows the statement text never mentions.
class AuditSink : public engine::TriggerSink {
 public:
  Status Write(engine::Database* db, txn::Transaction* txn,
               engine::TriggerEvents, const catalog::Row& before,
               const catalog::Row& after) override {
    return db->Insert(txn, "audit", after.empty() ? before : after);
  }
};

class OracleReplay : public ::testing::Test {
 protected:
  using Stmts = std::vector<std::string>;

  void SetUp() override {
    wh_ = OpenDb(dir_, "wh", NoTimestampOptions());
    oracle_ = OpenDb(dir_, "oracle", NoTimestampOptions());
    for (engine::Database* db : {wh_.get(), oracle_.get()}) {
      const catalog::Schema schema = workload::PartsWorkload::Schema();
      OPDELTA_ASSERT_OK(db->CreateTable("parts", schema));
      OPDELTA_ASSERT_OK(db->CreateIndex("parts", "id"));
      OPDELTA_ASSERT_OK(db->CreateTable("audited", schema));
      OPDELTA_ASSERT_OK(db->CreateTable("audit", schema));
      OPDELTA_ASSERT_OK(db->CreateTrigger(
          "audited", engine::TriggerDef{"copy", engine::kOnAll,
                                        std::make_shared<AuditSink>()}));
      sql::Executor executor(db);
      for (int64_t key = 0; key < 6; ++key) {
        OPDELTA_ASSERT_OK(executor
                              .ExecuteSql("INSERT INTO parts VALUES (" +
                                          std::to_string(key) +
                                          ", 'old', 'p', TS:0)")
                              .status());
      }
    }
    ledger_ = std::make_unique<ApplyLedger>(wh_.get());
    OPDELTA_ASSERT_OK(ledger_->Setup());
  }

  /// The one check. Applies `stmts` (statements per source transaction)
  /// as one ledgered batch through OpDeltaIntegrator with a statement
  /// cache, and through ReplayThroughExecutor on the oracle. The status,
  /// every table's digest and the committed prefix must agree. Returns the
  /// apply status.
  Status ApplyMatchesOracle(const std::vector<Stmts>& stmts) {
    std::vector<extract::OpDeltaTxn> txns;
    for (const Stmts& s : stmts) {
      txns.push_back(Txn(static_cast<txn::TxnId>(txns.size() + 1), s));
    }
    sql::StatementCache cache;
    IntegrationStats stats;
    const Status applied = OpDeltaIntegrator(wh_.get(), &cache)
                               .Apply(txns, Batch(1), ledger_.get(), &stats);
    size_t committed = 0;
    const Status replayed =
        ReplayThroughExecutor(oracle_.get(), txns, &committed);
    EXPECT_EQ(applied.ToString(), replayed.ToString());
    for (const char* table : {"parts", "audited", "audit"}) {
      EXPECT_TRUE(DigestTable(wh_.get(), table) ==
                  DigestTable(oracle_.get(), table))
          << table;
    }
    Result<ApplyLedger::Watermark> mark = ledger_->Get("src");
    EXPECT_TRUE(mark.ok()) << mark.status().ToString();
    if (mark.ok()) {
      EXPECT_EQ(mark.value().txns, committed);
    }
    if (applied.ok()) {
      EXPECT_EQ(stats.transactions, txns.size());
    }
    return applied;
  }

  /// Whether the inline-applied parts table has a row with `key`.
  bool Has(int64_t key) {
    return testing::TableContents(wh_.get(), "parts")
               .count(catalog::Value::Int64(key)) > 0;
  }

  /// Column `col` of the inline-applied parts row with `key`, or "<none>".
  std::string Cell(int64_t key, size_t col) {
    const auto contents = testing::TableContents(wh_.get(), "parts");
    auto it = contents.find(catalog::Value::Int64(key));
    return it == contents.end() ? "<none>" : it->second[col].AsString();
  }

  TempDir dir_;
  std::unique_ptr<engine::Database> wh_;      // inline apply
  std::unique_ptr<engine::Database> oracle_;  // plain-executor replay
  std::unique_ptr<ApplyLedger> ledger_;
};

class FootprintTest : public OracleReplay {};
class ConflictBarrierTest : public OracleReplay {};

TEST_F(FootprintTest, InsertClaimsEachRowKey) {
  // A multi-row INSERT writes every row's key; later writes to either
  // key find their row.
  OPDELTA_ASSERT_OK(ApplyMatchesOracle({
      {"INSERT INTO parts VALUES (11, 'a', 'p', TS:0), (12, 'b', 'p', TS:0)"},
      {"UPDATE parts SET status = 'u' WHERE id = 12"},
      {"DELETE FROM parts WHERE id = 11"},
  }));
  EXPECT_FALSE(Has(11));
  EXPECT_EQ(Cell(12, 1), "u");
}

TEST_F(FootprintTest, UpdateClaimsWhereKeyAndAssignedKey) {
  // SET id = 9 renames the row; the next transaction writes the new key,
  // and a third reuses the old one.
  OPDELTA_ASSERT_OK(ApplyMatchesOracle({
      {"UPDATE parts SET id = 9, status = 's' WHERE id = 4"},
      {"UPDATE parts SET payload = 'q' WHERE id = 9"},
      {"INSERT INTO parts VALUES (4, 'n', 'p', TS:0)"},
  }));
  EXPECT_EQ(Cell(9, 1), "s");
  EXPECT_EQ(Cell(9, 2), "q");
  EXPECT_EQ(Cell(4, 1), "n");
}

TEST_F(FootprintTest, NonKeyPredicateWidensToWholeTable) {
  // A non-key-predicate UPDATE between key writes sees exactly the writes
  // before it; a range DELETE and a key-plus-extra-conjunct DELETE follow.
  OPDELTA_ASSERT_OK(ApplyMatchesOracle({
      {"UPDATE parts SET status = 'new' WHERE id = 1"},
      {"UPDATE parts SET payload = 'x' WHERE status = 'new'"},
      {"UPDATE parts SET status = 'new' WHERE id = 2"},
      {"DELETE FROM parts WHERE id < 1"},
      {"DELETE FROM parts WHERE id = 3 AND status = 'old'"},
  }));
  EXPECT_EQ(Cell(1, 2), "x");
  EXPECT_EQ(Cell(2, 2), "p");
  EXPECT_FALSE(Has(0));
  EXPECT_FALSE(Has(3));
}

TEST_F(FootprintTest, KeyEncodingMatchesExecutorCoercion) {
  // The executor coerces TS:7 to 7 in an INT64 key column, so the DELETE
  // finds the row the INSERT wrote.
  OPDELTA_ASSERT_OK(ApplyMatchesOracle({
      {"INSERT INTO parts VALUES (7, 's', 'p', TS:0)"},
      {"DELETE FROM parts WHERE id = TS:7"},
      {"UPDATE parts SET status = 'u' WHERE id = TS:5"},
  }));
  EXPECT_FALSE(Has(7));
  EXPECT_EQ(Cell(5, 1), "u");
}

TEST_F(FootprintTest, UnfootprintableStatementsForceSerialFallback) {
  // A trigger-bearing table's writes reach `audit` too; an unknown table
  // fails the batch with the executor's error, after the prefix before it
  // committed.
  const Status st = ApplyMatchesOracle({
      {"INSERT INTO audited VALUES (1, 's', 'p', TS:0)"},
      {"UPDATE audited SET status = 'u' WHERE id = 1"},
      {"INSERT INTO parts VALUES (20, 's', 'p', TS:0)"},
      {"DELETE FROM ghost WHERE id = 1"},
      {"INSERT INTO parts VALUES (21, 's', 'p', TS:0)"},
  });
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  EXPECT_EQ(CountRows(wh_.get(), "audit"), 2u);
  EXPECT_TRUE(Has(20));
  EXPECT_FALSE(Has(21));
}

TEST_F(ConflictBarrierTest, DisjointFootprintsHaveNoBarriers) {
  OPDELTA_ASSERT_OK(ApplyMatchesOracle({
      {"UPDATE parts SET status = 'a' WHERE id = 1",
       "UPDATE parts SET status = 'a' WHERE id = 2"},
      {"UPDATE parts SET status = 'b' WHERE id = 3",
       "DELETE FROM parts WHERE id = 4"},
      {"INSERT INTO audited VALUES (1, 'c', 'p', TS:0)"},
      {"INSERT INTO parts VALUES (30, 'd', 'p', TS:0)"},
  }));
  EXPECT_EQ(Cell(2, 1), "a");
  EXPECT_EQ(Cell(3, 1), "b");
  EXPECT_FALSE(Has(4));
  EXPECT_EQ(Cell(30, 1), "d");
}

TEST_F(ConflictBarrierTest, SharedKeysChainToNewestWriter) {
  // Each write on a shared key matches only if the newest earlier writer
  // of that key already applied.
  OPDELTA_ASSERT_OK(ApplyMatchesOracle({
      {"UPDATE parts SET status = 'v0' WHERE id = 1"},
      {"UPDATE parts SET status = 'v1' WHERE id = 2"},
      {"UPDATE parts SET status = 'v2' WHERE id = 1 AND status = 'v0'"},
      {"UPDATE parts SET payload = 'q' WHERE id = 1 AND status = 'v2'",
       "UPDATE parts SET payload = 'q' WHERE id = 2 AND status = 'v1'"},
  }));
  EXPECT_EQ(Cell(1, 1), "v2");
  EXPECT_EQ(Cell(1, 2), "q");
  EXPECT_EQ(Cell(2, 2), "q");
}

TEST_F(ConflictBarrierTest, WholeTableClaimsBarrierBothDirections) {
  // The whole-table UPDATE sees the key write before it and not the one
  // after it.
  OPDELTA_ASSERT_OK(ApplyMatchesOracle({
      {"UPDATE parts SET status = 'hot' WHERE id = 1"},
      {"UPDATE parts SET payload = 'w' WHERE status = 'hot'"},
      {"UPDATE parts SET status = 'hot' WHERE id = 2"},
      {"INSERT INTO audited VALUES (9, 's', 'p', TS:0)"},
  }));
  EXPECT_EQ(Cell(1, 2), "w");
  EXPECT_EQ(Cell(2, 1), "hot");
  EXPECT_EQ(Cell(2, 2), "p");
}

TEST_F(ConflictBarrierTest, RepeatedKeyWithinOneTxnIsNotASelfConflict) {
  // One transaction writes the same key three times; another deletes,
  // re-inserts and updates one key.
  OPDELTA_ASSERT_OK(ApplyMatchesOracle({
      {"INSERT INTO parts VALUES (40, 'a', 'p', TS:0)",
       "UPDATE parts SET status = 'b' WHERE id = 40",
       "UPDATE parts SET payload = 'c' WHERE id = 40"},
      {"DELETE FROM parts WHERE id = 5",
       "INSERT INTO parts VALUES (5, 'again', 'p', TS:0)",
       "UPDATE parts SET status = 'x' WHERE id = 5"},
  }));
  EXPECT_EQ(Cell(40, 1), "b");
  EXPECT_EQ(Cell(40, 2), "c");
  EXPECT_EQ(Cell(5, 1), "x");
}

// -------------------------------------------------------- apply semantics

class ConvergenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConvergenceTest, ParallelEqualsSerialOnSeededWorkloads) {
  // The acceptance property: for the same batch stream, inline apply
  // through the ledger and the statement cache converges to the state the
  // executor oracle reaches — disjoint and conflicting workloads alike.
  for (const bool conflicting : {false, true}) {
    const std::vector<extract::OpDeltaTxn> txns =
        RandomWorkload(GetParam(), conflicting, 48);
    TempDir dir;
    auto oracle_wh = OpenDb(dir, "oracle", NoTimestampOptions());
    auto inline_wh = OpenDb(dir, "inline", NoTimestampOptions());
    for (engine::Database* db : {oracle_wh.get(), inline_wh.get()}) {
      OPDELTA_ASSERT_OK(
          db->CreateTable("parts", workload::PartsWorkload::Schema()));
      OPDELTA_ASSERT_OK(db->CreateIndex("parts", "id"));
    }
    ApplyLedger ledger(inline_wh.get());
    OPDELTA_ASSERT_OK(ledger.Setup());

    OPDELTA_ASSERT_OK(ReplayThroughExecutor(oracle_wh.get(), txns));
    sql::StatementCache cache;
    IntegrationStats stats;
    OPDELTA_ASSERT_OK(ApplyAll(inline_wh.get(), &ledger, txns, /*batch=*/12,
                               &cache, &stats));

    EXPECT_EQ(stats.transactions, txns.size());
    const SetDigest oracle_digest = DigestTable(oracle_wh.get(), "parts");
    const SetDigest inline_digest = DigestTable(inline_wh.get(), "parts");
    // Digest, not TableContents: the workload can insert duplicate key
    // values, and a map keyed by the key column would arbitrarily keep
    // whichever duplicate the scan visits last — physical placement, not
    // semantics. The multiset digest compares full contents exactly.
    const std::string where =
        "seed " + std::to_string(GetParam()) +
        (conflicting ? " conflicting" : " disjoint");
    EXPECT_TRUE(oracle_digest == inline_digest)
        << where << ": " << oracle_digest.ToString() << " vs "
        << inline_digest.ToString();
    EXPECT_EQ(CountRows(oracle_wh.get(), "parts"),
              CountRows(inline_wh.get(), "parts"));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergenceTest,
                         ::testing::Values(1u, 7u, 1234u, 90210u, 424242u));

TEST(ParallelApplyTest, ConflictingUpdatesKeepSourceCommitOrder) {
  // Every transaction rewrites the same hot row; replay in source commit
  // order leaves the last writer's value.
  TempDir dir;
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  OPDELTA_ASSERT_OK(
      wh->CreateTable("parts", workload::PartsWorkload::Schema()));
  ApplyLedger ledger(wh.get());
  OPDELTA_ASSERT_OK(ledger.Setup());

  std::vector<extract::OpDeltaTxn> txns;
  txns.push_back(Txn(1, {"INSERT INTO parts VALUES (0, 'v0', 'p', TS:0)"}));
  for (int t = 1; t < 24; ++t) {
    txns.push_back(Txn(t + 1, {"UPDATE parts SET status = 'v" +
                               std::to_string(t) + "' WHERE id = 0"}));
  }
  sql::StatementCache cache;
  IntegrationStats stats;
  OPDELTA_ASSERT_OK(
      ApplyAll(wh.get(), &ledger, txns, /*batch=*/24, &cache, &stats));
  EXPECT_EQ(stats.transactions, txns.size());
  const auto contents = testing::TableContents(wh.get(), "parts");
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents.begin()->second[1].AsString(), "v23");
}

TEST(ParallelApplyTest, DuplicateBatchIsDroppedWhole) {
  TempDir dir;
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  OPDELTA_ASSERT_OK(
      wh->CreateTable("parts", workload::PartsWorkload::Schema()));
  ApplyLedger ledger(wh.get());
  OPDELTA_ASSERT_OK(ledger.Setup());

  std::vector<extract::OpDeltaTxn> txns;
  for (int t = 0; t < 8; ++t) {
    txns.push_back(Txn(t + 1, {"INSERT INTO parts VALUES (" +
                               std::to_string(t) + ", 's', 'p', TS:0)"}));
  }
  sql::StatementCache cache;
  OpDeltaIntegrator integrator(wh.get(), &cache);

  IntegrationStats first;
  OPDELTA_ASSERT_OK(integrator.Apply(txns, Batch(1), &ledger, &first));
  EXPECT_EQ(first.transactions, 8u);
  EXPECT_EQ(CountRows(wh.get(), "parts"), 8u);

  // Redelivery: op-delta INSERTs applied twice would add physical rows.
  IntegrationStats second;
  OPDELTA_ASSERT_OK(integrator.Apply(txns, Batch(1), &ledger, &second));
  EXPECT_EQ(second.duplicate_batches, 1u);
  EXPECT_EQ(second.transactions, 0u);
  EXPECT_EQ(CountRows(wh.get(), "parts"), 8u);
}

TEST(ParallelApplyTest, FailureCommitsExactPrefixAndResumes) {
  // A transaction that fails mid-batch leaves every transaction before it
  // committed and ledgered, nothing at or after it applied — then
  // redelivery resumes at the failure point.
  TempDir dir;
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  OPDELTA_ASSERT_OK(
      wh->CreateTable("parts", workload::PartsWorkload::Schema()));
  ApplyLedger ledger(wh.get());
  OPDELTA_ASSERT_OK(ledger.Setup());

  constexpr size_t kPoison = 5;
  std::vector<extract::OpDeltaTxn> txns;
  for (int t = 0; t < 8; ++t) {
    txns.push_back(Txn(t + 1, {"INSERT INTO parts VALUES (" +
                               std::to_string(t) + ", 's', 'p', TS:0)"}));
  }
  // Parses, but fails at execution.
  txns[kPoison] =
      Txn(kPoison + 1, {"UPDATE parts SET nosuch = 'x' WHERE id = 5"});

  sql::StatementCache cache;
  OpDeltaIntegrator integrator(wh.get(), &cache);

  EXPECT_FALSE(integrator.Apply(txns, Batch(1), &ledger, nullptr).ok());
  EXPECT_EQ(CountRows(wh.get(), "parts"), kPoison);
  Result<ApplyLedger::Watermark> mark = ledger.Get("src");
  OPDELTA_ASSERT_OK(mark.status());
  ASSERT_TRUE(mark.value().exists);
  EXPECT_EQ(mark.value().txns, kPoison);

  // The corrected redelivery (same identity) resumes past the prefix.
  txns[kPoison] = Txn(kPoison + 1, {"INSERT INTO parts VALUES (5, 's', 'p', "
                                    "TS:0)"});
  IntegrationStats stats;
  OPDELTA_ASSERT_OK(integrator.Apply(txns, Batch(1), &ledger, &stats));
  EXPECT_EQ(stats.duplicate_txns, kPoison);
  EXPECT_EQ(stats.transactions, txns.size() - kPoison);
  EXPECT_EQ(CountRows(wh.get(), "parts"), 8u);
}

TEST(ParallelApplyTest, SerialFallbacksMatchParallelResults) {
  // The parse fallback without a statement cache, in any batching, lands
  // the same warehouse state as the cached path and the executor oracle.
  const std::vector<extract::OpDeltaTxn> txns =
      RandomWorkload(31337, /*conflicting=*/true, 24);
  TempDir dir;
  auto oracle = OpenDb(dir, "oracle", NoTimestampOptions());
  OPDELTA_ASSERT_OK(
      oracle->CreateTable("parts", workload::PartsWorkload::Schema()));
  OPDELTA_ASSERT_OK(ReplayThroughExecutor(oracle.get(), txns));
  const SetDigest reference = DigestTable(oracle.get(), "parts");
  for (const bool cached : {false, true}) {
    for (const size_t batch : {1, 8, 24}) {
      const std::string name = "wh" + std::to_string(cached) + "_" +
                               std::to_string(batch);
      auto wh = OpenDb(dir, name, NoTimestampOptions());
      OPDELTA_ASSERT_OK(
          wh->CreateTable("parts", workload::PartsWorkload::Schema()));
      ApplyLedger ledger(wh.get());
      OPDELTA_ASSERT_OK(ledger.Setup());
      sql::StatementCache cache;
      IntegrationStats stats;
      OPDELTA_ASSERT_OK(ApplyAll(wh.get(), &ledger, txns, batch,
                                 cached ? &cache : nullptr, &stats));
      EXPECT_EQ(stats.transactions, txns.size()) << name;
      EXPECT_TRUE(reference == DigestTable(wh.get(), "parts")) << name;
      EXPECT_EQ(cache.stats().hits + cache.stats().misses > 0, cached)
          << name;
    }
  }
}

TEST(ParallelApplyTest, UnfootprintableBatchFallsBackToSerialApply) {
  // A statement on an unknown table fails its transaction; that error and
  // the committed prefix before it become the batch's.
  TempDir dir;
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  OPDELTA_ASSERT_OK(
      wh->CreateTable("parts", workload::PartsWorkload::Schema()));
  ApplyLedger ledger(wh.get());
  OPDELTA_ASSERT_OK(ledger.Setup());

  std::vector<extract::OpDeltaTxn> txns;
  txns.push_back(Txn(1, {"INSERT INTO parts VALUES (1, 's', 'p', TS:0)"}));
  txns.push_back(Txn(2, {"DELETE FROM ghost WHERE id = 1"}));
  txns.push_back(Txn(3, {"INSERT INTO parts VALUES (2, 's', 'p', TS:0)"}));

  OpDeltaIntegrator integrator(wh.get());
  IntegrationStats stats;
  const Status st = integrator.Apply(txns, Batch(1), &ledger, &stats);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(CountRows(wh.get(), "parts"), 1u);
  Result<ApplyLedger::Watermark> mark = ledger.Get("src");
  OPDELTA_ASSERT_OK(mark.status());
  EXPECT_EQ(mark.value().txns, 1u);
}

/// Captured ADD COLUMN qty INT64 DEFAULT 4 on `wh`'s parts table.
extract::OpDeltaTxn AddQtyColumn(engine::Database* wh, txn::TxnId id) {
  auto event = std::make_shared<extract::SchemaEvent>();
  event->table = "parts";
  event->ddl_epoch = 2;
  event->spec.kind = catalog::AlterTableSpec::Kind::kAddColumn;
  event->spec.column = catalog::Column{"qty", catalog::ValueType::kInt64,
                                       catalog::Value::Int64(4)};
  event->old_schema = wh->GetTable("parts")->schema();
  EXPECT_TRUE(catalog::ApplyAlter(event->old_schema, event->spec,
                                  &event->new_schema)
                  .ok());
  event->ddl_sql = "ALTER TABLE parts " + event->spec.ToString();
  extract::OpDeltaTxn txn = Txn(id, {});
  extract::OpDeltaRecord op = Op(1, event->ddl_sql);
  op.schema_event = std::move(event);
  txn.ops.push_back(std::move(op));
  return txn;
}

/// One warehouse with parts and a trigger-bearing `audited` table.
struct BarrierWarehouse {
  BarrierWarehouse(TempDir* dir, const std::string& name) {
    db = OpenDb(*dir, name, NoTimestampOptions());
    EXPECT_TRUE(
        db->CreateTable("parts", workload::PartsWorkload::Schema()).ok());
    EXPECT_TRUE(
        db->CreateTable("audited", workload::PartsWorkload::Schema()).ok());
    class NullSink : public engine::TriggerSink {
     public:
      Status Write(engine::Database*, txn::Transaction*,
                   engine::TriggerEvents, const catalog::Row&,
                   const catalog::Row&) override {
        return Status::OK();
      }
    };
    EXPECT_TRUE(db->CreateTrigger("audited",
                                  engine::TriggerDef{
                                      "t", engine::kOnAll,
                                      std::make_shared<NullSink>()})
                    .ok());
    ledger = std::make_unique<ApplyLedger>(db.get());
    EXPECT_TRUE(ledger->Setup().ok());
  }

  std::unique_ptr<engine::Database> db;
  std::unique_ptr<ApplyLedger> ledger;
};

std::string PartsInsert(int64_t key, bool with_qty) {
  return "INSERT INTO parts VALUES (" + std::to_string(key) +
         ", 's', 'p', TS:0" + (with_qty ? ", 9)" : ")");
}

TEST(ParallelApplyTest, BarriersMatchInlineApplyWithPoolOnBothSides) {
  // A trigger-table transaction, a captured ADD COLUMN and an unknown-table
  // transaction inside batches of inserts, applied with the statement
  // cache and without it. The outcome (digest, ledger watermark, error,
  // committed prefix) is the same, and the inserts after the ADD COLUMN in
  // the same batch parse against the migrated five-column table.
  TempDir dir;
  BarrierWarehouse uncached_wh(&dir, "uncached");
  BarrierWarehouse cached_wh(&dir, "cached");
  sql::StatementCache cache;

  for (BarrierWarehouse* wh : {&uncached_wh, &cached_wh}) {
    OpDeltaIntegrator integrator(wh->db.get(),
                                 wh == &cached_wh ? &cache : nullptr);

    // Batch 1: the trigger-table transaction and the migration commit.
    std::vector<extract::OpDeltaTxn> first = {
        Txn(1, {PartsInsert(1, false)}),
        Txn(2, {PartsInsert(2, false)}),
        Txn(3, {"INSERT INTO audited VALUES (1, 's', 'p', TS:0)"}),
        Txn(4, {PartsInsert(3, false)}),
        Txn(5, {PartsInsert(4, false)}),
        AddQtyColumn(wh->db.get(), 6),
        Txn(7, {PartsInsert(5, true)}),
        Txn(8, {PartsInsert(6, true)}),
    };
    IntegrationStats stats;
    OPDELTA_ASSERT_OK(
        integrator.Apply(first, Batch(1), wh->ledger.get(), &stats));
    EXPECT_EQ(stats.transactions, 8u);
    EXPECT_EQ(stats.schema_migrations, 1u);

    // Batch 2: the unknown-table transaction fails; the prefix before it
    // stays committed and nothing after it applies.
    std::vector<extract::OpDeltaTxn> second = {
        Txn(9, {PartsInsert(7, true)}),
        Txn(10, {PartsInsert(8, true)}),
        Txn(11, {"DELETE FROM ghost WHERE id = 1"}),
        Txn(12, {PartsInsert(9, true)}),
    };
    const Status st =
        integrator.Apply(second, Batch(2), wh->ledger.get(), nullptr);
    EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  }

  EXPECT_TRUE(DigestTable(uncached_wh.db.get(), "parts") ==
              DigestTable(cached_wh.db.get(), "parts"));
  EXPECT_TRUE(DigestTable(uncached_wh.db.get(), "audited") ==
              DigestTable(cached_wh.db.get(), "audited"));
  EXPECT_EQ(CountRows(cached_wh.db.get(), "parts"), 8u);
  EXPECT_EQ(CountRows(cached_wh.db.get(), "audited"), 1u);
  for (BarrierWarehouse* wh : {&uncached_wh, &cached_wh}) {
    Result<ApplyLedger::Watermark> mark = wh->ledger->Get("src");
    OPDELTA_ASSERT_OK(mark.status());
    ASSERT_TRUE(mark.value().exists);
    EXPECT_EQ(mark.value().seq, 2u);
    EXPECT_EQ(mark.value().txns, 2u);
  }
  // Same error text with and without the cache, not just the same code.
  OpDeltaIntegrator uncached_apply(uncached_wh.db.get());
  OpDeltaIntegrator cached_apply(cached_wh.db.get(), &cache);
  const std::vector<extract::OpDeltaTxn> ghost = {
      Txn(13, {PartsInsert(10, true)}),
      Txn(14, {"DELETE FROM ghost WHERE id = 1"})};
  EXPECT_EQ(uncached_apply.Apply(ghost, nullptr).ToString(),
            cached_apply.Apply(ghost, nullptr).ToString());
}

// ------------------------------------------------------------- hub e2e

TEST(HubParallelApplyTest, OpDeltaSourceAppliesInParallelEndToEnd) {
  // The hub's op-delta lane applies each batch inline on its apply
  // worker: the warehouse converges to the source, every transaction is
  // counted, and the shared statement cache serves the repeated shape.
  TempDir dir;
  auto src = OpenDb(dir, "src", NoTimestampOptions());
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));

  hub::HubOptions options;
  options.work_dir = dir.Sub("hubw");
  Result<std::unique_ptr<hub::DeltaHub>> hub =
      hub::DeltaHub::Create(wh.get(), options);
  OPDELTA_ASSERT_OK(hub.status());
  hub::SourceSpec spec;
  spec.name = "s1";
  spec.source = src.get();
  spec.method = pipeline::Method::kOpDelta;
  spec.source_table = "parts";
  spec.warehouse_table = "parts";
  OPDELTA_ASSERT_OK((*hub)->AddSource(spec));
  OPDELTA_ASSERT_OK((*hub)->Setup());

  extract::OpDeltaCapture* capture = (*hub)->capture("s1");
  ASSERT_NE(capture, nullptr);
  for (int round = 0; round < 3; ++round) {
    // Several transactions per round, shipped as one batch.
    for (int t = 0; t < 4; ++t) {
      const int64_t base = round * 80 + t * 20;
      OPDELTA_ASSERT_OK(
          capture->RunTransaction({wl.MakeInsert("parts", base, 20)})
              .status());
    }
    OPDELTA_ASSERT_OK((*hub)->RunRound());
  }

  EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
  const hub::HubStats stats = (*hub)->Stats();
  ASSERT_EQ(stats.sources.size(), 1u);
  EXPECT_EQ(stats.transactions_applied, 12u);
  // Twelve single-shape transactions: the cache misses once per epoch
  // shape and hits for the rest.
  EXPECT_GT(stats.stmt_cache_hits, 0u);
  OPDELTA_ASSERT_OK((*hub)->Stop());
}

}  // namespace
}  // namespace opdelta::warehouse
