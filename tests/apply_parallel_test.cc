// Conflict-aware parallel apply (warehouse::OpDeltaIntegrator with a pool,
// footprints in warehouse/apply_scheduler.h) and the prepared-statement
// cache (sql/statement_cache.h).
//
// The load-bearing property is convergence: for any op-delta batch, apply
// on a 4-wide pool must produce byte-for-byte the warehouse state and
// ledger semantics of inline apply — same final rows, same committed
// prefix on failure, same duplicate/resume decisions — and both must equal
// an independent oracle that replays each transaction through a plain
// executor. The randomized suites drive that with seeded workloads, both
// disjoint (everything runs concurrently) and conflicting (barriers force
// source order).
#include "warehouse/apply_scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/digest.h"
#include "common/random.h"
#include "common/thread_pool.h"
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

// ------------------------------------------------------------ footprints

class FootprintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenDb(dir_, "db", NoTimestampOptions());
    OPDELTA_ASSERT_OK(
        db_->CreateTable("parts", workload::PartsWorkload::Schema()));
  }

  /// Parses `sql` and folds it into `fp`; returns StatementFootprint's
  /// verdict.
  bool Fold(const std::string& sql, TxnFootprint* fp) {
    Result<sql::Statement> parsed = sql::Parser::Parse(sql);
    EXPECT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
    return StatementFootprint(db_.get(), parsed.value(), fp);
  }

  static std::string Key(int64_t v) {
    return catalog::Value::Int64(v).ToSqlLiteral();
  }

  TempDir dir_;
  std::unique_ptr<engine::Database> db_;
};

TEST_F(FootprintTest, InsertClaimsEachRowKey) {
  TxnFootprint fp;
  ASSERT_TRUE(
      Fold("INSERT INTO parts VALUES (1, 'a', 'p', TS:0), (2, 'b', 'p', TS:0)",
           &fp));
  ASSERT_EQ(fp.count("parts"), 1u);
  EXPECT_FALSE(fp["parts"].whole_table);
  EXPECT_EQ(fp["parts"].keys, (std::vector<std::string>{Key(1), Key(2)}));
}

TEST_F(FootprintTest, UpdateClaimsWhereKeyAndAssignedKey) {
  TxnFootprint fp;
  // SET id = 9 renames the row: both the old and new identity are claimed
  // so later statements on either key order after this one.
  ASSERT_TRUE(Fold("UPDATE parts SET id = 9, status = 's' WHERE id = 4", &fp));
  EXPECT_FALSE(fp["parts"].whole_table);
  EXPECT_EQ(fp["parts"].keys, (std::vector<std::string>{Key(4), Key(9)}));
}

TEST_F(FootprintTest, NonKeyPredicateWidensToWholeTable) {
  TxnFootprint update_fp;
  ASSERT_TRUE(
      Fold("UPDATE parts SET payload = 'x' WHERE status = 'new'", &update_fp));
  EXPECT_TRUE(update_fp["parts"].whole_table);

  TxnFootprint range_fp;
  ASSERT_TRUE(Fold("DELETE FROM parts WHERE id < 10", &range_fp));
  EXPECT_TRUE(range_fp["parts"].whole_table);

  // A key-equality conjunct bounds the row set even with extra conjuncts.
  TxnFootprint eq_fp;
  ASSERT_TRUE(
      Fold("DELETE FROM parts WHERE id = 3 AND status = 'old'", &eq_fp));
  EXPECT_FALSE(eq_fp["parts"].whole_table);
  EXPECT_EQ(eq_fp["parts"].keys, (std::vector<std::string>{Key(3)}));
}

TEST_F(FootprintTest, KeyEncodingMatchesExecutorCoercion) {
  // The executor coerces TS:7 to 7 in an INT64 key column; the footprint
  // must agree or the two statements would claim disjoint keys and race.
  TxnFootprint a, b;
  ASSERT_TRUE(Fold("INSERT INTO parts VALUES (7, 's', 'p', TS:0)", &a));
  ASSERT_TRUE(Fold("DELETE FROM parts WHERE id = TS:7", &b));
  EXPECT_EQ(a["parts"].keys, b["parts"].keys);
}

// Statements without a footprint make their transaction a full barrier.
TEST_F(FootprintTest, UnfootprintableStatementsForceSerialFallback) {
  TxnFootprint fp;
  EXPECT_FALSE(Fold("DELETE FROM ghost WHERE id = 1", &fp));  // unknown table
  EXPECT_FALSE(Fold("SELECT * FROM parts", &fp));             // non-DML

  // Trigger bodies write rows the statement text never mentions.
  class NullSink : public engine::TriggerSink {
   public:
    Status Write(engine::Database*, txn::Transaction*, engine::TriggerEvents,
                 const catalog::Row&, const catalog::Row&) override {
      return Status::OK();
    }
  };
  OPDELTA_ASSERT_OK(db_->CreateTrigger(
      "parts",
      engine::TriggerDef{"t", engine::kOnAll, std::make_shared<NullSink>()}));
  EXPECT_FALSE(Fold("INSERT INTO parts VALUES (1, 'a', 'p', TS:0)", &fp));
}

// --------------------------------------------------------------- barriers

TxnFootprint KeyClaims(const std::string& table, std::vector<int64_t> keys) {
  TxnFootprint fp;
  for (int64_t k : keys) {
    fp[table].keys.push_back(catalog::Value::Int64(k).ToSqlLiteral());
  }
  return fp;
}

TxnFootprint WholeTable(const std::string& table) {
  TxnFootprint fp;
  fp[table].whole_table = true;
  return fp;
}

TEST(ConflictBarrierTest, DisjointFootprintsHaveNoBarriers) {
  const std::vector<TxnFootprint> fps = {
      KeyClaims("a", {1, 2}), KeyClaims("a", {3, 4}), KeyClaims("b", {1}),
      KeyClaims("c", {})};
  EXPECT_EQ(ComputeConflictBarriers(fps),
            (std::vector<int64_t>{-1, -1, -1, -1}));
}

TEST(ConflictBarrierTest, SharedKeysChainToNewestWriter) {
  const std::vector<TxnFootprint> fps = {
      KeyClaims("a", {1}),     // 0
      KeyClaims("a", {2}),     // 1
      KeyClaims("a", {1}),     // 2: conflicts with 0
      KeyClaims("a", {1, 2}),  // 3: newest writers are 2 (key 1), 1 (key 2)
  };
  EXPECT_EQ(ComputeConflictBarriers(fps),
            (std::vector<int64_t>{-1, -1, 0, 2}));
}

TEST(ConflictBarrierTest, WholeTableClaimsBarrierBothDirections) {
  const std::vector<TxnFootprint> fps = {
      KeyClaims("a", {1}),  // 0
      WholeTable("a"),      // 1: must wait for 0
      KeyClaims("a", {9}),  // 2: must wait for the whole-table writer
      KeyClaims("b", {1}),  // 3: different table, free
  };
  EXPECT_EQ(ComputeConflictBarriers(fps),
            (std::vector<int64_t>{-1, 0, 1, -1}));
}

TEST(ConflictBarrierTest, RepeatedKeyWithinOneTxnIsNotASelfConflict) {
  // An INSERT + UPDATE of the same key inside one transaction must not
  // produce barrier == own index (which could never be dispatched).
  const std::vector<TxnFootprint> fps = {KeyClaims("a", {5, 5, 5})};
  EXPECT_EQ(ComputeConflictBarriers(fps), (std::vector<int64_t>{-1}));
}

// -------------------------------------------------------- apply semantics

/// Applies `txns` through OpDeltaIntegrator at `threads` width (1 =
/// inline) in `batch` -sized ledger batches, accumulating stats.
Status ApplyAll(engine::Database* wh, ApplyLedger* ledger,
                const std::vector<extract::OpDeltaTxn>& txns, size_t threads,
                size_t batch, IntegrationStats* total) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  sql::StatementCache cache;
  OpDeltaIntegrator::Options options;
  options.pool = pool.get();
  options.max_inflight = threads;
  options.cache = &cache;
  OpDeltaIntegrator integrator(wh, options);
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
    total->txns_parallel += stats.txns_parallel;
    total->duplicate_txns += stats.duplicate_txns;
    total->duplicate_batches += stats.duplicate_batches;
  }
  return Status::OK();
}

/// A seeded op-delta workload over the parts table. Disjoint mode gives
/// every transaction its own key range (empty conflict DAG); conflicting
/// mode draws all keys from a 16-row hot set and sprinkles non-key
/// predicates, so barriers — including whole-table ones — are exercised.
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
            // Non-key predicate: a whole-table claim in the middle of the
            // batch, serializing everything across it.
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
/// the integrator's planning, pool, cache or ledger involved.
Status ReplayThroughExecutor(engine::Database* wh,
                             const std::vector<extract::OpDeltaTxn>& txns) {
  sql::Executor executor(wh);
  for (const extract::OpDeltaTxn& source_txn : txns) {
    std::unique_ptr<txn::Transaction> txn = wh->Begin();
    for (const extract::OpDeltaRecord& op : source_txn.ops) {
      Result<sql::Statement> stmt =
          sql::Parser::Parse(op.sql);  // NOLINT(opdelta-R6: cache-free oracle)
      Status st = stmt.status();
      if (st.ok()) st = executor.Execute(txn.get(), stmt.value()).status();
      if (!st.ok()) {
        (void)wh->Abort(txn.get());
        return st;
      }
    }
    OPDELTA_RETURN_IF_ERROR(wh->Commit(txn.get()));
  }
  return Status::OK();
}

class ConvergenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConvergenceTest, ParallelEqualsSerialOnSeededWorkloads) {
  // The acceptance property: for the same batch stream, 4-wide and inline
  // apply converge to identical warehouse states — disjoint and
  // conflicting workloads alike — and both equal the executor oracle.
  for (const bool conflicting : {false, true}) {
    const std::vector<extract::OpDeltaTxn> txns =
        RandomWorkload(GetParam(), conflicting, 48);
    TempDir dir;
    auto oracle_wh = OpenDb(dir, "oracle", NoTimestampOptions());
    auto serial_wh = OpenDb(dir, "serial", NoTimestampOptions());
    auto parallel_wh = OpenDb(dir, "parallel", NoTimestampOptions());
    for (engine::Database* db :
         {oracle_wh.get(), serial_wh.get(), parallel_wh.get()}) {
      OPDELTA_ASSERT_OK(
          db->CreateTable("parts", workload::PartsWorkload::Schema()));
      OPDELTA_ASSERT_OK(db->CreateIndex("parts", "id"));
    }
    ApplyLedger serial_ledger(serial_wh.get());
    ApplyLedger parallel_ledger(parallel_wh.get());
    OPDELTA_ASSERT_OK(serial_ledger.Setup());
    OPDELTA_ASSERT_OK(parallel_ledger.Setup());

    OPDELTA_ASSERT_OK(ReplayThroughExecutor(oracle_wh.get(), txns));
    IntegrationStats serial_stats, parallel_stats;
    OPDELTA_ASSERT_OK(ApplyAll(serial_wh.get(), &serial_ledger, txns,
                               /*threads=*/1, /*batch=*/12, &serial_stats));
    OPDELTA_ASSERT_OK(ApplyAll(parallel_wh.get(), &parallel_ledger, txns,
                               /*threads=*/4, /*batch=*/12,
                               &parallel_stats));

    EXPECT_EQ(serial_stats.transactions, txns.size());
    EXPECT_EQ(parallel_stats.transactions, txns.size());
    EXPECT_EQ(serial_stats.txns_parallel, 0u);
    EXPECT_GT(parallel_stats.txns_parallel, 0u);
    EXPECT_EQ(parallel_stats.statements_executed,
              serial_stats.statements_executed);
    const SetDigest oracle_digest = DigestTable(oracle_wh.get(), "parts");
    const SetDigest serial_digest = DigestTable(serial_wh.get(), "parts");
    const SetDigest parallel_digest = DigestTable(parallel_wh.get(), "parts");
    // Digest, not TableContents: the workload can insert duplicate key
    // values, and a map keyed by the key column would arbitrarily keep
    // whichever duplicate the scan visits last — physical placement, not
    // semantics. The multiset digest compares full contents exactly.
    const std::string where =
        "seed " + std::to_string(GetParam()) +
        (conflicting ? " conflicting" : " disjoint");
    EXPECT_TRUE(oracle_digest == serial_digest)
        << where << ": " << oracle_digest.ToString() << " vs "
        << serial_digest.ToString();
    EXPECT_TRUE(serial_digest == parallel_digest)
        << where << ": " << serial_digest.ToString() << " vs "
        << parallel_digest.ToString();
    EXPECT_EQ(CountRows(serial_wh.get(), "parts"),
              CountRows(parallel_wh.get(), "parts"));
    EXPECT_EQ(CountRows(oracle_wh.get(), "parts"),
              CountRows(serial_wh.get(), "parts"));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergenceTest,
                         ::testing::Values(1u, 7u, 1234u, 90210u, 424242u));

TEST(ParallelApplyTest, ConflictingUpdatesKeepSourceCommitOrder) {
  // Every transaction rewrites the same hot row; barriers must force the
  // source serial order, so the last writer's value survives.
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
  IntegrationStats stats;
  OPDELTA_ASSERT_OK(ApplyAll(wh.get(), &ledger, txns, /*threads=*/4,
                             /*batch=*/24, &stats));
  EXPECT_EQ(stats.txns_parallel, txns.size());
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
  ThreadPool pool(4);
  sql::StatementCache cache;
  OpDeltaIntegrator::Options options;
  options.pool = &pool;
  options.max_inflight = 4;
  options.cache = &cache;
  OpDeltaIntegrator integrator(wh.get(), options);

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
  // A transaction that fails mid-batch must leave exactly the serial
  // outcome: every transaction before it committed and ledgered, nothing
  // at or after it applied — then redelivery resumes at the failure point.
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
  // Footprintable (key-equality UPDATE) but fails at execution: a pool
  // worker, not a barrier, must produce the prefix.
  txns[kPoison] =
      Txn(kPoison + 1, {"UPDATE parts SET nosuch = 'x' WHERE id = 5"});

  ThreadPool pool(4);
  OpDeltaIntegrator::Options options;
  options.pool = &pool;
  options.max_inflight = 4;
  OpDeltaIntegrator integrator(wh.get(), options);

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
  // No pool and a single inflight slot apply every transaction inline —
  // and land the same warehouse state as the 4-wide pool.
  const std::vector<extract::OpDeltaTxn> txns =
      RandomWorkload(31337, /*conflicting=*/true, 24);
  TempDir dir;
  SetDigest reference;
  for (const size_t threads : {1, 4}) {
    auto wh = OpenDb(dir, "wh" + std::to_string(threads),
                     NoTimestampOptions());
    OPDELTA_ASSERT_OK(
        wh->CreateTable("parts", workload::PartsWorkload::Schema()));
    ApplyLedger ledger(wh.get());
    OPDELTA_ASSERT_OK(ledger.Setup());
    IntegrationStats stats;
    OPDELTA_ASSERT_OK(
        ApplyAll(wh.get(), &ledger, txns, threads, /*batch=*/8, &stats));
    EXPECT_EQ(stats.transactions, txns.size());
    if (threads == 1) {
      EXPECT_EQ(stats.txns_parallel, 0u);
      reference = DigestTable(wh.get(), "parts");
    } else {
      EXPECT_TRUE(reference == DigestTable(wh.get(), "parts"));
    }
  }
}

TEST(ParallelApplyTest, UnfootprintableBatchFallsBackToSerialApply) {
  // A transaction the planner cannot footprint runs alone as a full
  // barrier; its error and the committed prefix before it become the
  // batch's, exactly as inline apply would leave them.
  TempDir dir;
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  OPDELTA_ASSERT_OK(
      wh->CreateTable("parts", workload::PartsWorkload::Schema()));
  ApplyLedger ledger(wh.get());
  OPDELTA_ASSERT_OK(ledger.Setup());

  std::vector<extract::OpDeltaTxn> txns;
  txns.push_back(Txn(1, {"INSERT INTO parts VALUES (1, 's', 'p', TS:0)"}));
  txns.push_back(Txn(2, {"DELETE FROM ghost WHERE id = 1"}));  // no footprint
  txns.push_back(Txn(3, {"INSERT INTO parts VALUES (2, 's', 'p', TS:0)"}));

  ThreadPool pool(4);
  OpDeltaIntegrator::Options options;
  options.pool = &pool;
  options.max_inflight = 4;
  OpDeltaIntegrator integrator(wh.get(), options);
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
  // Full barriers — a trigger-table transaction, a captured ADD COLUMN, an
  // unknown-table transaction — inside batches of disjoint inserts. At 4
  // threads the outcome (digest, ledger watermark, error, committed prefix)
  // must be inline apply's, while every footprinted transaction, before
  // and after each barrier, still commits on the pool.
  TempDir dir;
  BarrierWarehouse inline_wh(&dir, "inline");
  BarrierWarehouse pool_wh(&dir, "pool");
  ThreadPool pool(4);

  for (BarrierWarehouse* wh : {&inline_wh, &pool_wh}) {
    const bool on_pool = wh == &pool_wh;
    OpDeltaIntegrator::Options options;
    options.pool = on_pool ? &pool : nullptr;
    options.max_inflight = on_pool ? 4 : 1;
    OpDeltaIntegrator integrator(wh->db.get(), options);

    // Batch 1: both barriers commit.
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
    // Six footprinted inserts, two on each side of each barrier; the
    // barriers themselves run alone and never count.
    EXPECT_EQ(stats.txns_parallel, on_pool ? 6u : 0u);

    // Batch 2: the unknown-table barrier fails; the prefix before it
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

  EXPECT_TRUE(DigestTable(inline_wh.db.get(), "parts") ==
              DigestTable(pool_wh.db.get(), "parts"));
  EXPECT_TRUE(DigestTable(inline_wh.db.get(), "audited") ==
              DigestTable(pool_wh.db.get(), "audited"));
  EXPECT_EQ(CountRows(pool_wh.db.get(), "parts"), 8u);
  EXPECT_EQ(CountRows(pool_wh.db.get(), "audited"), 1u);
  for (BarrierWarehouse* wh : {&inline_wh, &pool_wh}) {
    Result<ApplyLedger::Watermark> mark = wh->ledger->Get("src");
    OPDELTA_ASSERT_OK(mark.status());
    ASSERT_TRUE(mark.value().exists);
    EXPECT_EQ(mark.value().seq, 2u);
    EXPECT_EQ(mark.value().txns, 2u);
  }
  // Same error text at both widths, not just the same code.
  OpDeltaIntegrator inline_apply(inline_wh.db.get());
  OpDeltaIntegrator::Options options;
  options.pool = &pool;
  options.max_inflight = 4;
  OpDeltaIntegrator pool_apply(pool_wh.db.get(), options);
  const std::vector<extract::OpDeltaTxn> ghost = {
      Txn(13, {PartsInsert(10, true)}),
      Txn(14, {"DELETE FROM ghost WHERE id = 1"})};
  EXPECT_EQ(inline_apply.Apply(ghost, nullptr).ToString(),
            pool_apply.Apply(ghost, nullptr).ToString());
}

// ------------------------------------------------------------- hub e2e

TEST(HubParallelApplyTest, OpDeltaSourceAppliesInParallelEndToEnd) {
  // apply_threads on a SourceSpec turns the hub's op-delta lane parallel;
  // the warehouse must still converge to the source and the stats must
  // show pool commits and statement-cache hits.
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
  spec.apply_threads = 4;
  OPDELTA_ASSERT_OK((*hub)->AddSource(spec));
  OPDELTA_ASSERT_OK((*hub)->Setup());

  extract::OpDeltaCapture* capture = (*hub)->capture("s1");
  ASSERT_NE(capture, nullptr);
  for (int round = 0; round < 3; ++round) {
    // Several disjoint transactions per round: one batch, empty conflict
    // DAG, so the integrator genuinely runs them through the pool.
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
  EXPECT_EQ(stats.sources[0].apply_threads, 4u);
  EXPECT_GT(stats.txns_parallel, 0u);
  EXPECT_EQ(stats.sources[0].txns_parallel, stats.txns_parallel);
  // Twelve single-shape transactions: the cache misses once per epoch
  // shape and hits for the rest.
  EXPECT_GT(stats.stmt_cache_hits, 0u);
  OPDELTA_ASSERT_OK((*hub)->Stop());
}

}  // namespace
}  // namespace opdelta::warehouse
