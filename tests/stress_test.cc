// Concurrency stress tests: multiple writers against one source system
// with capture machinery active, verifying that extraction and integration
// stay consistent under interleaving.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/random.h"
#include "extract/log_extractor.h"
#include "extract/op_delta.h"
#include "extract/trigger_extractor.h"
#include "sql/executor.h"
#include "warehouse/integrator.h"
#include "workload/workload.h"
#include "tests/test_util.h"

namespace opdelta {
namespace {

using opdelta::testing::CountRows;
using opdelta::testing::OpenDb;
using opdelta::testing::TablesEqual;
using opdelta::testing::TempDir;

TEST(StressTest, ConcurrentWritersWithTriggerCapture) {
  TempDir dir;
  engine::DatabaseOptions options;
  options.auto_timestamp = false;
  auto src = OpenDb(dir, "src", options);
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  Result<std::string> delta_table =
      extract::TriggerExtractor::Install(src.get(), "parts");
  ASSERT_TRUE(delta_table.ok());

  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 40;
  std::atomic<int> failures{0};

  // Each thread owns a disjoint key range: ranges never conflict, so every
  // transaction must commit.
  auto worker = [&](int tid) {
    workload::PartsWorkload local(
        workload::PartsWorkload::Options{100, static_cast<uint64_t>(tid)});
    sql::Executor exec(src.get());
    const int64_t base = tid * 100000;
    int64_t next = base;
    Rng rng(1000 + tid);
    for (int i = 0; i < kTxnsPerThread; ++i) {
      sql::Statement stmt;
      switch (rng.Uniform(3)) {
        case 0:
          stmt = local.MakeInsert("parts", next, 1 + rng.Uniform(10));
          next += 10;
          break;
        case 1:
          stmt = local.MakeUpdate("parts", base,
                                  base + rng.Uniform(next - base + 1),
                                  "t" + std::to_string(tid));
          break;
        default:
          stmt = local.MakeDelete(
              "parts", base + rng.Uniform(next - base + 1),
              base + rng.Uniform(next - base + 1));
          break;
      }
      if (!exec.ExecuteSql(stmt.ToSql()).ok()) failures++;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The captured value delta must agree with the archive log on net
  // changes, despite the concurrent interleaving.
  Result<extract::DeltaBatch> trigger_batch =
      extract::TriggerExtractor::Drain(src.get(), "parts");
  ASSERT_TRUE(trigger_batch.ok());
  engine::Table* t = src->GetTable("parts");
  extract::LogExtractor log_extractor(src->wal()->dir());
  txn::Lsn wm = 0;
  Result<extract::DeltaBatch> log_batch = log_extractor.ExtractSince(
      0, t->id(), "parts", t->schema(), &wm);
  ASSERT_TRUE(log_batch.ok());

  extract::NetChanges trigger_net, log_net;
  OPDELTA_ASSERT_OK(ComputeNetChanges(*trigger_batch, &trigger_net));
  OPDELTA_ASSERT_OK(ComputeNetChanges(*log_batch, &log_net));
  // The log is totally ordered by LSN; the trigger capture's per-batch seq
  // is assigned at fire time. Both must at least agree on which keys are
  // live, and the live values must match the source table.
  auto source_rows = opdelta::testing::TableContents(src.get(), "parts");
  uint64_t live_in_log = 0;
  for (const auto& [key, state] : log_net) {
    if (!state.has_value()) continue;
    ++live_in_log;
    auto it = source_rows.find(key);
    ASSERT_NE(it, source_rows.end()) << key.ToSqlLiteral();
    EXPECT_EQ(catalog::CompareRows(*state, it->second), 0);
  }
  EXPECT_EQ(live_in_log + 0, source_rows.size());
}

TEST(StressTest, ConcurrentOpDeltaCaptureReplaysExactly) {
  TempDir dir;
  engine::DatabaseOptions options;
  options.auto_timestamp = false;
  auto src = OpenDb(dir, "src", options);
  auto wh = OpenDb(dir, "wh", options);
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));
  OPDELTA_ASSERT_OK(
      src->CreateTable("op_log", extract::OpDeltaLogTableSchema()));

  sql::Executor exec(src.get());
  extract::OpDeltaCapture capture(
      &exec, std::make_shared<extract::OpDeltaDbSink>("op_log"),
      extract::OpDeltaCapture::Options());

  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  // Disjoint key ranges; single shared capture wrapper.
  auto worker = [&](int tid) {
    workload::PartsWorkload local(
        workload::PartsWorkload::Options{100, 77u + tid});
    const int64_t base = tid * 100000;
    int64_t next = base;
    Rng rng(52 + tid);
    for (int i = 0; i < 30; ++i) {
      std::vector<sql::Statement> stmts;
      const size_t n = 1 + rng.Uniform(8);
      stmts.push_back(local.MakeInsert("parts", next, n));
      next += static_cast<int64_t>(n);
      if (i % 3 == 2) {
        stmts.push_back(local.MakeUpdate("parts", base, next,
                                         "s" + std::to_string(i)));
      }
      if (!capture.RunTransaction(stmts).ok()) failures++;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Replay: the per-thread streams interleave, but disjoint key ranges
  // make any commit-consistent order equivalent — the warehouse must land
  // exactly on the source state.
  std::vector<extract::OpDeltaTxn> txns;
  OPDELTA_ASSERT_OK(extract::OpDeltaLogReader::DrainDbTable(
      src.get(), "op_log", workload::PartsWorkload::Schema(), &txns));
  EXPECT_EQ(txns.size(), static_cast<size_t>(kThreads * 30));
  warehouse::OpDeltaIntegrator integrator(wh.get());
  OPDELTA_ASSERT_OK(integrator.Apply(txns, nullptr));
  EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
}

// Writers commit and abort while an extractor reads the same log. Each
// commit or abort writes the log's tail in one piece, so a concurrent read
// may stop before a half-written tail but never finds a corrupt frame, and
// a kept extractor's incremental batches add up to the source's rows.
TEST(StressTest, ConcurrentCommitsAndAbortsWhileExtracting) {
  TempDir dir;
  engine::DatabaseOptions options;
  options.auto_timestamp = false;
  auto src = OpenDb(dir, "src", options);
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  engine::Table* t = src->GetTable("parts");

  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::atomic<int> writing{kThreads};
  // Disjoint key ranges: every transaction that is not aborted on purpose
  // must commit.
  auto writer = [&](int tid) {
    workload::PartsWorkload local(
        workload::PartsWorkload::Options{100, 900u + tid});
    const int64_t base = tid * 100000;
    int64_t next = base;
    Rng rng(900 + tid);
    for (int i = 0; i < 60; ++i) {
      std::unique_ptr<txn::Transaction> txn = src->Begin();
      const int64_t n = 1 + static_cast<int64_t>(rng.Uniform(20));
      Status st;
      for (int64_t k = 0; k < n && st.ok(); ++k) {
        st = src->Insert(txn.get(), "parts", local.MakeRow(next + k));
      }
      if (st.ok() && next > base) {
        const int64_t lo = base + static_cast<int64_t>(rng.Uniform(
                                      static_cast<uint64_t>(next - base)));
        engine::Predicate range = engine::Predicate::Where(
            "id", engine::CompareOp::kGe, catalog::Value::Int64(lo));
        range.And("id", engine::CompareOp::kLt, catalog::Value::Int64(lo + 20));
        st = src->UpdateWhere(txn.get(), "parts", range,
                              {engine::Assignment{
                                  "status", catalog::Value::String(
                                                "w" + std::to_string(i))}})
                 .status();
      }
      if (!st.ok()) {
        failures++;
        (void)src->Abort(txn.get());
      } else if (i % 3 == 2) {
        if (!src->Abort(txn.get()).ok()) failures++;
      } else if (src->Commit(txn.get()).ok()) {
        next += n;
      } else {
        failures++;
      }
    }
    writing--;
  };

  extract::LogExtractor extractor(src->wal()->dir());
  extract::NetChanges net;
  Status read_status;
  auto reader = [&]() {
    txn::Lsn watermark = 0;
    for (bool last = false; !last;) {
      last = writing.load() == 0;  // one more read after the last commit
      Result<extract::DeltaBatch> batch = extractor.ExtractSince(
          watermark, t->id(), "parts", t->schema(), &watermark);
      extract::NetChanges delta;
      read_status = batch.ok() ? ComputeNetChanges(*batch, &delta)
                               : batch.status();
      if (!read_status.ok()) return;
      for (auto& [key, state] : delta) net[key] = std::move(state);
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) threads.emplace_back(writer, w);
  std::thread extracting(reader);
  for (auto& th : threads) th.join();
  extracting.join();
  EXPECT_EQ(failures.load(), 0);
  OPDELTA_ASSERT_OK(read_status);

  const auto source_rows = opdelta::testing::TableContents(src.get(), "parts");
  EXPECT_EQ(net.size(), source_rows.size());
  for (const auto& [key, state] : net) {
    ASSERT_TRUE(state.has_value()) << key.ToSqlLiteral();
    auto it = source_rows.find(key);
    ASSERT_NE(it, source_rows.end()) << key.ToSqlLiteral();
    EXPECT_EQ(catalog::CompareRows(*state, it->second), 0)
        << key.ToSqlLiteral();
  }
}

TEST(StressTest, ReadersNeverBlockEachOther) {
  TempDir dir;
  auto db = OpenDb(dir, "db");
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(db.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.Populate(db.get(), "parts", 5000));

  std::atomic<int> completed{0};
  auto reader = [&]() {
    for (int i = 0; i < 20; ++i) {
      Result<workload::OlapQueryResult> r =
          workload::RunOlapQuery(db.get(), "parts");
      if (r.ok() && r->rows_scanned == 5000) completed++;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(reader);
  for (auto& t : threads) t.join();
  EXPECT_EQ(completed.load(), 80);
}

}  // namespace
}  // namespace opdelta
