#include "hub/delta_hub.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_env.h"
#include "common/record_log.h"
#include "pipeline/source_leg.h"
#include "sql/executor.h"
#include "workload/workload.h"
#include "tests/test_util.h"

namespace opdelta::hub {
namespace {

using opdelta::testing::CountRows;
using opdelta::testing::OpenDb;
using opdelta::testing::ScopedEnvOverride;
using opdelta::testing::TableContents;
using opdelta::testing::TablesEqual;
using opdelta::testing::TempDir;
using OpKind = FaultInjectionEnv::OpKind;

engine::DatabaseOptions NoTimestampOptions() {
  engine::DatabaseOptions options;
  options.auto_timestamp = false;
  return options;
}

/// The acceptance scenario: four concurrent source streams — timestamp,
/// log, op-delta, and a 2-replica trigger group reconciled to a single
/// stream — all integrating into one warehouse, with per-source
/// transaction order preserved.
class HubIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine::DatabaseOptions ts_options;
    ts_options.auto_timestamp = true;
    src_ts_ = OpenDb(dir_, "src_ts", ts_options);
    src_log_ = OpenDb(dir_, "src_log", NoTimestampOptions());
    src_op_ = OpenDb(dir_, "src_op", NoTimestampOptions());
    replica1_ = OpenDb(dir_, "replica1", NoTimestampOptions());
    replica2_ = OpenDb(dir_, "replica2", NoTimestampOptions());
    wh_ = OpenDb(dir_, "wh", NoTimestampOptions());

    for (engine::Database* db : {src_ts_.get(), src_log_.get(), src_op_.get(),
                                 replica1_.get(), replica2_.get()}) {
      OPDELTA_ASSERT_OK(wl_.CreateTable(db, "parts"));
    }
    for (const char* table : {"parts", "parts_ts", "parts_log", "parts_rep"}) {
      OPDELTA_ASSERT_OK(wh_->CreateTable(table, workload::PartsWorkload::Schema()));
    }
  }

  Result<std::unique_ptr<DeltaHub>> MakeHub(HubOptions options) {
    options.work_dir = options.work_dir.empty() ? dir_.Sub("hub")
                                                : options.work_dir;
    OPDELTA_ASSIGN_OR_RETURN(std::unique_ptr<DeltaHub> hub,
                             DeltaHub::Create(wh_.get(), options));
    SourceSpec ts;
    ts.name = "ts";
    ts.source = src_ts_.get();
    ts.method = pipeline::Method::kTimestamp;
    ts.source_table = "parts";
    ts.warehouse_table = "parts_ts";
    OPDELTA_RETURN_IF_ERROR(hub->AddSource(ts));

    SourceSpec log;
    log.name = "log";
    log.source = src_log_.get();
    log.method = pipeline::Method::kLog;
    log.source_table = "parts";
    log.warehouse_table = "parts_log";
    OPDELTA_RETURN_IF_ERROR(hub->AddSource(log));

    SourceSpec op;
    op.name = "op";
    op.source = src_op_.get();
    op.method = pipeline::Method::kOpDelta;
    op.source_table = "parts";
    op.warehouse_table = "parts";
    OPDELTA_RETURN_IF_ERROR(hub->AddSource(op));

    // Two trigger-captured instances of dynamically replicated data,
    // reconciled to one authoritative stream (§2.2).
    for (int i = 1; i <= 2; ++i) {
      SourceSpec rep;
      rep.name = "rep" + std::to_string(i);
      rep.source = i == 1 ? replica1_.get() : replica2_.get();
      rep.method = pipeline::Method::kTrigger;
      rep.source_table = "parts";
      rep.warehouse_table = "parts_rep";
      rep.replica_group = "g";
      OPDELTA_RETURN_IF_ERROR(hub->AddSource(rep));
    }
    OPDELTA_RETURN_IF_ERROR(hub->Setup());
    return hub;
  }

  /// Runs a statement, retrying lock-timeout conflicts: when the hub's
  /// background driver drains a source concurrently, client transactions
  /// can conflict with the drain transaction and must retry, exactly as
  /// real OLTP clients would.
  template <typename Fn>
  Status Retry(Fn&& fn) {
    Status st;
    for (int attempt = 0; attempt < 200; ++attempt) {
      st = fn();
      if (!st.IsConflict()) return st;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return st;
  }

  Status Run(engine::Database* db, const sql::Statement& stmt) {
    return Retry([&] {
      return sql::Executor(db).ExecuteSql(stmt.ToSql()).status();
    });
  }

  /// Replicated COTS behaviour: the same statement lands on both replicas.
  Status RunReplicated(const sql::Statement& stmt) {
    OPDELTA_RETURN_IF_ERROR(Run(replica1_.get(), stmt));
    return Run(replica2_.get(), stmt);
  }

  /// One round of order-sensitive traffic on every source. The
  /// overlapping updates make final state depend on apply order, so any
  /// reordering at the warehouse shows up as a table mismatch.
  void DriveRound(DeltaHub* hub, int round) {
    const int64_t base = round * 40;
    OPDELTA_ASSERT_OK(
        Run(src_ts_.get(), wl_.MakeInsert("parts", base, 20)));
    OPDELTA_ASSERT_OK(Run(src_ts_.get(),
                          wl_.MakeUpdate("parts", 0, base + 10,
                                         "t" + std::to_string(round))));

    OPDELTA_ASSERT_OK(
        Run(src_log_.get(), wl_.MakeInsert("parts", base, 15)));
    OPDELTA_ASSERT_OK(Run(src_log_.get(),
                          wl_.MakeUpdate("parts", base, base + 10,
                                         "l" + std::to_string(round))));
    if (round > 1) {
      OPDELTA_ASSERT_OK(
          Run(src_log_.get(), wl_.MakeDelete("parts", base - 40, base - 35)));
    }

    extract::OpDeltaCapture* capture = hub->capture("op");
    ASSERT_NE(capture, nullptr);
    OPDELTA_ASSERT_OK(Retry([&] {
      return capture->RunTransaction({wl_.MakeInsert("parts", base, 10)})
          .status();
    }));
    // Two order-dependent updates over overlapping key ranges.
    OPDELTA_ASSERT_OK(Retry([&] {
      return capture
          ->RunTransaction({wl_.MakeUpdate("parts", 0, base + 5, "first"),
                            wl_.MakeUpdate("parts", 0, base + 3,
                                           "o" + std::to_string(round))})
          .status();
    }));

    OPDELTA_ASSERT_OK(RunReplicated(wl_.MakeInsert("parts", base, 12)));
    OPDELTA_ASSERT_OK(RunReplicated(wl_.MakeUpdate(
        "parts", base, base + 6, "r" + std::to_string(round))));
  }

  void ExpectWarehouseConverged() {
    EXPECT_TRUE(TablesEqual(src_ts_.get(), "parts", wh_.get(), "parts_ts"));
    EXPECT_TRUE(TablesEqual(src_log_.get(), "parts", wh_.get(), "parts_log"));
    EXPECT_TRUE(TablesEqual(src_op_.get(), "parts", wh_.get(), "parts"));
    // Sequential application of the replicated stream ends at the
    // replicas' own final state; both replicas saw identical statements.
    EXPECT_TRUE(TablesEqual(replica1_.get(), "parts", wh_.get(), "parts_rep"));
    EXPECT_TRUE(
        TablesEqual(replica1_.get(), "parts", replica2_.get(), "parts"));
  }

  TempDir dir_;
  workload::PartsWorkload wl_;
  std::unique_ptr<engine::Database> src_ts_, src_log_, src_op_;
  std::unique_ptr<engine::Database> replica1_, replica2_, wh_;
};

TEST_F(HubIntegrationTest, FourSourcesConvergeWithOrderPreserved) {
  Result<std::unique_ptr<DeltaHub>> hub = MakeHub(HubOptions());
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();

  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    DriveRound(hub->get(), round);
    OPDELTA_ASSERT_OK((*hub)->RunRound());
  }
  ExpectWarehouseConverged();

  const HubStats stats = (*hub)->Stats();
  EXPECT_EQ(stats.rounds, static_cast<uint64_t>(kRounds));
  ASSERT_EQ(stats.sources.size(), 5u);
  uint64_t shipped = 0;
  for (const SourceStats& s : stats.sources) {
    EXPECT_EQ(s.rounds, static_cast<uint64_t>(kRounds)) << s.name;
    EXPECT_GT(s.records_extracted, 0u) << s.name;
    EXPECT_GT(s.batches_shipped, 0u) << s.name;
    // Every shipped batch was applied and acknowledged.
    EXPECT_EQ(s.batches_applied, s.batches_shipped) << s.name;
    shipped += s.batches_shipped;
  }
  // The two replicas merge into one authoritative batch per round, so
  // fewer batches apply than ship.
  EXPECT_LT(stats.batches_applied, shipped);
  EXPECT_EQ(stats.batches_reconciled, 2u * kRounds);
  EXPECT_GT(stats.duplicates_dropped, 0u);  // replicas mirror each other
  EXPECT_GT(stats.transactions_applied, 0u);
  EXPECT_GT(stats.apply_micros_total, 0);
  EXPECT_GE(stats.apply_micros_total, stats.apply_micros_max);

  OPDELTA_EXPECT_OK((*hub)->Stop());
}

TEST_F(HubIntegrationTest, SequentialPipelineBaselineMatchesHubResult) {
  // Ground truth via the single-threaded path: a one-source hub with one
  // extract thread over the same archive log (log extraction is
  // non-destructive, so the hub and the baseline can both consume it)
  // applied sequentially to a second warehouse must produce exactly the
  // table the hub produced.
  Result<std::unique_ptr<DeltaHub>> hub = MakeHub(HubOptions());
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  for (int round = 0; round < 3; ++round) {
    DriveRound(hub->get(), round);
    OPDELTA_ASSERT_OK((*hub)->RunRound());
  }
  OPDELTA_EXPECT_OK((*hub)->Stop());

  auto baseline_wh = OpenDb(dir_, "baseline_wh", NoTimestampOptions());
  OPDELTA_ASSERT_OK(
      baseline_wh->CreateTable("parts", workload::PartsWorkload::Schema()));
  HubOptions options;
  options.work_dir = dir_.Sub("baseline_hub");
  options.extract_threads = 1;
  Result<std::unique_ptr<DeltaHub>> baseline =
      DeltaHub::Create(baseline_wh.get(), options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  SourceSpec log;
  log.name = "log";
  log.source = src_log_.get();
  log.method = pipeline::Method::kLog;
  log.source_table = "parts";
  log.warehouse_table = "parts";
  OPDELTA_ASSERT_OK((*baseline)->AddSource(log));
  OPDELTA_ASSERT_OK((*baseline)->Setup());
  OPDELTA_ASSERT_OK((*baseline)->RunRound());
  OPDELTA_EXPECT_OK((*baseline)->Stop());

  EXPECT_TRUE(
      TablesEqual(baseline_wh.get(), "parts", wh_.get(), "parts_log"));
}

TEST_F(HubIntegrationTest, BackgroundDriverIntegratesContinuously) {
  HubOptions options;
  options.poll_interval = std::chrono::milliseconds(2);
  Result<std::unique_ptr<DeltaHub>> hub = MakeHub(options);
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  OPDELTA_ASSERT_OK((*hub)->Start());
  EXPECT_TRUE((*hub)->Start().code() == StatusCode::kBusy);

  for (int round = 0; round < 3; ++round) DriveRound(hub->get(), round);

  // Every write above has committed. RunRound absorbs everything pending
  // when it begins, but the round in flight now may have begun before the
  // last write; the second round to complete from here began after it.
  // The bound is generous: under `ctest -j$(nproc)` with the runtime lock
  // checker on, the driver thread can be starved for seconds at a time.
  const uint64_t target = (*hub)->Stats().rounds + 2;
  for (int i = 0; i < 3000 && (*hub)->Stats().rounds < target; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  OPDELTA_ASSERT_OK((*hub)->Stop());
  ASSERT_GE((*hub)->Stats().rounds, target);
  ExpectWarehouseConverged();
}

TEST(HubRestartTest, ShippedButUnappliedBatchesReplayWithoutLossOrDup) {
  TempDir dir;
  auto src = OpenDb(dir, "src", NoTimestampOptions());
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));
  sql::Executor exec(src.get());

  // Phase 1 — the extract half of a hub round runs alone: the batch ships
  // durably and the watermark advances, then the process "dies" before
  // any integration. This is exactly the leg state a crashed hub leaves.
  pipeline::PipelineOptions leg_options;
  leg_options.method = pipeline::Method::kLog;
  leg_options.source_table = "parts";
  leg_options.warehouse_table = "parts";
  leg_options.work_dir = dir.Sub("hub") + "/s1";  // the hub's path for "s1"
  {
    OPDELTA_ASSERT_OK(Env::Default()->CreateDir(dir.Sub("hub")));
    Result<std::unique_ptr<pipeline::SourceLeg>> leg =
        pipeline::SourceLeg::Create(src.get(), leg_options);
    ASSERT_TRUE(leg.ok());
    OPDELTA_ASSERT_OK((*leg)->Setup());
    OPDELTA_ASSERT_OK(
        exec.ExecuteSql(wl.MakeInsert("parts", 0, 100).ToSql()).status());
    bool shipped = false;
    OPDELTA_ASSERT_OK((*leg)->ExtractAndShip(&shipped));
    EXPECT_TRUE(shipped);
    Result<uint64_t> backlog = (*leg)->Backlog();
    ASSERT_TRUE(backlog.ok());
    EXPECT_EQ(*backlog, 1u);  // staged, never integrated
  }
  EXPECT_EQ(CountRows(wh.get(), "parts"), 0u);

  // Phase 2 — a fresh hub over the same work_dir recovers: the staged
  // batch replays from the queue; the persisted watermark prevents
  // re-extraction of rows 0..99.
  OPDELTA_ASSERT_OK(
      exec.ExecuteSql(wl.MakeUpdate("parts", 0, 10, "after").ToSql())
          .status());
  HubOptions options;
  options.work_dir = dir.Sub("hub");
  Result<std::unique_ptr<DeltaHub>> hub = DeltaHub::Create(wh.get(), options);
  ASSERT_TRUE(hub.ok());
  SourceSpec spec;
  spec.name = "s1";
  spec.source = src.get();
  spec.method = pipeline::Method::kLog;
  spec.source_table = "parts";
  spec.warehouse_table = "parts";
  OPDELTA_ASSERT_OK((*hub)->AddSource(spec));
  OPDELTA_ASSERT_OK((*hub)->Setup());
  OPDELTA_ASSERT_OK((*hub)->RunRound());

  EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
  HubStats stats = (*hub)->Stats();
  ASSERT_EQ(stats.sources.size(), 1u);
  // Only the post-crash update re-extracted (20 images): rows 0..99 came
  // from the replayed batch, not a second extraction.
  EXPECT_EQ(stats.sources[0].records_extracted, 20u);
  EXPECT_EQ(stats.sources[0].batches_applied, 2u);  // replayed + new

  // An idle round ships nothing and changes nothing.
  OPDELTA_ASSERT_OK((*hub)->RunRound());
  stats = (*hub)->Stats();
  EXPECT_EQ(stats.sources[0].batches_shipped, 1u);  // phase-2 batch only
  EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
  OPDELTA_EXPECT_OK((*hub)->Stop());
}

// Drains order captured rows by their capture seq, so a change captured
// after a restart must replay after one captured before it. Status 'A' is
// captured and the hub stops before a round; a new hub over the same
// source captures 'B'; the warehouse must end at 'B'. A trigger lives in
// memory only, so for that method the source is closed and reopened too,
// as a new process would find it.
void ExpectCaptureOrderSurvivesARestart(pipeline::Method method) {
  TempDir dir;
  std::unique_ptr<engine::Database> src =
      OpenDb(dir, "src", NoTimestampOptions());
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));

  HubOptions options;
  options.work_dir = dir.Sub("hub");
  SourceSpec spec;
  spec.name = "s1";
  spec.method = method;
  spec.source_table = "parts";
  spec.warehouse_table = "parts";
  auto make_hub = [&]() -> Result<std::unique_ptr<DeltaHub>> {
    spec.source = src.get();
    OPDELTA_ASSIGN_OR_RETURN(std::unique_ptr<DeltaHub> hub,
                             DeltaHub::Create(wh.get(), options));
    OPDELTA_RETURN_IF_ERROR(hub->AddSource(spec));
    OPDELTA_RETURN_IF_ERROR(hub->Setup());
    return hub;
  };
  // One source transaction through the method's capture path.
  auto run = [&](DeltaHub* hub, const sql::Statement& stmt) -> Status {
    if (method == pipeline::Method::kOpDelta) {
      return hub->capture("s1")->RunTransaction({stmt}).status();
    }
    return sql::Executor(src.get()).ExecuteSql(stmt.ToSql()).status();
  };

  {
    Result<std::unique_ptr<DeltaHub>> hub = make_hub();
    ASSERT_TRUE(hub.ok()) << hub.status().ToString();
    OPDELTA_ASSERT_OK(run(hub->get(), wl.MakeInsert("parts", 0, 5)));
    OPDELTA_ASSERT_OK((*hub)->RunRound());
    OPDELTA_ASSERT_OK(run(hub->get(), wl.MakeUpdate("parts", 1, 2, "A")));
    OPDELTA_ASSERT_OK((*hub)->Stop());
  }
  if (method == pipeline::Method::kTrigger) {
    OPDELTA_ASSERT_OK(src->Close());
    src = OpenDb(dir, "src", NoTimestampOptions());
  }

  Result<std::unique_ptr<DeltaHub>> hub = make_hub();
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  OPDELTA_ASSERT_OK(run(hub->get(), wl.MakeUpdate("parts", 1, 2, "B")));
  OPDELTA_ASSERT_OK((*hub)->RunRound());
  OPDELTA_ASSERT_OK((*hub)->RunRound());
  EXPECT_EQ(TableContents(src.get(), "parts").at(catalog::Value::Int64(1))[1]
                .AsString(),
            "B");
  EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
  OPDELTA_EXPECT_OK((*hub)->Stop());
}

TEST(HubRestartTest, OpDeltaCaptureAfterARestartAppliesLast) {
  ExpectCaptureOrderSurvivesARestart(pipeline::Method::kOpDelta);
}

TEST(HubRestartTest, TriggerCaptureAfterAReopenAppliesLast) {
  ExpectCaptureOrderSurvivesARestart(pipeline::Method::kTrigger);
}

TEST(HubExactlyOnceTest, ForcedRedeliveryIsDroppedByTheLedger) {
  // The queue is at-least-once: an ack is written but not synced, so a
  // power failure before the next durable ship loses it and the batch is
  // redelivered. The apply ledger must recognize the redelivery and drop
  // it — acked means committed, and committed means never applied twice.
  TempDir dir;
  auto src = OpenDb(dir, "src", NoTimestampOptions());
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));

  // Tracks what the hub's files have synced; the databases are out of
  // scope and survive.
  FaultInjectionEnv fenv(Env::Default());
  fenv.SetScope(dir.Sub("hubw"));
  ScopedEnvOverride guard(&fenv);

  HubOptions options;
  options.work_dir = dir.Sub("hubw");
  auto make_hub = [&]() -> Result<std::unique_ptr<DeltaHub>> {
    OPDELTA_ASSIGN_OR_RETURN(std::unique_ptr<DeltaHub> hub,
                             DeltaHub::Create(wh.get(), options));
    SourceSpec spec;
    spec.name = "s1";
    spec.source = src.get();
    spec.method = pipeline::Method::kOpDelta;
    spec.source_table = "parts";
    spec.warehouse_table = "parts";
    OPDELTA_RETURN_IF_ERROR(hub->AddSource(spec));
    OPDELTA_RETURN_IF_ERROR(hub->Setup());
    return hub;
  };

  uint64_t epoch_before = 0;
  {
    Result<std::unique_ptr<DeltaHub>> hub = make_hub();
    ASSERT_TRUE(hub.ok()) << hub.status().ToString();
    extract::OpDeltaCapture* capture = (*hub)->capture("s1");
    ASSERT_NE(capture, nullptr);
    OPDELTA_ASSERT_OK(
        capture->RunTransaction({wl.MakeInsert("parts", 0, 20)}).status());
    OPDELTA_ASSERT_OK(
        capture->RunTransaction({wl.MakeUpdate("parts", 0, 10, "v1")})
            .status());
    OPDELTA_ASSERT_OK((*hub)->RunRound());
    const HubStats stats = (*hub)->Stats();
    ASSERT_EQ(stats.sources.size(), 1u);
    EXPECT_EQ(stats.sources[0].duplicates_dropped, 0u);
    EXPECT_NE(stats.sources[0].applied_epoch, 0u);
    EXPECT_EQ(stats.sources[0].applied_seq, 1u);  // both txns in one batch
    epoch_before = stats.sources[0].applied_epoch;
    OPDELTA_EXPECT_OK((*hub)->Stop());
  }
  EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
  const uint64_t rows_before = CountRows(wh.get(), "parts");

  // Force redelivery: a power failure drops the unsynced ack, so the
  // already-acknowledged batch replays on the next hub.
  OPDELTA_ASSERT_OK(fenv.CrashAndDropUnsynced(/*torn_tails=*/false));

  Result<std::unique_ptr<DeltaHub>> hub = make_hub();
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  OPDELTA_ASSERT_OK((*hub)->RunRound());

  // The ledger dropped the redelivered batch: same rows, same contents —
  // op-delta INSERTs applied twice would show as extra physical rows.
  EXPECT_EQ(CountRows(wh.get(), "parts"), rows_before);
  EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
  const HubStats stats = (*hub)->Stats();
  ASSERT_EQ(stats.sources.size(), 1u);
  EXPECT_EQ(stats.sources[0].duplicates_dropped, 1u);
  // The hub-wide counter is the reconciler's, not the ledger's.
  EXPECT_EQ(stats.duplicates_dropped, 0u);
  // The watermark is unchanged: the drop re-acked the same identity.
  EXPECT_EQ(stats.sources[0].applied_epoch, epoch_before);
  EXPECT_EQ(stats.sources[0].applied_seq, 1u);

  // An idle round redelivers nothing further.
  OPDELTA_ASSERT_OK((*hub)->RunRound());
  EXPECT_EQ((*hub)->Stats().sources[0].duplicates_dropped, 1u);
  EXPECT_EQ(CountRows(wh.get(), "parts"), rows_before);
  OPDELTA_EXPECT_OK((*hub)->Stop());
}

TEST(HubExactlyOnceTest, QuarantinedSourceResumesFromPersistedWatermark) {
  // A source whose hub-side files fail long enough to be quarantined must,
  // once its probe succeeds, resume exactly where its durable watermark
  // and queue left off: no extraction gap, no re-applied batch.
  TempDir dir;
  auto flaky_db = OpenDb(dir, "flaky", NoTimestampOptions());
  auto steady_db = OpenDb(dir, "steady", NoTimestampOptions());
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  workload::PartsWorkload wl;
  // Op-delta integration requires matching table names on both sides.
  OPDELTA_ASSERT_OK(wl.CreateTable(flaky_db.get(), "parts_flaky"));
  OPDELTA_ASSERT_OK(wl.CreateTable(steady_db.get(), "parts_steady"));
  OPDELTA_ASSERT_OK(
      wh->CreateTable("parts_flaky", workload::PartsWorkload::Schema()));
  OPDELTA_ASSERT_OK(
      wh->CreateTable("parts_steady", workload::PartsWorkload::Schema()));

  FaultInjectionEnv fenv(Env::Default());
  ScopedEnvOverride guard(&fenv);

  HubOptions options;
  options.work_dir = dir.Sub("hubw");
  options.produce_attempts = 2;
  options.backoff_initial = std::chrono::milliseconds(1);
  options.backoff_max = std::chrono::milliseconds(4);
  options.quarantine_after = 2;
  Result<std::unique_ptr<DeltaHub>> hub = DeltaHub::Create(wh.get(), options);
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  SourceSpec flaky;
  flaky.name = "flaky";
  flaky.source = flaky_db.get();
  flaky.method = pipeline::Method::kOpDelta;  // duplicate apply => extra rows
  flaky.source_table = "parts_flaky";
  flaky.warehouse_table = "parts_flaky";
  OPDELTA_ASSERT_OK((*hub)->AddSource(flaky));
  SourceSpec steady = flaky;
  steady.name = "steady";
  steady.source = steady_db.get();
  steady.source_table = "parts_steady";
  steady.warehouse_table = "parts_steady";
  OPDELTA_ASSERT_OK((*hub)->AddSource(steady));
  OPDELTA_ASSERT_OK((*hub)->Setup());

  auto drive = [&](int round) {
    for (const char* name : {"flaky", "steady"}) {
      extract::OpDeltaCapture* capture = (*hub)->capture(name);
      ASSERT_NE(capture, nullptr);
      const std::string table = std::string("parts_") + name;
      OPDELTA_ASSERT_OK(
          capture->RunTransaction({wl.MakeInsert(table, round * 10, 10)})
              .status());
    }
  };
  auto stats_for = [&](const std::string& name) {
    for (const SourceStats& s : (*hub)->Stats().sources) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << "no stats for " << name;
    return SourceStats();
  };

  // Round 1 is clean and establishes the flaky source's watermark.
  drive(1);
  OPDELTA_ASSERT_OK((*hub)->RunRound());
  const SourceStats before = stats_for("flaky");
  EXPECT_EQ(before.applied_seq, 1u);
  ASSERT_NE(before.applied_epoch, 0u);

  // The flaky source's hub files die; rounds keep coming until it is
  // quarantined. The steady source must keep flowing throughout.
  fenv.SetScope(dir.Sub("hubw") + "/flaky");
  fenv.SetErrorProbability(OpKind::kWrite, 1.0);
  for (int round = 2; round <= 5; ++round) {
    drive(round);
    (void)(*hub)->RunRound();
  }
  EXPECT_TRUE(stats_for("flaky").quarantined);
  EXPECT_GT(stats_for("flaky").errors, 0u);
  EXPECT_TRUE(
      TablesEqual(steady_db.get(), "parts_steady", wh.get(), "parts_steady"));

  // Heal the disk; the next successful probe lifts the quarantine and the
  // backlog drains from where the watermark left off.
  fenv.ClearFaults();
  bool recovered = false;
  for (int i = 0; i < 1000 && !recovered; ++i) {
    (void)(*hub)->RunRound();
    recovered = !stats_for("flaky").quarantined &&
                TablesEqual(flaky_db.get(), "parts_flaky", wh.get(),
                            "parts_flaky");
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(recovered);

  // No gap: the warehouse converged. No duplicate: physical row counts
  // match (TablesEqual alone would collapse duplicate keys) and the
  // ledger never had to drop a redelivery — recovery resumed cleanly
  // past the watermark instead of re-shipping applied data.
  EXPECT_TRUE(TablesEqual(flaky_db.get(), "parts_flaky", wh.get(), "parts_flaky"));
  EXPECT_EQ(CountRows(wh.get(), "parts_flaky"),
            CountRows(flaky_db.get(), "parts_flaky"));
  EXPECT_TRUE(
      TablesEqual(steady_db.get(), "parts_steady", wh.get(), "parts_steady"));
  const SourceStats after = stats_for("flaky");
  EXPECT_EQ(after.duplicates_dropped, 0u);
  EXPECT_EQ(after.applied_epoch, before.applied_epoch);  // same capture epoch
  EXPECT_GT(after.applied_seq, before.applied_seq);      // watermark advanced
  OPDELTA_EXPECT_OK((*hub)->Stop());
}

TEST(HubDurableStateTest, QueueLogIsTheOnlyStateAndIdleRoundsWriteNothing) {
  // Each source's only hub-side state is its queue log: the extraction
  // position rides in the shipped frames and acks are records in the same
  // log. So a round that finds nothing to ship touches no hub file.
  TempDir dir;
  auto log_db = OpenDb(dir, "logsrc", NoTimestampOptions());
  auto op_db = OpenDb(dir, "opsrc", NoTimestampOptions());
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(log_db.get(), "parts_log"));
  OPDELTA_ASSERT_OK(wl.CreateTable(op_db.get(), "parts_op"));
  OPDELTA_ASSERT_OK(
      wh->CreateTable("parts_log", workload::PartsWorkload::Schema()));
  OPDELTA_ASSERT_OK(
      wh->CreateTable("parts_op", workload::PartsWorkload::Schema()));

  const std::string work_dir = dir.Sub("hubw");
  FaultInjectionEnv fenv(Env::Default());
  fenv.SetScope(work_dir);
  ScopedEnvOverride guard(&fenv);

  HubOptions options;
  options.work_dir = work_dir;
  Result<std::unique_ptr<DeltaHub>> hub = DeltaHub::Create(wh.get(), options);
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  SourceSpec log_spec;
  log_spec.name = "s1";
  log_spec.source = log_db.get();
  log_spec.method = pipeline::Method::kLog;
  log_spec.source_table = "parts_log";
  log_spec.warehouse_table = "parts_log";
  OPDELTA_ASSERT_OK((*hub)->AddSource(log_spec));
  SourceSpec op_spec;
  op_spec.name = "s2";
  op_spec.source = op_db.get();
  op_spec.method = pipeline::Method::kOpDelta;
  op_spec.source_table = "parts_op";
  op_spec.warehouse_table = "parts_op";
  OPDELTA_ASSERT_OK((*hub)->AddSource(op_spec));
  OPDELTA_ASSERT_OK((*hub)->Setup());

  OPDELTA_ASSERT_OK(sql::Executor(log_db.get())
                        .ExecuteSql(wl.MakeInsert("parts_log", 0, 20).ToSql())
                        .status());
  OPDELTA_ASSERT_OK((*hub)->capture("s2")
                        ->RunTransaction({wl.MakeInsert("parts_op", 0, 20)})
                        .status());
  OPDELTA_ASSERT_OK((*hub)->RunRound());
  EXPECT_TRUE(TablesEqual(log_db.get(), "parts_log", wh.get(), "parts_log"));
  EXPECT_TRUE(TablesEqual(op_db.get(), "parts_op", wh.get(), "parts_op"));
  for (const SourceStats& s : (*hub)->Stats().sources) {
    EXPECT_EQ(s.batches_applied, 1u) << s.name;
  }

  // From here on every write to the hub's files fails; an idle round must
  // not attempt one.
  fenv.FailAllOpsAfter(0);
  OPDELTA_EXPECT_OK((*hub)->RunRound());
  EXPECT_EQ(fenv.faults_injected(), 0u);
  fenv.ClearFaults();
  OPDELTA_ASSERT_OK((*hub)->Stop());

  for (const char* name : {"s1", "s2"}) {
    SCOPED_TRACE(name);
    const std::string source_dir = work_dir + "/" + name;
    std::vector<std::string> files;
    OPDELTA_ASSERT_OK(Env::Default()->ListDir(source_dir, &files));
    std::sort(files.begin(), files.end());
    EXPECT_EQ(files, std::vector<std::string>{"queue"});
    files.clear();
    OPDELTA_ASSERT_OK(Env::Default()->ListDir(source_dir + "/queue", &files));
    std::sort(files.begin(), files.end());
    EXPECT_EQ(files, std::vector<std::string>{"queue-000001.log"});
  }
}

/// The queue's segment indexes in `dir`, ascending.
std::vector<uint64_t> QueueSegments(const std::string& dir) {
  std::vector<std::string> files;
  EXPECT_TRUE(Env::Default()->ListDir(dir, &files).ok());
  std::vector<uint64_t> out;
  for (const std::string& file : files) {
    std::string name;
    uint64_t index = 0;
    EXPECT_TRUE(common::RecordLog::ParseSegmentName(file, &name, &index) &&
                name == "queue")
        << file;
    out.push_back(index);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(HubDurableStateTest, QueueStaysBoundedAcrossSegmentsAndRestart) {
  // An op-delta source ships ten queue segments' worth of statements; the
  // fully acknowledged segments are deleted as it goes.
  TempDir dir;
  auto src = OpenDb(dir, "src", NoTimestampOptions());
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));

  const std::string work_dir = dir.Sub("hubw");
  const std::string queue_dir = work_dir + "/s1/queue";
  FaultInjectionEnv fenv(Env::Default());
  fenv.SetScope(work_dir);
  ScopedEnvOverride guard(&fenv);
  HubOptions options;
  options.work_dir = work_dir;
  SourceSpec spec;
  spec.name = "s1";
  spec.source = src.get();
  spec.method = pipeline::Method::kOpDelta;
  spec.source_table = "parts";
  spec.warehouse_table = "parts";
  auto make_hub = [&]() -> Result<std::unique_ptr<DeltaHub>> {
    OPDELTA_ASSIGN_OR_RETURN(std::unique_ptr<DeltaHub> hub,
                             DeltaHub::Create(wh.get(), options));
    OPDELTA_RETURN_IF_ERROR(hub->AddSource(spec));
    OPDELTA_RETURN_IF_ERROR(hub->Setup());
    return hub;
  };
  constexpr int kRows = 16;
  // Each round updates every row to a fresh 3000-byte status, one
  // statement per transaction.
  auto change_every_row = [&](DeltaHub* hub, int round) -> Status {
    const std::string status(3000, static_cast<char>('a' + round % 26));
    for (int64_t id = 0; id < kRows; ++id) {
      OPDELTA_RETURN_IF_ERROR(
          hub->capture("s1")
              ->RunTransaction({wl.MakeUpdate("parts", id, id + 1, status)})
              .status());
    }
    return hub->RunRound();
  };

  {
    Result<std::unique_ptr<DeltaHub>> hub = make_hub();
    ASSERT_TRUE(hub.ok()) << hub.status().ToString();
    OPDELTA_ASSERT_OK(
        (*hub)->capture("s1")
            ->RunTransaction({wl.MakeInsert("parts", 0, kRows)})
            .status());
    OPDELTA_ASSERT_OK((*hub)->RunRound());
    size_t most = 0;
    // Segment 11 exists once ten full segments have gone by.
    for (int round = 0; QueueSegments(queue_dir).back() < 11; ++round) {
      ASSERT_LT(round, 1000);
      OPDELTA_ASSERT_OK(change_every_row((*hub).get(), round));
      most = std::max(most, QueueSegments(queue_dir).size());
    }
    EXPECT_LE(most, 2u);
    EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
    OPDELTA_ASSERT_OK((*hub)->Stop());
  }

  // A restarted hub continues from the queue's newest frame.
  Result<std::unique_ptr<DeltaHub>> hub = make_hub();
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  OPDELTA_ASSERT_OK(change_every_row((*hub).get(), 1000));
  EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
  EXPECT_EQ((*hub)->Stats().sources[0].duplicates_dropped, 0u);
  EXPECT_LE(QueueSegments(queue_dir).size(), 2u);

  // An idle round still writes nothing.
  fenv.FailAllOpsAfter(0);
  OPDELTA_EXPECT_OK((*hub)->RunRound());
  EXPECT_EQ(fenv.faults_injected(), 0u);
  fenv.ClearFaults();
  OPDELTA_EXPECT_OK((*hub)->Stop());
}

TEST(HubFanInTest, TwoSourcesFeedOneWarehouseTableInOrder) {
  // Two op-delta sources, each on its own database, feed one warehouse
  // table from disjoint key ranges, so both groups share the table's
  // lane. The table must end as the union of the sources, with each
  // source's order-dependent updates applied in its commit order.
  TempDir dir;
  auto src_a = OpenDb(dir, "src_a", NoTimestampOptions());
  auto src_b = OpenDb(dir, "src_b", NoTimestampOptions());
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  workload::PartsWorkload wl;
  for (engine::Database* db : {src_a.get(), src_b.get(), wh.get()}) {
    OPDELTA_ASSERT_OK(wl.CreateTable(db, "parts"));
  }

  HubOptions options;
  options.work_dir = dir.Sub("hub");
  options.extract_threads = 4;
  Result<std::unique_ptr<DeltaHub>> hub = DeltaHub::Create(wh.get(), options);
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  // Source b's keys start at 1000, source a's at 0.
  const std::vector<std::pair<std::string, engine::Database*>> sources = {
      {"a", src_a.get()}, {"b", src_b.get()}};
  for (const auto& [name, db] : sources) {
    SourceSpec spec;
    spec.name = name;
    spec.source = db;
    spec.method = pipeline::Method::kOpDelta;
    spec.source_table = "parts";
    spec.warehouse_table = "parts";
    OPDELTA_ASSERT_OK((*hub)->AddSource(spec));
  }
  OPDELTA_ASSERT_OK((*hub)->Setup());

  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < sources.size(); ++i) {
      const int64_t lo = static_cast<int64_t>(i) * 1000;
      const int64_t base = lo + round * 20;
      const std::string tag = sources[i].first + std::to_string(round);
      extract::OpDeltaCapture* capture = (*hub)->capture(sources[i].first);
      ASSERT_NE(capture, nullptr);
      OPDELTA_ASSERT_OK(
          capture->RunTransaction({wl.MakeInsert("parts", base, 20)})
              .status());
      // Overlapping predicate updates over this source's whole range: the
      // final status depends on the order they apply in.
      OPDELTA_ASSERT_OK(
          capture
              ->RunTransaction(
                  {wl.MakeUpdate("parts", lo, base + 15, "first" + tag)})
              .status());
      OPDELTA_ASSERT_OK(
          capture->RunTransaction({wl.MakeUpdate("parts", lo, base + 8, tag)})
              .status());
    }
    OPDELTA_ASSERT_OK((*hub)->RunRound());
  }

  // The warehouse is the union of the two sources: row for row, key for
  // key.
  std::map<catalog::Value, catalog::Row> expected =
      TableContents(src_a.get(), "parts");
  const std::map<catalog::Value, catalog::Row> from_b =
      TableContents(src_b.get(), "parts");
  expected.insert(from_b.begin(), from_b.end());
  ASSERT_EQ(expected.size(), static_cast<size_t>(kRounds) * 20 * 2);
  EXPECT_EQ(CountRows(wh.get(), "parts"), expected.size());
  const std::map<catalog::Value, catalog::Row> actual =
      TableContents(wh.get(), "parts");
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [key, row] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "key " << key.ToSqlLiteral() << " missing";
    EXPECT_EQ(catalog::CompareRows(row, it->second), 0)
        << "rows differ at key " << key.ToSqlLiteral();
  }

  const HubStats stats = (*hub)->Stats();
  ASSERT_EQ(stats.sources.size(), 2u);
  for (const SourceStats& s : stats.sources) {
    EXPECT_GT(s.batches_shipped, 0u) << s.name;
    EXPECT_EQ(s.batches_applied, s.batches_shipped) << s.name;
  }
  OPDELTA_EXPECT_OK((*hub)->Stop());
}

TEST(HubValidationTest, RejectsBadConfigurations) {
  TempDir dir;
  auto src = OpenDb(dir, "src", NoTimestampOptions());
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));
  OPDELTA_ASSERT_OK(wh->CreateTable(
      "skinny",
      catalog::Schema({catalog::Column{"x", catalog::ValueType::kInt64}})));

  EXPECT_FALSE(DeltaHub::Create(nullptr, HubOptions()).ok());
  EXPECT_FALSE(DeltaHub::Create(wh.get(), HubOptions()).ok());  // no work_dir

  HubOptions options;
  options.work_dir = dir.Sub("hub");
  Result<std::unique_ptr<DeltaHub>> hub = DeltaHub::Create(wh.get(), options);
  ASSERT_TRUE(hub.ok());

  SourceSpec spec;
  spec.name = "a";
  spec.source = src.get();
  spec.method = pipeline::Method::kTrigger;
  spec.source_table = "parts";
  spec.warehouse_table = "parts";
  OPDELTA_ASSERT_OK((*hub)->AddSource(spec));
  EXPECT_TRUE((*hub)->AddSource(spec).code() ==
              StatusCode::kAlreadyExists);  // duplicate name

  spec.name = "b";
  spec.warehouse_table = "skinny";
  EXPECT_FALSE((*hub)->AddSource(spec).ok());  // schema mismatch

  spec.warehouse_table = "nope";
  EXPECT_TRUE((*hub)->AddSource(spec).IsNotFound());

  spec.warehouse_table = "parts";
  spec.method = pipeline::Method::kOpDelta;
  spec.replica_group = "g";
  EXPECT_TRUE((*hub)->AddSource(spec).code() ==
              StatusCode::kNotSupported);  // op-delta can't be reconciled

  // Group members must agree on the warehouse table.
  spec.method = pipeline::Method::kTrigger;
  spec.replica_group = "g2";
  OPDELTA_ASSERT_OK((*hub)->AddSource(spec));
  OPDELTA_ASSERT_OK(wh->CreateTable("parts2", workload::PartsWorkload::Schema()));
  SourceSpec other = spec;
  other.name = "c";
  other.warehouse_table = "parts2";
  OPDELTA_ASSERT_OK((*hub)->AddSource(other));
  EXPECT_FALSE((*hub)->Setup().ok());
}

}  // namespace
}  // namespace opdelta::hub
