#include <gtest/gtest.h>

#include "common/fault_env.h"
#include "common/random.h"
#include "hub/delta_hub.h"
#include "pipeline/source_leg.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "workload/workload.h"
#include "tests/test_util.h"

namespace opdelta::pipeline {
namespace {

using opdelta::testing::CountRows;
using opdelta::testing::OpenDb;
using opdelta::testing::ScopedEnvOverride;
using opdelta::testing::TablesEqual;
using opdelta::testing::TempDir;

/// The paper's Figure-1 loop over one table: a one-source DeltaHub, driven
/// one synchronous round at a time.
Result<std::unique_ptr<hub::DeltaHub>> OneSourceHub(
    engine::Database* source, engine::Database* warehouse, Method method,
    const std::string& work_dir) {
  hub::HubOptions options;
  options.work_dir = work_dir;
  OPDELTA_ASSIGN_OR_RETURN(std::unique_ptr<hub::DeltaHub> hub,
                           hub::DeltaHub::Create(warehouse, options));
  hub::SourceSpec spec;
  spec.name = "parts";
  spec.source = source;
  spec.method = method;
  spec.source_table = "parts";
  spec.warehouse_table = "parts";
  OPDELTA_RETURN_IF_ERROR(hub->AddSource(spec));
  OPDELTA_RETURN_IF_ERROR(hub->Setup());
  return hub;
}

class PipelineTest : public ::testing::TestWithParam<Method> {
 protected:
  void SetUp() override {
    engine::DatabaseOptions options;
    options.auto_timestamp = GetParam() == Method::kTimestamp;
    src_ = OpenDb(dir_, "src", options);
    engine::DatabaseOptions wh_options;
    wh_options.auto_timestamp = false;
    wh_ = OpenDb(dir_, "wh", wh_options);
    OPDELTA_ASSERT_OK(wl_.CreateTable(src_.get(), "parts"));
    OPDELTA_ASSERT_OK(wl_.CreateTable(wh_.get(), "parts"));

    Result<std::unique_ptr<hub::DeltaHub>> hub = OneSourceHub(
        src_.get(), wh_.get(), GetParam(), dir_.Sub("pipeline"));
    ASSERT_TRUE(hub.ok()) << hub.status().ToString();
    hub_ = std::move(*hub);
    exec_ = std::make_unique<sql::Executor>(src_.get());
  }

  void TearDown() override {
    if (hub_ != nullptr) OPDELTA_EXPECT_OK(hub_->Stop());
  }

  /// Runs one source transaction through the right entry point.
  Status RunSource(const sql::Statement& stmt) {
    if (GetParam() == Method::kOpDelta) {
      return hub_->capture("parts")->RunTransaction({stmt}).status();
    }
    return exec_->ExecuteSql(stmt.ToSql()).status();
  }

  hub::SourceStats leg_stats() const { return hub_->Stats().sources[0]; }

  TempDir dir_;
  workload::PartsWorkload wl_;
  std::unique_ptr<engine::Database> src_, wh_;
  std::unique_ptr<hub::DeltaHub> hub_;
  std::unique_ptr<sql::Executor> exec_;
};

TEST_P(PipelineTest, ConvergesOverMultipleRounds) {
  // Round 1: inserts.
  OPDELTA_ASSERT_OK(RunSource(wl_.MakeInsert("parts", 0, 200)));
  OPDELTA_ASSERT_OK(hub_->RunRound());
  EXPECT_TRUE(TablesEqual(src_.get(), "parts", wh_.get(), "parts"));

  // Round 2: updates.
  OPDELTA_ASSERT_OK(RunSource(wl_.MakeUpdate("parts", 50, 150, "v2")));
  OPDELTA_ASSERT_OK(hub_->RunRound());
  EXPECT_TRUE(TablesEqual(src_.get(), "parts", wh_.get(), "parts"));

  // Round 3: deletes — visible to every method except timestamp.
  OPDELTA_ASSERT_OK(RunSource(wl_.MakeDelete("parts", 0, 30)));
  OPDELTA_ASSERT_OK(hub_->RunRound());
  if (GetParam() == Method::kTimestamp) {
    // Documented blind spot: the warehouse keeps the deleted rows.
    EXPECT_EQ(CountRows(wh_.get(), "parts"), 200u);
    EXPECT_EQ(CountRows(src_.get(), "parts"), 170u);
  } else {
    EXPECT_TRUE(TablesEqual(src_.get(), "parts", wh_.get(), "parts"));
  }

  EXPECT_EQ(hub_->Stats().rounds, 3u);
  // The timestamp method ships nothing for the delete-only round (the
  // deletes are invisible to it); every other method ships three batches.
  EXPECT_GE(leg_stats().batches_shipped,
            GetParam() == Method::kTimestamp ? 2u : 3u);
  EXPECT_GT(leg_stats().bytes_shipped, 0u);
}

TEST_P(PipelineTest, IdleRoundsShipNothing) {
  OPDELTA_ASSERT_OK(RunSource(wl_.MakeInsert("parts", 0, 10)));
  OPDELTA_ASSERT_OK(hub_->RunRound());
  const uint64_t shipped = leg_stats().batches_shipped;
  OPDELTA_ASSERT_OK(hub_->RunRound());
  OPDELTA_ASSERT_OK(hub_->RunRound());
  EXPECT_EQ(leg_stats().batches_shipped, shipped);  // no new batches
  EXPECT_TRUE(TablesEqual(src_.get(), "parts", wh_.get(), "parts"));
}

TEST_P(PipelineTest, InterleavedChangesAcrossRounds) {
  Rng rng(31 + static_cast<uint64_t>(GetParam()));
  int64_t next_id = 0;
  for (int round = 0; round < 8; ++round) {
    const size_t n = 1 + rng.Uniform(20);
    OPDELTA_ASSERT_OK(RunSource(wl_.MakeInsert("parts", next_id, n)));
    next_id += static_cast<int64_t>(n);
    if (round % 2 == 1) {
      int64_t lo = rng.Uniform(next_id);
      OPDELTA_ASSERT_OK(RunSource(wl_.MakeUpdate(
          "parts", lo, lo + 1 + rng.Uniform(10),
          "r" + std::to_string(round))));
    }
    OPDELTA_ASSERT_OK(hub_->RunRound());
    ASSERT_TRUE(TablesEqual(src_.get(), "parts", wh_.get(), "parts"))
        << "after round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, PipelineTest,
                         ::testing::Values(Method::kTimestamp, Method::kLog,
                                           Method::kTrigger,
                                           Method::kOpDelta),
                         [](const ::testing::TestParamInfo<Method>& param_info) {
                           switch (param_info.param) {
                             case Method::kTimestamp:
                               return "Timestamp";
                             case Method::kLog:
                               return "Log";
                             case Method::kTrigger:
                               return "Trigger";
                             case Method::kOpDelta:
                               return "OpDelta";
                           }
                           return "Unknown";
                         });

TEST(PipelineRestartTest, WatermarkSurvivesRestart) {
  // For every method, a new hub over the same work dir resumes from the
  // position carried by the queue's newest frame: the round after the
  // restart extracts only the changes made since.
  struct Case {
    Method method;
    uint64_t update_records;  // what a 10-row UPDATE extracts
  };
  for (const Case& c : {Case{Method::kTimestamp, 10}, Case{Method::kLog, 20},
                        Case{Method::kTrigger, 20},
                        Case{Method::kOpDelta, 1}}) {
    SCOPED_TRACE(MethodName(c.method));
    TempDir dir;
    engine::DatabaseOptions src_options;
    src_options.auto_timestamp = c.method == Method::kTimestamp;
    engine::DatabaseOptions wh_options;
    wh_options.auto_timestamp = false;
    auto src = OpenDb(dir, "src", src_options);
    auto wh = OpenDb(dir, "wh", wh_options);
    workload::PartsWorkload wl;
    OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
    OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));
    sql::Executor exec(src.get());
    auto run = [&](hub::DeltaHub* hub, const sql::Statement& stmt) {
      if (c.method == Method::kOpDelta) {
        return hub->capture("parts")->RunTransaction({stmt}).status();
      }
      return exec.ExecuteSql(stmt.ToSql()).status();
    };

    {
      Result<std::unique_ptr<hub::DeltaHub>> hub =
          OneSourceHub(src.get(), wh.get(), c.method, dir.Sub("pipeline"));
      ASSERT_TRUE(hub.ok()) << hub.status().ToString();
      OPDELTA_ASSERT_OK(run(hub->get(), wl.MakeInsert("parts", 0, 100)));
      OPDELTA_ASSERT_OK((*hub)->RunRound());
      EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
      OPDELTA_ASSERT_OK((*hub)->Stop());
    }

    // "Restart": the first batch must not re-ship.
    Result<std::unique_ptr<hub::DeltaHub>> hub2 =
        OneSourceHub(src.get(), wh.get(), c.method, dir.Sub("pipeline"));
    ASSERT_TRUE(hub2.ok()) << hub2.status().ToString();
    OPDELTA_ASSERT_OK(run(hub2->get(), wl.MakeUpdate("parts", 0, 10, "after")));
    OPDELTA_ASSERT_OK((*hub2)->RunRound());
    EXPECT_EQ((*hub2)->Stats().sources[0].records_extracted,
              c.update_records);
    EXPECT_EQ((*hub2)->Stats().sources[0].duplicates_dropped, 0u);
    EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
    OPDELTA_ASSERT_OK((*hub2)->Stop());
  }
}

TEST(PipelineRestartTest, OpDeltaLegResumesAtThePostAlterEpoch) {
  // The frame that closes a captured ALTER carries the post-ALTER epoch as
  // its position, so a leg restarted right after it decodes and stamps the
  // next drain under the new schema.
  TempDir dir;
  engine::DatabaseOptions options;
  options.auto_timestamp = false;
  auto src = OpenDb(dir, "src", options);
  auto wh = OpenDb(dir, "wh", options);
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));
  PipelineOptions popts;
  popts.method = Method::kOpDelta;
  popts.source_table = "parts";
  popts.warehouse_table = "parts";
  popts.work_dir = dir.Sub("leg");
  const uint64_t pre_alter = src->ddl_epoch();

  {
    Result<std::unique_ptr<SourceLeg>> leg = SourceLeg::Create(src.get(), popts);
    OPDELTA_ASSERT_OK(leg.status());
    OPDELTA_ASSERT_OK((*leg)->Setup());
    extract::OpDeltaCapture* capture = (*leg)->capture();
    OPDELTA_ASSERT_OK(
        capture->RunTransaction({wl.MakeInsert("parts", 0, 10)}).status());
    Result<uint64_t> post_alter = capture->ExecuteDdl(
        sql::Parser::Parse("ALTER TABLE parts ADD COLUMN qty INT64 DEFAULT 3")
            ->alter());
    OPDELTA_ASSERT_OK(post_alter.status());
    ASSERT_GT(*post_alter, pre_alter);
    bool shipped = false;
    std::string message;
    OPDELTA_ASSERT_OK((*leg)->ExtractAndShip(&shipped, &message));
    ASSERT_TRUE(shipped);
    extract::BatchId id;
    OPDELTA_ASSERT_OK(DecodeBatchHeader(Slice(message), &id));
    EXPECT_EQ(id.schema_epoch, pre_alter);  // rows written before the ALTER
    EXPECT_EQ(id.position, *post_alter);    // the epoch drained through
  }

  Result<std::unique_ptr<SourceLeg>> leg = SourceLeg::Create(src.get(), popts);
  OPDELTA_ASSERT_OK(leg.status());
  OPDELTA_ASSERT_OK((*leg)->Setup());
  OPDELTA_ASSERT_OK(
      (*leg)
          ->capture()
          ->RunTransaction({wl.MakeUpdate("parts", 0, 5, "post")})
          .status());
  bool shipped = false;
  std::string message;
  OPDELTA_ASSERT_OK((*leg)->ExtractAndShip(&shipped, &message));
  ASSERT_TRUE(shipped);
  extract::BatchId id;
  OPDELTA_ASSERT_OK(DecodeBatchHeader(Slice(message), &id));
  EXPECT_EQ(id.schema_epoch, src->ddl_epoch());
  EXPECT_EQ(id.position, src->ddl_epoch());

  // Both frames replay into the warehouse, the ALTER included.
  while (true) {
    Status peek = (*leg)->PeekShipped(&message);
    if (peek.IsNotFound()) break;
    OPDELTA_ASSERT_OK(peek);
    OPDELTA_ASSERT_OK(
        (*leg)->Integrate(wh.get(), nullptr, message, nullptr, nullptr));
    OPDELTA_ASSERT_OK((*leg)->AckShipped());
  }
  EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
}

// ------------------------------------------------- batch payload CRC

/// End-to-end payload checksum: stamped over the serialized batch at
/// capture, verified at warehouse apply. A flipped payload byte must be
/// rejected as Corruption (a deterministic error, so the hub diverts the
/// batch to dead-letters instead of retrying forever).
TEST(BatchCrcTest, CorruptPayloadRejectedAtApply) {
  TempDir dir;
  engine::DatabaseOptions options;
  options.auto_timestamp = false;
  auto src = OpenDb(dir, "src", options);
  auto wh = OpenDb(dir, "wh", options);
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));
  PipelineOptions popts;
  popts.method = Method::kOpDelta;
  popts.source_table = "parts";
  popts.warehouse_table = "parts";
  popts.work_dir = dir.Sub("leg");
  Result<std::unique_ptr<SourceLeg>> leg =
      SourceLeg::Create(src.get(), std::move(popts));
  OPDELTA_ASSERT_OK(leg.status());
  OPDELTA_ASSERT_OK((*leg)->Setup());

  OPDELTA_ASSERT_OK((*leg)
                        ->capture()
                        ->RunTransaction({wl.MakeInsert("parts", 0, 10)})
                        .status());
  bool shipped = false;
  OPDELTA_ASSERT_OK((*leg)->ExtractAndShip(&shipped));
  ASSERT_TRUE(shipped);
  std::string message;
  OPDELTA_ASSERT_OK((*leg)->PeekShipped(&message));

  // Bit rot in transit: flip one payload byte past the frame header. The
  // header still parses (routing stays possible) but apply must refuse.
  std::string corrupt = message;
  corrupt[corrupt.size() - 3] ^= 0x20;
  extract::BatchId id;
  OPDELTA_ASSERT_OK(DecodeBatchHeader(Slice(corrupt), &id));
  std::string payload;
  Status st = DecodeBatchFrame(corrupt, &id, &payload);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  st = (*leg)->Integrate(wh.get(), nullptr, corrupt, nullptr, nullptr);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(CountRows(wh.get(), "parts"), 0u);

  // The pristine frame still applies.
  OPDELTA_ASSERT_OK(
      (*leg)->Integrate(wh.get(), nullptr, message, nullptr, nullptr));
  OPDELTA_ASSERT_OK((*leg)->AckShipped());
  EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
}

// ----------------------------------------------------- failed ship

/// A ship that fails after a destructive op-delta drain keeps the drained
/// batch pending rather than dropping it, and snapshot ships wait behind
/// it; once the disk heals, the retried ship and a full drain deliver
/// every row exactly once.
TEST(BackpressureTest, FullQueueRetainsBatchUntilDrained) {
  TempDir dir;
  engine::DatabaseOptions options;
  options.auto_timestamp = false;
  auto src = OpenDb(dir, "src", options);
  auto wh = OpenDb(dir, "wh", options);
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));

  // Only the leg's queue log fails; installed before Setup opens it.
  FaultInjectionEnv fenv(Env::Default());
  fenv.SetScope("/queue/");
  ScopedEnvOverride guard(&fenv);

  PipelineOptions popts;
  popts.method = Method::kOpDelta;
  popts.source_table = "parts";
  popts.warehouse_table = "parts";
  popts.work_dir = dir.Sub("leg");
  Result<std::unique_ptr<SourceLeg>> leg =
      SourceLeg::Create(src.get(), std::move(popts));
  OPDELTA_ASSERT_OK(leg.status());
  OPDELTA_ASSERT_OK((*leg)->Setup());
  extract::OpDeltaCapture* capture = (*leg)->capture();

  OPDELTA_ASSERT_OK(
      capture->RunTransaction({wl.MakeInsert("parts", 0, 10)}).status());
  OPDELTA_ASSERT_OK((*leg)->ExtractAndShip());
  const uint64_t shipped_before = (*leg)->stats().batches_shipped;

  // The drain empties the op log, then the queue refuses the write.
  OPDELTA_ASSERT_OK(
      capture->RunTransaction({wl.MakeInsert("parts", 10, 10)}).status());
  fenv.SetErrorProbability(FaultInjectionEnv::OpKind::kWrite, 1.0);
  Status st = (*leg)->ExtractAndShip();
  ASSERT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ((*leg)->stats().batches_shipped, shipped_before);

  // The retained batch blocks snapshot ships too (stable identities).
  extract::DeltaBatch chunk;
  chunk.table = "parts";
  chunk.schema = workload::PartsWorkload::Schema();
  EXPECT_EQ((*leg)->ShipSnapshot(chunk).code(), StatusCode::kBusy);

  // The disk heals and the retried ship goes through.
  fenv.ClearFaults();
  OPDELTA_ASSERT_OK((*leg)->ExtractAndShip());
  EXPECT_EQ((*leg)->stats().batches_shipped, shipped_before + 1);

  // Full drain: every batch arrives exactly once.
  std::string message;
  while (true) {
    Status peek = (*leg)->PeekShipped(&message);
    if (peek.IsNotFound()) break;
    OPDELTA_ASSERT_OK(peek);
    OPDELTA_ASSERT_OK(
        (*leg)->Integrate(wh.get(), nullptr, message, nullptr, nullptr));
    OPDELTA_ASSERT_OK((*leg)->AckShipped());
  }
  EXPECT_EQ(CountRows(wh.get(), "parts"), 20u);
  EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
}

TEST(PipelineValidationTest, RejectsMismatchedSchemas) {
  TempDir dir;
  auto src = OpenDb(dir, "src");
  auto wh = OpenDb(dir, "wh");
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(wh->CreateTable(
      "parts",
      catalog::Schema({catalog::Column{"x", catalog::ValueType::kInt64}})));
  EXPECT_FALSE(
      OneSourceHub(src.get(), wh.get(), Method::kOpDelta, dir.Sub("p")).ok());
}

}  // namespace
}  // namespace opdelta::pipeline
