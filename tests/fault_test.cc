#include "common/fault_env.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/env.h"
#include "hub/dead_letter.h"
#include "hub/delta_hub.h"
#include "pipeline/source_leg.h"
#include "sql/executor.h"
#include "storage/file_manager.h"
#include "storage/page.h"
#include "transport/persistent_queue.h"
#include "workload/workload.h"
#include "tests/test_util.h"

namespace opdelta {
namespace {

using opdelta::testing::OpenDb;
using opdelta::testing::TablesEqual;
using opdelta::testing::TempDir;
using OpKind = FaultInjectionEnv::OpKind;

engine::DatabaseOptions NoTimestampOptions() {
  engine::DatabaseOptions options;
  options.auto_timestamp = false;
  return options;
}

using opdelta::testing::CountRows;
using opdelta::testing::ScopedEnvOverride;

/// Randomized suites read their seed from OPDELTA_FAULT_SEED so CI can run
/// the same tests under a seed matrix; unset, they use the fixed default.
uint64_t FaultSeedFromEnv(uint64_t fallback) {
  const char* text = std::getenv("OPDELTA_FAULT_SEED");
  if (text == nullptr || *text == '\0') return fallback;
  return std::strtoull(text, nullptr, 10);
}

uint64_t FileSize(const std::string& path) {
  uint64_t size = 0;
  Status st = Env::Default()->GetFileSize(path, &size);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return size;
}

// ----------------------------------------------------- FaultInjectionEnv

TEST(FaultInjectionEnvTest, WriteFaultFailsCleanlyByDefault) {
  TempDir dir;
  FaultInjectionEnv fenv(Env::Default());
  fenv.SetErrorProbability(OpKind::kWrite, 1.0);

  std::unique_ptr<WritableFile> file;
  OPDELTA_ASSERT_OK(fenv.NewWritableFile(dir.Sub("f"), &file));
  Status st = file->Append(Slice("payload"));
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.message().find("injected write fault"), std::string::npos);
  OPDELTA_ASSERT_OK(file->Close());
  // Clean failure: nothing reached the file.
  EXPECT_EQ(FileSize(dir.Sub("f")), 0u);
  EXPECT_GE(fenv.faults_injected(), 1u);
}

TEST(FaultInjectionEnvTest, ShortWritePersistsStrictPrefix) {
  TempDir dir;
  FaultInjectionEnv fenv(Env::Default(), /*seed=*/3);
  fenv.SetErrorProbability(OpKind::kWrite, 1.0);
  fenv.SetShortWriteProbability(1.0);

  std::unique_ptr<WritableFile> file;
  OPDELTA_ASSERT_OK(fenv.NewWritableFile(dir.Sub("f"), &file));
  const std::string payload(1000, 'a');
  EXPECT_FALSE(file->Append(Slice(payload)).ok());
  OPDELTA_ASSERT_OK(file->Close());
  // A torn append persists a strict prefix, never the whole payload.
  EXPECT_LT(FileSize(dir.Sub("f")), payload.size());
}

TEST(FaultInjectionEnvTest, SyncAndRenameAndOpenFaultsInjected) {
  TempDir dir;
  FaultInjectionEnv fenv(Env::Default());

  fenv.SetErrorProbability(OpKind::kSync, 1.0);
  std::unique_ptr<WritableFile> file;
  OPDELTA_ASSERT_OK(fenv.NewWritableFile(dir.Sub("f"), &file));
  OPDELTA_ASSERT_OK(file->Append(Slice("x")));
  EXPECT_TRUE(file->Sync().IsIOError());
  OPDELTA_ASSERT_OK(file->Close());
  fenv.ClearFaults();

  fenv.SetErrorProbability(OpKind::kRename, 1.0);
  EXPECT_TRUE(fenv.RenameFile(dir.Sub("f"), dir.Sub("g")).IsIOError());
  EXPECT_TRUE(fenv.FileExists(dir.Sub("f")));  // rename had no effect
  fenv.ClearFaults();

  fenv.SetErrorProbability(OpKind::kOpen, 1.0);
  std::unique_ptr<WritableFile> blocked;
  EXPECT_TRUE(fenv.NewWritableFile(dir.Sub("h"), &blocked).IsIOError());
}

TEST(FaultInjectionEnvTest, ScopeConfinesFaults) {
  TempDir dir;
  OPDELTA_ASSERT_OK(Env::Default()->CreateDir(dir.Sub("scoped")));
  FaultInjectionEnv fenv(Env::Default());
  fenv.SetScope(dir.Sub("scoped"));
  fenv.SetErrorProbability(OpKind::kWrite, 1.0);

  std::unique_ptr<WritableFile> outside;
  OPDELTA_ASSERT_OK(fenv.NewWritableFile(dir.Sub("outside"), &outside));
  OPDELTA_ASSERT_OK(outside->Append(Slice("ok")));  // out of scope: clean
  OPDELTA_ASSERT_OK(outside->Close());

  std::unique_ptr<WritableFile> inside;
  OPDELTA_ASSERT_OK(fenv.NewWritableFile(dir.Sub("scoped") + "/f", &inside));
  EXPECT_TRUE(inside->Append(Slice("boom")).IsIOError());
  OPDELTA_ASSERT_OK(inside->Close());
}

TEST(FaultInjectionEnvTest, FailAllOpsAfterActsLikeADeadDisk) {
  TempDir dir;
  FaultInjectionEnv fenv(Env::Default());
  fenv.FailAllOpsAfter(2);  // open + first append succeed

  std::unique_ptr<WritableFile> file;
  OPDELTA_ASSERT_OK(fenv.NewWritableFile(dir.Sub("f"), &file));  // 1st op
  OPDELTA_ASSERT_OK(file->Append(Slice("first")));               // 2nd op
  EXPECT_FALSE(file->Append(Slice("second")).ok());              // crossed
  EXPECT_FALSE(file->Sync().ok());
  OPDELTA_ASSERT_OK(file->Close());
  EXPECT_FALSE(fenv.RenameFile(dir.Sub("f"), dir.Sub("g")).ok());
  EXPECT_EQ(fenv.mutations(), 5u);
  EXPECT_EQ(FileSize(dir.Sub("f")), 5u);  // only "first" landed
}

TEST(FaultInjectionEnvTest, CrashDropsExactlyTheUnsyncedBytes) {
  TempDir dir;
  FaultInjectionEnv fenv(Env::Default());

  std::unique_ptr<WritableFile> file;
  OPDELTA_ASSERT_OK(fenv.NewWritableFile(dir.Sub("f"), &file));
  OPDELTA_ASSERT_OK(file->Append(Slice(std::string(100, 's'))));
  OPDELTA_ASSERT_OK(file->Sync());
  OPDELTA_ASSERT_OK(file->Append(Slice(std::string(60, 'u'))));
  OPDELTA_ASSERT_OK(file->Close());
  ASSERT_EQ(FileSize(dir.Sub("f")), 160u);

  OPDELTA_ASSERT_OK(fenv.CrashAndDropUnsynced(/*torn_tails=*/false));
  EXPECT_EQ(FileSize(dir.Sub("f")), 100u);  // synced bytes survive exactly
}

TEST(FaultInjectionEnvTest, CrashWithTornTailsKeepsPrefixOfUnsynced) {
  TempDir dir;
  FaultInjectionEnv fenv(Env::Default(), /*seed=*/11);

  std::unique_ptr<WritableFile> file;
  OPDELTA_ASSERT_OK(fenv.NewWritableFile(dir.Sub("f"), &file));
  OPDELTA_ASSERT_OK(file->Append(Slice(std::string(100, 's'))));
  OPDELTA_ASSERT_OK(file->Sync());
  OPDELTA_ASSERT_OK(file->Append(Slice(std::string(60, 'u'))));
  OPDELTA_ASSERT_OK(file->Close());

  OPDELTA_ASSERT_OK(fenv.CrashAndDropUnsynced(/*torn_tails=*/true));
  const uint64_t size = FileSize(dir.Sub("f"));
  EXPECT_GE(size, 100u);  // durable bytes always survive
  EXPECT_LE(size, 160u);  // plus at most the unsynced tail
}

// ------------------------------------------------- FileManager page I/O

TEST(FileManagerFaultTest, PageIoRoutesThroughEnv) {
  TempDir dir;
  FaultInjectionEnv fenv(Env::Default());
  ScopedEnvOverride scoped(&fenv);

  storage::FileManager fm;
  OPDELTA_ASSERT_OK(fm.Open(dir.Sub("pages.db")));
  storage::PageId id = 0;
  OPDELTA_ASSERT_OK(fm.AllocatePage(&id));
  char page[storage::kPageSize];
  std::memset(page, 'A', sizeof(page));
  OPDELTA_ASSERT_OK(fm.WritePage(id, page));
  OPDELTA_ASSERT_OK(fm.Sync());
  EXPECT_GT(fenv.mutations(), 0u);  // the env saw the page traffic

  fenv.SetErrorProbability(OpKind::kRead, 1.0);
  char out[storage::kPageSize];
  EXPECT_TRUE(fm.ReadPage(id, out).IsIOError());
  fenv.ClearFaults();
  OPDELTA_ASSERT_OK(fm.ReadPage(id, out));
  EXPECT_EQ(out[0], 'A');
  EXPECT_EQ(out[storage::kPageSize - 1], 'A');
  OPDELTA_ASSERT_OK(fm.Close());
}

TEST(FileManagerFaultTest, DeadDiskMidPageWriteLeavesTornPage) {
  TempDir dir;
  FaultInjectionEnv fenv(Env::Default(), /*seed=*/FaultSeedFromEnv(23));
  fenv.SetShortWriteProbability(1.0);
  ScopedEnvOverride scoped(&fenv);

  storage::FileManager fm;
  OPDELTA_ASSERT_OK(fm.Open(dir.Sub("pages.db")));
  storage::PageId id = 0;
  OPDELTA_ASSERT_OK(fm.AllocatePage(&id));
  char page[storage::kPageSize];
  std::memset(page, 'A', sizeof(page));
  OPDELTA_ASSERT_OK(fm.WritePage(id, page));
  OPDELTA_ASSERT_OK(fm.Sync());

  // The disk dies during the next page write: overwriting with 'B' tears
  // mid-page, and every operation after the crash point fails outright.
  fenv.FailAllOpsAfter(0);
  std::memset(page, 'B', sizeof(page));
  EXPECT_TRUE(fm.WritePage(id, page).IsIOError());
  EXPECT_FALSE(fm.Sync().ok());
  storage::PageId id2 = 0;
  EXPECT_FALSE(fm.AllocatePage(&id2).ok());
  OPDELTA_ASSERT_OK(fm.Close());

  // Recovery sees the torn page: some prefix of 'B' bytes (possibly empty,
  // never the whole page) followed by the old 'A' bytes — and no change in
  // the page count, because the failed AllocatePage never extended the file.
  fenv.ClearFaults();
  storage::FileManager reopened;
  OPDELTA_ASSERT_OK(reopened.Open(dir.Sub("pages.db")));
  EXPECT_EQ(reopened.num_pages(), 1u);
  char out[storage::kPageSize];
  OPDELTA_ASSERT_OK(reopened.ReadPage(id, out));
  size_t flip = 0;
  while (flip < storage::kPageSize && out[flip] == 'B') ++flip;
  EXPECT_LT(flip, storage::kPageSize);  // a torn write is a strict prefix
  for (size_t i = flip; i < storage::kPageSize; ++i) {
    ASSERT_EQ(out[i], 'A') << "mixed bytes after the torn prefix at " << i;
  }
  OPDELTA_ASSERT_OK(reopened.Close());
}

// -------------------------------------------------------- WriteFileAtomic

TEST(WriteFileAtomicTest, ContentsSurviveACrashRightAfterTheWrite) {
  // Regression for the missing temp-file Sync: rename orders the directory
  // entry, not the data, so an unsynced temp could surface as a torn file
  // after a crash even though the rename "committed" it.
  TempDir dir;
  FaultInjectionEnv fenv(Env::Default(), /*seed=*/5);
  const std::string path = dir.Sub("state");

  OPDELTA_ASSERT_OK(WriteFileAtomic(&fenv, path, Slice("generation-1")));
  OPDELTA_ASSERT_OK(fenv.CrashAndDropUnsynced(/*torn_tails=*/true));
  std::string data;
  OPDELTA_ASSERT_OK(Env::Default()->ReadFileToString(path, &data));
  EXPECT_EQ(data, "generation-1");
}

TEST(WriteFileAtomicTest, FailedRewriteLeavesOldContentsIntact) {
  TempDir dir;
  FaultInjectionEnv fenv(Env::Default());
  const std::string path = dir.Sub("state");
  OPDELTA_ASSERT_OK(WriteFileAtomic(&fenv, path, Slice("generation-1")));

  // Whichever op fails — write, sync, or rename — the visible file must
  // still hold the previous generation.
  for (OpKind kind : {OpKind::kWrite, OpKind::kSync, OpKind::kRename}) {
    fenv.ClearFaults();
    fenv.SetErrorProbability(kind, 1.0);
    EXPECT_FALSE(WriteFileAtomic(&fenv, path, Slice("generation-2")).ok());
    std::string data;
    OPDELTA_ASSERT_OK(Env::Default()->ReadFileToString(path, &data));
    EXPECT_EQ(data, "generation-1");
  }
}

// ----------------------------------------------------------- kTruncate site

TEST(FaultInjectionEnvTest, TruncateFaultSurfacesDuringTornTailRepair) {
  // Torn-tail repair at queue open is itself a Truncate; when the repair
  // write fails too, the open must surface the error instead of serving a
  // queue with a corrupt tail.
  TempDir dir;
  OPDELTA_ASSERT_OK(Env::Default()->CreateDir(dir.Sub("q")));
  {
    transport::PersistentQueue queue;
    OPDELTA_ASSERT_OK(queue.Open(dir.Sub("q")));
    OPDELTA_ASSERT_OK(queue.Enqueue(Slice("whole message"), /*durable=*/true));
    OPDELTA_ASSERT_OK(queue.Close());
  }
  {  // Tear the tail, as a crash mid-append would.
    std::unique_ptr<WritableFile> log;
    OPDELTA_ASSERT_OK(
        Env::Default()->NewAppendableFile(dir.Sub("q") + "/queue-000001.log", &log));
    const std::string torn("\x40\x00\x00\x00torn", 8);  // len=64, no payload
    OPDELTA_ASSERT_OK(log->Append(Slice(torn)));
    OPDELTA_ASSERT_OK(log->Close());
  }

  FaultInjectionEnv fenv(Env::Default());
  fenv.SetErrorProbability(OpKind::kTruncate, 1.0);
  ScopedEnvOverride guard(&fenv);
  {
    transport::PersistentQueue queue;
    Status st = queue.Open(dir.Sub("q"));
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    EXPECT_NE(st.message().find("injected truncate fault"),
              std::string::npos)
        << st.ToString();
  }

  // Regression: Truncate used to roll the kDelete dice, so delete faults
  // broke the repair path. They must not any more.
  fenv.ClearFaults();
  fenv.SetErrorProbability(OpKind::kDelete, 1.0);
  transport::PersistentQueue queue;
  OPDELTA_ASSERT_OK(queue.Open(dir.Sub("q")));
  Result<uint64_t> backlog = queue.Backlog();
  ASSERT_TRUE(backlog.ok());
  EXPECT_EQ(*backlog, 1u);  // the whole frame survived the repair
  std::string message;
  OPDELTA_ASSERT_OK(queue.Peek(&message));
  EXPECT_EQ(message, "whole message");
  OPDELTA_ASSERT_OK(queue.Close());
}

// -------------------------------------------------------- hub self-healing

/// Three independent kLog sources feeding three warehouse tables; the
/// "bad" source's hub-side files can be failed via a scoped fault env.
class SelfHealingHubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"good1", "good2", "bad"}) {
      dbs_[name] = OpenDb(dir_, name, NoTimestampOptions());
      OPDELTA_ASSERT_OK(wl_.CreateTable(dbs_[name].get(), "parts"));
    }
    wh_ = OpenDb(dir_, "wh", NoTimestampOptions());
    for (const char* table : {"parts_good1", "parts_good2", "parts_bad"}) {
      OPDELTA_ASSERT_OK(
          wh_->CreateTable(table, workload::PartsWorkload::Schema()));
    }
  }

  Result<std::unique_ptr<hub::DeltaHub>> MakeHub(hub::HubOptions options) {
    options.work_dir = WorkDir();
    OPDELTA_ASSIGN_OR_RETURN(std::unique_ptr<hub::DeltaHub> hub,
                             hub::DeltaHub::Create(wh_.get(), options));
    for (const char* name : {"good1", "good2", "bad"}) {
      hub::SourceSpec spec;
      spec.name = name;
      spec.source = dbs_[name].get();
      spec.method = pipeline::Method::kLog;
      spec.source_table = "parts";
      spec.warehouse_table = std::string("parts_") + name;
      OPDELTA_RETURN_IF_ERROR(hub->AddSource(spec));
    }
    OPDELTA_RETURN_IF_ERROR(hub->Setup());
    return hub;
  }

  std::string WorkDir() const { return dir_.Sub("hubw"); }

  void Insert(const std::string& name, int64_t base, int64_t n) {
    sql::Executor exec(dbs_[name].get());
    Status st =
        exec.ExecuteSql(wl_.MakeInsert("parts", base, n).ToSql()).status();
    OPDELTA_ASSERT_OK(st);
  }

  const hub::SourceStats& StatsFor(const hub::HubStats& stats,
                                   const std::string& name) {
    for (const hub::SourceStats& s : stats.sources) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << "no stats for " << name;
    static hub::SourceStats empty;
    return empty;
  }

  TempDir dir_;
  workload::PartsWorkload wl_;
  std::map<std::string, std::unique_ptr<engine::Database>> dbs_;
  std::unique_ptr<engine::Database> wh_;
};

TEST_F(SelfHealingHubTest, FailingSourceIsQuarantinedWhileOthersFlow) {
  FaultInjectionEnv fenv(Env::Default());
  fenv.SetScope(WorkDir() + "/bad");  // only the bad source's hub files
  fenv.SetErrorProbability(OpKind::kWrite, 1.0);
  ScopedEnvOverride guard(&fenv);

  hub::HubOptions options;
  options.produce_attempts = 2;
  options.backoff_initial = std::chrono::milliseconds(1);
  options.backoff_max = std::chrono::milliseconds(8);
  options.quarantine_after = 2;
  Result<std::unique_ptr<hub::DeltaHub>> hub = MakeHub(options);
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();

  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    for (const char* name : {"good1", "good2", "bad"}) {
      Insert(name, round * 10, 10);
    }
    // Failing rounds report the bad source's error; after quarantine the
    // source is skipped and the round is clean.
    (void)(*hub)->RunRound();
  }

  hub::HubStats stats = (*hub)->Stats();
  const hub::SourceStats& bad = StatsFor(stats, "bad");
  EXPECT_TRUE(bad.quarantined);
  EXPECT_GT(bad.errors, 0u);
  EXPECT_GT(bad.retries, 0u);
  EXPECT_EQ(bad.batches_applied, 0u);
  EXPECT_NE(bad.last_error.find("injected write fault"), std::string::npos)
      << bad.last_error;
  for (const char* name : {"good1", "good2"}) {
    const hub::SourceStats& good = StatsFor(stats, name);
    EXPECT_EQ(good.batches_applied, static_cast<uint64_t>(kRounds)) << name;
    EXPECT_EQ(good.errors, 0u) << name;
    EXPECT_FALSE(good.quarantined) << name;
    EXPECT_TRUE(TablesEqual(dbs_[name].get(), "parts", wh_.get(),
                            std::string("parts_") + name));
  }

  // Heal the "disk": the next successful probe lifts the quarantine and the
  // retained batch (plus everything extracted since) converges.
  fenv.ClearFaults();
  bool recovered = false;
  for (int i = 0; i < 1000 && !recovered; ++i) {
    (void)(*hub)->RunRound();
    stats = (*hub)->Stats();
    recovered = !StatsFor(stats, "bad").quarantined &&
                TablesEqual(dbs_["bad"].get(), "parts", wh_.get(),
                            "parts_bad");
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(recovered);
  EXPECT_TRUE(
      TablesEqual(dbs_["bad"].get(), "parts", wh_.get(), "parts_bad"));
  // Recovery must not have lost or duplicated the goods either.
  for (const char* name : {"good1", "good2"}) {
    EXPECT_TRUE(TablesEqual(dbs_[name].get(), "parts", wh_.get(),
                            std::string("parts_") + name));
  }
  OPDELTA_EXPECT_OK((*hub)->Stop());
}

TEST_F(SelfHealingHubTest, RunRoundAndStopReportEveryFailingSource) {
  // Fault every source's hub-side files: one round produces one error per
  // group, and both RunRound and Stop must surface them all (joined), not
  // just the first.
  FaultInjectionEnv fenv(Env::Default());
  fenv.SetScope(WorkDir());
  fenv.SetErrorProbability(OpKind::kWrite, 1.0);
  ScopedEnvOverride guard(&fenv);

  hub::HubOptions options;
  options.produce_attempts = 1;
  options.quarantine_after = 0;  // keep failing loudly, never quarantine
  options.poll_interval = std::chrono::milliseconds(1);
  Result<std::unique_ptr<hub::DeltaHub>> hub = MakeHub(options);
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();

  for (const char* name : {"good1", "good2", "bad"}) Insert(name, 0, 10);
  Status round = (*hub)->RunRound();
  EXPECT_TRUE(round.IsIOError()) << round.ToString();
  for (const char* name : {"good1", "good2", "bad"}) {
    EXPECT_NE(round.message().find(name), std::string::npos)
        << "missing " << name << " in: " << round.ToString();
  }

  // The Start() driver is a supervisor: failed rounds are retained, the
  // loop keeps driving instead of halting after the first error.
  OPDELTA_ASSERT_OK((*hub)->Start());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((*hub)->Stats().rounds <= 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Status stop = (*hub)->Stop();
  EXPECT_FALSE(stop.ok());
  EXPECT_NE(stop.message().find("injected write fault"), std::string::npos)
      << stop.ToString();
  EXPECT_GT((*hub)->Stats().rounds, 2u);  // it did not fail-stop
}

TEST(HubDeadLetterTest, PoisonMessageIsDivertedAndEverythingElseApplies) {
  TempDir dir;
  auto src = OpenDb(dir, "src", NoTimestampOptions());
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));

  // Plant a poison message at the head of the source's queue, as a buggy
  // shipper or flipped disk bits would.
  const std::string work_dir = dir.Sub("hubw");
  OPDELTA_ASSERT_OK(Env::Default()->CreateDir(work_dir));
  OPDELTA_ASSERT_OK(Env::Default()->CreateDir(work_dir + "/s1"));
  {
    transport::PersistentQueue queue;
    OPDELTA_ASSERT_OK(queue.Open(work_dir + "/s1/queue"));
    OPDELTA_ASSERT_OK(queue.Enqueue(Slice("Xgarbage"), /*durable=*/true));
    OPDELTA_ASSERT_OK(queue.Close());
  }
  OPDELTA_ASSERT_OK(
      sql::Executor(src.get())
          .ExecuteSql(wl.MakeInsert("parts", 0, 20).ToSql())
          .status());

  hub::HubOptions options;
  options.work_dir = work_dir;
  hub::SourceSpec spec;
  spec.name = "s1";
  spec.source = src.get();
  spec.method = pipeline::Method::kLog;
  spec.source_table = "parts";
  spec.warehouse_table = "parts";
  Result<std::unique_ptr<hub::DeltaHub>> hub =
      hub::DeltaHub::Create(wh.get(), options);
  ASSERT_TRUE(hub.ok());
  OPDELTA_ASSERT_OK((*hub)->AddSource(spec));
  OPDELTA_ASSERT_OK((*hub)->Setup());
  OPDELTA_ASSERT_OK((*hub)->RunRound());

  // The poison batch was diverted, the real batch applied behind it.
  EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
  const hub::HubStats stats = (*hub)->Stats();
  EXPECT_EQ(stats.dead_letters, 1u);
  ASSERT_EQ(stats.sources.size(), 1u);
  EXPECT_EQ(stats.sources[0].dead_letters, 1u);
  EXPECT_EQ(stats.sources[0].batches_applied, 1u);
  EXPECT_NE(stats.sources[0].last_error.find("unknown pipeline message"),
            std::string::npos)
      << stats.sources[0].last_error;
  // The diverted batch is preserved for inspection.
  EXPECT_TRUE(
      Env::Default()->FileExists(work_dir + "/dead_letters/parts-000001.log"));
  OPDELTA_EXPECT_OK((*hub)->Stop());
}

/// A torn dead-letter append is cut back, so the log stays readable and
/// the next append lands on a whole entry. If the cut fails too, the torn
/// entry stays at the end, where the reader takes it as the log's end.
TEST(HubDeadLetterTest, TornAppendLeavesEveryOtherEntryReadable) {
  TempDir dir;
  FaultInjectionEnv fenv(Env::Default());
  fenv.SetScope("dead_letters/");
  ScopedEnvOverride guard(&fenv);
  const std::string work_dir = dir.Sub("hubw");
  const std::string path = hub::DeadLetterDir(work_dir) + "/parts-000001.log";
  const Status cause = Status::Corruption("poison");
  auto messages = [&]() {
    std::vector<hub::DeadLetterEntry> entries;
    Status st = hub::ReadDeadLetters(work_dir, "parts", &entries);
    EXPECT_TRUE(st.ok()) << st.ToString();
    std::vector<std::string> out;
    for (const hub::DeadLetterEntry& e : entries) out.push_back(e.message);
    return out;
  };
  auto tear = [&](const std::string& message) {
    fenv.SetErrorProbability(OpKind::kWrite, 1.0);
    fenv.SetShortWriteProbability(1.0);
    const uint64_t faults = fenv.faults_injected();
    Status st = hub::AppendDeadLetter(work_dir, "parts", message, cause);
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    EXPECT_GT(fenv.faults_injected(), faults);
  };

  OPDELTA_ASSERT_OK(hub::AppendDeadLetter(work_dir, "parts", "first", cause));
  tear(std::string(4096, 't'));
  fenv.ClearFaults();
  OPDELTA_ASSERT_OK(hub::AppendDeadLetter(work_dir, "parts", "second", cause));
  EXPECT_EQ(messages(), (std::vector<std::string>{"first", "second"}));

  const uint64_t whole = FileSize(path);
  fenv.SetErrorProbability(OpKind::kTruncate, 1.0);
  tear(std::string(4096, 't'));
  fenv.ClearFaults();
  ASSERT_GT(FileSize(path), whole);  // the torn prefix stayed behind
  EXPECT_EQ(messages(), (std::vector<std::string>{"first", "second"}));
}

/// Appends an entry, then tears the next append while its cut fails too,
/// so the torn prefix stays at the end of `table`'s dead-letter log.
void AppendThenTearWithAFailedCut(FaultInjectionEnv* fenv,
                                  const std::string& work_dir,
                                  const std::string& table) {
  const Status cause = Status::Corruption("poison");
  OPDELTA_ASSERT_OK(hub::AppendDeadLetter(work_dir, table, "first", cause));
  fenv->SetErrorProbability(OpKind::kWrite, 1.0);
  fenv->SetShortWriteProbability(1.0);
  fenv->SetErrorProbability(OpKind::kTruncate, 1.0);
  Status st = hub::AppendDeadLetter(work_dir, table, std::string(4096, 't'),
                                    cause);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  fenv->ClearFaults();
}

std::vector<std::string> DeadLetterMessages(const std::string& work_dir,
                                            const std::string& table) {
  std::vector<hub::DeadLetterEntry> entries;
  Status st = hub::ReadDeadLetters(work_dir, table, &entries);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::vector<std::string> out;
  for (const hub::DeadLetterEntry& e : entries) out.push_back(e.message);
  return out;
}

/// A torn entry whose cut failed is cut by the next append, so an entry
/// appended after it reads back.
TEST(HubDeadLetterTest, NextAppendCutsATornEntryWhoseCutFailed) {
  TempDir dir;
  FaultInjectionEnv fenv(Env::Default());
  fenv.SetScope("dead_letters/");
  ScopedEnvOverride guard(&fenv);
  const std::string work_dir = dir.Sub("hubw");
  AppendThenTearWithAFailedCut(&fenv, work_dir, "parts");
  OPDELTA_ASSERT_OK(hub::AppendDeadLetter(work_dir, "parts", "third",
                                          Status::Corruption("poison")));
  EXPECT_EQ(DeadLetterMessages(work_dir, "parts"),
            (std::vector<std::string>{"first", "third"}));
}

/// Replay keeps every entry that still fails, including one appended after
/// a torn entry whose cut failed.
TEST(HubDeadLetterTest, ReplayKeepsEveryStillFailingEntry) {
  TempDir dir;
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  FaultInjectionEnv fenv(Env::Default());
  fenv.SetScope("dead_letters/");
  ScopedEnvOverride guard(&fenv);
  const std::string work_dir = dir.Sub("hubw");
  AppendThenTearWithAFailedCut(&fenv, work_dir, "parts");
  OPDELTA_ASSERT_OK(hub::AppendDeadLetter(work_dir, "parts", "third",
                                          Status::Corruption("poison")));

  // Neither message decodes, so both still fail and both must stay.
  hub::ReplayStats stats;
  Status st = hub::ReplayDeadLetters(wh.get(), /*ledger=*/nullptr, work_dir,
                                     "parts", &stats);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.replayed, 0u);
  EXPECT_EQ(DeadLetterMessages(work_dir, "parts"),
            (std::vector<std::string>{"first", "third"}));
  std::vector<std::string> tables;
  OPDELTA_ASSERT_OK(hub::ListDeadLetterTables(work_dir, &tables));
  EXPECT_EQ(tables, std::vector<std::string>{"parts"});
}

// ------------------------------------------------------ crash-point suite

/// Randomized crash points across the whole extract→ship→stage→apply
/// path: every in-scope mutating I/O the hub performs is a potential
/// power-failure site. For each crash point n, the hub runs until its
/// "disk" dies at the n-th mutation, unsynced bytes are dropped (with a
/// seeded torn tail), and a fresh hub over the same work_dir must bring
/// the warehouse to exactly the source's state — nothing lost, nothing
/// applied twice.
void HubCrashSweep(pipeline::Method method) {
  TempDir dir;
  // A timestamp source stamps its own rows; the warehouse keeps the
  // shipped stamps.
  engine::DatabaseOptions src_options = NoTimestampOptions();
  src_options.auto_timestamp = method == pipeline::Method::kTimestamp;
  auto src = OpenDb(dir, "src", src_options);
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));
  sql::Executor exec(src.get());
  const std::string work_dir = dir.Sub("hubcrash");

  // The hub's state (each source's queue log) crashes; the source and
  // warehouse databases are different machines and survive.
  FaultInjectionEnv fenv(Env::Default(), FaultSeedFromEnv(1234));
  fenv.SetScope(work_dir);
  ScopedEnvOverride guard(&fenv);

  hub::HubOptions options;
  options.work_dir = work_dir;
  options.extract_threads = 1;
  options.produce_attempts = 1;  // retries can't help a dead disk
  options.quarantine_after = 0;
  auto make_hub = [&]() -> Result<std::unique_ptr<hub::DeltaHub>> {
    OPDELTA_ASSIGN_OR_RETURN(std::unique_ptr<hub::DeltaHub> hub,
                             hub::DeltaHub::Create(wh.get(), options));
    hub::SourceSpec spec;
    spec.name = "s1";
    spec.source = src.get();
    spec.method = method;
    spec.source_table = "parts";
    spec.warehouse_table = "parts";
    OPDELTA_RETURN_IF_ERROR(hub->AddSource(spec));
    OPDELTA_RETURN_IF_ERROR(hub->Setup());
    return hub;
  };

  constexpr int kCrashPoints = 50;
  int64_t key = 0;
  uint64_t redeliveries_dropped = 0;
  for (int crash_point = 1; crash_point <= kCrashPoints; ++crash_point) {
    // Fresh order-sensitive traffic so every iteration has something to
    // lose: inserts plus an update over previously shipped keys.
    OPDELTA_ASSERT_OK(
        exec.ExecuteSql(wl.MakeInsert("parts", key, 5).ToSql()).status());
    if (key > 0) {
      std::string tag = "c";
      tag += std::to_string(crash_point);
      OPDELTA_ASSERT_OK(
          exec.ExecuteSql(wl.MakeUpdate("parts", 0, key, tag).ToSql())
              .status());
    }
    key += 5;

    fenv.ClearFaults();
    fenv.FailAllOpsAfter(crash_point);
    {
      // The hub runs until its disk dies somewhere in Setup, extract,
      // ship, or apply — any error is part of the scenario.
      Result<std::unique_ptr<hub::DeltaHub>> crashing = make_hub();
      if (crashing.ok()) {
        (void)(*crashing)->RunRound();
        (void)(*crashing)->Stop();
      }
    }

    // Power failure: unsynced bytes vanish; a seeded prefix of the
    // unsynced tail may survive (torn tail).
    fenv.ClearFaults();
    OPDELTA_ASSERT_OK(fenv.CrashAndDropUnsynced(/*torn_tails=*/true));

    // Reboot and recover: replay the queue, re-extract past the position
    // in its newest frame, converge.
    Result<std::unique_ptr<hub::DeltaHub>> recovered = make_hub();
    ASSERT_TRUE(recovered.ok())
        << "crash point " << crash_point << ": "
        << recovered.status().ToString();
    OPDELTA_ASSERT_OK((*recovered)->RunRound());
    redeliveries_dropped +=
        (*recovered)->Stats().sources[0].duplicates_dropped;
    OPDELTA_EXPECT_OK((*recovered)->Stop());
    ASSERT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"))
        << "diverged after crash point " << crash_point;
  }
  EXPECT_GT(fenv.faults_injected(), 0u);
  // Some crash points land between the warehouse commit and the durable
  // ack, so the sweep must have exercised the ledger's duplicate drop.
  EXPECT_GT(redeliveries_dropped, 0u);
}

/// The sweep drives the non-destructive methods, whose extraction position
/// rides in the shipped frame. (The op-delta and trigger drains delete
/// their capture rows before the durable enqueue, so a hub crash in
/// between can still lose a drained batch.)
TEST(HubCrashPointTest, WarehouseConvergesAfterEveryCrashPoint) {
  for (pipeline::Method method :
       {pipeline::Method::kLog, pipeline::Method::kTimestamp}) {
    SCOPED_TRACE(pipeline::MethodName(method));
    HubCrashSweep(method);
    if (HasFatalFailure()) return;
  }
}

// ----------------------------------------------- warehouse-side crash points

/// The other half of the crash model: the *warehouse's* disk dies
/// mid-apply while the hub process stays up. Every interrupted warehouse
/// transaction must roll back (with its ledger row), stay queued, and
/// apply exactly once after the disk heals — including crash points inside
/// the ledger's own delete-and-insert writes. An op-delta source makes any
/// double apply visible as extra physical rows.
TEST(WarehouseApplyCrashTest, DeadDiskMidApplyRollsBackAndAppliesOnce) {
  TempDir dir;
  // Only the warehouse's own files fail; the hub's transport state and the
  // source database live on healthy disks. The override is installed
  // before the databases open so the warehouse's file handles route
  // through the fault env.
  FaultInjectionEnv fenv(Env::Default(), FaultSeedFromEnv(99));
  fenv.SetScope(dir.Sub("warehouse"));
  ScopedEnvOverride guard(&fenv);

  auto src = OpenDb(dir, "src", NoTimestampOptions());
  auto wh = OpenDb(dir, "warehouse", NoTimestampOptions());
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));

  hub::HubOptions options;
  options.work_dir = dir.Sub("hubw");
  options.extract_threads = 1;
  options.produce_attempts = 1;
  options.quarantine_after = 0;
  Result<std::unique_ptr<hub::DeltaHub>> hub =
      hub::DeltaHub::Create(wh.get(), options);
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
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

  constexpr int kCrashPoints = 30;
  int64_t key = 0;
  for (int crash_point = 1; crash_point <= kCrashPoints; ++crash_point) {
    // Two source transactions per batch, so crash points can split a
    // batch mid-way and force the ledger's partial-prefix resume.
    OPDELTA_ASSERT_OK(
        capture->RunTransaction({wl.MakeInsert("parts", key, 4)}).status());
    OPDELTA_ASSERT_OK(
        capture
            ->RunTransaction({wl.MakeUpdate(
                "parts", 0, key + 4, "c" + std::to_string(crash_point))})
            .status());
    key += 4;

    fenv.ClearFaults();
    fenv.FailAllOpsAfter(crash_point);
    // The apply may die anywhere: staging the delta rows, writing the
    // ledger row, or committing. The round's error (if any) is part of the
    // scenario; the batch stays queued.
    (void)(*hub)->RunRound();

    // The disk heals; the retained batch replays and the warehouse
    // converges without ever double-applying a transaction.
    fenv.ClearFaults();
    OPDELTA_ASSERT_OK((*hub)->RunRound());
    ASSERT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"))
        << "diverged after crash point " << crash_point;
    ASSERT_EQ(CountRows(wh.get(), "parts"), CountRows(src.get(), "parts"))
        << "duplicate rows after crash point " << crash_point;
  }
  EXPECT_GT(fenv.faults_injected(), 0u);
  OPDELTA_EXPECT_OK((*hub)->Stop());
}

/// Deterministic ack-after-commit window: the warehouse commit lands but
/// the ack record cannot be appended to the queue log, so the batch is
/// redelivered. The ledger must drop it — one committed apply, zero extra
/// rows.
TEST(WarehouseApplyCrashTest, AckFailureAfterCommitDegradesToDroppedRedelivery) {
  TempDir dir;
  auto src = OpenDb(dir, "src", NoTimestampOptions());
  auto wh = OpenDb(dir, "wh", NoTimestampOptions());
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
  OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));

  FaultInjectionEnv fenv(Env::Default());
  ScopedEnvOverride guard(&fenv);

  hub::HubOptions options;
  options.work_dir = dir.Sub("hubw");
  options.produce_attempts = 1;
  options.quarantine_after = 0;
  hub::SourceSpec spec;
  spec.name = "s1";
  spec.source = src.get();
  spec.method = pipeline::Method::kOpDelta;
  spec.source_table = "parts";
  spec.warehouse_table = "parts";
  auto make_hub = [&]() -> Result<std::unique_ptr<hub::DeltaHub>> {
    OPDELTA_ASSIGN_OR_RETURN(std::unique_ptr<hub::DeltaHub> hub,
                             hub::DeltaHub::Create(wh.get(), options));
    OPDELTA_RETURN_IF_ERROR(hub->AddSource(spec));
    OPDELTA_RETURN_IF_ERROR(hub->Setup());
    return hub;
  };

  {
    Result<std::unique_ptr<hub::DeltaHub>> hub = make_hub();
    ASSERT_TRUE(hub.ok()) << hub.status().ToString();
    extract::OpDeltaCapture* capture = (*hub)->capture("s1");
    ASSERT_NE(capture, nullptr);
    OPDELTA_ASSERT_OK(
        capture->RunTransaction({wl.MakeInsert("parts", 0, 25)}).status());

    // The queue log's disk dies after two writes: the enqueue's append and
    // sync land, the apply commits, and the ack's append fails.
    fenv.SetScope("/queue/");
    fenv.FailAllOpsAfter(2);
    Status round = (*hub)->RunRound();
    EXPECT_FALSE(round.ok()) << "ack failure must surface";
    // The batch applied (commit preceded the failed ack)...
    EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
    EXPECT_EQ((*hub)->Stats().sources[0].duplicates_dropped, 0u);
    OPDELTA_EXPECT_OK((*hub)->Stop());
  }

  // ...and after a restart — the log holds no ack for the batch — the
  // redelivery on the healed disk is dropped by the ledger.
  fenv.ClearFaults();
  Result<std::unique_ptr<hub::DeltaHub>> hub = make_hub();
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  OPDELTA_ASSERT_OK((*hub)->RunRound());
  EXPECT_EQ(CountRows(wh.get(), "parts"), 25u);  // no double-applied INSERTs
  EXPECT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"));
  EXPECT_EQ((*hub)->Stats().sources[0].duplicates_dropped, 1u);
  OPDELTA_EXPECT_OK((*hub)->Stop());
}

}  // namespace
}  // namespace opdelta
