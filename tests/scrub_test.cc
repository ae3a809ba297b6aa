#include "scrub/scrubber.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "backfill/chunk_window.h"
#include "backfill/cursor_ledger.h"
#include "catalog/row_codec.h"
#include "common/env.h"
#include "hub/delta_hub.h"
#include "pipeline/source_leg.h"
#include "storage/page.h"
#include "workload/workload.h"
#include "tests/test_util.h"

namespace opdelta::scrub {
namespace {

using opdelta::testing::CountRows;
using opdelta::testing::OpenDb;
using opdelta::testing::TablesEqual;
using opdelta::testing::TempDir;

engine::DatabaseOptions NoTimestampOptions() {
  engine::DatabaseOptions options;
  options.auto_timestamp = false;
  return options;
}

/// Randomized suites read their seed from OPDELTA_FAULT_SEED so CI can run
/// the same tests under a seed matrix; unset, they use the fixed default.
uint64_t FaultSeedFromEnv(uint64_t fallback) {
  const char* text = std::getenv("OPDELTA_FAULT_SEED");
  if (text == nullptr || *text == '\0') return fallback;
  return std::strtoull(text, nullptr, 10);
}

bool Transient(const Status& st) {
  return st.IsConflict() || st.code() == StatusCode::kBusy ||
         st.code() == StatusCode::kAborted;
}

template <typename Fn>
Status Retry(Fn&& fn) {
  Status st;
  for (int attempt = 0; attempt < 500; ++attempt) {
    st = fn();
    if (!Transient(st)) return st;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return st;
}

// ------------------------------------------------------------ scrub ledger
//
// The scrub instance of CursorLedger: `__scrub_cursor`, kinds 'C' (cursor)
// and 'P' (pass complete), step = pass, count = chunks.

using backfill::CursorLedger;

constexpr char kPass[] = "P";

/// One row per (tbl, kind): every write replaced its predecessor.
::testing::AssertionResult OneScrubRowPerKey(engine::Database* db) {
  return opdelta::testing::OneRowPerKey(
      db, CursorLedger::kScrub.table, [](const catalog::Row& row) {
        return row[0].AsString() + "/" + row[1].AsString();
      });
}

/// `kind`'s newest row of `tbl`, asserted readable.
CursorLedger::Mark GetMark(CursorLedger* ledger, const char* tbl,
                           const char* kind) {
  Result<CursorLedger::Mark> mark = ledger->Get(tbl, kind);
  EXPECT_TRUE(mark.ok()) << mark.status().ToString();
  return mark.ok() ? *mark : CursorLedger::Mark();
}

TEST(ScrubLedgerTest, ResumeCompactAndPassWrap) {
  TempDir dir;
  auto db = OpenDb(dir, "src", NoTimestampOptions());
  CursorLedger ledger(db.get(), CursorLedger::kScrub);
  OPDELTA_ASSERT_OK(ledger.Setup());
  OPDELTA_ASSERT_OK(ledger.Setup());  // idempotent

  EXPECT_FALSE(GetMark(&ledger, "parts", kPass).exists);
  EXPECT_FALSE(GetMark(&ledger, "parts", CursorLedger::kCursor).exists);

  // Cursors are keys and may be negative — recency is the chunk count, not
  // the cursor value.
  OPDELTA_ASSERT_OK(ledger.Put("parts", CursorLedger::kCursor, 1, -5, 1));
  OPDELTA_ASSERT_OK(ledger.Put("parts", CursorLedger::kCursor, 1, -1, 2));
  OPDELTA_ASSERT_OK(ledger.Put("other", CursorLedger::kCursor, 3, 99, 4));
  CursorLedger::Mark c = GetMark(&ledger, "parts", CursorLedger::kCursor);
  EXPECT_EQ(c.step, 1u);
  EXPECT_TRUE(c.exists);
  EXPECT_EQ(c.cursor, -1);
  EXPECT_EQ(c.count, 2u);

  // The second cursor replaced the first: one row per table.
  EXPECT_EQ(CountRows(db.get(), ledger.table()), 2u);
  EXPECT_TRUE(OneScrubRowPerKey(db.get()));

  // A completed pass is newer than the cursor of the pass it completes.
  OPDELTA_ASSERT_OK(ledger.Put("parts", kPass, 1, 0, 3));
  const CursorLedger::Mark done = GetMark(&ledger, "parts", kPass);
  EXPECT_EQ(done.step, 1u);
  EXPECT_GE(done.step, GetMark(&ledger, "parts", CursorLedger::kCursor).step);
  EXPECT_TRUE(OneScrubRowPerKey(db.get()));

  // A mid-pass cursor of the NEW pass; the other table's state is
  // untouched.
  OPDELTA_ASSERT_OK(ledger.Put("parts", CursorLedger::kCursor, 2, 40, 1));
  EXPECT_TRUE(OneScrubRowPerKey(db.get()));
  c = GetMark(&ledger, "parts", CursorLedger::kCursor);
  EXPECT_EQ(c.step, 2u);
  EXPECT_GT(c.step, GetMark(&ledger, "parts", kPass).step);
  EXPECT_EQ(c.cursor, 40);
  const CursorLedger::Mark other =
      GetMark(&ledger, "other", CursorLedger::kCursor);
  EXPECT_EQ(other.step, 3u);
  EXPECT_EQ(other.cursor, 99);
}

TEST(ScrubLedgerTest, AppendOnlyTableReadsUnchangedAndCollapsesOnWrite) {
  TempDir dir;
  auto db = OpenDb(dir, "src", NoTimestampOptions());
  CursorLedger ledger(db.get(), CursorLedger::kScrub);
  OPDELTA_ASSERT_OK(ledger.Setup());
  // The ledger as an append-only build left it: cursor and pass rows of
  // several passes in no particular order.
  const auto row = [](const char* tbl, const char* kind, int64_t pass,
                      int64_t cursor, int64_t chunks) {
    return catalog::Row{catalog::Value::String(tbl),
                        catalog::Value::String(kind),
                        catalog::Value::Int64(pass),
                        catalog::Value::Int64(cursor),
                        catalog::Value::Int64(chunks)};
  };
  OPDELTA_ASSERT_OK(db->WithTransaction([&](txn::Transaction* txn) {
    for (catalog::Row r :
         {row("parts", "C", 2, 10, 1), row("parts", "C", 1, -5, 1),
          row("parts", "P", 1, 0, 3), row("parts", "C", 2, 40, 2),
          row("parts", "C", 1, -1, 2), row("other", "C", 3, 99, 4),
          row("other", "P", 2, 0, 5), row("other", "P", 1, 0, 6)}) {
      OPDELTA_RETURN_IF_ERROR(
          db->InsertRaw(txn, ledger.table(), std::move(r)));
    }
    return Status::OK();
  }));
  EXPECT_FALSE(OneScrubRowPerKey(db.get()));

  // Reads take the newest pass and the newest cursor of the newest pass,
  // as the append-only build did: both tables resume mid-pass (the cursor's
  // pass is newer than the last complete one).
  EXPECT_EQ(GetMark(&ledger, "parts", kPass).step, 1u);
  CursorLedger::Mark c = GetMark(&ledger, "parts", CursorLedger::kCursor);
  EXPECT_EQ(c.step, 2u);
  EXPECT_EQ(c.cursor, 40);
  EXPECT_EQ(c.count, 2u);
  EXPECT_EQ(GetMark(&ledger, "other", kPass).step, 2u);
  c = GetMark(&ledger, "other", CursorLedger::kCursor);
  EXPECT_EQ(c.step, 3u);
  EXPECT_EQ(c.cursor, 99);
  EXPECT_EQ(c.count, 4u);

  // The first write of each (table, kind) leaves it one row.
  OPDELTA_ASSERT_OK(ledger.Put("parts", CursorLedger::kCursor, 2, 55, 3));
  c = GetMark(&ledger, "parts", CursorLedger::kCursor);
  EXPECT_EQ(c.step, 2u);
  EXPECT_EQ(c.cursor, 55);
  EXPECT_EQ(c.count, 3u);
  OPDELTA_ASSERT_OK(ledger.Put("parts", kPass, 2, 0, 4));
  OPDELTA_ASSERT_OK(ledger.Put("other", kPass, 3, 0, 5));
  EXPECT_TRUE(OneScrubRowPerKey(db.get()));
  EXPECT_EQ(CountRows(db.get(), ledger.table()), 4u);
  // Both passes completed: neither cursor is newer than its table's pass.
  EXPECT_EQ(GetMark(&ledger, "parts", kPass).step, 2u);
  EXPECT_LE(GetMark(&ledger, "parts", CursorLedger::kCursor).step, 2u);
  EXPECT_EQ(GetMark(&ledger, "other", kPass).step, 3u);
  EXPECT_LE(GetMark(&ledger, "other", CursorLedger::kCursor).step, 3u);
}

/// A write rewrites its row in place: a continuous scrub's ledger stays
/// one heap page however many chunks and passes it records.
TEST(ScrubLedgerTest, WritesRewriteTheRowInPlace) {
  TempDir dir;
  auto db = OpenDb(dir, "src", NoTimestampOptions());
  CursorLedger ledger(db.get(), CursorLedger::kScrub);
  OPDELTA_ASSERT_OK(ledger.Setup());
  for (uint64_t write = 1; write <= 2000; ++write) {
    // Ten chunks per pass, the tenth completing it.
    const uint64_t pass = (write - 1) / 10 + 1;
    const uint64_t chunk = (write - 1) % 10 + 1;
    if (chunk < 10) {
      OPDELTA_ASSERT_OK(ledger.Put("parts", CursorLedger::kCursor, pass,
                                   static_cast<int64_t>(chunk * 16), chunk));
    } else {
      OPDELTA_ASSERT_OK(ledger.Put("parts", kPass, pass, 0, chunk));
    }
  }
  EXPECT_EQ(CountRows(db.get(), ledger.table()), 2u);
  EXPECT_EQ(db->GetTable(ledger.table())->heap()->num_pages(), 1u);
  EXPECT_EQ(GetMark(&ledger, "parts", kPass).step, 200u);
  EXPECT_EQ(GetMark(&ledger, "parts", CursorLedger::kCursor).step, 200u);
}

// ------------------------------------------------- standalone scrubber

struct ScrubFixture {
  explicit ScrubFixture(const TempDir& dir, int64_t rows = 0,
                        pipeline::Method method = pipeline::Method::kOpDelta)
      : src(OpenDb(dir, "src", NoTimestampOptions())),
        wh(OpenDb(dir, "wh", NoTimestampOptions())) {
    // Two identically seeded workloads generate identical row sequences,
    // giving a converged source/warehouse pair without running a backfill.
    workload::PartsWorkload src_wl, wh_wl;
    OPDELTA_EXPECT_OK(src_wl.CreateTable(src.get(), "parts"));
    OPDELTA_EXPECT_OK(wh_wl.CreateTable(wh.get(), "parts"));
    OPDELTA_EXPECT_OK(backfill::ChunkWindow::EnsureSignalTable(wh.get()));
    if (rows > 0) {
      OPDELTA_EXPECT_OK(src_wl.Populate(src.get(), "parts", rows));
      OPDELTA_EXPECT_OK(wh_wl.Populate(wh.get(), "parts", rows));
    }
    pipeline::PipelineOptions po;
    po.method = method;
    po.source_table = "parts";
    po.warehouse_table = "parts";
    po.source_id = "s1";
    po.work_dir = dir.Sub("leg");
    Result<std::unique_ptr<pipeline::SourceLeg>> made =
        pipeline::SourceLeg::Create(src.get(), std::move(po));
    OPDELTA_EXPECT_OK(made.status());
    leg = std::move(*made);
    OPDELTA_EXPECT_OK(leg->Setup());
  }

  /// The standalone drain: applies every already-shipped batch, extracts
  /// nothing — the contract Scrubber::DrainFn documents.
  Status DrainAll() {
    while (true) {
      std::string message;
      Status st = leg->PeekShipped(&message);
      if (st.IsNotFound()) return Status::OK();
      OPDELTA_RETURN_IF_ERROR(st);
      OPDELTA_RETURN_IF_ERROR(
          leg->Integrate(wh.get(), nullptr, message, nullptr, nullptr));
      OPDELTA_RETURN_IF_ERROR(leg->AckShipped());
    }
  }

  Result<std::unique_ptr<Scrubber>> MakeScrubber(ScrubOptions options) {
    OPDELTA_ASSIGN_OR_RETURN(
        std::unique_ptr<Scrubber> scrubber,
        Scrubber::Create(leg.get(), wh.get(), [this] { return DrainAll(); },
                         options));
    OPDELTA_RETURN_IF_ERROR(scrubber->Setup());
    return scrubber;
  }

  /// Steps until the current pass completes; returns the steps spent.
  int RunOnePass(Scrubber* scrubber, int max_steps = 300) {
    for (int step = 1; step <= max_steps; ++step) {
      OPDELTA_EXPECT_OK(scrubber->Step());
      if (scrubber->pass_just_completed()) return step;
    }
    ADD_FAILURE() << "pass did not complete in " << max_steps << " steps";
    return max_steps;
  }

  std::unique_ptr<engine::Database> src;
  std::unique_ptr<engine::Database> wh;
  std::unique_ptr<pipeline::SourceLeg> leg;
};

TEST(ScrubberTest, RejectsMissingOrMismatchedWarehouseTable) {
  TempDir dir;
  ScrubFixture fx(dir, 4);
  // Missing warehouse table.
  {
    TempDir bare_dir;
    ScrubFixture bare(bare_dir);
    OPDELTA_ASSERT_OK(bare.wh->DropTable("parts"));
    Result<std::unique_ptr<Scrubber>> sc = Scrubber::Create(
        bare.leg.get(), bare.wh.get(), [] { return Status::OK(); },
        ScrubOptions());
    EXPECT_EQ(sc.status().code(), StatusCode::kNotFound);
  }
  // Invalid chunk size.
  ScrubOptions zero;
  zero.chunk_rows = 0;
  Result<std::unique_ptr<Scrubber>> sc = Scrubber::Create(
      fx.leg.get(), fx.wh.get(), [] { return Status::OK(); }, zero);
  EXPECT_EQ(sc.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScrubberTest, CleanTableVerifiesWithoutMismatch) {
  TempDir dir;
  ScrubFixture fx(dir, 100);
  ScrubOptions options;
  options.chunk_rows = 16;
  Result<std::unique_ptr<Scrubber>> sc = fx.MakeScrubber(options);
  ASSERT_TRUE(sc.ok()) << sc.status().ToString();

  fx.RunOnePass(sc->get());
  const ScrubStats& stats = (*sc)->stats();
  EXPECT_EQ(stats.chunks_scrubbed, 7u);  // ceil(100 / 16)
  EXPECT_EQ(stats.chunks_mismatched, 0u);
  EXPECT_EQ(stats.chunks_repaired, 0u);
  EXPECT_EQ(stats.passes, 1u);

  // Scrubbing is continuous: the next pass wraps to the smallest key.
  fx.RunOnePass(sc->get());
  EXPECT_EQ((*sc)->stats().passes, 2u);
  EXPECT_EQ((*sc)->stats().chunks_mismatched, 0u);
}

/// Engine-level warehouse damage — flipped column values, vanished rows,
/// phantom rows — must be detected and repaired back to byte equality.
TEST(ScrubberTest, RepairsFlippedDeletedAndPhantomRows) {
  TempDir dir;
  ScrubFixture fx(dir, 100);
  OPDELTA_ASSERT_OK(fx.wh->WithTransaction([&](txn::Transaction* txn) {
    // Bit-rot stand-in: silently changed column values.
    OPDELTA_RETURN_IF_ERROR(
        fx.wh->UpdateWhere(txn, "parts",
                           engine::Predicate::Where(
                               "id", engine::CompareOp::kGe,
                               catalog::Value::Int64(10))
                               .And("id", engine::CompareOp::kLt,
                                    catalog::Value::Int64(14)),
                           {{"status", catalog::Value::String("rotten")}})
            .status());
    // Lost rows (the hole a dead-lettered batch leaves behind).
    OPDELTA_RETURN_IF_ERROR(
        fx.wh->DeleteWhere(txn, "parts",
                           engine::Predicate::Where(
                               "id", engine::CompareOp::kGe,
                               catalog::Value::Int64(40))
                               .And("id", engine::CompareOp::kLt,
                                    catalog::Value::Int64(43)))
            .status());
    // Phantom rows the source never had — including one past the source's
    // largest key, which only the open-ended tail chunk can catch.
    workload::PartsWorkload wl;
    catalog::Row phantom = wl.MakeRow(55);
    phantom[1] = catalog::Value::String("phantom");
    OPDELTA_RETURN_IF_ERROR(fx.wh->Insert(txn, "parts", phantom));
    return fx.wh->Insert(txn, "parts", wl.MakeRow(100000));
  }));
  // The in-range phantom replaced nothing; drop the real row so key 55 is
  // purely warehouse-divergent.
  OPDELTA_ASSERT_OK(fx.wh->WithTransaction([&](txn::Transaction* txn) {
    return fx.wh
        ->DeleteWhere(txn, "parts",
                      engine::Predicate::Where("id", engine::CompareOp::kEq,
                                               catalog::Value::Int64(55))
                          .And("status", engine::CompareOp::kNe,
                               catalog::Value::String("phantom")))
        .status();
  }));

  ScrubOptions options;
  options.chunk_rows = 16;
  Result<std::unique_ptr<Scrubber>> sc = fx.MakeScrubber(options);
  ASSERT_TRUE(sc.ok()) << sc.status().ToString();

  fx.RunOnePass(sc->get());
  const ScrubStats after_repair = (*sc)->stats();
  EXPECT_GT(after_repair.chunks_mismatched, 0u);
  EXPECT_EQ(after_repair.chunks_repaired, after_repair.chunks_mismatched);
  EXPECT_GT(after_repair.rows_repaired, 0u);
  EXPECT_TRUE(TablesEqual(fx.src.get(), "parts", fx.wh.get(), "parts"));

  // The next pass must verify clean — the repairs held.
  fx.RunOnePass(sc->get());
  EXPECT_EQ((*sc)->stats().chunks_mismatched, after_repair.chunks_mismatched);
}

TEST(ScrubberTest, ReportOnlyCountsWithoutRepairing) {
  TempDir dir;
  ScrubFixture fx(dir, 40);
  OPDELTA_ASSERT_OK(fx.wh->WithTransaction([&](txn::Transaction* txn) {
    return fx.wh
        ->DeleteWhere(txn, "parts",
                      engine::Predicate::Where("id", engine::CompareOp::kLt,
                                               catalog::Value::Int64(5)))
        .status();
  }));

  ScrubOptions options;
  options.chunk_rows = 16;
  options.repair = false;
  Result<std::unique_ptr<Scrubber>> sc = fx.MakeScrubber(options);
  ASSERT_TRUE(sc.ok()) << sc.status().ToString();
  fx.RunOnePass(sc->get());
  EXPECT_EQ((*sc)->stats().chunks_mismatched, 1u);
  EXPECT_EQ((*sc)->stats().chunks_repaired, 0u);
  EXPECT_EQ((*sc)->stats().rows_repaired, 0u);
  EXPECT_EQ(CountRows(fx.wh.get(), "parts"), 35u);  // untouched
}

/// A batch that shipped but never applied (acked into the dead-letter log)
/// leaves the warehouse with a consistent-looking hole; the scrubber is
/// the only component that ever looks for it.
TEST(ScrubberTest, RepairsDeadLetterHole) {
  TempDir dir;
  ScrubFixture fx(dir, 60);
  workload::PartsWorkload wl;
  extract::OpDeltaCapture* capture = fx.leg->capture();
  ASSERT_NE(capture, nullptr);
  OPDELTA_ASSERT_OK(
      capture->RunTransaction({wl.MakeUpdate("parts", 20, 30, "lost")})
          .status());
  bool shipped = true;
  while (shipped) OPDELTA_ASSERT_OK(fx.leg->ExtractAndShip(&shipped));
  // Divert the shipped batch as a dead-letter would: ack without applying.
  uint64_t dropped = 0;
  while (true) {
    std::string message;
    Status st = fx.leg->PeekShipped(&message);
    if (st.IsNotFound()) break;
    OPDELTA_ASSERT_OK(st);
    OPDELTA_ASSERT_OK(fx.leg->AckShipped());
    ++dropped;
  }
  ASSERT_GT(dropped, 0u);
  ASSERT_FALSE(TablesEqual(fx.src.get(), "parts", fx.wh.get(), "parts"));

  ScrubOptions options;
  options.chunk_rows = 16;
  Result<std::unique_ptr<Scrubber>> sc = fx.MakeScrubber(options);
  ASSERT_TRUE(sc.ok()) << sc.status().ToString();
  fx.RunOnePass(sc->get());
  EXPECT_GT((*sc)->stats().chunks_repaired, 0u);
  EXPECT_TRUE(TablesEqual(fx.src.get(), "parts", fx.wh.get(), "parts"));
}

/// In-window source writes make a chunk inconclusive — retried, never a
/// verdict — because the warehouse legitimately lags inside the window.
TEST(ScrubberTest, InFlightDeltasAreInconclusiveNotMismatched) {
  TempDir dir;
  ScrubFixture fx(dir, 40);
  workload::PartsWorkload wl;
  extract::OpDeltaCapture* capture = fx.leg->capture();
  ASSERT_NE(capture, nullptr);

  ScrubOptions options;
  options.chunk_rows = 16;
  Result<std::unique_ptr<Scrubber>> sc = fx.MakeScrubber(options);
  ASSERT_TRUE(sc.ok()) << sc.status().ToString();

  // A pending capture event lands inside the first chunk's window (the
  // window's drain ships it alongside the watermarks).
  OPDELTA_ASSERT_OK(
      capture->RunTransaction({wl.MakeUpdate("parts", 0, 4, "inflight")})
          .status());
  OPDELTA_ASSERT_OK((*sc)->Step());
  EXPECT_EQ((*sc)->stats().chunks_inconclusive, 1u);
  EXPECT_EQ((*sc)->stats().chunks_mismatched, 0u);
  EXPECT_EQ((*sc)->stats().chunks_scrubbed, 0u);

  // The retry — with the delta drained and applied — verifies clean.
  fx.RunOnePass(sc->get());
  EXPECT_EQ((*sc)->stats().chunks_mismatched, 0u);
  EXPECT_EQ((*sc)->stats().chunks_scrubbed, 3u);
  EXPECT_TRUE(TablesEqual(fx.src.get(), "parts", fx.wh.get(), "parts"));
}

TEST(ScrubberTest, ResumesCursorFromLedgerAcrossRestart) {
  TempDir dir;
  ScrubFixture fx(dir, 100);
  ScrubOptions options;
  options.chunk_rows = 16;
  {
    Result<std::unique_ptr<Scrubber>> sc = fx.MakeScrubber(options);
    ASSERT_TRUE(sc.ok()) << sc.status().ToString();
    for (int step = 0; step < 3; ++step) OPDELTA_ASSERT_OK((*sc)->Step());
    EXPECT_EQ((*sc)->stats().chunks_scrubbed, 3u);
    EXPECT_FALSE((*sc)->pass_just_completed());
  }
  // A fresh scrubber resumes mid-pass from the durable cursor: finishing
  // the pass takes only the remaining 4 chunks.
  Result<std::unique_ptr<Scrubber>> sc = fx.MakeScrubber(options);
  ASSERT_TRUE(sc.ok()) << sc.status().ToString();
  const int steps = fx.RunOnePass(sc->get());
  EXPECT_EQ(steps, 4);
  EXPECT_EQ((*sc)->stats().passes, 1u);
}

/// Damage that reappears after every repair (here: re-corrupted by the
/// test between rounds, standing in for failing hardware) must escalate
/// to a hard error instead of repairing forever.
TEST(ScrubberTest, EscalatesWhenRepairNeverConverges) {
  TempDir dir;
  ScrubFixture fx(dir, 10);
  auto corrupt = [&] {
    return fx.wh->WithTransaction([&](txn::Transaction* txn) {
      return fx.wh
          ->UpdateWhere(txn, "parts",
                        engine::Predicate::Where("id", engine::CompareOp::kEq,
                                                 catalog::Value::Int64(3)),
                        {{"status", catalog::Value::String("rot")}})
          .status();
    });
  };
  OPDELTA_ASSERT_OK(corrupt());

  ScrubOptions options;
  options.chunk_rows = 16;  // the whole table is one chunk
  Result<std::unique_ptr<Scrubber>> sc = fx.MakeScrubber(options);
  ASSERT_TRUE(sc.ok()) << sc.status().ToString();

  Status st;
  int repairs_seen = 0;
  for (int step = 0; step < 20; ++step) {
    st = (*sc)->Step();
    if (!st.ok()) break;
    // Undo the repair as soon as it lands, like rotting media would.
    OPDELTA_ASSERT_OK(corrupt());
    repairs_seen = static_cast<int>((*sc)->stats().chunks_repaired);
  }
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  EXPECT_EQ(repairs_seen, 3);  // escalated on the fourth strike
}

// ------------------------------------------------------- hub integration

struct HubFixture {
  HubFixture(const TempDir& dir, const std::string& tag) {
    src = OpenDb(dir, "src" + tag, NoTimestampOptions());
    wh = OpenDb(dir, "wh" + tag, NoTimestampOptions());
    wh_dir = dir.Sub("wh" + tag);
    workload::PartsWorkload wl;
    OPDELTA_EXPECT_OK(wl.CreateTable(src.get(), "parts"));
    OPDELTA_EXPECT_OK(wl.CreateTable(wh.get(), "parts"));
    options.work_dir = dir.Sub("hub" + tag);
    options.extract_threads = 1;
    options.quarantine_after = 0;  // conflicts retry, never quarantine
    spec.name = "sc";
    spec.method = pipeline::Method::kOpDelta;
    spec.source_table = "parts";
    spec.warehouse_table = "parts";
    spec.backfill = true;
    spec.backfill_chunk_rows = 32;
    spec.scrub = true;
    spec.scrub_chunk_rows = 32;
  }

  Result<std::unique_ptr<hub::DeltaHub>> MakeHub() {
    OPDELTA_ASSIGN_OR_RETURN(std::unique_ptr<hub::DeltaHub> hub,
                             hub::DeltaHub::Create(wh.get(), options));
    spec.source = src.get();
    OPDELTA_RETURN_IF_ERROR(hub->AddSource(spec));
    OPDELTA_RETURN_IF_ERROR(hub->Setup());
    return hub;
  }

  /// Closes and reopens the warehouse database (for on-disk corruption).
  void ReopenWarehouse() {
    OPDELTA_EXPECT_OK(wh->FlushAll());
    OPDELTA_EXPECT_OK(wh->Close());
    wh.reset();
    std::unique_ptr<engine::Database> reopened;
    OPDELTA_EXPECT_OK(
        engine::Database::Open(wh_dir, NoTimestampOptions(), &reopened));
    wh = std::move(reopened);
  }

  std::string wh_dir;
  std::unique_ptr<engine::Database> src;
  std::unique_ptr<engine::Database> wh;
  hub::HubOptions options;
  hub::SourceSpec spec;
};

void RunUntilBackfillDone(hub::DeltaHub* hub, int max_rounds = 200) {
  for (int round = 0; round < max_rounds; ++round) {
    OPDELTA_ASSERT_OK(hub->RunRound());
    if (hub->Stats().sources[0].backfill_done) return;
  }
  FAIL() << "backfill did not finish in " << max_rounds << " rounds";
}

/// Drives rounds until `passes` further scrub passes complete.
void RunScrubPasses(hub::DeltaHub* hub, uint64_t passes,
                    int max_rounds = 2000) {
  const uint64_t start = hub->Stats().sources[0].last_scrub_pass;
  for (int round = 0; round < max_rounds; ++round) {
    OPDELTA_ASSERT_OK(hub->RunRound());
    if (hub->Stats().sources[0].last_scrub_pass >= start + passes) return;
  }
  FAIL() << passes << " scrub passes did not finish in " << max_rounds
         << " rounds";
}

/// The heap file of the warehouse `parts` table: the lowest-numbered
/// t_<id>.db in the database directory, because `parts` is the first table
/// this fixture ever creates there.
std::string PartsHeapPath(const std::string& db_dir) {
  std::vector<std::string> names;
  OPDELTA_EXPECT_OK(Env::Default()->ListDir(db_dir, &names));
  std::string best;
  long best_id = -1;
  for (const std::string& name : names) {
    if (name.size() < 6 || name.compare(0, 2, "t_") != 0 ||
        name.compare(name.size() - 3, 3, ".db") != 0) {
      continue;
    }
    const long id = std::strtol(name.c_str() + 2, nullptr, 10);
    if (best_id < 0 || id < best_id) {
      best_id = id;
      best = name;
    }
  }
  EXPECT_GE(best_id, 0) << "no heap files under " << db_dir;
  return db_dir + "/" + best;
}

/// Flips one random bit in each of `flips` randomly chosen live heap
/// records of `path`, keeping every record decodable, its key intact, and
/// at least one non-timestamp column changed — damage the engine cannot
/// notice but a digest must. Also page-deletes `holes` further records.
void CorruptHeapFile(const std::string& path, const catalog::Schema& schema,
                     uint64_t seed, int flips, int holes, int* flipped) {
  *flipped = 0;
  std::string file;
  OPDELTA_ASSERT_OK(Env::Default()->ReadFileToString(path, &file));
  ASSERT_EQ(file.size() % storage::kPageSize, 0u);
  ASSERT_GT(file.size(), 0u);

  struct Loc {
    size_t page;
    uint16_t slot;
  };
  std::vector<Loc> live;
  const size_t num_pages = file.size() / storage::kPageSize;
  for (size_t p = 0; p < num_pages; ++p) {
    storage::SlottedPage page(&file[p * storage::kPageSize]);
    for (uint16_t s = 0; s < page.slot_count(); ++s) {
      if (page.IsLive(s)) live.push_back({p, s});
    }
  }
  ASSERT_GT(live.size(), static_cast<size_t>(flips + holes));
  std::mt19937_64 rng(seed);
  std::shuffle(live.begin(), live.end(), rng);

  const int ts_col = schema.TimestampColumnIndex();
  size_t next = 0;
  for (int f = 0; f < flips && next < live.size(); ++next) {
    const Loc loc = live[next];
    storage::SlottedPage page(&file[loc.page * storage::kPageSize]);
    Slice record;
    OPDELTA_ASSERT_OK(page.Read(loc.slot, &record));
    const size_t offset = static_cast<size_t>(record.data() - file.data());
    catalog::Row original;
    OPDELTA_ASSERT_OK(
        catalog::RowCodec::Decode(schema, record, &original));
    // Revert-and-retry: most random flips break decoding or land in the
    // skipped timestamp column; keep drawing until one sticks.
    for (int attempt = 0; attempt < 256; ++attempt) {
      const size_t bit = rng() % (record.size() * 8);
      file[offset + bit / 8] ^= static_cast<char>(1u << (bit % 8));
      catalog::Row damaged;
      Status st = catalog::RowCodec::Decode(
          schema, Slice(file.data() + offset, record.size()), &damaged);
      bool good = st.ok() && damaged.size() == original.size() &&
                  damaged[0] == original[0];
      if (good) {
        bool visible = false;
        for (size_t c = 1; c < damaged.size(); ++c) {
          if (static_cast<int>(c) == ts_col) continue;
          if (damaged[c] != original[c]) visible = true;
        }
        good = visible;
      }
      if (good) {
        ++*flipped;
        ++f;
        break;
      }
      file[offset + bit / 8] ^= static_cast<char>(1u << (bit % 8));
    }
  }
  for (int h = 0; h < holes && next < live.size(); ++h, ++next) {
    const Loc loc = live[next];
    storage::SlottedPage page(&file[loc.page * storage::kPageSize]);
    OPDELTA_ASSERT_OK(page.Delete(loc.slot));
  }
  OPDELTA_ASSERT_OK(Env::Default()->WriteStringToFile(path, Slice(file)));
}

/// Acceptance scenario, part 1: sustained concurrent writes and NO damage
/// — across seeds, the scrubber must never report (let alone repair) a
/// mismatch. In-flight deltas are inconclusive retries, nothing else. Run
/// with the key unindexed (chunk reads scan the heap) and indexed on both
/// sides (they walk the B+tree and stop at the chunk's last key).
TEST(ScrubHubTest, NoFalsePositivesUnderConcurrentWriters) {
  constexpr uint64_t kSeeds[] = {1, 2, 3, 4, 5};
  for (const bool indexed : {false, true}) {
    uint64_t total_inconclusive = 0;
    for (const uint64_t seed : kSeeds) {
      SCOPED_TRACE(indexed ? "key indexed" : "key unindexed");
      TempDir dir;
      HubFixture fx(dir, std::to_string(seed));
      fx.options.produce_attempts = 5;
      workload::PartsWorkload wl;
      OPDELTA_ASSERT_OK(wl.Populate(fx.src.get(), "parts", 200));
      if (indexed) {
        OPDELTA_ASSERT_OK(fx.src->CreateIndex("parts", "id"));
        OPDELTA_ASSERT_OK(fx.wh->CreateIndex("parts", "id"));
      }

      Result<std::unique_ptr<hub::DeltaHub>> hub = fx.MakeHub();
      ASSERT_TRUE(hub.ok()) << hub.status().ToString();
      RunUntilBackfillDone(hub->get());
      extract::OpDeltaCapture* capture = (*hub)->capture("sc");
      ASSERT_NE(capture, nullptr);

      // 80 transactions, two in every three rounds, each as a round
      // starts, so they race the scrub windows throughout whatever the
      // machine's speed; any left when the rounds end run unpaced.
      std::atomic<int> rounds{0};
      std::atomic<bool> rounds_done{false};
      std::thread writer([&] {
        std::mt19937_64 rng(seed ^ FaultSeedFromEnv(42));
        int64_t next_key = 1000;
        for (int i = 0; i < 80; ++i) {
          while (!rounds_done.load() && rounds.load() < i * 3 / 2) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          sql::Statement stmt;
          switch (rng() % 3) {
            case 0:
              stmt = wl.MakeInsert("parts", next_key, 2);
              next_key += 2;
              break;
            case 1: {
              const int64_t lo = static_cast<int64_t>(rng() % 220);
              stmt = wl.MakeUpdate("parts", lo,
                                   lo + 1 + static_cast<int64_t>(rng() % 15),
                                   "w" + std::to_string(i));
              break;
            }
            default: {
              const int64_t lo = static_cast<int64_t>(rng() % 220);
              stmt = wl.MakeDelete("parts", lo,
                                   lo + 1 + static_cast<int64_t>(rng() % 2));
              break;
            }
          }
          OPDELTA_EXPECT_OK(
              Retry([&] { return capture->RunTransaction({stmt}).status(); }));
        }
      });
      // Scrub concurrently with the writer; transient conflicts are part of
      // the scenario.
      for (int round = 0; round < 120; ++round) {
        (void)(*hub)->RunRound();
        rounds.fetch_add(1);
      }
      rounds_done = true;
      writer.join();
      // With the source quiet again, complete a full conclusive pass.
      RunScrubPasses(hub->get(), 1);

      const hub::SourceStats stats = (*hub)->Stats().sources[0];
      EXPECT_EQ(stats.chunks_mismatched, 0u) << "seed " << seed;
      EXPECT_EQ(stats.chunks_repaired, 0u) << "seed " << seed;
      EXPECT_GT(stats.chunks_scrubbed, 0u);
      total_inconclusive += stats.chunks_inconclusive;
      OPDELTA_EXPECT_OK((*hub)->Stop());
      ASSERT_TRUE(TablesEqual(fx.src.get(), "parts", fx.wh.get(), "parts"))
          << "seed " << seed;
    }
    // Across five seeds, at least one window must have been touched by a
    // live delta — otherwise the conservatism was never exercised.
    EXPECT_GT(total_inconclusive, 0u);
  }
}

/// Acceptance scenario, part 2: on-disk corruption — bit-flipped rows,
/// page-deleted rows and a dead-letter-style hole — plus concurrent
/// writers. Scrub repair alone must converge warehouse to source, with
/// every repair justified by real damage.
TEST(ScrubHubTest, CorruptedWarehouseConvergesUnderConcurrentWriters) {
  constexpr uint64_t kSeeds[] = {1, 2, 3, 4, 5};
  for (const uint64_t seed : kSeeds) {
    TempDir dir;
    HubFixture fx(dir, std::to_string(seed));
    fx.options.produce_attempts = 5;
    workload::PartsWorkload wl;
    OPDELTA_ASSERT_OK(wl.Populate(fx.src.get(), "parts", 200));
    {
      Result<std::unique_ptr<hub::DeltaHub>> boot = fx.MakeHub();
      ASSERT_TRUE(boot.ok()) << boot.status().ToString();
      RunUntilBackfillDone(boot->get());
      OPDELTA_EXPECT_OK((*boot)->Stop());
    }

    // Damage the cold warehouse heap: decodable bit flips + slot holes.
    fx.ReopenWarehouse();  // flush, close
    int flipped = 0;
    CorruptHeapFile(PartsHeapPath(fx.wh_dir),
                    workload::PartsWorkload::Schema(),
                    seed * 31 + FaultSeedFromEnv(7), /*flips=*/5, /*holes=*/3,
                    &flipped);
    ASSERT_GT(flipped, 0);
    fx.ReopenWarehouse();  // no-op flush; reopens over the damaged file
    // A dead-letter-style hole on top: committed source rows the pipeline
    // will never re-ship.
    OPDELTA_ASSERT_OK(fx.wh->WithTransaction([&](txn::Transaction* txn) {
      return fx.wh
          ->DeleteWhere(txn, "parts",
                        engine::Predicate::Where("id", engine::CompareOp::kGe,
                                                 catalog::Value::Int64(190))
                            .And("id", engine::CompareOp::kLt,
                                 catalog::Value::Int64(195)))
          .status();
    }));

    Result<std::unique_ptr<hub::DeltaHub>> hub = fx.MakeHub();
    ASSERT_TRUE(hub.ok()) << hub.status().ToString();
    extract::OpDeltaCapture* capture = (*hub)->capture("sc");
    ASSERT_NE(capture, nullptr);
    std::thread writer([&] {
      std::mt19937_64 rng(seed ^ FaultSeedFromEnv(42));
      int64_t next_key = 1000;
      for (int i = 0; i < 60; ++i) {
        sql::Statement stmt;
        if (rng() % 2 == 0) {
          stmt = wl.MakeInsert("parts", next_key, 2);
          next_key += 2;
        } else {
          const int64_t lo = static_cast<int64_t>(rng() % 180);
          stmt = wl.MakeUpdate("parts", lo,
                               lo + 1 + static_cast<int64_t>(rng() % 10),
                               "w" + std::to_string(i));
        }
        OPDELTA_EXPECT_OK(
            Retry([&] { return capture->RunTransaction({stmt}).status(); }));
      }
    });
    for (int round = 0; round < 120; ++round) (void)(*hub)->RunRound();
    writer.join();
    // Quiet source: one pass to finish finding/repairing, one to confirm.
    RunScrubPasses(hub->get(), 2);

    const hub::SourceStats stats = (*hub)->Stats().sources[0];
    EXPECT_GT(stats.chunks_repaired, 0u) << "seed " << seed;
    EXPECT_EQ(stats.quarantined, false);
    OPDELTA_EXPECT_OK((*hub)->Stop());
    ASSERT_TRUE(TablesEqual(fx.src.get(), "parts", fx.wh.get(), "parts"))
        << "diverged at seed " << seed;
  }
}

TEST(ScrubHubTest, ScrubDeferredUntilBackfillDone) {
  TempDir dir;
  HubFixture fx(dir, "defer");
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.Populate(fx.src.get(), "parts", 100));
  Result<std::unique_ptr<hub::DeltaHub>> hub = fx.MakeHub();
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();

  OPDELTA_ASSERT_OK((*hub)->RunRound());
  hub::SourceStats stats = (*hub)->Stats().sources[0];
  EXPECT_FALSE(stats.backfill_done);
  EXPECT_EQ(stats.chunks_scrubbed + stats.chunks_inconclusive, 0u);

  RunUntilBackfillDone(hub->get());
  RunScrubPasses(hub->get(), 1);
  stats = (*hub)->Stats().sources[0];
  EXPECT_GT(stats.chunks_scrubbed, 0u);
  EXPECT_EQ(stats.chunks_mismatched, 0u);
  EXPECT_EQ(stats.last_scrub_pass, 1u);
  OPDELTA_EXPECT_OK((*hub)->Stop());
}

TEST(ScrubHubTest, ScrubRequiresExclusiveWarehouseTable) {
  TempDir dir;
  HubFixture fx(dir, "excl");
  auto src2 = OpenDb(dir, "src2", NoTimestampOptions());
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.CreateTable(src2.get(), "parts"));

  Result<std::unique_ptr<hub::DeltaHub>> hub =
      hub::DeltaHub::Create(fx.wh.get(), fx.options);
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  fx.spec.source = fx.src.get();
  OPDELTA_ASSERT_OK((*hub)->AddSource(fx.spec));

  // A second source feeding the same warehouse table cannot coexist with
  // a scrubbing owner: its deltas would be "corruption" to the digest.
  hub::SourceSpec second = fx.spec;
  second.name = "sc2";
  second.source = src2.get();
  second.scrub = false;
  Status st = (*hub)->AddSource(second);
  EXPECT_EQ(st.code(), StatusCode::kNotSupported) << st.ToString();
}

}  // namespace
}  // namespace opdelta::scrub
