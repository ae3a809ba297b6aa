#include "backfill/backfiller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <random>
#include <thread>

#include "backfill/cursor_ledger.h"
#include "common/fault_env.h"
#include "hub/delta_hub.h"
#include "pipeline/source_leg.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "warehouse/apply_ledger.h"
#include "workload/workload.h"
#include "tests/test_util.h"

namespace opdelta::backfill {
namespace {

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

/// Retries a statement through transient lock conflicts, as an OLTP client
/// racing the backfill's chunk reads and capture drains would.
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

// ------------------------------------------------------- transport framing

TEST(SnapshotFrameTest, RoundTripsSnapshotMarker) {
  workload::PartsWorkload wl;
  extract::DeltaBatch batch;
  batch.table = "parts";
  batch.schema = workload::PartsWorkload::Schema();
  extract::DeltaRecord rec;
  rec.op = extract::DeltaOp::kUpsert;
  rec.seq = 1;
  rec.image = wl.MakeRow(7);
  batch.records.push_back(rec);
  std::string inner;
  pipeline::EncodeValueDeltaMessage(batch, &inner);

  extract::BatchId id{"s1", 7, 42, /*snapshot=*/true};
  std::string message;
  pipeline::EncodeBatchFrame(id, inner, &message);
  ASSERT_FALSE(message.empty());
  // Versioned frame; the snapshot identity ('C') travels as the kind byte
  // behind the version/feature preamble.
  EXPECT_EQ(message[0], 'F');
  EXPECT_EQ(id.ToString(), "s1@7:42+snap");

  extract::BatchId decoded;
  std::string payload;
  OPDELTA_ASSERT_OK(pipeline::DecodeBatchFrame(message, &decoded, &payload));
  EXPECT_TRUE(decoded.snapshot);
  EXPECT_EQ(decoded.source_id, "s1");
  EXPECT_EQ(decoded.epoch, 7u);
  EXPECT_EQ(decoded.seq, 42u);
  EXPECT_EQ(payload, inner);

  extract::BatchId header;
  OPDELTA_ASSERT_OK(pipeline::DecodeBatchHeader(Slice(message), &header));
  EXPECT_TRUE(header.snapshot);
  EXPECT_TRUE(header == decoded);

  // A live batch still rides the 'B' frame with the marker clear.
  extract::BatchId live{"s1", 7, 43, /*snapshot=*/false};
  std::string live_message;
  pipeline::EncodeBatchFrame(live, inner, &live_message);
  EXPECT_EQ(live_message[0], 'F');
  OPDELTA_ASSERT_OK(
      pipeline::DecodeBatchFrame(live_message, &decoded, &payload));
  EXPECT_FALSE(decoded.snapshot);
  EXPECT_EQ(live.ToString(), "s1@7:43");
}

// ----------------------------------------------------------- chunk ledger
//
// The backfill instance of CursorLedger: `__backfill_chunks`, kinds 'C'
// (cursor) and 'D' (done), step = chunk, count = rows shipped.

constexpr char kDone[] = "D";

/// One row per (tbl, kind): every write replaced its predecessor.
::testing::AssertionResult OneChunkRowPerKey(engine::Database* db) {
  return opdelta::testing::OneRowPerKey(
      db, CursorLedger::kBackfill.table, [](const catalog::Row& row) {
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

TEST(ChunkLedgerTest, AdvanceResumeCompactAndDone) {
  TempDir dir;
  auto db = OpenDb(dir, "src", NoTimestampOptions());
  CursorLedger ledger(db.get(), CursorLedger::kBackfill);
  OPDELTA_ASSERT_OK(ledger.Setup());
  OPDELTA_ASSERT_OK(ledger.Setup());  // idempotent

  EXPECT_FALSE(GetMark(&ledger, "parts", CursorLedger::kCursor).exists);

  OPDELTA_ASSERT_OK(ledger.Put("parts", CursorLedger::kCursor, 1, 15, 16));
  OPDELTA_ASSERT_OK(ledger.Put("parts", CursorLedger::kCursor, 2, 31, 32));
  OPDELTA_ASSERT_OK(ledger.Put("other", CursorLedger::kCursor, 5, 99, 80));
  CursorLedger::Mark p = GetMark(&ledger, "parts", CursorLedger::kCursor);
  EXPECT_TRUE(p.exists);
  EXPECT_FALSE(GetMark(&ledger, "parts", kDone).exists);
  EXPECT_EQ(p.step, 2u);
  EXPECT_EQ(p.cursor, 31);
  EXPECT_EQ(p.count, 32u);

  // The chunk-2 cursor replaced chunk 1's: one row per table.
  EXPECT_EQ(CountRows(db.get(), ledger.table()), 2u);
  EXPECT_TRUE(OneChunkRowPerKey(db.get()));

  OPDELTA_ASSERT_OK(ledger.Put("parts", kDone, 3, 40, 40));
  p = GetMark(&ledger, "parts", kDone);
  EXPECT_TRUE(p.exists);
  EXPECT_EQ(p.step, 3u);
  EXPECT_EQ(p.count, 40u);
  EXPECT_TRUE(OneChunkRowPerKey(db.get()));

  // The other table is untouched.
  const CursorLedger::Mark other =
      GetMark(&ledger, "other", CursorLedger::kCursor);
  EXPECT_TRUE(other.exists);
  EXPECT_FALSE(GetMark(&ledger, "other", kDone).exists);
  EXPECT_EQ(other.step, 5u);

  // A reset forgets the table's walk, cursor and done alike.
  OPDELTA_ASSERT_OK(ledger.Reset("parts"));
  EXPECT_FALSE(GetMark(&ledger, "parts", CursorLedger::kCursor).exists);
  EXPECT_FALSE(GetMark(&ledger, "parts", kDone).exists);
  EXPECT_TRUE(GetMark(&ledger, "other", CursorLedger::kCursor).exists);
}

TEST(ChunkLedgerTest, AppendOnlyTableReadsUnchangedAndCollapsesOnWrite) {
  TempDir dir;
  auto db = OpenDb(dir, "src", NoTimestampOptions());
  CursorLedger ledger(db.get(), CursorLedger::kBackfill);
  OPDELTA_ASSERT_OK(ledger.Setup());
  // The ledger as an append-only build left it: cursor rows in no
  // particular order.
  const auto row = [](const char* tbl, int64_t chunk, int64_t cursor,
                      int64_t rows) {
    return catalog::Row{catalog::Value::String(tbl),
                        catalog::Value::String("C"),
                        catalog::Value::Int64(chunk),
                        catalog::Value::Int64(cursor),
                        catalog::Value::Int64(rows)};
  };
  OPDELTA_ASSERT_OK(db->WithTransaction([&](txn::Transaction* txn) {
    for (catalog::Row r : {row("parts", 2, 31, 32), row("parts", 1, 15, 16),
                           row("other", 5, 99, 80), row("parts", 3, 47, 48),
                           row("other", 4, 70, 64)}) {
      OPDELTA_RETURN_IF_ERROR(
          db->InsertRaw(txn, ledger.table(), std::move(r)));
    }
    return Status::OK();
  }));
  EXPECT_FALSE(OneChunkRowPerKey(db.get()));

  // Reads take the row with the largest chunk, as the append-only build did.
  CursorLedger::Mark p = GetMark(&ledger, "parts", CursorLedger::kCursor);
  EXPECT_TRUE(p.exists);
  EXPECT_FALSE(GetMark(&ledger, "parts", kDone).exists);
  EXPECT_EQ(p.step, 3u);
  EXPECT_EQ(p.cursor, 47);
  EXPECT_EQ(p.count, 48u);
  p = GetMark(&ledger, "other", CursorLedger::kCursor);
  EXPECT_EQ(p.step, 5u);
  EXPECT_EQ(p.cursor, 99);
  EXPECT_EQ(p.count, 80u);

  // The first write of each table leaves it one row per kind.
  OPDELTA_ASSERT_OK(ledger.Put("parts", CursorLedger::kCursor, 4, 63, 64));
  OPDELTA_ASSERT_OK(ledger.Put("other", CursorLedger::kCursor, 6, 120, 96));
  EXPECT_TRUE(OneChunkRowPerKey(db.get()));
  EXPECT_EQ(CountRows(db.get(), ledger.table()), 2u);
  p = GetMark(&ledger, "parts", CursorLedger::kCursor);
  EXPECT_EQ(p.step, 4u);
  EXPECT_EQ(p.cursor, 63);
  EXPECT_EQ(p.count, 64u);
  OPDELTA_ASSERT_OK(ledger.Put("parts", kDone, 5, 70, 70));
  p = GetMark(&ledger, "parts", kDone);
  EXPECT_TRUE(p.exists);
  EXPECT_EQ(p.step, 5u);
  EXPECT_EQ(p.count, 70u);
  EXPECT_FALSE(GetMark(&ledger, "other", kDone).exists);
  p = GetMark(&ledger, "other", CursorLedger::kCursor);
  EXPECT_EQ(p.step, 6u);
  EXPECT_EQ(p.cursor, 120);
  EXPECT_TRUE(OneChunkRowPerKey(db.get()));
}

/// A write rewrites its row in place: the heap stays one page however many
/// chunks a backfill ships (a delete + insert per write would add a page
/// every few hundred writes).
TEST(ChunkLedgerTest, WritesRewriteTheRowInPlace) {
  TempDir dir;
  auto db = OpenDb(dir, "src", NoTimestampOptions());
  CursorLedger ledger(db.get(), CursorLedger::kBackfill);
  OPDELTA_ASSERT_OK(ledger.Setup());
  for (uint64_t chunk = 1; chunk <= 2000; ++chunk) {
    const char* kind = chunk % 2 == 0 ? kDone : CursorLedger::kCursor;
    OPDELTA_ASSERT_OK(ledger.Put("parts", kind, chunk,
                                 static_cast<int64_t>(chunk * 16), chunk * 16));
  }
  EXPECT_EQ(CountRows(db.get(), ledger.table()), 2u);
  EXPECT_EQ(db->GetTable(ledger.table())->heap()->num_pages(), 1u);
  EXPECT_EQ(GetMark(&ledger, "parts", kDone).step, 2000u);
  EXPECT_EQ(GetMark(&ledger, "parts", CursorLedger::kCursor).cursor, 1999 * 16);
}

// ------------------------------------------------- standalone backfiller

struct LegFixture {
  explicit LegFixture(const TempDir& dir,
                      pipeline::Method method = pipeline::Method::kOpDelta,
                      engine::DatabaseOptions options = NoTimestampOptions())
      : src(OpenDb(dir, "src", options)), wh(OpenDb(dir, "wh", options)) {
    workload::PartsWorkload wl;
    OPDELTA_EXPECT_OK(wl.CreateTable(src.get(), "parts"));
    OPDELTA_EXPECT_OK(wl.CreateTable(wh.get(), "parts"));
    OPDELTA_EXPECT_OK(ChunkWindow::EnsureSignalTable(wh.get()));
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

  /// Applies every shipped batch to the warehouse, in ship order.
  Status IntegrateAll() {
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

  std::unique_ptr<engine::Database> src;
  std::unique_ptr<engine::Database> wh;
  std::unique_ptr<pipeline::SourceLeg> leg;
};

TEST(BackfillerTest, RequiresInt64KeyColumn) {
  TempDir dir;
  auto src = OpenDb(dir, "src", NoTimestampOptions());
  OPDELTA_ASSERT_OK(src->CreateTable(
      "named", catalog::Schema({catalog::Column{"name",
                                               catalog::ValueType::kString}})));
  pipeline::PipelineOptions po;
  po.method = pipeline::Method::kOpDelta;
  po.source_table = "named";
  po.warehouse_table = "named";
  po.work_dir = dir.Sub("leg");
  Result<std::unique_ptr<pipeline::SourceLeg>> leg =
      pipeline::SourceLeg::Create(src.get(), std::move(po));
  OPDELTA_ASSERT_OK(leg.status());
  OPDELTA_ASSERT_OK((*leg)->Setup());
  Result<std::unique_ptr<Backfiller>> bf =
      Backfiller::Create(leg->get(), BackfillOptions());
  EXPECT_EQ(bf.status().code(), StatusCode::kNotSupported);
}

TEST(BackfillerTest, EmptyTableCompletesImmediately) {
  TempDir dir;
  LegFixture fx(dir);
  Result<std::unique_ptr<Backfiller>> bf =
      Backfiller::Create(fx.leg.get(), BackfillOptions());
  ASSERT_TRUE(bf.ok()) << bf.status().ToString();
  OPDELTA_ASSERT_OK((*bf)->Setup());
  bool done = false;
  OPDELTA_ASSERT_OK((*bf)->Step(&done));
  EXPECT_TRUE(done);
  EXPECT_TRUE((*bf)->stats().done);
  EXPECT_EQ((*bf)->stats().rows_backfilled, 0u);
  OPDELTA_ASSERT_OK(fx.IntegrateAll());
  EXPECT_EQ(CountRows(fx.wh.get(), "parts"), 0u);
}

/// The dedup rule: capture events pending when a chunk is selected drain
/// inside the chunk's watermark window, and the delta must win — touched
/// chunk rows re-read (post-delta state ships), deleted rows dropped.
TEST(BackfillerTest, PendingDeltaWinsOverChunkRows) {
  TempDir dir;
  LegFixture fx(dir);
  workload::PartsWorkload wl;
  // Bootstrap gap: these rows predate capture, so only backfill can ship
  // them.
  OPDELTA_ASSERT_OK(wl.Populate(fx.src.get(), "parts", 40));

  // In-window events overlapping the first chunk (keys 0..15): an update
  // over [0,10) and a delete of {10, 11}.
  extract::OpDeltaCapture* capture = fx.leg->capture();
  ASSERT_NE(capture, nullptr);
  OPDELTA_ASSERT_OK(
      capture->RunTransaction({wl.MakeUpdate("parts", 0, 10, "inwindow")})
          .status());
  OPDELTA_ASSERT_OK(
      capture->RunTransaction({wl.MakeDelete("parts", 10, 12)}).status());

  BackfillOptions options;
  options.chunk_rows = 16;
  Result<std::unique_ptr<Backfiller>> bf =
      Backfiller::Create(fx.leg.get(), options);
  ASSERT_TRUE(bf.ok()) << bf.status().ToString();
  OPDELTA_ASSERT_OK((*bf)->Setup());
  bool done = false;
  while (!done) OPDELTA_ASSERT_OK((*bf)->Step(&done));

  const BackfillStats& stats = (*bf)->stats();
  EXPECT_TRUE(stats.done);
  EXPECT_EQ(stats.chunks_done, 3u);          // 16 + 16 + tail
  EXPECT_EQ(stats.rows_backfilled, 38u);     // 40 - 2 deleted in window
  // Keys 10/11 died before chunk select, so only the 10 updated rows are
  // chunk candidates the in-window delta won over.
  EXPECT_EQ(stats.rows_deduped, 10u);

  OPDELTA_ASSERT_OK(fx.IntegrateAll());
  EXPECT_TRUE(TablesEqual(fx.src.get(), "parts", fx.wh.get(), "parts"));
  EXPECT_EQ(CountRows(fx.wh.get(), "parts"), 38u);
}

/// A mid-chunk read error (here: a lock timeout against a concurrent
/// writer) must abort the chunk transaction, releasing the row locks it
/// already holds — a leaked S lock would block writers until process
/// death.
TEST(BackfillerTest, ChunkReaderReleasesLocksOnMidChunkError) {
  TempDir dir;
  engine::DatabaseOptions options = NoTimestampOptions();
  options.lock_timeout = std::chrono::milliseconds(50);
  LegFixture fx(dir, pipeline::Method::kOpDelta, options);
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.Populate(fx.src.get(), "parts", 20));

  BackfillOptions bf_options;
  bf_options.chunk_rows = 16;
  Result<std::unique_ptr<Backfiller>> bf =
      Backfiller::Create(fx.leg.get(), bf_options);
  ASSERT_TRUE(bf.ok()) << bf.status().ToString();
  OPDELTA_ASSERT_OK((*bf)->Setup());

  // A writer holds an X lock on key 5, mid-chunk. The reader's committed
  // read blocks on it and times out after taking S locks on keys 0..4.
  auto writer = fx.src->Begin();
  Result<size_t> updated = fx.src->UpdateWhere(
      writer.get(), "parts",
      engine::Predicate::Where("id", engine::CompareOp::kEq,
                               catalog::Value::Int64(5)),
      {{"status", catalog::Value::String("held")}});
  OPDELTA_ASSERT_OK(updated.status());
  ASSERT_EQ(*updated, 1u);

  Status st = (*bf)->Step();
  EXPECT_TRUE(st.IsConflict()) << st.ToString();

  // The failed chunk read must not have leaked its S locks: the writer
  // can immediately upgrade key 0 to X (a leaked S lock would stall this
  // into another timeout).
  updated = fx.src->UpdateWhere(
      writer.get(), "parts",
      engine::Predicate::Where("id", engine::CompareOp::kEq,
                               catalog::Value::Int64(0)),
      {{"status", catalog::Value::String("held")}});
  OPDELTA_ASSERT_OK(updated.status());
  EXPECT_EQ(*updated, 1u);
  OPDELTA_ASSERT_OK(fx.src->Commit(writer.get()));

  // The chunk re-runs cleanly from the durable cursor.
  bool done = false;
  while (!done) OPDELTA_ASSERT_OK((*bf)->Step(&done));
  OPDELTA_ASSERT_OK(fx.IntegrateAll());
  EXPECT_TRUE(TablesEqual(fx.src.get(), "parts", fx.wh.get(), "parts"));
}

/// A Step whose window drain fails at the queue append leaves that
/// window's signal rows in the leg's pending frame. The retried Step must
/// close on its own high signal, not the stale one: a captured INSERT
/// committed between the attempts then ships ahead of the chunk, and the
/// chunk's upsert of that key lands on the inserted row instead of under
/// a replayed second copy.
TEST(BackfillerTest, RetriedStepClosesOnItsOwnWindow) {
  TempDir dir;
  // Only the leg's queue log fails; installed before the leg opens it.
  FaultInjectionEnv fenv(Env::Default());
  fenv.SetScope("/queue/");
  ScopedEnvOverride guard(&fenv);
  LegFixture fx(dir);
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.Populate(fx.src.get(), "parts", 40));

  BackfillOptions options;
  options.chunk_rows = 64;  // one chunk: every key is in its range
  Result<std::unique_ptr<Backfiller>> bf =
      Backfiller::Create(fx.leg.get(), options);
  ASSERT_TRUE(bf.ok()) << bf.status().ToString();
  OPDELTA_ASSERT_OK((*bf)->Setup());

  fenv.SetErrorProbability(FaultInjectionEnv::OpKind::kWrite, 1.0);
  Status st = (*bf)->Step();
  ASSERT_TRUE(st.IsIOError()) << st.ToString();
  fenv.ClearFaults();

  OPDELTA_ASSERT_OK(fx.leg->capture()
                        ->RunTransaction({wl.MakeInsert("parts", 40, 1)})
                        .status());
  bool done = false;
  OPDELTA_ASSERT_OK((*bf)->Step(&done));
  EXPECT_TRUE(done);

  // Ship what the windows left in the op log, then apply everything.
  bool shipped = true;
  while (shipped) OPDELTA_ASSERT_OK(fx.leg->ExtractAndShip(&shipped));
  OPDELTA_ASSERT_OK(fx.IntegrateAll());
  EXPECT_EQ(CountRows(fx.wh.get(), "parts"), 41u);
  EXPECT_TRUE(TablesEqual(fx.src.get(), "parts", fx.wh.get(), "parts"));
}

/// The (kind, tbl) of every row in `db`'s watermark-signal table, sorted.
std::vector<std::pair<std::string, std::string>> SignalRows(
    engine::Database* db) {
  std::vector<std::pair<std::string, std::string>> rows;
  OPDELTA_EXPECT_OK(db->Scan(
      nullptr, ChunkWindow::kSignalTable, engine::Predicate::True(),
      [&](const storage::Rid&, const catalog::Row& row) {
        rows.emplace_back(row[1].AsString(), row[2].AsString());
        return true;
      }));
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// A window writes one signal row, its high marker, and closes on it. The
/// cleanup at the end of the backfill deletes this table's backfill
/// signal rows, the "low" rows of builds that also opened each window
/// with a signal included, and leaves the scrub's and other tables' rows
/// alone, at the source and, through capture, at the warehouse.
TEST(BackfillerTest, WindowsWriteOneSignalAndCleanupSweepsLegacyLows) {
  TempDir dir;
  LegFixture fx(dir);
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.Populate(fx.src.get(), "parts", 40));
  BackfillOptions options;
  options.chunk_rows = 16;
  Result<std::unique_ptr<Backfiller>> bf =
      Backfiller::Create(fx.leg.get(), options);
  ASSERT_TRUE(bf.ok()) << bf.status().ToString();
  OPDELTA_ASSERT_OK((*bf)->Setup());  // creates the source signal table
  extract::OpDeltaCapture* capture = fx.leg->capture();
  ASSERT_NE(capture, nullptr);
  sql::InsertStmt legacy;
  legacy.table = ChunkWindow::kSignalTable;
  for (const auto& [kind, tbl] :
       std::vector<std::pair<std::string, std::string>>{
           {"low", "parts"}, {"scrub-low", "parts"}, {"high", "other"}}) {
    legacy.rows.push_back({catalog::Value::Int64(1),
                           catalog::Value::String(kind),
                           catalog::Value::String(tbl)});
  }
  OPDELTA_ASSERT_OK(
      capture->RunTransaction({sql::Statement(std::move(legacy))}).status());

  bool done = false;
  OPDELTA_ASSERT_OK((*bf)->Step(&done));
  ASSERT_FALSE(done);
  EXPECT_EQ(SignalRows(fx.src.get()),
            (std::vector<std::pair<std::string, std::string>>{
                {"high", "other"},
                {"high", "parts"},
                {"low", "parts"},
                {"scrub-low", "parts"}}));

  while (!done) OPDELTA_ASSERT_OK((*bf)->Step(&done));
  EXPECT_EQ((*bf)->stats().chunks_done, 3u);
  const std::vector<std::pair<std::string, std::string>> kept = {
      {"high", "other"}, {"scrub-low", "parts"}};
  EXPECT_EQ(SignalRows(fx.src.get()), kept);
  bool shipped = true;
  while (shipped) OPDELTA_ASSERT_OK(fx.leg->ExtractAndShip(&shipped));
  OPDELTA_ASSERT_OK(fx.IntegrateAll());
  EXPECT_EQ(SignalRows(fx.wh.get()), kept);
  EXPECT_TRUE(TablesEqual(fx.src.get(), "parts", fx.wh.get(), "parts"));
}

// ------------------------------------------------------- hub integration

struct HubFixture {
  HubFixture(const TempDir& dir, pipeline::Method method,
             uint64_t chunk_rows) {
    src = OpenDb(dir, "src", NoTimestampOptions());
    wh = OpenDb(dir, "wh", NoTimestampOptions());
    workload::PartsWorkload wl;
    OPDELTA_EXPECT_OK(wl.CreateTable(src.get(), "parts"));
    OPDELTA_EXPECT_OK(wl.CreateTable(wh.get(), "parts"));
    options.work_dir = dir.Sub("hub");
    options.extract_threads = 1;
    options.quarantine_after = 0;  // conflicts retry, never quarantine
    spec.name = "bf";
    spec.method = method;
    spec.source_table = "parts";
    spec.warehouse_table = "parts";
    spec.backfill = true;
    spec.backfill_chunk_rows = chunk_rows;
  }

  Result<std::unique_ptr<hub::DeltaHub>> MakeHub() {
    OPDELTA_ASSIGN_OR_RETURN(std::unique_ptr<hub::DeltaHub> hub,
                             hub::DeltaHub::Create(wh.get(), options));
    spec.source = src.get();
    OPDELTA_RETURN_IF_ERROR(hub->AddSource(spec));
    OPDELTA_RETURN_IF_ERROR(hub->Setup());
    return hub;
  }

  std::unique_ptr<engine::Database> src;
  std::unique_ptr<engine::Database> wh;
  hub::HubOptions options;
  hub::SourceSpec spec;
};

/// Drives rounds until the source's backfill reports done; one chunk
/// ships per round.
void RunUntilBackfillDone(hub::DeltaHub* hub, int max_rounds = 200) {
  for (int round = 0; round < max_rounds; ++round) {
    OPDELTA_ASSERT_OK(hub->RunRound());
    if (hub->Stats().sources[0].backfill_done) return;
  }
  FAIL() << "backfill did not finish in " << max_rounds << " rounds";
}

TEST(BackfillHubTest, QuietSourceBootstrapConverges) {
  TempDir dir;
  HubFixture fx(dir, pipeline::Method::kOpDelta, /*chunk_rows=*/16);
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.Populate(fx.src.get(), "parts", 100));

  Result<std::unique_ptr<hub::DeltaHub>> hub = fx.MakeHub();
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  RunUntilBackfillDone(hub->get());

  const hub::SourceStats stats = (*hub)->Stats().sources[0];
  EXPECT_TRUE(stats.backfill_done);
  EXPECT_EQ(stats.chunks_done, 7u);  // ceil(100 / 16)
  EXPECT_EQ(stats.chunks_total, 7u);
  EXPECT_EQ(stats.rows_backfilled, 100u);
  EXPECT_EQ(stats.rows_deduped, 0u);  // nothing wrote during the windows
  OPDELTA_EXPECT_OK((*hub)->Stop());
  EXPECT_TRUE(TablesEqual(fx.src.get(), "parts", fx.wh.get(), "parts"));
  EXPECT_EQ(CountRows(fx.wh.get(), "parts"), 100u);
}

TEST(BackfillHubTest, ResumesFromChunkLedgerAcrossRestart) {
  TempDir dir;
  HubFixture fx(dir, pipeline::Method::kOpDelta, /*chunk_rows=*/16);
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.Populate(fx.src.get(), "parts", 100));

  {
    Result<std::unique_ptr<hub::DeltaHub>> hub = fx.MakeHub();
    ASSERT_TRUE(hub.ok()) << hub.status().ToString();
    for (int round = 0; round < 3; ++round) {
      OPDELTA_ASSERT_OK((*hub)->RunRound());
    }
    const hub::SourceStats stats = (*hub)->Stats().sources[0];
    EXPECT_EQ(stats.chunks_done, 3u);
    EXPECT_FALSE(stats.backfill_done);
    OPDELTA_EXPECT_OK((*hub)->Stop());
  }

  // A fresh hub over the same state directories resumes at chunk 4 — the
  // already-shipped rows are not re-read.
  Result<std::unique_ptr<hub::DeltaHub>> hub = fx.MakeHub();
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  EXPECT_EQ(hub->get()->Stats().sources[0].chunks_done, 0u);  // not refreshed yet
  RunUntilBackfillDone(hub->get());
  const hub::SourceStats stats = (*hub)->Stats().sources[0];
  EXPECT_EQ(stats.chunks_done, 7u);
  EXPECT_EQ(stats.rows_backfilled, 100u);
  OPDELTA_EXPECT_OK((*hub)->Stop());
  EXPECT_TRUE(TablesEqual(fx.src.get(), "parts", fx.wh.get(), "parts"));
  EXPECT_EQ(CountRows(fx.wh.get(), "parts"), 100u);
}

TEST(BackfillHubTest, TriggerSourceBackfillsWithLiveWrites) {
  TempDir dir;
  HubFixture fx(dir, pipeline::Method::kTrigger, /*chunk_rows=*/16);
  workload::PartsWorkload wl;
  // Pre-capture rows: the trigger is not installed yet, so only the
  // backfill can ship these.
  OPDELTA_ASSERT_OK(wl.Populate(fx.src.get(), "parts", 80));

  Result<std::unique_ptr<hub::DeltaHub>> hub = fx.MakeHub();
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  sql::Executor exec(fx.src.get());
  int64_t key = 1000;
  for (int round = 0; round < 100; ++round) {
    // Live trigger-captured traffic interleaved with the chunk stream.
    OPDELTA_ASSERT_OK(Retry([&] {
      return exec.ExecuteSql(wl.MakeInsert("parts", key, 2).ToSql()).status();
    }));
    OPDELTA_ASSERT_OK(Retry([&] {
      return exec
          .ExecuteSql(wl.MakeUpdate("parts", 0, 40, "r" + std::to_string(round))
                          .ToSql())
          .status();
    }));
    key += 2;
    OPDELTA_ASSERT_OK((*hub)->RunRound());
    if ((*hub)->Stats().sources[0].backfill_done) break;
  }
  ASSERT_TRUE((*hub)->Stats().sources[0].backfill_done);
  // Drain whatever the last writes left behind.
  OPDELTA_ASSERT_OK((*hub)->RunRound());
  OPDELTA_EXPECT_OK((*hub)->Stop());
  EXPECT_TRUE(TablesEqual(fx.src.get(), "parts", fx.wh.get(), "parts"));
}

/// Acceptance scenario: backfill starts under sustained randomized
/// concurrent writes — inserts, updates and deletes over the chunk range
/// racing the watermark windows — and the warehouse must byte-equal the
/// source once the backfill and the live stream drain, across seeds, with
/// the key unindexed (chunk reads scan the heap) and indexed (they walk
/// the B+tree and stop at the chunk's last key).
TEST(BackfillHubTest, RandomizedConcurrentWritesConverge) {
  constexpr uint64_t kSeeds[] = {1, 2, 3, 4, 5};
  for (const bool indexed : {false, true}) {
    uint64_t total_deduped = 0;
    for (const uint64_t seed : kSeeds) {
      SCOPED_TRACE(indexed ? "key indexed" : "key unindexed");
      TempDir dir;
      HubFixture fx(dir, pipeline::Method::kOpDelta, /*chunk_rows=*/16);
      fx.options.produce_attempts = 5;
      workload::PartsWorkload wl;
      OPDELTA_ASSERT_OK(wl.Populate(fx.src.get(), "parts", 240));
      if (indexed) {
        OPDELTA_ASSERT_OK(fx.src->CreateIndex("parts", "id"));
        OPDELTA_ASSERT_OK(fx.wh->CreateIndex("parts", "id"));
      }

      Result<std::unique_ptr<hub::DeltaHub>> hub = fx.MakeHub();
      ASSERT_TRUE(hub.ok()) << hub.status().ToString();
      extract::OpDeltaCapture* capture = (*hub)->capture("bf");
      ASSERT_NE(capture, nullptr);

      // 120 transactions. Until the backfill is done they go eight as
      // each round starts, so they race every chunk window whatever the
      // machine's speed. Updates and deletes alternate between a key drawn
      // anywhere in [0, 260) (rows already shipped, rows far ahead) and
      // one at or just above the backfill's frontier, where the current
      // window reads.
      std::atomic<int> rounds{0};
      std::atomic<bool> backfilled{false};
      std::thread writer([&, seed] {
        std::mt19937_64 rng(seed);
        int64_t next_key = 1000;
        for (int i = 0; i < 120; ++i) {
          while (!backfilled.load() && rounds.load() < i / 8) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          const int64_t lo =
              i % 2 == 0
                  ? static_cast<int64_t>(rng() % 260)
                  : static_cast<int64_t>(
                        (*hub)->Stats().sources[0].rows_backfilled +
                        rng() % 32);
          sql::Statement stmt;
          switch (rng() % 3) {
            case 0:
              stmt = wl.MakeInsert("parts", next_key, 2);
              next_key += 2;
              break;
            case 1:
              stmt = wl.MakeUpdate("parts", lo,
                                   lo + 1 + static_cast<int64_t>(rng() % 15),
                                   "w" + std::to_string(i));
              break;
            default:
              stmt = wl.MakeDelete("parts", lo,
                                   lo + 1 + static_cast<int64_t>(rng() % 2));
              break;
          }
          OPDELTA_EXPECT_OK(Retry(
              [&] { return capture->RunTransaction({stmt}).status(); }));
        }
      });

      // Drive rounds until the backfill completes; writer conflicts make
      // individual rounds fail transiently, which is part of the scenario.
      bool done = false;
      for (int round = 0; round < 500 && !done; ++round) {
        (void)(*hub)->RunRound();
        rounds.fetch_add(1);
        done = (*hub)->Stats().sources[0].backfill_done;
      }
      backfilled = true;
      writer.join();
      ASSERT_TRUE(done) << "seed " << seed;
      // Drain the tail of the live stream.
      OPDELTA_ASSERT_OK((*hub)->RunRound());
      OPDELTA_ASSERT_OK((*hub)->RunRound());
      total_deduped += (*hub)->Stats().sources[0].rows_deduped;
      OPDELTA_EXPECT_OK((*hub)->Stop());
      ASSERT_TRUE(TablesEqual(fx.src.get(), "parts", fx.wh.get(), "parts"))
          << "diverged at seed " << seed;
    }
    // Across five seeds of sustained writes, at least one chunk window must
    // have seen a concurrent touch (each seed races its writes against 15
    // windows).
    EXPECT_GT(total_deduped, 0u);
  }
}

/// Index DDL on the source while a started hub's driver thread reads
/// chunks: CreateIndex adds B+tree indexes, and every ALTER drops and
/// rebuilds them under the table latch, racing each chunk read's check of
/// whether the key is indexed. Every ALTER also restarts the backfill.
/// The warehouse must still converge to the source.
TEST(BackfillHubTest, IndexDdlRacingStartedHubConverges) {
  TempDir dir;
  HubFixture fx(dir, pipeline::Method::kOpDelta, /*chunk_rows=*/8);
  fx.options.poll_interval = std::chrono::milliseconds(1);
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.Populate(fx.src.get(), "parts", 200));

  Result<std::unique_ptr<hub::DeltaHub>> hub = fx.MakeHub();
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  extract::OpDeltaCapture* capture = (*hub)->capture("bf");
  ASSERT_NE(capture, nullptr);
  OPDELTA_ASSERT_OK((*hub)->Start());
  OPDELTA_ASSERT_OK(fx.src->CreateIndex("parts", "id"));
  for (int i = 0; i < 6; ++i) {
    const std::string column = "c" + std::to_string(i);
    Result<sql::Statement> ddl = sql::Parser::Parse(
        "ALTER TABLE parts ADD COLUMN " + column + " INT64 DEFAULT " +
        std::to_string(i));
    ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
    OPDELTA_ASSERT_OK(
        Retry([&] { return capture->ExecuteDdl(ddl->alter()).status(); }));
    OPDELTA_ASSERT_OK(fx.src->CreateIndex("parts", column));
    // Let the driver read a few chunks under the new indexes.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Rounds that raced the DDL can fail transiently; the driver retries
  // them, and the fresh hub below finishes whatever is left.
  (void)(*hub)->Stop();
  hub->reset();

  hub = fx.MakeHub();
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  RunUntilBackfillDone(hub->get());
  OPDELTA_ASSERT_OK((*hub)->RunRound());
  OPDELTA_EXPECT_OK((*hub)->Stop());
  EXPECT_TRUE(TablesEqual(fx.src.get(), "parts", fx.wh.get(), "parts"));
  EXPECT_EQ(CountRows(fx.wh.get(), "parts"), 200u);
}

// -------------------------------------------------- apply-ledger racing

/// Two sources' round tasks advance the ledger concurrently. Each write
/// replaces only its own source's row, so neither waits on the other: with
/// a 50 ms lock timeout every Advance succeeds on its first attempt, no
/// watermark is lost, and the ledger ends at one row per source.
TEST(ApplyLedgerRaceTest, CompactRacingAdvanceKeepsWatermarks) {
  TempDir dir;
  engine::DatabaseOptions options = NoTimestampOptions();
  options.lock_timeout = std::chrono::milliseconds(50);
  auto wh = OpenDb(dir, "wh", options);
  warehouse::ApplyLedger ledger(wh.get());
  OPDELTA_ASSERT_OK(ledger.Setup());

  constexpr uint64_t kBatches = 150;
  const auto advance_all = [&](const std::string& source) {
    for (uint64_t seq = 1; seq <= kBatches; ++seq) {
      const extract::BatchId id{source, 1, seq, false};
      Result<warehouse::ApplyLedger::Admission> adm = ledger.Admit(id, 1);
      OPDELTA_EXPECT_OK(adm.status());
      if (adm.ok()) {
        EXPECT_EQ(adm->decision, warehouse::ApplyLedger::Decision::kFresh);
      }
      OPDELTA_EXPECT_OK(wh->WithTransaction(
          [&](txn::Transaction* txn) { return ledger.Advance(txn, id, 1); }));
    }
  };
  std::thread s2(advance_all, "s2");
  advance_all("s1");
  s2.join();

  EXPECT_EQ(CountRows(wh.get(), ledger.table()), 2u);
  for (const char* source : {"s1", "s2"}) {
    Result<warehouse::ApplyLedger::Watermark> wm = ledger.Get(source);
    OPDELTA_ASSERT_OK(wm.status());
    ASSERT_TRUE(wm->exists);
    EXPECT_EQ(wm->seq, kBatches);
    // Redeliveries anywhere below the watermark drop as duplicates.
    for (const uint64_t seq : {uint64_t{1}, kBatches / 2, kBatches}) {
      Result<warehouse::ApplyLedger::Admission> adm =
          ledger.Admit(extract::BatchId{source, 1, seq, false}, 1);
      OPDELTA_ASSERT_OK(adm.status());
      EXPECT_EQ(adm->decision, warehouse::ApplyLedger::Decision::kDuplicate)
          << source << " seq " << seq;
    }
  }
}

// ------------------------------------------------------- crash recovery

/// Dead-disk-mid-chunk sweep: the hub's transport state dies at the n-th
/// mutating I/O while a backfill is in flight, unsynced bytes vanish
/// (torn tails included), and a rebooted hub must finish the backfill
/// from the durable chunk cursor — warehouse byte-equal to the source,
/// nothing lost to the crash, nothing double-applied.
TEST(BackfillCrashTest, ResumesAndConvergesAfterEveryCrashPoint) {
  TempDir dir;
  constexpr int kCrashPoints = 16;
  for (int crash_point = 1; crash_point <= kCrashPoints; ++crash_point) {
    const std::string tag = std::to_string(crash_point);
    const std::string work_dir = dir.Sub("hub" + tag);
    FaultInjectionEnv fenv(Env::Default(),
                           FaultSeedFromEnv(7000 + crash_point));
    fenv.SetScope(work_dir);
    ScopedEnvOverride guard(&fenv);

    // Source and warehouse live on healthy disks; only the hub's state
    // (each source's queue log) crashes.
    auto src = OpenDb(dir, "src" + tag, NoTimestampOptions());
    auto wh = OpenDb(dir, "wh" + tag, NoTimestampOptions());
    workload::PartsWorkload wl;
    OPDELTA_ASSERT_OK(wl.CreateTable(src.get(), "parts"));
    OPDELTA_ASSERT_OK(wl.CreateTable(wh.get(), "parts"));
    OPDELTA_ASSERT_OK(wl.Populate(src.get(), "parts", 60));

    hub::HubOptions options;
    options.work_dir = work_dir;
    options.extract_threads = 1;
    options.produce_attempts = 1;  // retries can't help a dead disk
    options.quarantine_after = 0;
    auto make_hub = [&]() -> Result<std::unique_ptr<hub::DeltaHub>> {
      OPDELTA_ASSIGN_OR_RETURN(std::unique_ptr<hub::DeltaHub> hub,
                               hub::DeltaHub::Create(wh.get(), options));
      hub::SourceSpec spec;
      spec.name = "bf";
      spec.source = src.get();
      spec.method = pipeline::Method::kLog;
      spec.source_table = "parts";
      spec.warehouse_table = "parts";
      spec.backfill = true;
      spec.backfill_chunk_rows = 9;
      OPDELTA_RETURN_IF_ERROR(hub->AddSource(spec));
      OPDELTA_RETURN_IF_ERROR(hub->Setup());
      return hub;
    };

    fenv.ClearFaults();
    fenv.FailAllOpsAfter(crash_point);
    {
      // Run toward completion with live writes interleaved until the
      // disk dies somewhere mid-backfill; any error is the scenario.
      Result<std::unique_ptr<hub::DeltaHub>> crashing = make_hub();
      if (crashing.ok()) {
        sql::Executor exec(src.get());
        int64_t key = 1000;
        for (int round = 0; round < 12; ++round) {
          (void)exec.ExecuteSql(wl.MakeInsert("parts", key, 2).ToSql());
          (void)exec.ExecuteSql(
              wl.MakeUpdate("parts", 0, 30, "c" + tag).ToSql());
          key += 2;
          if (!(*crashing)->RunRound().ok()) break;
          if ((*crashing)->Stats().sources[0].backfill_done) break;
        }
        (void)(*crashing)->Stop();
      }
    }

    // Power failure: unsynced bytes vanish, a seeded prefix of the
    // unsynced tail may survive.
    fenv.ClearFaults();
    OPDELTA_ASSERT_OK(fenv.CrashAndDropUnsynced(/*torn_tails=*/true));

    Result<std::unique_ptr<hub::DeltaHub>> recovered = make_hub();
    ASSERT_TRUE(recovered.ok()) << "crash point " << crash_point << ": "
                                << recovered.status().ToString();
    bool done = false;
    for (int round = 0; round < 40 && !done; ++round) {
      OPDELTA_ASSERT_OK((*recovered)->RunRound());
      done = (*recovered)->Stats().sources[0].backfill_done;
    }
    ASSERT_TRUE(done) << "crash point " << crash_point;
    OPDELTA_ASSERT_OK((*recovered)->RunRound());
    OPDELTA_EXPECT_OK((*recovered)->Stop());
    ASSERT_TRUE(TablesEqual(src.get(), "parts", wh.get(), "parts"))
        << "diverged after crash point " << crash_point;
  }
}

}  // namespace
}  // namespace opdelta::backfill
