#include "scrub/scrubber.h"

#include <bit>
#include <cstdint>
#include <utility>

#include "common/clock.h"
#include "common/coding.h"
#include "common/logging.h"

namespace opdelta::scrub {

using backfill::ChunkWindow;
using backfill::WindowRow;
using catalog::Value;
using catalog::ValueType;

namespace {

// Signal-row kinds distinct from backfill's "low"/"high", so a scrub
// window and a backfill window on the same table never close each other.
constexpr char kLowKind[] = "scrub-low";
constexpr char kHighKind[] = "scrub-high";

}  // namespace

Scrubber::Scrubber(pipeline::SourceLeg* leg, engine::Database* warehouse,
                   DrainFn drain, ScrubOptions options)
    : leg_(leg),
      source_(leg->source()),
      warehouse_(warehouse),
      drain_(std::move(drain)),
      options_(std::move(options)),
      table_(leg->options().source_table),
      wh_table_(leg->options().warehouse_table),
      window_(leg, ChunkWindow::Options{kLowKind, kHighKind}),
      ledger_(leg->source()) {
  engine::Table* table = source_->GetTable(table_);
  schema_ = table->schema();
  key_col_ = schema_.KeyColumnIndex();
  ts_col_ = schema_.TimestampColumnIndex();
}

Result<std::unique_ptr<Scrubber>> Scrubber::Create(pipeline::SourceLeg* leg,
                                                   engine::Database* warehouse,
                                                   DrainFn drain,
                                                   ScrubOptions options) {
  if (leg == nullptr) return Status::InvalidArgument("source leg required");
  if (warehouse == nullptr) {
    return Status::InvalidArgument("warehouse database required");
  }
  if (drain == nullptr) {
    return Status::InvalidArgument("drain callback required");
  }
  if (options.chunk_rows == 0) {
    return Status::InvalidArgument("chunk_rows must be positive");
  }
  const std::string& source_table = leg->options().source_table;
  if (source_table == ChunkWindow::kSignalTable) {
    return Status::NotSupported("cannot scrub the signal table itself");
  }
  engine::Table* src = leg->source()->GetTable(source_table);
  if (src == nullptr) {
    return Status::NotFound("source table " + source_table);
  }
  const catalog::Schema& schema = src->schema();
  const int key = schema.KeyColumnIndex();
  if (key < 0 ||
      schema.column(static_cast<size_t>(key)).type != ValueType::kInt64) {
    return Status::NotSupported(
        "scrub requires an INT64 key column (first column)");
  }
  engine::Table* dst = warehouse->GetTable(leg->options().warehouse_table);
  if (dst == nullptr) {
    return Status::NotFound("warehouse table " +
                            leg->options().warehouse_table);
  }
  if (!(dst->schema() == schema)) {
    // An op-delta warehouse restarting between a captured ALTER and its
    // apply lags the source by queued migration events; the first Step's
    // drain catches it up, and the per-chunk schema guard keeps any
    // residual lag inconclusive. Any other mismatch is drift.
    bool lags_by_captured_ddl = false;
    if (leg->options().method == pipeline::Method::kOpDelta) {
      for (uint64_t e = leg->source()->ddl_epoch(); e >= 1; --e) {
        Result<std::shared_ptr<const catalog::SchemaMap>> at =
            leg->source()->SchemaMapAt(e);
        if (!at.ok()) break;
        auto it = (*at)->find(source_table);
        if (it != (*at)->end() && it->second == dst->schema()) {
          lags_by_captured_ddl = true;
          break;
        }
      }
    }
    if (!lags_by_captured_ddl) {
      return Status::InvalidArgument(
          "source and warehouse schemas must match to scrub " + source_table);
    }
  }
  return std::unique_ptr<Scrubber>(
      new Scrubber(leg, warehouse, std::move(drain), std::move(options)));
}

Status Scrubber::Setup() {
  if (setup_done_) return Status::OK();
  OPDELTA_RETURN_IF_ERROR(ChunkWindow::EnsureSignalTable(source_));
  OPDELTA_RETURN_IF_ERROR(ledger_.Setup());
  OPDELTA_ASSIGN_OR_RETURN(ScrubLedger::Progress progress,
                           ledger_.Get(table_));
  pass_ = progress.pass;
  have_cursor_ = progress.have_cursor;
  cursor_ = progress.cursor;
  chunks_this_pass_ = progress.chunks;
  stats_.passes = progress.passes_complete;
  setup_done_ = true;
  return Status::OK();
}

uint64_t Scrubber::NextWindowId() {
  // Wall-clock ids are unique across crash-restarts within this process
  // lifetime's clock domain; the max() guard keeps them strictly monotone
  // even if the clock stalls inside one microsecond.
  uint64_t id =
      static_cast<uint64_t>(RealClock::Default()->NowMicros());
  if (id <= last_window_id_) id = last_window_id_ + 1;
  last_window_id_ = id;
  return id;
}

void Scrubber::AddRowDigest(const catalog::Row& row,
                            SetDigest* digest) const {
  // Canonical per-row encoding: a type tag per cell plus a fixed or
  // length-prefixed payload, so distinct rows cannot collide by
  // concatenation. The auto-timestamp column is skipped — the warehouse
  // re-stamps it on SQL insert, so it diverges from the source by design.
  std::string buf;
  for (size_t i = 0; i < row.size(); ++i) {
    if (static_cast<int>(i) == ts_col_) continue;
    const Value& v = row[i];
    buf.push_back(static_cast<char>(v.type()));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt64:
      case ValueType::kTimestamp:
        PutFixed64(&buf, static_cast<uint64_t>(v.AsInt64()));
        break;
      case ValueType::kDouble:
        PutFixed64(&buf, std::bit_cast<uint64_t>(v.AsDouble()));
        break;
      case ValueType::kString:
        PutLengthPrefixed(&buf, Slice(v.AsString()));
        break;
    }
  }
  digest->Add(buf);
}

Status Scrubber::WarehouseChunk(std::optional<int64_t> lo,
                                std::optional<int64_t> hi, SetDigest* digest,
                                std::set<int64_t>* keys) {
  const std::string& key_name =
      schema_.column(static_cast<size_t>(key_col_)).name;
  engine::Predicate pred = engine::Predicate::True();
  if (lo.has_value()) {
    pred = engine::Predicate::Where(key_name, engine::CompareOp::kGt,
                                    Value::Int64(*lo));
    if (hi.has_value()) {
      pred.And(key_name, engine::CompareOp::kLe, Value::Int64(*hi));
    }
  } else if (hi.has_value()) {
    pred = engine::Predicate::Where(key_name, engine::CompareOp::kLe,
                                    Value::Int64(*hi));
  }
  return warehouse_->ScanCommitted(
      wh_table_, pred, [&](const catalog::Row& row) {
        if (static_cast<size_t>(key_col_) < row.size() &&
            row[static_cast<size_t>(key_col_)].type() == ValueType::kInt64) {
          keys->insert(row[static_cast<size_t>(key_col_)].AsInt64());
        }
        AddRowDigest(row, digest);
        return true;
      });
}

Status Scrubber::RepairChunk(std::optional<int64_t> lo,
                             std::optional<int64_t> hi,
                             const std::set<int64_t>& wh_keys) {
  // A fresh watermark window in *repair* mode: the re-read rows carry the
  // post-delta committed images, and keys that in-window events touched
  // inside the range are collected and resolved too — a key inserted
  // mid-repair must end up upserted, never on the delete list below.
  const uint64_t window_id = NextWindowId();
  OPDELTA_RETURN_IF_ERROR(window_.Open(window_id));
  std::vector<WindowRow> rows;
  bool more = false;
  OPDELTA_RETURN_IF_ERROR(
      window_.ReadRange(lo, hi, /*limit=*/0, &rows, &more));
  ChunkWindow::CloseOutcome outcome;
  OPDELTA_RETURN_IF_ERROR(window_.Close(window_id,
                                        ChunkWindow::CloseMode::kRepair,
                                        /*collect=*/true, lo, hi, &rows,
                                        &outcome));

  extract::DeltaBatch batch;
  batch.table = table_;
  batch.schema = schema_;
  std::set<int64_t> fresh;
  for (WindowRow& r : rows) {
    fresh.insert(r.key);
    if (!r.present) continue;
    extract::DeltaRecord rec;
    rec.op = extract::DeltaOp::kUpsert;
    rec.seq = batch.records.size() + 1;
    rec.image = std::move(r.image);
    batch.records.push_back(std::move(rec));
  }
  for (int64_t key : wh_keys) {
    if (fresh.count(key) != 0) continue;
    // Warehouse-only key with no committed source row: ship a delete. The
    // image only carries the key — that is all delete-by-key consumes.
    extract::DeltaRecord rec;
    rec.op = extract::DeltaOp::kDelete;
    rec.seq = batch.records.size() + 1;
    rec.image = catalog::Row(schema_.num_columns());
    rec.image[static_cast<size_t>(key_col_)] = Value::Int64(key);
    batch.records.push_back(std::move(rec));
  }
  if (batch.records.empty()) return Status::OK();

  OPDELTA_RETURN_IF_ERROR(leg_->ShipSnapshot(batch));
  OPDELTA_RETURN_IF_ERROR(drain_());
  stats_.rows_repaired += batch.records.size();
  return Status::OK();
}

Status Scrubber::AdvanceCursor(const std::vector<WindowRow>& rows,
                               bool more) {
  ++chunks_this_pass_;
  if (more) {
    cursor_ = rows.back().key;
    have_cursor_ = true;
    OPDELTA_RETURN_IF_ERROR(
        ledger_.Advance(table_, pass_, cursor_, chunks_this_pass_));
  } else {
    // Pass complete: wrap to the smallest key for the next pass.
    OPDELTA_RETURN_IF_ERROR(
        ledger_.MarkPass(table_, pass_, chunks_this_pass_));
    ++stats_.passes;
    ++pass_;
    have_cursor_ = false;
    cursor_ = 0;
    chunks_this_pass_ = 0;
    pass_just_completed_ = true;
    // Housekeeping: stale watermark rows from crashed windows are inert
    // (ids are never reused) but accumulate; sweep them between passes.
    Status st = window_.CleanupSignals();
    if (!st.ok()) {
      OPDELTA_LOG(kWarn) << "scrub signal cleanup failed: " << st.ToString();
    }
  }
  return Status::OK();
}

Status Scrubber::Step() {
  if (!setup_done_) return Status::Internal("call Setup() first");
  pass_just_completed_ = false;

  // Source DDL between steps changes the row shape under the digest:
  // re-resolve the schema every chunk, and remember the epoch so a
  // migration landing *during* the chunk makes it inconclusive below
  // instead of a false verdict.
  engine::Table* table = source_->GetTable(table_);
  if (table == nullptr) return Status::NotFound("source table " + table_);
  schema_ = table->schema();
  key_col_ = schema_.KeyColumnIndex();
  ts_col_ = schema_.TimestampColumnIndex();
  const uint64_t ddl_epoch_at_open = source_->ddl_epoch();

  // 1. Bracket the chunk read in a watermark window.
  const uint64_t window_id = NextWindowId();
  OPDELTA_RETURN_IF_ERROR(window_.Open(window_id));
  const std::optional<int64_t> lo =
      have_cursor_ ? std::optional<int64_t>(cursor_) : std::nullopt;
  std::vector<WindowRow> rows;
  bool more = false;
  OPDELTA_RETURN_IF_ERROR(
      window_.ReadRange(lo, std::nullopt, options_.chunk_rows, &rows, &more));
  // The verified range is (lo, hi]: bounded by the chunk's last key when
  // the selection truncated, open-ended otherwise so a full pass covers
  // the whole key space — including warehouse-only keys past the source's
  // largest (e.g. rows whose source delete was lost).
  const std::optional<int64_t> hi =
      more ? std::optional<int64_t>(rows.back().key) : std::nullopt;

  // 2. Close in detect mode: any in-window event on this table makes the
  //    chunk inconclusive (retried), never a verdict.
  ChunkWindow::CloseOutcome outcome;
  OPDELTA_RETURN_IF_ERROR(window_.Close(window_id,
                                        ChunkWindow::CloseMode::kDetect,
                                        /*collect=*/false, std::nullopt,
                                        std::nullopt, &rows, &outcome));

  // 3. Bring the warehouse to (or past) the window's high watermark.
  OPDELTA_RETURN_IF_ERROR(drain_());
  if (outcome.touched) {
    ++stats_.chunks_inconclusive;
    return Status::OK();
  }
  OPDELTA_ASSIGN_OR_RETURN(uint64_t backlog, leg_->Backlog());
  if (backlog != 0) {
    // The drain could not deliver everything (e.g. transient apply
    // errors); comparing against a lagging warehouse would be a false
    // verdict.
    ++stats_.chunks_inconclusive;
    return Status::OK();
  }
  if (source_->ddl_epoch() != ddl_epoch_at_open) {
    // A schema migration straddled the chunk: the rows above were read
    // under the pre-DDL shape while the warehouse may already be migrated
    // past it. Mixed-epoch digests are never a verdict — retry the chunk
    // under the settled schema.
    ++stats_.chunks_inconclusive;
    return Status::OK();
  }
  engine::Table* wh_table = warehouse_->GetTable(wh_table_);
  if (wh_table == nullptr || !(wh_table->schema() == schema_)) {
    // The warehouse has not migrated to this chunk's schema yet (e.g. the
    // hub restarted with the migration event still queued). Digesting
    // different row shapes is never a verdict.
    ++stats_.chunks_inconclusive;
    return Status::OK();
  }

  // 4. Digest both sides over (lo, hi].
  SetDigest src_digest;
  for (const WindowRow& r : rows) {
    if (r.present) AddRowDigest(r.image, &src_digest);
  }
  SetDigest wh_digest;
  std::set<int64_t> wh_keys;
  OPDELTA_RETURN_IF_ERROR(WarehouseChunk(lo, hi, &wh_digest, &wh_keys));

  const int64_t streak_key = lo.value_or(INT64_MIN);
  if (src_digest == wh_digest) {
    ++stats_.chunks_scrubbed;
    repair_streak_.erase(streak_key);
    return AdvanceCursor(rows, more);
  }

  // 5. Confirmed mismatch — the window was clean and the backlog empty,
  //    so the divergence is real, not in-flight data.
  ++stats_.chunks_mismatched;
  OPDELTA_LOG(kWarn) << "scrub mismatch on " << table_ << " range ("
                     << (lo.has_value() ? std::to_string(*lo) : "-inf")
                     << ", "
                     << (hi.has_value() ? std::to_string(*hi) : "+inf")
                     << "]: source " << src_digest.ToString()
                     << " vs warehouse " << wh_digest.ToString();
  if (!options_.repair) {
    return AdvanceCursor(rows, more);
  }
  const int streak = ++repair_streak_[streak_key];
  if (options_.escalate_after > 0 && streak > options_.escalate_after) {
    // Do not advance: the chunk stays current so supervision keeps seeing
    // the failure (and quarantines the source) until an operator acts.
    return Status::Internal(
        "scrub chunk of " + table_ + " above key " +
        (lo.has_value() ? std::to_string(*lo) : "-inf") + " repaired " +
        std::to_string(streak - 1) + "x without converging; escalating");
  }
  OPDELTA_RETURN_IF_ERROR(RepairChunk(lo, hi, wh_keys));
  ++stats_.chunks_repaired;
  return AdvanceCursor(rows, more);
}

}  // namespace opdelta::scrub
