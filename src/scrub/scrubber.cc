#include "scrub/scrubber.h"

#include <bit>
#include <cstdint>
#include <utility>

#include "common/coding.h"
#include "common/digest.h"
#include "common/logging.h"

namespace opdelta::scrub {

using backfill::ChunkWindow;
using backfill::CursorLedger;
using backfill::WindowRow;
using catalog::Value;
using catalog::ValueType;

namespace {

// The ledger's terminal kind: a pass over the table completed.
constexpr char kPassKind[] = "P";

// Repairs of one chunk without a clean verify in between before Step
// errors out instead of repairing again; the hub's supervision then
// quarantines the source.
constexpr int kEscalateAfter = 3;

/// Folds one row into `digest`. Canonical per-row encoding: a type tag per
/// cell plus a fixed or length-prefixed payload, so distinct rows cannot
/// collide by concatenation. The auto-timestamp column `ts_col` is skipped
/// — the warehouse re-stamps it on SQL insert, so it diverges from the
/// source by design.
void AddRowDigest(const catalog::Row& row, int ts_col, SetDigest* digest) {
  std::string buf;
  for (size_t i = 0; i < row.size(); ++i) {
    if (static_cast<int>(i) == ts_col) continue;
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
      // Signal kinds distinct from backfill's, so a scrub window and a
      // backfill window on the same table never close each other.
      window_(leg, "scrub-"),
      ledger_(leg->source(), CursorLedger::kScrub) {}

Result<std::unique_ptr<Scrubber>> Scrubber::Create(pipeline::SourceLeg* leg,
                                                   engine::Database* warehouse,
                                                   DrainFn drain,
                                                   ScrubOptions options) {
  if (warehouse == nullptr) {
    return Status::InvalidArgument("warehouse database required");
  }
  if (drain == nullptr) {
    return Status::InvalidArgument("drain callback required");
  }
  OPDELTA_RETURN_IF_ERROR(ChunkWindow::CheckWalk(leg, options.chunk_rows));
  engine::Table* dst = warehouse->GetTable(leg->options().warehouse_table);
  if (dst == nullptr) {
    return Status::NotFound("warehouse table " +
                            leg->options().warehouse_table);
  }
  // A warehouse trailing by captured ALTERs catches up in the first Step's
  // drain; the per-chunk schema guard keeps any residual lag inconclusive.
  if (!pipeline::WarehouseSchemaFits(leg->options().method, leg->source(),
                                     leg->options().source_table,
                                     dst->schema())) {
    return Status::InvalidArgument(
        "source and warehouse schemas must match to scrub " +
        leg->options().source_table);
  }
  return std::unique_ptr<Scrubber>(
      new Scrubber(leg, warehouse, std::move(drain), std::move(options)));
}

Status Scrubber::Setup() {
  if (setup_done_) return Status::OK();
  OPDELTA_RETURN_IF_ERROR(ChunkWindow::EnsureSignalTable(source_));
  OPDELTA_RETURN_IF_ERROR(ledger_.Setup());
  OPDELTA_ASSIGN_OR_RETURN(CursorLedger::Mark done,
                           ledger_.Get(table_, kPassKind));
  OPDELTA_ASSIGN_OR_RETURN(CursorLedger::Mark at,
                           ledger_.Get(table_, CursorLedger::kCursor));
  // A cursor of a pass newer than the last complete one resumes mid-pass;
  // otherwise the next pass starts from the smallest key.
  stats_.passes = done.step;
  have_cursor_ = at.exists && at.step > done.step;
  pass_ = have_cursor_ ? at.step : done.step + 1;
  cursor_ = have_cursor_ ? at.cursor : 0;
  chunks_this_pass_ = have_cursor_ ? at.count : 0;
  setup_done_ = true;
  return Status::OK();
}

Status Scrubber::RepairChunk(std::optional<int64_t> lo,
                             std::optional<int64_t> hi,
                             const std::set<int64_t>& wh_keys) {
  // A fresh watermark window in *repair* mode: the re-read rows carry the
  // post-delta committed images, and keys that in-window events touched
  // inside the range are collected and resolved too — a key inserted
  // mid-repair must end up upserted, never deleted as warehouse-only.
  ChunkWindow::Chunk chunk;
  OPDELTA_RETURN_IF_ERROR(window_.Read(
      lo, hi, /*limit=*/0, ChunkWindow::Mode::kRepairRange, &chunk));
  const extract::DeltaBatch batch = window_.ToBatch(&chunk, wh_keys);
  if (batch.records.empty()) return Status::OK();

  OPDELTA_RETURN_IF_ERROR(leg_->ShipSnapshot(batch));
  OPDELTA_RETURN_IF_ERROR(drain_());
  stats_.rows_repaired += batch.records.size();
  return Status::OK();
}

Status Scrubber::AdvanceCursor(const ChunkWindow::Chunk& chunk) {
  ++chunks_this_pass_;
  if (chunk.more) {
    cursor_ = chunk.rows.back().key;
    have_cursor_ = true;
    return ledger_.Put(table_, CursorLedger::kCursor, pass_, cursor_,
                       chunks_this_pass_);
  }
  // Pass complete: wrap to the smallest key for the next pass.
  OPDELTA_RETURN_IF_ERROR(
      ledger_.Put(table_, kPassKind, pass_, 0, chunks_this_pass_));
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
  return Status::OK();
}

Status Scrubber::Step() {
  if (!setup_done_) return Status::Internal("call Setup() first");
  pass_just_completed_ = false;
  // The window re-resolves the schema every chunk; the epoch makes a
  // migration landing *during* the chunk inconclusive below instead of a
  // false verdict.
  const uint64_t ddl_epoch_at_open = source_->ddl_epoch();

  // 1-2. Read the chunk through a window closed in detect mode: any
  //      in-window event on this table makes the chunk inconclusive
  //      (retried), never a verdict.
  const std::optional<int64_t> lo =
      have_cursor_ ? std::optional<int64_t>(cursor_) : std::nullopt;
  ChunkWindow::Chunk chunk;
  OPDELTA_RETURN_IF_ERROR(window_.Read(lo, std::nullopt, options_.chunk_rows,
                                       ChunkWindow::Mode::kDetect, &chunk));
  // The verified range is (lo, hi]: bounded by the chunk's last key when
  // the selection stopped at chunk_rows, open-ended otherwise so a full
  // pass covers the whole key space — including warehouse-only keys past
  // the source's largest (e.g. rows whose source delete was lost).
  const std::optional<int64_t> hi =
      chunk.more ? std::optional<int64_t>(chunk.rows.back().key)
                 : std::nullopt;

  // 3. Bring the warehouse to (or past) the window's high watermark.
  OPDELTA_RETURN_IF_ERROR(drain_());
  OPDELTA_ASSIGN_OR_RETURN(uint64_t backlog, leg_->Backlog());
  const catalog::Schema& schema = window_.schema();
  engine::Table* wh_table = warehouse_->GetTable(wh_table_);
  if (chunk.touched || backlog != 0 ||
      source_->ddl_epoch() != ddl_epoch_at_open || wh_table == nullptr ||
      !(wh_table->schema() == schema)) {
    // Never a verdict: a live delta touched the window; the drain could
    // not deliver everything (e.g. transient apply errors), so the
    // warehouse lags; a schema migration straddled the chunk, so its rows
    // mix shapes; or the warehouse has not migrated to this chunk's schema
    // yet (e.g. the hub restarted with the migration event still queued).
    // Retry the chunk.
    ++stats_.chunks_inconclusive;
    return Status::OK();
  }

  // 4. Digest both sides over (lo, hi].
  const int ts_col = schema.TimestampColumnIndex();
  SetDigest src_digest;
  for (const WindowRow& r : chunk.rows) {
    if (r.present) AddRowDigest(r.image, ts_col, &src_digest);
  }
  SetDigest wh_digest;
  std::set<int64_t> wh_keys;
  OPDELTA_RETURN_IF_ERROR(warehouse_->ScanCommitted(
      wh_table_, backfill::KeyRange(window_.key_name(), lo, hi),
      [&](const catalog::Row& row) {
        if (const std::optional<int64_t> key = window_.KeyOf(row)) {
          wh_keys.insert(*key);
        }
        AddRowDigest(row, ts_col, &wh_digest);
        return true;
      }));

  const int64_t streak_key = lo.value_or(INT64_MIN);
  if (src_digest == wh_digest) {
    ++stats_.chunks_scrubbed;
    repair_streak_.erase(streak_key);
    return AdvanceCursor(chunk);
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
  if (!options_.repair) return AdvanceCursor(chunk);
  const int streak = ++repair_streak_[streak_key];
  if (streak > kEscalateAfter) {
    // Do not advance: the chunk stays current so supervision keeps seeing
    // the failure (and quarantines the source) until an operator acts.
    return Status::Internal(
        "scrub chunk of " + table_ + " above key " +
        (lo.has_value() ? std::to_string(*lo) : "-inf") + " repaired " +
        std::to_string(streak - 1) + "x without converging; escalating");
  }
  OPDELTA_RETURN_IF_ERROR(RepairChunk(lo, hi, wh_keys));
  ++stats_.chunks_repaired;
  return AdvanceCursor(chunk);
}

}  // namespace opdelta::scrub
