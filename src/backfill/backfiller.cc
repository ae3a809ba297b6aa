#include "backfill/backfiller.h"

#include <utility>

#include "common/logging.h"

namespace opdelta::backfill {

using catalog::ValueType;

Backfiller::Backfiller(pipeline::SourceLeg* leg, BackfillOptions options)
    : leg_(leg),
      source_(leg->source()),
      options_(std::move(options)),
      table_(leg->options().source_table),
      window_(leg, ChunkWindow::Options{}),
      ledger_(leg->source()) {}

Result<std::unique_ptr<Backfiller>> Backfiller::Create(
    pipeline::SourceLeg* leg, BackfillOptions options) {
  if (leg == nullptr) return Status::InvalidArgument("source leg required");
  if (options.chunk_rows == 0) {
    return Status::InvalidArgument("chunk_rows must be positive");
  }
  engine::Table* table = leg->source()->GetTable(leg->options().source_table);
  if (table == nullptr) {
    return Status::NotFound("source table " + leg->options().source_table);
  }
  const catalog::Schema& schema = table->schema();
  const int key = schema.KeyColumnIndex();
  if (key < 0 ||
      schema.column(static_cast<size_t>(key)).type != ValueType::kInt64) {
    return Status::NotSupported(
        "backfill requires an INT64 key column (first column)");
  }
  return std::unique_ptr<Backfiller>(new Backfiller(leg, std::move(options)));
}

Status Backfiller::Setup() {
  if (setup_done_) return Status::OK();
  OPDELTA_RETURN_IF_ERROR(ChunkWindow::EnsureSignalTable(source_));
  OPDELTA_RETURN_IF_ERROR(ledger_.Setup());
  OPDELTA_ASSIGN_OR_RETURN(ChunkLedger::Progress progress,
                           ledger_.Get(table_));
  stats_ = BackfillStats();
  stats_.chunks_done = progress.chunks_done;
  stats_.rows_backfilled = progress.rows_shipped;
  stats_.done = progress.done;
  have_cursor_ = progress.exists && !progress.done;
  cursor_ = progress.cursor;
  // chunks_total is a progress estimate from the current row count; the
  // final chunk makes it exact.
  OPDELTA_ASSIGN_OR_RETURN(uint64_t count, source_->CountRows(table_));
  const uint64_t remaining =
      count > progress.rows_shipped ? count - progress.rows_shipped : 0;
  stats_.chunks_total =
      stats_.done ? stats_.chunks_done
                  : stats_.chunks_done +
                        (remaining + options_.chunk_rows - 1) /
                            options_.chunk_rows;
  setup_done_ = true;
  return Status::OK();
}

Status Backfiller::Step(bool* done) {
  if (done != nullptr) *done = stats_.done;
  if (!setup_done_) return Status::Internal("call Setup() first");
  if (stats_.done) return Status::OK();

  const uint64_t chunk_no = stats_.chunks_done + 1;
  const uint64_t ddl_epoch_at_open = source_->ddl_epoch();
  OPDELTA_RETURN_IF_ERROR(window_.Open(chunk_no));
  std::vector<WindowRow> rows;
  bool more = false;
  OPDELTA_RETURN_IF_ERROR(window_.ReadRange(
      have_cursor_ ? std::optional<int64_t>(cursor_) : std::nullopt,
      std::nullopt, options_.chunk_rows, &rows, &more));
  ChunkWindow::CloseOutcome outcome;
  OPDELTA_RETURN_IF_ERROR(window_.Close(chunk_no,
                                        ChunkWindow::CloseMode::kRepair,
                                        /*collect=*/false, std::nullopt,
                                        std::nullopt, &rows, &outcome));
  stats_.rows_deduped += outcome.rows_deduped;
  if (source_->ddl_epoch() != ddl_epoch_at_open) {
    // Concurrent DDL straddled the window: selected and repair-read images
    // mix column arities, so the chunk cannot ship as one batch. Leave the
    // cursor where it is and re-run the chunk next round under the settled
    // schema — the same inconclusive-and-retry discipline the scrubber
    // uses.
    OPDELTA_LOG(kInfo) << "backfill chunk " << chunk_no << " of " << table_
                       << " straddled a schema change; retrying";
    return Status::OK();
  }

  extract::DeltaBatch chunk;
  chunk.table = table_;
  chunk.schema = window_.schema();
  for (WindowRow& r : rows) {
    if (!r.present) continue;
    extract::DeltaRecord rec;
    rec.op = extract::DeltaOp::kUpsert;
    rec.seq = chunk.records.size() + 1;
    rec.image = std::move(r.image);
    chunk.records.push_back(std::move(rec));
  }
  if (!chunk.records.empty()) {
    OPDELTA_RETURN_IF_ERROR(leg_->ShipSnapshot(chunk));
  }

  // A crash between the durable ship above and the ledger write below
  // re-runs this chunk under a fresh identity; the warehouse absorbs the
  // duplicate upserts idempotently.
  stats_.chunks_done = chunk_no;
  stats_.rows_backfilled += chunk.records.size();
  if (stats_.chunks_total < stats_.chunks_done) {
    stats_.chunks_total = stats_.chunks_done;
  }
  if (!rows.empty()) {
    have_cursor_ = true;
    cursor_ = rows.back().key;
  }
  if (more) {
    return ledger_.Advance(table_, chunk_no, cursor_, stats_.rows_backfilled);
  }

  OPDELTA_RETURN_IF_ERROR(
      ledger_.MarkDone(table_, chunk_no, stats_.rows_backfilled));
  stats_.done = true;
  stats_.chunks_total = stats_.chunks_done;
  if (done != nullptr) *done = true;
  // Housekeeping only: leftover watermark rows are inert.
  Status st = window_.CleanupSignals();
  if (!st.ok()) {
    OPDELTA_LOG(kWarn) << "backfill signal cleanup failed: " << st.ToString();
  }
  return Status::OK();
}

Status Backfiller::Restart() {
  if (!setup_done_) return Status::Internal("call Setup() first");
  OPDELTA_RETURN_IF_ERROR(ledger_.Reset(table_));
  have_cursor_ = false;
  cursor_ = 0;
  stats_ = BackfillStats();
  OPDELTA_ASSIGN_OR_RETURN(uint64_t count, source_->CountRows(table_));
  stats_.chunks_total =
      (count + options_.chunk_rows - 1) / options_.chunk_rows;
  OPDELTA_LOG(kInfo) << "backfill of " << table_
                     << " restarted after schema migration ("
                     << stats_.chunks_total << " chunks estimated)";
  return Status::OK();
}

}  // namespace opdelta::backfill
