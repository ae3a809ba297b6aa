#include "backfill/backfiller.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace opdelta::backfill {

namespace {

// The ledger's terminal kind: the backfill of the table completed.
constexpr char kDoneKind[] = "D";

}  // namespace

Backfiller::Backfiller(pipeline::SourceLeg* leg, BackfillOptions options)
    : leg_(leg),
      source_(leg->source()),
      options_(std::move(options)),
      table_(leg->options().source_table),
      window_(leg, ""),
      ledger_(leg->source(), CursorLedger::kBackfill) {}

Result<std::unique_ptr<Backfiller>> Backfiller::Create(
    pipeline::SourceLeg* leg, BackfillOptions options) {
  OPDELTA_RETURN_IF_ERROR(ChunkWindow::CheckWalk(leg, options.chunk_rows));
  return std::unique_ptr<Backfiller>(new Backfiller(leg, std::move(options)));
}

Status Backfiller::Setup() {
  if (setup_done_) return Status::OK();
  OPDELTA_RETURN_IF_ERROR(ChunkWindow::EnsureSignalTable(source_));
  OPDELTA_RETURN_IF_ERROR(ledger_.Setup());
  OPDELTA_ASSIGN_OR_RETURN(CursorLedger::Mark mark,
                           ledger_.Get(table_, kDoneKind));
  const bool done = mark.exists;
  if (!done) {
    OPDELTA_ASSIGN_OR_RETURN(mark, ledger_.Get(table_, CursorLedger::kCursor));
  }
  OPDELTA_RETURN_IF_ERROR(Resume(mark, done));
  setup_done_ = true;
  return Status::OK();
}

Status Backfiller::Resume(const CursorLedger::Mark& mark, bool done) {
  stats_ = BackfillStats();
  stats_.done = done;
  stats_.chunks_done = mark.step;
  stats_.rows_backfilled = mark.count;
  have_cursor_ = mark.exists && !done;
  cursor_ = mark.cursor;
  // chunks_total is a progress estimate from the current row count; the
  // final chunk makes it exact.
  stats_.chunks_total = stats_.chunks_done;
  if (done) return Status::OK();
  OPDELTA_ASSIGN_OR_RETURN(uint64_t count, source_->CountRows(table_));
  if (count > mark.count) {
    stats_.chunks_total +=
        (count - mark.count + options_.chunk_rows - 1) / options_.chunk_rows;
  }
  return Status::OK();
}

Status Backfiller::Step(bool* done) {
  if (done != nullptr) *done = stats_.done;
  if (!setup_done_) return Status::Internal("call Setup() first");
  if (stats_.done) return Status::OK();

  const uint64_t ddl_epoch_at_open = source_->ddl_epoch();
  ChunkWindow::Chunk chunk;
  OPDELTA_RETURN_IF_ERROR(window_.Read(
      have_cursor_ ? std::optional<int64_t>(cursor_) : std::nullopt,
      std::nullopt, options_.chunk_rows, ChunkWindow::Mode::kRepair, &chunk));
  stats_.rows_deduped += chunk.rows_deduped;
  if (source_->ddl_epoch() != ddl_epoch_at_open) {
    // Concurrent DDL straddled the window: selected and repair-read images
    // mix column arities, so the chunk cannot ship as one batch. Leave the
    // cursor where it is and re-run the chunk next round under the settled
    // schema — the same inconclusive-and-retry discipline the scrubber
    // uses.
    OPDELTA_LOG(kInfo) << "backfill chunk " << stats_.chunks_done + 1
                       << " of " << table_
                       << " straddled a schema change; retrying";
    return Status::OK();
  }

  const extract::DeltaBatch batch = window_.ToBatch(&chunk);
  if (!batch.records.empty()) {
    OPDELTA_RETURN_IF_ERROR(leg_->ShipSnapshot(batch));
  }

  // A crash between the durable ship above and the ledger write below
  // re-runs this chunk under a fresh identity; the warehouse absorbs the
  // duplicate upserts idempotently.
  ++stats_.chunks_done;
  stats_.rows_backfilled += batch.records.size();
  stats_.chunks_total = std::max(stats_.chunks_total, stats_.chunks_done);
  if (!chunk.rows.empty()) {
    have_cursor_ = true;
    cursor_ = chunk.rows.back().key;
  }
  if (chunk.more) {
    return ledger_.Put(table_, CursorLedger::kCursor, stats_.chunks_done,
                       cursor_, stats_.rows_backfilled);
  }

  OPDELTA_RETURN_IF_ERROR(ledger_.Put(table_, kDoneKind, stats_.chunks_done,
                                      cursor_, stats_.rows_backfilled));
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
  OPDELTA_RETURN_IF_ERROR(Resume(CursorLedger::Mark(), /*done=*/false));
  OPDELTA_LOG(kInfo) << "backfill of " << table_
                     << " restarted after schema migration ("
                     << stats_.chunks_total << " chunks estimated)";
  return Status::OK();
}

}  // namespace opdelta::backfill
