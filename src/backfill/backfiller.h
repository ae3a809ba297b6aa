#ifndef OPDELTA_BACKFILL_BACKFILLER_H_
#define OPDELTA_BACKFILL_BACKFILLER_H_

#include <memory>
#include <string>
#include <vector>

#include "backfill/chunk_ledger.h"
#include "backfill/chunk_window.h"
#include "common/status.h"
#include "engine/database.h"
#include "pipeline/source_leg.h"

namespace opdelta::backfill {

struct BackfillOptions {
  /// Rows per snapshot chunk (one Step ships one chunk).
  uint64_t chunk_rows = 256;
};

struct BackfillStats {
  uint64_t chunks_done = 0;
  uint64_t chunks_total = 0;    // estimate; exact once done
  uint64_t rows_backfilled = 0; // rows shipped in snapshot chunks
  uint64_t rows_deduped = 0;    // chunk rows the in-window delta won over
  bool done = false;
};

/// DBLog-style online backfill: bootstraps a warehouse table from a live
/// source in primary-key-ordered chunks *while capture keeps running* — no
/// table lock, no capture outage. Each Step() ships one chunk through a
/// watermark-bracketed window (see ChunkWindow, the shared primitive):
///
///   1. open the window (low-watermark signal row);
///   2. select the next chunk_rows committed row images above the cursor;
///   3. close the window in repair mode: drain capture through the leg
///      until the high watermark ships — everything shipped here reaches
///      the warehouse before the chunk — and re-read rows the in-window
///      delta touched ("the delta wins");
///   4. ship the chunk as a snapshot-marked batch ('C' frame) through the
///      leg's durable queue, stamped from the same (epoch, seq) sequence
///      as live batches, applied idempotently as net-change upserts;
///   5. advance the ChunkLedger cursor (MarkDone on the last chunk).
///
/// Crash anywhere re-runs the current chunk from the durable cursor; the
/// warehouse absorbs the re-shipped chunk idempotently.
///
/// Threading: Step must be serialized with the leg's producer side (the
/// hub runs it on the group's round task). Concurrent writers using the
/// source — including the op-delta capture wrapper — need no coordination.
class Backfiller {
 public:
  /// `leg` must outlive the backfiller and already be Created for the
  /// table to backfill; the source table's key column (first column, by
  /// convention) must be INT64.
  static Result<std::unique_ptr<Backfiller>> Create(pipeline::SourceLeg* leg,
                                                    BackfillOptions options);

  /// Creates signal + ledger tables in the source database, loads the
  /// durable cursor. Call after the leg's Setup. Idempotent.
  Status Setup();

  /// Ships the next chunk (steps 1-5 above). No-op once done. `*done`
  /// reports completion. Safe to retry after an error: the chunk re-runs
  /// from the durable cursor.
  Status Step(bool* done = nullptr);

  /// Restarts the backfill from the beginning: resets the durable ledger
  /// and the in-memory cursor so the table re-ships chunk by chunk. The hub
  /// calls this after applying a source schema migration to the warehouse —
  /// added columns hold their defaults there until the re-shipped snapshot
  /// chunks carry the live values over. Idempotent with respect to crashes:
  /// the ledger reset is one transaction, and a re-run before any new
  /// cursor row simply starts from scratch again.
  Status Restart();

  const BackfillStats& stats() const { return stats_; }
  const BackfillOptions& options() const { return options_; }

 private:
  Backfiller(pipeline::SourceLeg* leg, BackfillOptions options);

  pipeline::SourceLeg* leg_;
  engine::Database* source_;
  BackfillOptions options_;
  std::string table_;       // source table being backfilled
  ChunkWindow window_;
  ChunkLedger ledger_;
  bool setup_done_ = false;

  bool have_cursor_ = false;
  int64_t cursor_ = 0;      // last shipped key; next chunk selects above it
  BackfillStats stats_;
};

}  // namespace opdelta::backfill

#endif  // OPDELTA_BACKFILL_BACKFILLER_H_
