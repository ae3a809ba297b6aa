#ifndef OPDELTA_SCRUB_SCRUBBER_H_
#define OPDELTA_SCRUB_SCRUBBER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "backfill/chunk_window.h"
#include "backfill/cursor_ledger.h"
#include "common/status.h"
#include "engine/database.h"
#include "pipeline/source_leg.h"

namespace opdelta::scrub {

struct ScrubOptions {
  /// Rows per verified chunk (one Step verifies one chunk).
  uint64_t chunk_rows = 256;

  /// Repair confirmed mismatches by re-shipping the chunk as a snapshot
  /// frame. false = report-only: mismatches are counted and skipped.
  bool repair = true;
};

struct ScrubStats {
  uint64_t chunks_scrubbed = 0;      // chunks that verified clean
  uint64_t chunks_mismatched = 0;    // confirmed digest mismatches
  uint64_t chunks_repaired = 0;      // mismatched chunks re-shipped
  uint64_t chunks_inconclusive = 0;  // windows touched by live deltas; retried
  uint64_t rows_repaired = 0;        // upserts + deletes shipped by repairs
  uint64_t passes = 0;               // completed full-table passes
};

/// Online anti-entropy scrubber: continuously walks a mirrored table in
/// PK-ordered chunks and proves — without stopping capture or taking a
/// table lock — that source and warehouse agree, repairing them when they
/// do not (bit rot, dead-lettered batches, operator damage).
///
/// Each Step() verifies one chunk:
///
///   1. read the chunk's committed rows on the source through a watermark
///      window (ChunkWindow::Read, the read backfill uses);
///   2. the window closes in *detect* mode: capture drains until the high
///      marker ships. Any in-window event on the table makes the chunk
///      INCONCLUSIVE — it is retried next round, never reported. A clean
///      window proves the chunk equals the source's state at the high
///      watermark;
///   3. drain the shipped backlog into the warehouse (the caller-supplied
///      drain callback), so the warehouse is at-or-after that watermark
///      with nothing of this table in flight;
///   4. digest both sides over the same key range — an order-insensitive
///      row digest (common/digest.h) that skips the auto-maintained
///      timestamp column, which the warehouse legitimately re-stamps —
///      and compare;
///   5. on mismatch, repair: re-read the chunk through a fresh *repair*
///      window (collecting keys events touched mid-window), ship it as a
///      snapshot 'C' frame — upserts for every fresh source row, deletes
///      for warehouse-only keys — through the leg's durable queue and the
///      exactly-once ledger path, then drain again. Idempotent and
///      crash-safe for the same reason backfill chunks are.
///
/// The cursor persists in a CursorLedger (source database); a completed
/// pass wraps to the smallest key, so scrubbing runs forever in bounded
/// space. A chunk repaired kEscalateAfter (3) times without an intervening
/// clean verify escalates to an error so the hub can quarantine the source.
///
/// The digest compare is sound for op-delta and trigger sources (every
/// committed change ships, so an untouched window pins both sides).
/// Timestamp sources cannot ship deletes at all — there the scrubber is
/// the mechanism that *finds* them, and repair converges the warehouse
/// even though detect mode cannot see the delete happen.
///
/// Threading: Step must be serialized with the leg's producer side, and
/// the drain callback must leave the leg's consumer side idle on return.
class Scrubber {
 public:
  /// Applies everything already shipped (the leg's backlog) to the
  /// warehouse — without extracting new source changes — and returns once
  /// nothing is in flight. The hub passes its group drain; standalone
  /// callers loop PeekShipped/Integrate/AckShipped.
  using DrainFn = std::function<Status()>;

  /// `leg` and `warehouse` must outlive the scrubber; the leg must be
  /// Created for the table and the warehouse table must share its schema
  /// (with an INT64 key column, first by convention).
  static Result<std::unique_ptr<Scrubber>> Create(pipeline::SourceLeg* leg,
                                                  engine::Database* warehouse,
                                                  DrainFn drain,
                                                  ScrubOptions options);

  /// Creates signal + ledger tables, loads the durable cursor. Call after
  /// the leg's Setup. Idempotent.
  Status Setup();

  /// Verifies (and, when enabled, repairs) the next chunk. An
  /// inconclusive chunk returns OK without advancing the cursor; it is
  /// retried by the next Step.
  Status Step();

  /// True when the last Step completed a full pass over the table.
  bool pass_just_completed() const { return pass_just_completed_; }

  const ScrubStats& stats() const { return stats_; }
  const ScrubOptions& options() const { return options_; }

 private:
  Scrubber(pipeline::SourceLeg* leg, engine::Database* warehouse,
           DrainFn drain, ScrubOptions options);

  /// Re-reads (lo, hi] through a repair window and ships it as a snapshot
  /// frame: upserts for fresh source rows, deletes for `wh_keys` no fresh
  /// row covers.
  Status RepairChunk(std::optional<int64_t> lo, std::optional<int64_t> hi,
                     const std::set<int64_t>& wh_keys);

  /// Advances the durable cursor past the verified chunk; wraps the pass
  /// when the chunk reached the end of the table.
  Status AdvanceCursor(const backfill::ChunkWindow::Chunk& chunk);

  pipeline::SourceLeg* leg_;
  engine::Database* source_;
  engine::Database* warehouse_;
  DrainFn drain_;
  ScrubOptions options_;
  std::string table_;     // source table
  std::string wh_table_;  // warehouse mirror
  backfill::ChunkWindow window_;
  backfill::CursorLedger ledger_;
  bool setup_done_ = false;

  uint64_t pass_ = 1;
  bool have_cursor_ = false;
  int64_t cursor_ = 0;
  uint64_t chunks_this_pass_ = 0;
  bool pass_just_completed_ = false;

  /// Consecutive repairs per chunk (keyed by the chunk's lower bound),
  /// erased by a clean verify. Chunk boundaries drift as rows come and
  /// go, so the key is approximate — good enough to catch a chunk that
  /// repair cannot converge (e.g. undecodable corruption).
  std::map<int64_t, int> repair_streak_;

  ScrubStats stats_;
};

}  // namespace opdelta::scrub

#endif  // OPDELTA_SCRUB_SCRUBBER_H_
