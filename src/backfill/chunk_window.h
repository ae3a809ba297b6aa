#ifndef OPDELTA_BACKFILL_CHUNK_WINDOW_H_
#define OPDELTA_BACKFILL_CHUNK_WINDOW_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "pipeline/source_leg.h"
#include "sql/statement_cache.h"

namespace opdelta::backfill {

/// One selected committed row of a watermark-bracketed chunk.
struct WindowRow {
  int64_t key = 0;
  catalog::Row image;
  bool present = false;       // has a committed image
  bool needs_repair = false;  // in-window delta touched it; re-read by key
  bool deduped = false;       // already counted toward rows_deduped
};

/// The DBLog watermark-bracketed chunk primitive, shared by the online
/// backfiller (bootstrap) and the anti-entropy scrubber (verify/repair):
/// low signal → committed range read → high signal → drain the leg until
/// the window closes. Everything the drain ships reaches the warehouse
/// before anything derived from the chunk, which is what makes the chunk
/// safe to ship (backfill) or compare (scrub) against live traffic.
///
/// Two close modes:
///  - kRepair (backfill semantics): chunk rows touched by in-window events
///    are re-read committed-by-key after the window closes, so the shipped
///    chunk always carries the post-delta image ("the delta wins"). With a
///    collect range, in-window events on keys inside the range but absent
///    from the chunk are appended as rows and resolved the same way — the
///    scrubber needs this so a key inserted mid-repair is never on its
///    delete list.
///  - kDetect (scrub verify semantics): no repair reads. The outcome just
///    reports whether *any* in-window event touched the table (counting
///    only events at or after this window's low signal when the stream
///    carries markers). Conservative by design: a touched window makes the
///    chunk inconclusive-and-retried, never a false positive.
///
/// Threading: like Backfiller::Step, all calls must be serialized with the
/// leg's producer side.
class ChunkWindow {
 public:
  /// The watermark-signal table, in the source database and, for op-delta
  /// sources, the warehouse (the captured signal rows replay there).
  static constexpr char kSignalTable[] = "__backfill_signal";

  struct Options {
    /// Signal-row kinds. Concurrent users of the signal table (backfill
    /// and scrub) use distinct kinds so neither closes the other's window.
    std::string low_kind = "low";
    std::string high_kind = "high";
  };

  enum class CloseMode { kRepair, kDetect };

  struct CloseOutcome {
    bool touched = false;        // any in-window event touched the chunk
    uint64_t rows_deduped = 0;   // rows whose repair read replaced the image
  };

  /// `leg` must outlive the window and be Created for the table; the key
  /// column (first column, by convention) must be INT64 — callers validate.
  ChunkWindow(pipeline::SourceLeg* leg, Options options);

  /// (sig INT64, kind STRING, tbl STRING) — no timestamp column, so the
  /// engine's auto-stamping never rewrites a signal row.
  static catalog::Schema SignalTableSchema();

  /// Creates the signal table if missing. Idempotent. Call on the
  /// warehouse too for op-delta sources (captured signal inserts replay
  /// there).
  static Status EnsureSignalTable(engine::Database* db);

  /// Writes the low-watermark signal row for window `id`.
  Status Open(uint64_t id);

  /// Selects the committed rows with key > lo (when set), key <= hi (when
  /// set), smallest first, at most `limit` (0 = unlimited): a latch-only
  /// candidate pass, then per-row committed reads under row S locks in one
  /// transaction, aborted on any error. `*more` reports a truncated
  /// selection. Rows that vanish between the passes come back as
  /// needs_repair and are resolved by Close.
  Status ReadRange(std::optional<int64_t> lo, std::optional<int64_t> hi,
                   uint64_t limit, std::vector<WindowRow>* rows, bool* more);

  /// Writes the high-watermark signal for `id` and drains the leg until
  /// the window closes (the high marker ships for op-delta; extraction
  /// runs dry for value-delta). With `collect` set (kRepair only),
  /// in-window events on keys inside (collect_lo, collect_hi] that are
  /// absent from `rows` are appended as needs_repair rows and resolved
  /// with the rest.
  Status Close(uint64_t id, CloseMode mode, bool collect,
               std::optional<int64_t> collect_lo,
               std::optional<int64_t> collect_hi,
               std::vector<WindowRow>* rows, CloseOutcome* outcome);

  /// Deletes this table's signal rows (captured for op-delta, so replay
  /// cleans the warehouse copy too).
  Status CleanupSignals();

  /// Committed state of `key` right now; *found=false when no committed
  /// row carries it. Locks stay with `txn`.
  Status ReadCommittedByKey(txn::Transaction* txn, int64_t key,
                            catalog::Row* row, bool* found);

  const std::string& table() const { return table_; }
  const catalog::Schema& schema() const { return schema_; }
  int key_col() const { return key_col_; }

 private:
  Status WriteSignal(uint64_t id, const std::string& kind);
  /// Inspects one shipped message: marks touched rows / collects range
  /// keys (kRepair) or detects any table touch past the low marker
  /// (kDetect); reports whether window `id`'s high signal was observed.
  Status InspectShipped(const std::string& message, uint64_t id,
                        CloseMode mode, bool collect,
                        std::optional<int64_t> collect_lo,
                        std::optional<int64_t> collect_hi,
                        std::vector<WindowRow>* rows, bool* saw_low,
                        bool* saw_high, bool* touched);
  /// Re-reads every needs_repair row committed-by-key; absent rows drop.
  Status RepairRows(std::vector<WindowRow>* rows, CloseOutcome* outcome);

  bool KeyInRange(int64_t key, std::optional<int64_t> lo,
                  std::optional<int64_t> hi) const {
    return (!lo.has_value() || key > *lo) && (!hi.has_value() || key <= *hi);
  }

  pipeline::SourceLeg* leg_;
  engine::Database* source_;
  Options options_;
  std::string table_;
  catalog::Schema schema_;
  int key_col_ = 0;
  // Drained op-delta statements repeat a few shapes; cache the parse.
  sql::StatementCache stmt_cache_;
};

}  // namespace opdelta::backfill

#endif  // OPDELTA_BACKFILL_CHUNK_WINDOW_H_
