#ifndef OPDELTA_BACKFILL_CHUNK_WINDOW_H_
#define OPDELTA_BACKFILL_CHUNK_WINDOW_H_

#include <optional>
#include <set>
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

/// The rows with an INT64 key in (lo, hi]. An unset `lo` reads as
/// INT64_MIN, so a B+tree index on the key always yields the range, in key
/// order; an unset `hi` leaves the range open above.
engine::Predicate KeyRange(const std::string& key, std::optional<int64_t> lo,
                           std::optional<int64_t> hi);

/// The DBLog watermark-bracketed chunk read, shared by the online
/// backfiller (bootstrap) and the anti-entropy scrubber (verify/repair).
/// Read mints a window id, reads the range committed, writes the window's
/// high signal and drains the leg until the window closes. Every event the
/// drain ships, whether it committed before the read or during it, is
/// checked against the chunk and reaches the warehouse before anything
/// derived from the chunk, which is what makes the chunk safe to ship
/// (backfill) or compare (scrub) against live traffic.
///
/// Window ids are monotone per process and taken from the wall clock, so
/// no two windows — a retried chunk's, or a previous incarnation's whose
/// signal rows are still in flight — share one: a stale high signal never
/// closes a newer window.
///
/// Threading: like Backfiller::Step, all calls must be serialized with the
/// leg's producer side.
class ChunkWindow {
 public:
  /// The watermark-signal table, in the source database and, for op-delta
  /// sources, the warehouse (the captured signal rows replay there).
  static constexpr char kSignalTable[] = "__backfill_signal";

  /// How Read closes its window.
  enum class Mode {
    /// Backfill: chunk rows touched by in-window events are re-read
    /// committed-by-key after the window closes, so the chunk carries the
    /// post-delta image ("the delta wins").
    kRepair,
    /// Scrub repair: kRepair, plus keys that in-window events touched
    /// inside (lo, hi] but the chunk never selected are appended as rows
    /// and resolved the same way, so a key inserted mid-repair is never on
    /// the repair's delete list.
    kRepairRange,
    /// Scrub verify: no repair reads. `touched` reports whether *any*
    /// in-window event touched the table. Conservative by design: a
    /// touched window makes the chunk inconclusive-and-retried, never a
    /// false positive.
    kDetect,
  };

  struct Chunk {
    std::vector<WindowRow> rows;  // selected rows in key order, then any
                                  // kRepairRange appended
    bool more = false;            // the selection stopped at `limit` rows
    bool touched = false;         // kDetect: not a verdict (see Mode)
    uint64_t rows_deduped = 0;    // rows whose repair read replaced them
  };

  /// `leg` must outlive the window and pass CheckWalk. The signal kind is
  /// `kind_prefix` + "high": concurrent users of the signal table
  /// (backfill and scrub) use distinct prefixes so neither closes the
  /// other's window.
  ChunkWindow(pipeline::SourceLeg* leg, const std::string& kind_prefix);

  /// What a chunk walk over `leg`'s source table needs: a leg, a positive
  /// chunk size, and a table other than the signal table whose key column
  /// (first, by convention) is INT64.
  static Status CheckWalk(pipeline::SourceLeg* leg, uint64_t chunk_rows);

  /// Creates the signal table (sig INT64, kind STRING, tbl STRING) if
  /// missing. Idempotent. Call on the warehouse too for op-delta sources.
  /// No timestamp column, so auto-stamping never rewrites a signal row.
  static Status EnsureSignalTable(engine::Database* db);

  /// Reads the committed rows with key in (lo, hi], smallest first, at
  /// most `limit` (0 = unlimited), through one watermark window closed in
  /// `mode`. The table schema is re-resolved first, so a chunk is never
  /// read under a shape DDL has replaced.
  Status Read(std::optional<int64_t> lo, std::optional<int64_t> hi,
              uint64_t limit, Mode mode, Chunk* chunk);

  /// The snapshot batch shipping `chunk`: an upsert of each present row's
  /// image (moved out), then a key-only delete of each `stale` key that no
  /// chunk row carries.
  extract::DeltaBatch ToBatch(Chunk* chunk,
                              const std::set<int64_t>& stale = {}) const;

  /// Deletes this table's signal rows under this window's prefix (captured
  /// for op-delta, so replay cleans the warehouse copy too).
  Status CleanupSignals();

  /// The row's INT64 key; nullopt for a row outside the chunk protocol.
  std::optional<int64_t> KeyOf(const catalog::Row& row) const;

  const catalog::Schema& schema() const { return schema_; }
  const std::string& key_name() const {
    return schema_.column(static_cast<size_t>(key_col_)).name;
  }

 private:
  catalog::Row SignalRow(uint64_t id) const;
  Status WriteSignal(uint64_t id);
  /// Selects the rows: a latch-only candidate pass, then committed reads
  /// under row S locks in one transaction, aborted on any error. Rows
  /// that vanish between the passes come back as needs_repair.
  Status Select(std::optional<int64_t> lo, std::optional<int64_t> hi,
                uint64_t limit, Chunk* chunk);
  /// Drains the leg until window `id` closes, repairing as `mode` asks.
  Status Close(uint64_t id, Mode mode, std::optional<int64_t> lo,
               std::optional<int64_t> hi, Chunk* chunk);
  /// Inspects one shipped message: marks touched rows / collects range
  /// keys (kRepair*) or detects any table touch (kDetect); reports whether
  /// window `id`'s high signal was observed.
  Status Inspect(const std::string& message, uint64_t id, Mode mode,
                 std::optional<int64_t> lo, std::optional<int64_t> hi,
                 Chunk* chunk, bool* saw_high);
  /// Re-reads every needs_repair row committed-by-key; absent rows drop.
  Status RepairRows(Chunk* chunk);
  /// The committed read both passes share: the image at `rid` under a row
  /// S lock held by `txn`, kept when it still carries `row->key`.
  Status ReadKeyAt(txn::Transaction* txn, const storage::Rid& rid,
                   WindowRow* row);
  /// The committed state of `row->key` right now.
  Status ReadByKey(txn::Transaction* txn, WindowRow* row);

  pipeline::SourceLeg* leg_;
  engine::Database* source_;
  std::string kind_prefix_;
  std::string table_;
  catalog::Schema schema_;
  int key_col_ = 0;
  bool key_indexed_ = false;  // the select walks a B+tree in key order
  uint64_t last_window_id_ = 0;
  // Drained op-delta statements repeat a few shapes; cache the parse.
  sql::StatementCache stmt_cache_;
};

}  // namespace opdelta::backfill

#endif  // OPDELTA_BACKFILL_CHUNK_WINDOW_H_
