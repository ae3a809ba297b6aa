#ifndef OPDELTA_BACKFILL_CHUNK_LEDGER_H_
#define OPDELTA_BACKFILL_CHUNK_LEDGER_H_

#include <string>

#include "common/status.h"
#include "engine/database.h"

namespace opdelta::backfill {

/// Durable record of backfill progress, stored *in the source database* so
/// the cursor survives anything the transport's work_dir does not. A table
/// (`__backfill_chunks`) of rows
///   (tbl TEXT, kind TEXT, chunk INT, cursor INT, rows INT)
/// with two row kinds:
///   'C' — cursor: chunks [1, chunk] of `tbl` are durably shipped; the next
///         chunk selects keys strictly above `cursor`; `rows` is the
///         cumulative shipped-row count (stats only).
///   'D' — done: the backfill of `tbl` completed after `chunk` chunks.
///
/// Each write replaces the table's row of its kind in one transaction, so
/// the ledger holds at most one row per (tbl, kind). The worst a crash can
/// do is lose the latest write, re-shipping one chunk — which the warehouse
/// absorbs idempotently (snapshot chunks apply as net-change upserts under
/// a ledger-deduped identity). Get reads the row with the largest chunk
/// number, so a table holding several rows per key (written by an
/// append-only build) reads unchanged and collapses on its first write.
class ChunkLedger {
 public:
  static constexpr char kTable[] = "__backfill_chunks";

  explicit ChunkLedger(engine::Database* source) : db_(source) {}

  static catalog::Schema TableSchema();

  /// Creates the ledger table if missing. Idempotent.
  Status Setup();

  struct Progress {
    bool exists = false;      // any row for the table
    bool done = false;        // a 'D' row exists
    uint64_t chunks_done = 0;
    int64_t cursor = 0;       // last shipped key; meaningful when exists
    uint64_t rows_shipped = 0;
  };
  Result<Progress> Get(const std::string& table);

  /// Replaces the cursor row in its own transaction: chunks [1, chunk] of
  /// `table` are shipped through key `cursor`, `rows_shipped` rows total.
  /// Progress only moves forward: `chunk` exceeds every earlier write's.
  Status Advance(const std::string& table, uint64_t chunk, int64_t cursor,
                 uint64_t rows_shipped);

  /// Writes the terminal 'D' row.
  Status MarkDone(const std::string& table, uint64_t chunk,
                  uint64_t rows_shipped);

  /// Deletes every row of `table` (cursor and done alike) in one
  /// transaction, so the next Get() reports a fresh start. Used when a
  /// warehouse schema migration restarts the backfill to populate added
  /// columns.
  Status Reset(const std::string& table);

 private:
  Status Put(const std::string& table, const char* kind, uint64_t chunk,
             int64_t cursor, uint64_t rows_shipped);

  engine::Database* db_;
};

}  // namespace opdelta::backfill

#endif  // OPDELTA_BACKFILL_CHUNK_LEDGER_H_
