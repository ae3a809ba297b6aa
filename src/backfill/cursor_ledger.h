#ifndef OPDELTA_BACKFILL_CURSOR_LEDGER_H_
#define OPDELTA_BACKFILL_CURSOR_LEDGER_H_

#include <string>

#include "common/status.h"
#include "engine/database.h"

namespace opdelta::backfill {

/// Durable progress of a chunk walk, stored *in the source database* so the
/// cursor survives anything the transport's work_dir does not. A table of
/// rows
///   (tbl TEXT, kind TEXT, <step> INT, cursor INT, <count> INT)
/// holding, per walked table, one 'C' (kCursor) row — the next chunk
/// selects keys strictly above `cursor` — and one row of the walker's
/// terminal kind. Two layouts, one per walker:
///   kBackfill (`__backfill_chunks`, step = chunk, count = rows): 'C' says
///     chunks [1, chunk] are shipped through `cursor`, `rows` rows in all;
///     'D' says the backfill completed after `chunk` chunks.
///   kScrub (`__scrub_cursor`, step = pass, count = chunks): 'C' says
///     `chunks` chunks of pass `pass` are verified through `cursor`; 'P'
///     says pass `pass` covered the whole key space in `chunks` chunks.
///
/// Put rewrites its (tbl, kind) row in place, so the heap stays one page
/// however long the walk runs. The worst a crash can do is lose the latest
/// write, which re-runs one chunk — idempotent for both walkers. Get takes
/// the newest row by (step, count) — cursors are keys and may be negative
/// — so a table holding several rows per (tbl, kind) (written by an
/// append-only build) reads unchanged and collapses on its first write.
class CursorLedger {
 public:
  struct Layout {
    const char* table;
    const char* step;  // column names, as the tables were created
    const char* count;
  };
  static constexpr Layout kBackfill{"__backfill_chunks", "chunk", "rows"};
  static constexpr Layout kScrub{"__scrub_cursor", "pass", "chunks"};
  static constexpr char kCursor[] = "C";

  struct Mark {
    bool exists = false;
    uint64_t step = 0;
    int64_t cursor = 0;
    uint64_t count = 0;
  };

  CursorLedger(engine::Database* source, Layout layout)
      : db_(source), layout_(layout) {}

  /// Creates the ledger table if missing. Idempotent.
  Status Setup();

  /// The newest `kind` row of `tbl`; exists=false when there is none.
  Result<Mark> Get(const std::string& tbl, const char* kind);

  /// Replaces `tbl`'s `kind` row in its own transaction.
  Status Put(const std::string& tbl, const char* kind, uint64_t step,
             int64_t cursor, uint64_t count);

  /// Deletes every row of `tbl` in one transaction, so the walk restarts.
  Status Reset(const std::string& tbl);

  const char* table() const { return layout_.table; }

 private:
  engine::Database* db_;
  Layout layout_;
};

}  // namespace opdelta::backfill

#endif  // OPDELTA_BACKFILL_CURSOR_LEDGER_H_
