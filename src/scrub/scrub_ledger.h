#ifndef OPDELTA_SCRUB_SCRUB_LEDGER_H_
#define OPDELTA_SCRUB_SCRUB_LEDGER_H_

#include <string>

#include "common/status.h"
#include "engine/database.h"

namespace opdelta::scrub {

/// Durable record of scrub progress, stored *in the source database* like
/// backfill::ChunkLedger: a table (`__scrub_cursor`) of rows
///   (tbl TEXT, kind TEXT, pass INT, cursor INT, chunks INT)
/// with two row kinds:
///   'C' — cursor: `chunks` chunks of pass `pass` over `tbl` are verified;
///         the next chunk selects keys strictly above `cursor`.
///   'P' — pass complete: pass `pass` covered the whole key space in
///         `chunks` chunks. The next pass restarts from the smallest key.
///
/// Each write replaces the table's row of its kind in one transaction, so
/// the ledger holds at most one row per (tbl, kind); the worst a crash can
/// do is lose the latest write — re-verifying one chunk, which is
/// idempotent by construction. Get reads the newest 'P' row by pass and
/// the newest 'C' row by (pass, chunks) (cursors are keys and may be
/// negative, so the chunk count is the recency order), so a table holding
/// several rows per key (written by an append-only build) reads unchanged
/// and collapses on its first write.
class ScrubLedger {
 public:
  static constexpr char kTable[] = "__scrub_cursor";

  explicit ScrubLedger(engine::Database* source) : db_(source) {}

  static catalog::Schema TableSchema();

  /// Creates the ledger table if missing. Idempotent.
  Status Setup();

  struct Progress {
    uint64_t passes_complete = 0;  // newest 'P' pass number (0 = none)
    uint64_t pass = 1;             // pass to run (or resume) next
    bool have_cursor = false;      // resume mid-pass above `cursor`
    int64_t cursor = 0;
    uint64_t chunks = 0;           // chunks verified in the resumed pass
  };
  Result<Progress> Get(const std::string& table);

  /// Replaces the cursor row in its own transaction: `chunks` chunks of
  /// `pass` are verified through key `cursor`. Progress only moves
  /// forward: (pass, chunks) exceeds every earlier write's.
  Status Advance(const std::string& table, uint64_t pass, int64_t cursor,
                 uint64_t chunks);

  /// Replaces the pass-complete 'P' row with one for `pass`.
  Status MarkPass(const std::string& table, uint64_t pass, uint64_t chunks);

 private:
  Status Put(const std::string& table, const char* kind, uint64_t pass,
             int64_t cursor, uint64_t chunks);

  engine::Database* db_;
};

}  // namespace opdelta::scrub

#endif  // OPDELTA_SCRUB_SCRUB_LEDGER_H_
