#ifndef OPDELTA_EXTRACT_LOG_EXTRACTOR_H_
#define OPDELTA_EXTRACT_LOG_EXTRACTOR_H_

#include <optional>
#include <string>

#include "common/status.h"
#include "extract/delta.h"
#include "txn/wal.h"

namespace opdelta::extract {

/// Archive-log based ("value log") delta extraction (paper §3 method 4,
/// §3.1.4). Reads the source database's archived redo segments and decodes
/// committed DML into value deltas — zero overhead on source transactions,
/// because "redo logs are being captured anyway".
///
/// Records are physiological (rid + schema-encoded images), so decoding
/// requires the *exact* source schema — a schema mismatch is detected as
/// corruption, mirroring "log based techniques depend on the schema of the
/// source and the destination to match exactly". The log is read as a
/// change stream for one downstream applier (warehouse::ApplyNetChanges),
/// not replayed as redo.
class LogExtractor {
 public:
  /// `wal_dir` is the source database's WAL/archive directory
  /// (db->wal()->dir()).
  explicit LogExtractor(std::string wal_dir) : wal_dir_(std::move(wal_dir)) {}

  /// Extracts the deltas of every transaction on `table_id` whose commit
  /// record has LSN > `watermark`, in log order. `schema` must be the exact
  /// source schema. Updates *new_watermark to the highest LSN seen
  /// (committed or not); a transaction still open then ships with the
  /// extraction that first sees its commit.
  ///
  /// Reads the log once, buffering each open transaction's records on the
  /// table until its commit or abort. The instance remembers where the
  /// next call can resume: the first record on the table of the oldest
  /// transaction still open when the read ended, or the end of the read if
  /// none was. A later call resumes there only when handed back the
  /// watermark this instance returned, for the same table; any other call
  /// (a restart, a rewind, another table) reads from the start of the log,
  /// and so does a call after the resume segment was recycled. Either way
  /// the batch is the one a fresh instance would return. The resume point
  /// lives in memory only: the watermark stays the sole durable state.
  /// Calls on one instance must not run concurrently.
  Result<DeltaBatch> ExtractSince(txn::Lsn watermark,
                                  catalog::TableId table_id,
                                  const std::string& table_name,
                                  const catalog::Schema& schema,
                                  txn::Lsn* new_watermark);

 private:
  /// Where a call handed back `watermark` for `table_id` resumes.
  struct Cursor {
    catalog::TableId table_id = 0;
    txn::Lsn watermark = 0;
    txn::WalPosition resume;
  };

  std::string wal_dir_;
  std::optional<Cursor> cursor_;
};

}  // namespace opdelta::extract

#endif  // OPDELTA_EXTRACT_LOG_EXTRACTOR_H_
