#ifndef OPDELTA_TXN_WAL_H_
#define OPDELTA_TXN_WAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/record_log.h"
#include "common/status.h"
#include "common/sync.h"
#include "txn/log_record.h"

namespace opdelta::txn {

struct WalOptions {
  /// Segment rollover threshold in bytes.
  uint64_t segment_size = 4 << 20;

  /// Archive mode (paper §3, method 4): when true, closed segments are
  /// retained ("redo logs are not recycled at checkpoint time") so the
  /// LogExtractor can read deltas from them. When false, Checkpoint()
  /// deletes closed segments like a recycling redo log.
  bool archive_mode = true;

  /// fdatasync on every Sync() call (commits); off by default so benchmark
  /// ratios reflect CPU+pagecache costs, as in the paper's warm runs.
  bool sync_on_commit = false;
};

/// A place in the log as a common::RecordPosition gives it, with
/// `prev_lsn` the LSN of the frame just before it (0 when none precedes it).
struct WalPosition {
  uint64_t segment = 0;
  uint64_t offset = 0;
  Lsn prev_lsn = 0;
};

/// Segmented write-ahead redo log: a common::RecordLog of segments
/// `wal-000001.log`, ... holding encoded LogRecords. The record log frames,
/// buffers, repairs and reads; the WAL adds dense LSNs, the record codec,
/// abort records for transactions a crash left open, and the take-back of
/// a failed commit. Thread-safe appends.
///
/// Appended records reach the active segment in one write at a flush
/// point: AppendCommit, Flush, Sync and Close, a tail that has grown to its
/// fixed capacity, and a segment roll. So a record is readable (ReadFrom)
/// once the first flush point after its Append has returned, and the
/// readable log is always a prefix of the appended one. A failed write, or
/// under sync_on_commit a failed fdatasync, keeps the records in the tail
/// and is cut back before the next write; while that cut fails (a dead
/// disk), Append and every flush point return its error, and the log
/// resumes by itself once the disk heals. LSNs stay dense and the log
/// always reopens.
class Wal {
 public:
  Wal() = default;
  ~Wal();  // best-effort Close

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens (or creates) the log in `dir`. Existing segments are kept and
  /// appends continue in a fresh segment. A torn frame at the end of the
  /// newest segment is truncated away first, so that segment reads back
  /// cleanly once it is no longer the newest. A transaction with a kBegin
  /// record but neither a commit nor an abort (one a crash cut off) gets an
  /// abort record, written before Open returns.
  Status Open(const std::string& dir, const WalOptions& options);
  /// Writes the tail and closes the active segment (no fdatasync).
  Status Close();

  /// Appends the record to the tail, assigning record.lsn, and writes the
  /// tail when it is full or the segment must roll. On error the caller's
  /// transaction must abort: either the segment awaits a repair that failed
  /// again and the record is not logged, or that write failed and the
  /// record stays in the tail for the next flush point.
  Status Append(LogRecord* record);

  /// Appends a transaction's commit record, writes the tail and syncs per
  /// options.sync_on_commit, under one hold of the log mutex. On error the
  /// commit record is not logged: its frame leaves the tail and its LSN is
  /// handed back, and the caller aborts. The frames before it stay in the
  /// tail for the next flush point.
  Status AppendCommit(LogRecord* record);

  /// Writes the tail: every appended record becomes readable.
  Status Flush();

  /// Writes the tail and makes the log durable per options.sync_on_commit.
  Status Sync();

  /// Checkpoint: in archive mode only records the checkpoint LSN; otherwise
  /// deletes all closed segments.
  Status Checkpoint();

  /// Total bytes appended since Open, counted when a frame enters the tail
  /// (delta-volume metric for benches).
  uint64_t bytes_appended() const { return bytes_appended_.load(); }
  Lsn last_lsn() const { return next_lsn_.load() - 1; }
  /// Largest transaction id seen in pre-existing segments at Open time.
  /// Reopened databases must continue the id sequence past it, or an old
  /// txn's commit record would vouch for an unrelated new txn's redo.
  TxnId max_txn_id_at_open() const { return max_txn_id_at_open_; }
  const std::string& dir() const { return dir_; }

  /// Lists segment file paths in LSN order (closed + active).
  Status ListSegments(std::vector<std::string>* paths) const;

  /// Replays every record in every segment in order. The visitor returns
  /// false to stop early.
  static Status ReadAll(const std::string& dir,
                        const std::function<bool(const LogRecord&)>& visitor);

  using PositionedVisitor =
      std::function<bool(LogRecord&, const WalPosition& at)>;

  /// Reads the records from `from` to the end of the log in order, as
  /// common::RecordLog::Read reads frames, handing each to the visitor with
  /// the position its frame starts at; the visitor returns false to stop
  /// early, and may move from the record. On OK, *end (if non-null) is
  /// where a later read continues.
  /// A position below the first remaining segment (the default position, or
  /// a segment recycled by Checkpoint) reads from the start of what
  /// remains. Otherwise the first record must carry `from.prev_lsn + 1`
  /// (unless that is 0): LSNs stay dense, so a missing frame is Corruption
  /// there as anywhere else.
  static Status ReadFrom(const std::string& dir, const WalPosition& from,
                         const PositionedVisitor& visitor, WalPosition* end);

 private:
  // All below require mutex_ held.
  /// Encodes `record` into the tail under a fresh LSN; returns where its
  /// frame starts.
  common::RecordPosition AppendToTail(LogRecord* record);
  /// Rolls to a fresh segment once written plus buffered bytes reach the
  /// segment size.
  Status MaybeRoll();

  std::string dir_;
  WalOptions options_;
  mutable common::OrderedMutex mutex_{
      OPDELTA_LOCK_RANK(wal, common::lockrank::kWal)};
  common::RecordLog log_;
  std::atomic<Lsn> next_lsn_{1};
  TxnId max_txn_id_at_open_ = 0;
  std::atomic<uint64_t> bytes_appended_{0};
};

/// Segment file name for index i ("wal-000042.log").
std::string WalSegmentName(uint64_t index);

}  // namespace opdelta::txn

#endif  // OPDELTA_TXN_WAL_H_
