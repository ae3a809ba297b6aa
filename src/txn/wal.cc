#include "txn/wal.h"

#include <optional>
#include <set>

namespace opdelta::txn {

namespace {

/// The segment files' name: "wal-000001.log", ...
constexpr char kLogName[] = "wal";

/// The tail is written once it holds this many bytes, so a long transaction
/// (a bulk load) keeps at most about this much of the log in memory.
constexpr size_t kTailCapacity = 64 << 10;

}  // namespace

std::string WalSegmentName(uint64_t index) {
  return common::RecordLog::SegmentName(kLogName, index);
}

Wal::~Wal() {
  // Destructor close is best-effort: commit durability came from
  // AppendCommit.
  (void)Close();
}

Status Wal::Open(const std::string& dir, const WalOptions& options) {
  dir_ = dir;
  options_ = options;

  // Continue the LSN and txn-id sequences from existing records, and find
  // the transactions a crash left without a commit or abort record.
  WalPosition end;
  std::set<TxnId> losers;
  OPDELTA_RETURN_IF_ERROR(ReadFrom(
      dir, WalPosition{},
      [&](const LogRecord& r, const WalPosition&) {
        if (r.txn_id > max_txn_id_at_open_) max_txn_id_at_open_ = r.txn_id;
        if (r.type == LogRecordType::kBegin) {
          losers.insert(r.txn_id);
        } else if (r.type == LogRecordType::kCommit ||
                   r.type == LogRecordType::kAbort) {
          losers.erase(r.txn_id);
        }
        return true;
      },
      &end));
  next_lsn_ = end.prev_lsn + 1;

  // Segment creation is serialized with rotation under the WAL mutex;
  // existing segments are kept, and appends continue in a fresh one.
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  OPDELTA_RETURN_IF_ERROR(log_.Open(dir, kLogName));
  if (end.segment != 0) OPDELTA_RETURN_IF_ERROR(log_.Roll(/*sync=*/false));  // NOLINT(opdelta-R8: the fresh segment must exist before the loser aborts, the first frames after open, land under the wal mutex)
  // Each loser's abort record releases the resume point a LogExtractor
  // pins at its first record, before any new record is logged.
  for (TxnId id : losers) {
    LogRecord abort;
    abort.type = LogRecordType::kAbort;
    abort.txn_id = id;
    AppendToTail(&abort);
  }
  return log_.Flush(/*sync=*/false);  // NOLINT(opdelta-R8: frames must land in LSN order under the wal mutex)
}

Status Wal::Close() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  return log_.Close();
}

common::RecordPosition Wal::AppendToTail(LogRecord* record) {
  record->lsn = next_lsn_.fetch_add(1);
  const common::RecordPosition at =
      log_.AppendWith([record](std::string* out) { record->EncodeTo(out); });
  bytes_appended_.fetch_add(log_.end().offset - at.offset,
                            std::memory_order_relaxed);
  return at;
}

Status Wal::MaybeRoll() {
  if (log_.end().offset < options_.segment_size) return Status::OK();
  // Under sync_on_commit the closing segment is synced too: a later commit
  // syncs only the active segment, yet its transaction may have records
  // here.
  return log_.Roll(options_.sync_on_commit);
}

Status Wal::Append(LogRecord* record) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (!log_.is_open()) return Status::Internal("wal not open");
  OPDELTA_RETURN_IF_ERROR(log_.Repair());  // NOLINT(opdelta-R8: a failed write is cut back before the next frame; frames land in LSN order under the wal mutex)
  AppendToTail(record);
  OPDELTA_RETURN_IF_ERROR(MaybeRoll());  // NOLINT(opdelta-R8: a roll writes the tail and opens the next segment under the wal mutex, so segments end at whole frames in LSN order)
  if (log_.buffered() < kTailCapacity) return Status::OK();
  return log_.Flush(/*sync=*/false);  // NOLINT(opdelta-R8: frames must land in LSN order under the wal mutex)
}

Status Wal::AppendCommit(LogRecord* record) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (!log_.is_open()) return Status::Internal("wal not open");
  OPDELTA_RETURN_IF_ERROR(log_.Repair());  // NOLINT(opdelta-R8: a failed write is cut back before the next frame; frames land in LSN order under the wal mutex)
  const common::RecordPosition at = AppendToTail(record);
  Status st = log_.Flush(options_.sync_on_commit);  // NOLINT(opdelta-R8: a commit's sync must hold the wal mutex across rotation)
  if (!st.ok()) {
    // Nothing else appends while the mutex is held, so the commit frame is
    // still the tail's last: take it back, and its LSN with it.
    bytes_appended_.fetch_sub(log_.end().offset - at.offset,
                              std::memory_order_relaxed);
    log_.Unappend(at);
    next_lsn_.store(record->lsn);
    record->lsn = kInvalidLsn;
    return st;
  }
  // The commit is logged; a roll that fails here is retried by the next
  // append.
  (void)MaybeRoll();  // NOLINT(opdelta-R8: a roll writes the tail and opens the next segment under the wal mutex, so segments end at whole frames in LSN order)
  return Status::OK();
}

Status Wal::Flush() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  return log_.is_open() ? log_.Flush(/*sync=*/false) : Status::OK();  // NOLINT(opdelta-R8: frames must land in LSN order under the wal mutex)
}

Status Wal::Sync() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  return log_.is_open() ? log_.Flush(options_.sync_on_commit) : Status::OK();  // NOLINT(opdelta-R8: a commit's sync must hold the wal mutex across rotation)
}

Status Wal::Checkpoint() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  // Archiving keeps segments for the log extractor. Deletion is serialized
  // with rotation, so a fresh segment is never unlinked.
  if (options_.archive_mode) return Status::OK();
  return log_.DeleteBefore(log_.end().segment);  // NOLINT(opdelta-R8: recycling is serialized with rotation under the wal mutex, so a fresh segment is never unlinked)
}

Status Wal::ListSegments(std::vector<std::string>* paths) const {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  paths->clear();
  for (uint64_t i = log_.first_segment(); i <= log_.end().segment; ++i) {
    paths->push_back(dir_ + "/" + WalSegmentName(i));
  }
  return Status::OK();
}

Status Wal::ReadAll(const std::string& dir,
                    const std::function<bool(const LogRecord&)>& visitor) {
  return ReadFrom(
      dir, WalPosition{},
      [&](const LogRecord& r, const WalPosition&) { return visitor(r); },
      nullptr);
}

Status Wal::ReadFrom(const std::string& dir, const WalPosition& from,
                     const PositionedVisitor& visitor, WalPosition* end) {
  // A read that restarts at the first remaining segment has no LSN to
  // continue from; the record log says so before the first frame.
  bool restarted = false;
  std::optional<Lsn> prev;  // the last record's LSN, once one was read
  auto base = [&]() { return prev.value_or(restarted ? 0 : from.prev_lsn); };
  Status st;
  common::RecordPosition stop;
  OPDELTA_RETURN_IF_ERROR(common::RecordLog::Read(
      dir, kLogName, common::RecordPosition{from.segment, from.offset},
      [&](Slice payload, const common::RecordPosition& at) {
        LogRecord record;
        st = LogRecord::DecodeFrom(&payload, &record);
        // LSNs are assigned densely, so any gap means frames are missing —
        // e.g. a truncation that happened to land on a frame boundary, or a
        // frame lost after the position a read resumed from.
        if (st.ok() && base() != 0 && record.lsn != base() + 1) {
          st = Status::Corruption("wal lsn gap: " + std::to_string(base()) +
                                  " -> " + std::to_string(record.lsn) +
                                  " in " + WalSegmentName(at.segment));
        }
        if (!st.ok()) return false;
        const WalPosition position{at.segment, at.offset, base()};
        prev = record.lsn;
        return visitor(record, position);
      },
      &stop, &restarted));
  OPDELTA_RETURN_IF_ERROR(st);
  if (end != nullptr) *end = WalPosition{stop.segment, stop.offset, base()};
  return Status::OK();
}

}  // namespace opdelta::txn
