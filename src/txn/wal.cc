#include "txn/wal.h"

#include <algorithm>
#include <set>

#include "common/coding.h"
#include "common/crc32.h"

namespace opdelta::txn {

namespace {

/// The tail is written once it holds this many bytes, so a long transaction
/// (a bulk load) keeps at most about this much of the log in memory.
constexpr size_t kTailCapacity = 64 << 10;

/// Accepts exactly the names WalSegmentName produces (any digit count, so
/// indexes past 999999 still parse). Stricter than the old sscanf pattern:
/// trailing junk like "wal-5.log.tmp" is rejected instead of matched.
bool ParseWalSegmentName(const std::string& name, uint64_t* index) {
  constexpr size_t kPrefixLen = 4;  // "wal-"
  constexpr size_t kSuffixLen = 4;  // ".log"
  if (name.size() <= kPrefixLen + kSuffixLen) return false;
  if (name.compare(0, kPrefixLen, "wal-") != 0) return false;
  if (name.compare(name.size() - kSuffixLen, kSuffixLen, ".log") != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = kPrefixLen; i < name.size() - kSuffixLen; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *index = value;
  return true;
}

/// Indexes of the segment files in `dir`, ascending.
Status ListSegmentIndexes(Env* env, const std::string& dir,
                          std::vector<uint64_t>* indexes) {
  std::vector<std::string> children;
  OPDELTA_RETURN_IF_ERROR(env->ListDir(dir, &children));
  indexes->clear();
  for (const std::string& name : children) {
    uint64_t idx = 0;
    if (ParseWalSegmentName(name, &idx)) indexes->push_back(idx);
  }
  std::sort(indexes->begin(), indexes->end());
  return Status::OK();
}

/// Reads `path` from byte `offset` to its current end.
Status ReadSegmentFrom(Env* env, const std::string& path, uint64_t offset,
                       std::string* out) {
  std::unique_ptr<RandomAccessFile> file;
  OPDELTA_RETURN_IF_ERROR(env->NewRandomAccessFile(path, &file));
  if (offset > file->Size()) {
    return Status::Corruption("wal position past the end of " + path);
  }
  out->resize(file->Size() - offset);
  Slice result;
  OPDELTA_RETURN_IF_ERROR(file->Read(offset, out->size(), &result, out->data()));
  if (result.size() != out->size()) {
    return Status::IOError("short read " + path);
  }
  return Status::OK();
}

}  // namespace

std::string WalSegmentName(uint64_t index) {
  std::string digits = std::to_string(index);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return "wal-" + digits + ".log";
}

Wal::~Wal() {
  // Destructor close is best-effort: commit durability came from
  // AppendCommit.
  (void)Close();
}

Status Wal::Open(const std::string& dir, const WalOptions& options) {
  dir_ = dir;
  options_ = options;
  Env* env = Env::Default();
  OPDELTA_RETURN_IF_ERROR(env->CreateDir(dir));

  // Find existing segments so LSNs and indexes continue monotonically.
  OPDELTA_RETURN_IF_ERROR(ListSegmentIndexes(env, dir, &segment_indexes_));

  // Continue the LSN and txn-id sequences from existing records, and find
  // the transactions a crash left without a commit or abort record.
  WalPosition end;
  std::set<TxnId> losers;
  if (!segment_indexes_.empty()) {
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
    // A torn frame ends the log only while its segment is the newest one.
    // Appends are about to move to a fresh segment, so cut the partial
    // frame off now, or every later read would call it corruption.
    const std::string newest = dir + "/" + WalSegmentName(end.segment);
    uint64_t size = 0;
    OPDELTA_RETURN_IF_ERROR(env->GetFileSize(newest, &size));
    if (size > end.offset) {
      OPDELTA_RETURN_IF_ERROR(env->Truncate(newest, end.offset));
    }
  }
  next_lsn_ = end.prev_lsn + 1;

  std::lock_guard<common::OrderedMutex> lock(mutex_);
  active_index_ =
      segment_indexes_.empty() ? 1 : segment_indexes_.back() + 1;
  segment_indexes_.push_back(active_index_);
  // NOLINTNEXTLINE(opdelta-R8: segment creation must be serialized with rotation; runs once at Open)
  OPDELTA_RETURN_IF_ERROR(env->NewWritableFile(
      dir_ + "/" + WalSegmentName(active_index_), &active_));
  // Each loser's abort record releases the resume point a LogExtractor
  // pins at its first record, before any new record is logged.
  for (TxnId id : losers) {
    LogRecord abort;
    abort.type = LogRecordType::kAbort;
    abort.txn_id = id;
    AppendToTail(&abort);
  }
  return WriteTail(/*sync=*/false);
}

Status Wal::Close() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (active_ == nullptr) return Status::OK();
  Status st = Repair();
  if (st.ok()) st = WriteTail(/*sync=*/false);
  Status closed = active_->Close();
  active_.reset();
  return st.ok() ? closed : st;
}

size_t Wal::AppendToTail(LogRecord* record) {
  record->lsn = next_lsn_.fetch_add(1);
  const size_t start = tail_.size();
  tail_.append(8, '\0');  // [len][crc], filled in once the payload is known
  record->EncodeTo(&tail_);
  const size_t len = tail_.size() - start - 8;
  char* header = tail_.data() + start;
  EncodeFixed32(header, static_cast<uint32_t>(len));
  EncodeFixed32(header + 4, Crc32c(header + 8, len));
  bytes_appended_.fetch_add(8 + len, std::memory_order_relaxed);
  return start;
}

Status Wal::Repair() {
  if (!needs_repair_) return Status::OK();
  Env* env = Env::Default();
  const std::string path = dir_ + "/" + WalSegmentName(active_index_);
  OPDELTA_RETURN_IF_ERROR(env->Truncate(path, written_));
  std::unique_ptr<WritableFile> reopened;
  OPDELTA_RETURN_IF_ERROR(env->NewAppendableFile(path, &reopened));
  (void)active_->Close();  // its file offset is past the cut
  active_ = std::move(reopened);
  needs_repair_ = false;
  return Status::OK();
}

Status Wal::WriteTail(bool sync) {
  // The WAL mutex IS the log serialization: frames must reach the segment
  // in LSN order, so the write happens inside the critical section.
  if (tail_.empty()) {
    return sync ? active_->Sync() : Status::OK();  // NOLINT(opdelta-R8: a commit's sync must hold the wal mutex across rotation)
  }
  Status st = active_->Append(Slice(tail_));  // NOLINT(opdelta-R8: frames must land in LSN order under the wal mutex)
  if (st.ok() && sync) st = active_->Sync();  // NOLINT(opdelta-R8: a commit's sync must hold the wal mutex across rotation)
  if (!st.ok()) {
    // The segment may hold a torn prefix of the tail, or a copy that never
    // became durable: the frames stay here, and the segment is cut back to
    // its last whole frame before the next write.
    needs_repair_ = true;
    return st;
  }
  written_ += tail_.size();
  tail_.clear();
  return Status::OK();
}

Status Wal::MaybeRoll() {
  if (written_ + tail_.size() < options_.segment_size) return Status::OK();
  // Under sync_on_commit the closing segment is synced too: a later commit
  // syncs only the active segment, yet its transaction may have records
  // here.
  OPDELTA_RETURN_IF_ERROR(WriteTail(options_.sync_on_commit));
  // The successor is created only once this segment is complete: ReadFrom
  // takes a segment with a successor to end at a whole frame.
  std::unique_ptr<WritableFile> next;
  OPDELTA_RETURN_IF_ERROR(Env::Default()->NewWritableFile(
      dir_ + "/" + WalSegmentName(active_index_ + 1), &next));
  Status closed = active_->Close();
  active_ = std::move(next);
  active_index_++;
  segment_indexes_.push_back(active_index_);
  written_ = 0;
  return closed;
}

Status Wal::Append(LogRecord* record) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (active_ == nullptr) return Status::Internal("wal not open");
  OPDELTA_RETURN_IF_ERROR(Repair());
  AppendToTail(record);
  OPDELTA_RETURN_IF_ERROR(MaybeRoll());
  if (tail_.size() >= kTailCapacity) return WriteTail(/*sync=*/false);
  return Status::OK();
}

Status Wal::AppendCommit(LogRecord* record) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (active_ == nullptr) return Status::Internal("wal not open");
  OPDELTA_RETURN_IF_ERROR(Repair());
  const size_t frame_start = AppendToTail(record);
  Status st = WriteTail(options_.sync_on_commit);
  if (!st.ok()) {
    // Nothing else appends while the mutex is held, so the commit frame is
    // still the tail's last: take it back, and its LSN with it.
    bytes_appended_.fetch_sub(tail_.size() - frame_start,
                              std::memory_order_relaxed);
    tail_.resize(frame_start);
    next_lsn_.store(record->lsn);
    record->lsn = kInvalidLsn;
    return st;
  }
  // The commit is logged; a roll that fails here is retried by the next
  // append.
  (void)MaybeRoll();
  return Status::OK();
}

Status Wal::Flush() { return WriteOut(/*sync=*/false); }

Status Wal::Sync() { return WriteOut(options_.sync_on_commit); }

Status Wal::WriteOut(bool sync) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (active_ == nullptr) return Status::OK();
  OPDELTA_RETURN_IF_ERROR(Repair());
  return WriteTail(sync);
}

Status Wal::Checkpoint() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (options_.archive_mode) {
    // Archiving on: segments accumulate for the log extractor.
    return Status::OK();
  }
  Env* env = Env::Default();
  while (segment_indexes_.size() > 1) {
    const std::string seg = dir_ + "/" + WalSegmentName(segment_indexes_.front());
    OPDELTA_RETURN_IF_ERROR(env->DeleteFile(seg));  // NOLINT(opdelta-R8: deletion is serialized with rotation so a fresh segment is never unlinked)
    segment_indexes_.erase(segment_indexes_.begin());
  }
  return Status::OK();
}

Status Wal::ListSegments(std::vector<std::string>* paths) const {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  paths->clear();
  for (uint64_t idx : segment_indexes_) {
    paths->push_back(dir_ + "/" + WalSegmentName(idx));
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
  Env* env = Env::Default();
  auto segment_path = [&](uint64_t idx) {
    return dir + "/" + WalSegmentName(idx);
  };

  // Resuming inside a segment that still exists needs no directory
  // listing, so a resumed read costs the same however long the log is.
  // Otherwise the read starts at the first remaining segment, with no LSN
  // to continue from.
  WalPosition pos = from;
  if (from.segment == 0 || !env->FileExists(segment_path(from.segment))) {
    std::vector<uint64_t> indexes;
    OPDELTA_RETURN_IF_ERROR(ListSegmentIndexes(env, dir, &indexes));
    for (size_t i = 1; i < indexes.size(); ++i) {
      if (indexes[i] != indexes[i - 1] + 1) {
        return Status::Corruption("wal segment " +
                                  WalSegmentName(indexes[i - 1] + 1) +
                                  " missing");
      }
    }
    if (indexes.empty()) {
      if (end != nullptr) *end = WalPosition{};
      return Status::OK();
    }
    if (from.segment > indexes.front()) {
      return Status::Corruption("wal segment " + WalSegmentName(from.segment) +
                                " missing");
    }
    pos = WalPosition{indexes.front(), 0, 0};
  }

  // Segment indexes are consecutive (every roll opens index + 1), so the
  // log continues past a segment exactly when its successor exists.
  for (;;) {
    // Probed before reading: a segment with a successor was closed before
    // the successor was created, so only the newest can end mid-frame.
    const bool last_segment = !env->FileExists(segment_path(pos.segment + 1));
    std::string data;
    OPDELTA_RETURN_IF_ERROR(
        ReadSegmentFrom(env, segment_path(pos.segment), pos.offset, &data));
    Slice input(data);
    bool stopped = false;  // by the visitor
    while (!input.empty() && !stopped) {
      uint32_t len = 0, crc = 0;
      Slice peek = input;
      if (!GetFixed32(&peek, &len) || !GetFixed32(&peek, &crc) ||
          peek.size() < len) {
        // A partial frame at the very end of the newest segment is a torn
        // append from a crash (or one still in flight): the log simply
        // ends here. Anywhere else it is real corruption.
        if (last_segment) break;
        return Status::Corruption("wal frame truncated in " +
                                  WalSegmentName(pos.segment));
      }
      input = peek;
      Slice payload(input.data(), len);
      input.remove_prefix(len);
      if (Crc32c(payload.data(), payload.size()) != crc) {
        return Status::Corruption("wal crc mismatch in " +
                                  WalSegmentName(pos.segment));
      }
      LogRecord record;
      OPDELTA_RETURN_IF_ERROR(LogRecord::DecodeFrom(&payload, &record));
      // LSNs are assigned densely, so any gap means frames are missing —
      // e.g. a truncation that happened to land on a frame boundary, or a
      // frame lost after the position a read resumed from.
      if (pos.prev_lsn != 0 && record.lsn != pos.prev_lsn + 1) {
        return Status::Corruption("wal lsn gap: " +
                                  std::to_string(pos.prev_lsn) + " -> " +
                                  std::to_string(record.lsn) + " in " +
                                  WalSegmentName(pos.segment));
      }
      const WalPosition at = pos;
      pos.offset += 8 + static_cast<uint64_t>(len);
      pos.prev_lsn = record.lsn;
      stopped = !visitor(record, at);
    }
    if (stopped || last_segment) break;
    pos = WalPosition{pos.segment + 1, 0, pos.prev_lsn};
  }
  if (end != nullptr) *end = pos;
  return Status::OK();
}

}  // namespace opdelta::txn
