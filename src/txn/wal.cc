#include "txn/wal.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32.h"

namespace opdelta::txn {

namespace {

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
  // Destructor close is best-effort: commit durability came from Sync.
  if (active_ != nullptr) (void)active_->Close();
}

Status Wal::Open(const std::string& dir, const WalOptions& options) {
  dir_ = dir;
  options_ = options;
  Env* env = Env::Default();
  OPDELTA_RETURN_IF_ERROR(env->CreateDir(dir));

  // Find existing segments so LSNs and indexes continue monotonically.
  OPDELTA_RETURN_IF_ERROR(ListSegmentIndexes(env, dir, &segment_indexes_));

  // Continue the LSN and txn-id sequences from existing records.
  WalPosition end;
  if (!segment_indexes_.empty()) {
    OPDELTA_RETURN_IF_ERROR(ReadFrom(
        dir, WalPosition{},
        [&](const LogRecord& r, const WalPosition&) {
          if (r.txn_id > max_txn_id_at_open_) max_txn_id_at_open_ = r.txn_id;
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
  return env->NewWritableFile(dir_ + "/" + WalSegmentName(active_index_),
                              &active_);
}

Status Wal::Close() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (active_ != nullptr) {
    OPDELTA_RETURN_IF_ERROR(active_->Close());
    active_.reset();
  }
  return Status::OK();
}

Status Wal::RollSegment() {
  OPDELTA_RETURN_IF_ERROR(active_->Close());
  active_index_++;
  segment_indexes_.push_back(active_index_);
  return Env::Default()->NewWritableFile(
      dir_ + "/" + WalSegmentName(active_index_), &active_);
}

Status Wal::Append(LogRecord* record) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (active_ == nullptr) return Status::Internal("wal not open");
  record->lsn = next_lsn_.fetch_add(1);

  std::string payload;
  record->EncodeTo(&payload);
  std::string frame;
  frame.reserve(payload.size() + 8);
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  PutFixed32(&frame, Crc32c(payload.data(), payload.size()));
  frame.append(payload);

  // The WAL mutex IS the log serialization: frames must hit the segment in
  // LSN order, so the append happens inside the critical section by design.
  OPDELTA_RETURN_IF_ERROR(active_->Append(Slice(frame)));  // NOLINT(opdelta-R8: frames must land in LSN order under the wal mutex)
  bytes_appended_.fetch_add(frame.size(), std::memory_order_relaxed);

  if (active_->Size() >= options_.segment_size) {
    OPDELTA_RETURN_IF_ERROR(RollSegment());
  }
  return Status::OK();
}

Status Wal::Sync() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (active_ == nullptr) return Status::OK();
  // Group commit: every committer syncs the same active segment, and the
  // mutex keeps a concurrent rotation from swapping the file mid-sync.
  if (options_.sync_on_commit) return active_->Sync();  // NOLINT(opdelta-R8: group-commit sync must hold the wal mutex across rotation)
  return active_->Flush();  // NOLINT(opdelta-R8: group-commit flush must hold the wal mutex across rotation)
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
