#include "common/record_log.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"

namespace opdelta::common {

namespace {

std::string PathOf(const std::string& dir, const std::string& name,
                   uint64_t index) {
  return dir + "/" + RecordLog::SegmentName(name, index);
}

/// Indexes of the log's segment files in `dir`, ascending; a gap between
/// them is Corruption.
Status ListSegments(Env* env, const std::string& dir, const std::string& name,
                    std::vector<uint64_t>* indexes) {
  indexes->clear();
  if (!env->DirExists(dir)) return Status::OK();
  std::vector<std::string> children;
  OPDELTA_RETURN_IF_ERROR(env->ListDir(dir, &children));
  for (const std::string& child : children) {
    std::string parsed;
    uint64_t index = 0;
    if (RecordLog::ParseSegmentName(child, &parsed, &index) &&
        parsed == name) {
      indexes->push_back(index);
    }
  }
  std::sort(indexes->begin(), indexes->end());
  if (!indexes->empty() &&
      indexes->back() - indexes->front() + 1 != indexes->size()) {
    return Status::Corruption("a segment of " + name + " in " + dir +
                              " is missing");
  }
  return Status::OK();
}

/// Reads `n` bytes of `path` from byte `offset` on, or all the rest of it
/// when `n` is npos.
Status ReadAt(Env* env, const std::string& path, uint64_t offset, size_t n,
              std::string* out) {
  std::unique_ptr<RandomAccessFile> file;
  OPDELTA_RETURN_IF_ERROR(env->NewRandomAccessFile(path, &file));
  if (offset > file->Size()) {
    return Status::Corruption("position past the end of " + path);
  }
  out->resize(n == std::string::npos ? file->Size() - offset : n);
  Slice result;
  OPDELTA_RETURN_IF_ERROR(
      file->Read(offset, out->size(), &result, out->data()));
  if (result.size() != out->size()) {
    return Status::IOError("short read " + path);
  }
  return Status::OK();
}

enum class Frame { kWhole, kPartial, kBadCrc };

/// Takes the frame at the front of *input: its payload, on kWhole.
Frame TakeFrame(Slice* input, Slice* payload) {
  uint32_t len = 0, crc = 0;
  Slice rest = *input;
  if (!GetFixed32(&rest, &len) || !GetFixed32(&rest, &crc) ||
      rest.size() < len) {
    return Frame::kPartial;
  }
  *payload = Slice(rest.data(), len);
  if (Crc32c(payload->data(), len) != crc) return Frame::kBadCrc;
  *input = Slice(rest.data() + len, rest.size() - len);
  return Frame::kWhole;
}

}  // namespace

std::string RecordLog::SegmentName(const std::string& name, uint64_t index) {
  std::string digits = std::to_string(index);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return name + "-" + digits + ".log";
}

bool RecordLog::ParseSegmentName(const std::string& file, std::string* name,
                                 uint64_t* index) {
  const size_t dash = file.rfind('-');
  const size_t dot = file.size() - 4;  // where ".log" starts
  if (dash == std::string::npos || dash == 0 || file.size() < dash + 6 ||
      file.compare(dot, std::string::npos, ".log") != 0 ||
      file.find_first_not_of("0123456789", dash + 1) != dot) {
    return false;
  }
  *name = file.substr(0, dash);
  *index = std::strtoull(file.c_str() + dash + 1, nullptr, 10);
  return true;
}

RecordLog::~RecordLog() { (void)Close(); }

Status RecordLog::Open(const std::string& dir, const std::string& name) {
  Env* env = Env::Default();
  OPDELTA_RETURN_IF_ERROR(env->CreateDir(dir));
  std::vector<uint64_t> indexes;
  OPDELTA_RETURN_IF_ERROR(ListSegments(env, dir, name, &indexes));
  dir_ = dir;
  name_ = name;
  first_ = indexes.empty() ? 1 : indexes.front();
  active_ = indexes.empty() ? 1 : indexes.back();
  written_ = 0;
  if (!indexes.empty()) {
    RecordPosition end;
    OPDELTA_RETURN_IF_ERROR(Read(
        dir, name, RecordPosition{active_, 0},
        [](Slice, const RecordPosition&) { return true; }, &end));
    written_ = end.offset;
  }
  OPDELTA_RETURN_IF_ERROR(
      env->NewAppendableFile(PathOf(dir_, name_, active_), &file_));
  // A partial frame at the end of the newest segment would sit mid-segment
  // once appends follow it: cut it off now.
  needs_repair_ = file_->Size() > written_;
  return Repair();
}

Status RecordLog::Close() {
  if (file_ == nullptr) return Status::OK();
  Status st = Flush(/*sync=*/false);
  Status closed = file_->Close();
  file_.reset();
  return st.ok() ? closed : st;
}

void RecordLog::SealFrame(const RecordPosition& at) {
  char* header = tail_.data() + (at.offset - written_);
  const size_t len = tail_.size() - (at.offset - written_) - kHeaderSize;
  EncodeFixed32(header, static_cast<uint32_t>(len));
  EncodeFixed32(header + 4, Crc32c(header + kHeaderSize, len));
}

Status RecordLog::Repair() {
  if (!needs_repair_) return Status::OK();
  Env* env = Env::Default();
  const std::string path = PathOf(dir_, name_, active_);
  OPDELTA_RETURN_IF_ERROR(env->Truncate(path, written_));
  // Reopened: the old handle may write past the cut.
  OPDELTA_RETURN_IF_ERROR(env->NewAppendableFile(path, &file_));
  needs_repair_ = false;
  return Status::OK();
}

Status RecordLog::Flush(bool sync) {
  if (file_ == nullptr) return Status::Internal("record log not open");
  OPDELTA_RETURN_IF_ERROR(Repair());
  if (tail_.empty()) return sync ? file_->Sync() : Status::OK();
  Status st = file_->Append(Slice(tail_));
  if (st.ok() && sync) st = file_->Sync();
  if (!st.ok()) {
    // The segment may hold a torn prefix of the tail, or a copy that never
    // became durable.
    needs_repair_ = true;
    return st;
  }
  written_ += tail_.size();
  tail_.clear();
  return Status::OK();
}

Status RecordLog::Write(Slice payload, bool sync) {
  const RecordPosition at = Append(payload);
  Status st = Flush(sync);
  if (!st.ok()) Unappend(at);
  return st;
}

Status RecordLog::Roll(bool sync) {
  OPDELTA_RETURN_IF_ERROR(Flush(sync));
  // The successor is created only once this segment is complete, so a
  // write in flight is always in the newest segment.
  std::unique_ptr<WritableFile> next;
  OPDELTA_RETURN_IF_ERROR(Env::Default()->NewWritableFile(
      PathOf(dir_, name_, active_ + 1), &next));
  Status closed = file_->Close();
  file_ = std::move(next);
  active_++;
  written_ = 0;
  return closed;
}

Status RecordLog::DeleteBefore(uint64_t segment) {
  for (; first_ < std::min(segment, active_); ++first_) {
    OPDELTA_RETURN_IF_ERROR(
        Env::Default()->DeleteFile(PathOf(dir_, name_, first_)));
  }
  return Status::OK();
}

Status RecordLog::ReadFrame(const RecordPosition& at, size_t size,
                            std::string* payload) const {
  const std::string path = PathOf(dir_, name_, at.segment);
  std::string frame;
  OPDELTA_RETURN_IF_ERROR(
      ReadAt(Env::Default(), path, at.offset, kHeaderSize + size, &frame));
  Slice input(frame);
  Slice taken;
  if (TakeFrame(&input, &taken) != Frame::kWhole || !input.empty()) {
    return Status::Corruption("bad frame in " + path);
  }
  payload->assign(taken.data(), taken.size());
  return Status::OK();
}

Status RecordLog::Read(const std::string& dir, const std::string& name,
                       const RecordPosition& from, const Visitor& visitor,
                       RecordPosition* end, bool* restarted) {
  Env* env = Env::Default();
  // Resuming inside a segment that still exists needs no directory
  // listing, so a resumed read costs the same however long the log is.
  RecordPosition pos = from;
  const bool restart =
      from.segment == 0 || !env->FileExists(PathOf(dir, name, from.segment));
  if (restart) {
    std::vector<uint64_t> indexes;
    OPDELTA_RETURN_IF_ERROR(ListSegments(env, dir, name, &indexes));
    if (!indexes.empty() && from.segment > indexes.front()) {
      return Status::Corruption("segment " + PathOf(dir, name, from.segment) +
                                " missing");
    }
    pos = RecordPosition{indexes.empty() ? 0 : indexes.front(), 0};
  }
  if (restarted != nullptr) *restarted = restart;

  // Segment indexes are consecutive (every roll opens index + 1), so the
  // log continues past a segment exactly when its successor exists.
  while (pos.segment != 0) {
    // Probed before reading: only in the newest segment can a partial
    // frame still be in flight.
    const std::string path = PathOf(dir, name, pos.segment);
    const bool newest = !env->FileExists(PathOf(dir, name, pos.segment + 1));
    std::string data;
    OPDELTA_RETURN_IF_ERROR(
        ReadAt(env, path, pos.offset, std::string::npos, &data));
    Slice input(data);
    bool stopped = false;  // by the visitor
    while (!input.empty() && !stopped) {
      const uint64_t left = input.size();
      Slice payload;
      const Frame frame = TakeFrame(&input, &payload);
      if (frame == Frame::kPartial) break;
      if (frame == Frame::kBadCrc) {
        return Status::Corruption("crc mismatch at offset " +
                                  std::to_string(pos.offset) + " of " + path);
      }
      const RecordPosition at = pos;
      pos.offset += left - input.size();
      stopped = !visitor(payload, at);
    }
    if (stopped || newest) break;
    pos = RecordPosition{pos.segment + 1, 0};
  }
  if (end != nullptr) *end = pos;
  return Status::OK();
}

}  // namespace opdelta::common
