#include "transport/persistent_queue.h"

#include "common/coding.h"
#include "common/crc32.h"
#include "common/logging.h"

namespace opdelta::transport {

namespace {
const char kLogFile[] = "/queue.log";
const char kCursorFile[] = "/queue.cursor";
}  // namespace

PersistentQueue::~PersistentQueue() {
  // Destructor close is best-effort: enqueued data durability came from
  // the per-append Sync.
  if (log_ != nullptr) (void)log_->Close();
}

Status PersistentQueue::Open(const std::string& dir,
                             uint64_t max_backlog_bytes) {
  dir_ = dir;
  max_backlog_bytes_ = max_backlog_bytes;
  Env* env = Env::Default();
  OPDELTA_RETURN_IF_ERROR(env->CreateDir(dir));
  OPDELTA_RETURN_IF_ERROR(RecoverLog());
  OPDELTA_RETURN_IF_ERROR(env->NewAppendableFile(dir + kLogFile, &log_));
  return LoadCursor();
}

Status PersistentQueue::RecoverLog() {
  // Mirror Wal::ReadAll's torn-tail policy: an incomplete frame at the very
  // end is a crash artifact — truncate it away and continue appending after
  // the last complete frame. A complete frame with a bad CRC is real
  // corruption anywhere (each frame's CRC covers exactly the bytes its own
  // append wrote, so a torn append can never form a complete bad frame).
  Env* env = Env::Default();
  const std::string path = dir_ + kLogFile;
  if (!env->FileExists(path)) return Status::OK();

  std::unique_ptr<RandomAccessFile> reader;
  OPDELTA_RETURN_IF_ERROR(env->NewRandomAccessFile(path, &reader));
  const uint64_t size = reader->Size();
  uint64_t offset = 0;
  char header[8];
  std::string body;
  while (offset < size) {
    if (size - offset < 8) break;  // torn header at the tail
    Slice result;
    OPDELTA_RETURN_IF_ERROR(reader->Read(offset, 8, &result, header));
    if (result.size() != 8) break;
    const uint32_t len = DecodeFixed32(result.data());
    const uint32_t crc = DecodeFixed32(result.data() + 4);
    if (size - offset - 8 < len) break;  // torn body at the tail
    body.resize(len);
    OPDELTA_RETURN_IF_ERROR(
        reader->Read(offset + 8, len, &result, body.data()));
    if (result.size() != len) break;
    if (Crc32c(result.data(), result.size()) != crc) {
      return Status::Corruption("queue message crc at offset " +
                                std::to_string(offset) + " in " + path);
    }
    offset += 8 + len;
  }
  if (offset < size) {
    OPDELTA_LOG(kWarn) << "queue " << path << ": dropping torn tail ("
                       << (size - offset) << " bytes after offset " << offset
                       << ")";
    OPDELTA_RETURN_IF_ERROR(env->Truncate(path, offset));
  }
  return Status::OK();
}

Status PersistentQueue::Close() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (log_ != nullptr) {
    OPDELTA_RETURN_IF_ERROR(log_->Close());
    log_.reset();
  }
  return Status::OK();
}

Status PersistentQueue::LoadCursor() {
  Env* env = Env::Default();
  const std::string path = dir_ + kCursorFile;
  if (!env->FileExists(path)) {
    read_offset_ = 0;
    return Status::OK();
  }
  std::string data;
  OPDELTA_RETURN_IF_ERROR(env->ReadFileToString(path, &data));
  if (data.size() != 8) return Status::Corruption("queue cursor size");
  read_offset_ = DecodeFixed64(data.data());
  return Status::OK();
}

Status PersistentQueue::SaveCursor() {
  std::string data;
  PutFixed64(&data, read_offset_);
  return WriteFileAtomic(Env::Default(), dir_ + kCursorFile, Slice(data));
}

Status PersistentQueue::Enqueue(Slice message, bool durable) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (log_ == nullptr) return Status::Internal("queue not open");
  if (max_backlog_bytes_ != 0) {
    // Backpressure on the *unacknowledged* backlog (acknowledged frames
    // stay in the log but cost the consumer nothing). An empty backlog
    // always admits, so one oversized message cannot wedge the queue
    // forever.
    const uint64_t size = log_->Size();
    const uint64_t backlog = size > read_offset_ ? size - read_offset_ : 0;
    if (backlog > 0 && backlog + message.size() + 8 > max_backlog_bytes_) {
      return Status::ResourceExhausted(
          "queue backlog at " + std::to_string(backlog) + " bytes (bound " +
          std::to_string(max_backlog_bytes_) + "); retry after a drain");
    }
  }
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(message.size()));
  PutFixed32(&frame, Crc32c(message.data(), message.size()));
  frame.append(message.data(), message.size());
  const uint64_t frame_start = log_->Size();
  // Appending (and syncing) under the queue mutex is the design: the mutex
  // serializes frames so a torn append can never interleave with another
  // producer's frame, and durability must land before Enqueue returns.
  Status st = log_->Append(Slice(frame));  // NOLINT(opdelta-R8: the mutex serializes log frames by design)
  if (st.ok() && durable) st = log_->Sync();  // NOLINT(opdelta-R8: durability must land before Enqueue returns)
  if (!st.ok()) {
    // Heal the log in place: a short write may have left a torn prefix of
    // this frame, and a retried append after it would make that prefix look
    // like a complete-but-corrupt frame. Reopen at the pre-append length so
    // the caller can simply retry Enqueue.
    HealFailedAppend(frame_start);
    return st;
  }
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void PersistentQueue::HealFailedAppend(uint64_t frame_start) {
  // Best effort: if healing itself fails (e.g. the disk is gone), the torn
  // prefix stays behind and RecoverLog truncates it on the next Open.
  Env* env = Env::Default();
  if (log_ != nullptr) {
    (void)log_->Close();
    log_.reset();
  }
  const std::string path = dir_ + kLogFile;
  if (!env->Truncate(path, frame_start).ok()) return;
  std::unique_ptr<WritableFile> reopened;
  if (env->NewAppendableFile(path, &reopened).ok()) log_ = std::move(reopened);
}

Status PersistentQueue::Peek(std::string* message) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (log_ == nullptr) return Status::Internal("queue not open");
  // NOLINTNEXTLINE(opdelta-R8: flush of the queue's own log, which this mutex serializes)
  OPDELTA_RETURN_IF_ERROR(log_->Flush());

  std::unique_ptr<RandomAccessFile> reader;
  OPDELTA_RETURN_IF_ERROR(
      Env::Default()->NewRandomAccessFile(dir_ + kLogFile, &reader));
  if (read_offset_ >= reader->Size()) return Status::NotFound("queue empty");

  char header[8];
  Slice result;
  OPDELTA_RETURN_IF_ERROR(reader->Read(read_offset_, 8, &result, header));
  if (result.size() != 8) return Status::Corruption("queue frame header");
  const uint32_t len = DecodeFixed32(result.data());
  const uint32_t crc = DecodeFixed32(result.data() + 4);

  message->resize(len);
  OPDELTA_RETURN_IF_ERROR(
      reader->Read(read_offset_ + 8, len, &result, message->data()));
  if (result.size() != len) return Status::Corruption("queue frame body");
  if (Crc32c(result.data(), result.size()) != crc) {
    return Status::Corruption("queue message crc");
  }
  message->assign(result.data(), result.size());
  peeked_next_ = read_offset_ + 8 + len;
  has_peeked_ = true;
  return Status::OK();
}

Status PersistentQueue::Ack() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (!has_peeked_) return Status::InvalidArgument("Ack without Peek");
  read_offset_ = peeked_next_;
  has_peeked_ = false;
  return SaveCursor();
}

Status PersistentQueue::ForEachMessage(const std::function<bool(Slice)>& fn) {
  // Snapshot the log length under the lock, then visit WITHOUT it. Frames
  // below the snapshot are immutable — the log is append-only, and a
  // failed append only ever truncates back to its own pre-append length,
  // which is at or past this snapshot — so the prefix stays consistent
  // while the visitor runs unlocked and may safely re-enter this queue
  // (e.g. Enqueue from inside the visit).
  uint64_t end = 0;
  {
    std::lock_guard<common::OrderedMutex> lock(mutex_);
    if (log_ == nullptr) return Status::Internal("queue not open");
    // NOLINTNEXTLINE(opdelta-R8: flush of the queue's own log, which this mutex serializes)
    OPDELTA_RETURN_IF_ERROR(log_->Flush());
    end = log_->Size();
  }
  std::unique_ptr<RandomAccessFile> reader;
  OPDELTA_RETURN_IF_ERROR(
      Env::Default()->NewRandomAccessFile(dir_ + kLogFile, &reader));
  uint64_t offset = 0;
  char header[8];
  std::string body;
  while (offset < end) {
    Slice result;
    OPDELTA_RETURN_IF_ERROR(reader->Read(offset, 8, &result, header));
    if (result.size() != 8) break;
    const uint32_t len = DecodeFixed32(result.data());
    body.resize(len);
    OPDELTA_RETURN_IF_ERROR(reader->Read(offset + 8, len, &result,
                                         body.data()));
    if (result.size() != len) break;
    if (!fn(result)) break;
    offset += 8 + len;
  }
  return Status::OK();
}

Result<uint64_t> PersistentQueue::Backlog() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (log_ == nullptr) return Status::Internal("queue not open");
  // NOLINTNEXTLINE(opdelta-R8: flush of the queue's own log, which this mutex serializes)
  OPDELTA_RETURN_IF_ERROR(log_->Flush());
  std::unique_ptr<RandomAccessFile> reader;
  OPDELTA_RETURN_IF_ERROR(
      Env::Default()->NewRandomAccessFile(dir_ + kLogFile, &reader));
  uint64_t offset = read_offset_;
  uint64_t count = 0;
  char header[8];
  while (offset < reader->Size()) {
    Slice result;
    OPDELTA_RETURN_IF_ERROR(reader->Read(offset, 8, &result, header));
    if (result.size() != 8) break;
    offset += 8 + DecodeFixed32(result.data());
    ++count;
  }
  return count;
}

}  // namespace opdelta::transport
