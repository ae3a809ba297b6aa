#include "transport/persistent_queue.h"

#include <deque>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/logging.h"

namespace opdelta::transport {

namespace {
const char kLogFile[] = "/queue.log";
constexpr uint64_t kHeaderSize = 8;  // fixed32 payload length + fixed32 CRC

Status ReadHeader(const RandomAccessFile& reader, uint64_t offset,
                  uint32_t* len, uint32_t* crc) {
  char header[kHeaderSize];
  Slice result;
  OPDELTA_RETURN_IF_ERROR(reader.Read(offset, kHeaderSize, &result, header));
  if (result.size() != kHeaderSize) {
    return Status::Corruption("queue frame header");
  }
  *len = DecodeFixed32(result.data());
  *crc = DecodeFixed32(result.data() + 4);
  return Status::OK();
}

// Reads the payload of the record at `offset` (empty for an ack record).
// A short or CRC-failing record is Corruption: Open already truncated any
// torn tail.
Status ReadRecord(const RandomAccessFile& reader, uint64_t offset,
                  std::string* payload) {
  uint32_t len = 0;
  uint32_t crc = 0;
  OPDELTA_RETURN_IF_ERROR(ReadHeader(reader, offset, &len, &crc));
  payload->resize(len);
  Slice result;
  OPDELTA_RETURN_IF_ERROR(
      reader.Read(offset + kHeaderSize, len, &result, payload->data()));
  if (result.size() != len) return Status::Corruption("queue frame body");
  if (Crc32c(result.data(), result.size()) != crc) {
    return Status::Corruption("queue message crc");
  }
  payload->assign(result.data(), result.size());
  return Status::OK();
}
}  // namespace

PersistentQueue::~PersistentQueue() {
  // Destructor close is best-effort: enqueued data durability came from
  // the per-append Sync.
  if (log_ != nullptr) (void)log_->Close();
}

Status PersistentQueue::Open(const std::string& dir) {
  dir_ = dir;
  Env* env = Env::Default();
  OPDELTA_RETURN_IF_ERROR(env->CreateDir(dir));
  OPDELTA_RETURN_IF_ERROR(RecoverLog());
  return env->NewAppendableFile(dir + kLogFile, &log_);
}

Status PersistentQueue::RecoverLog() {
  // Mirror Wal::ReadAll's torn-tail policy: an incomplete frame at the very
  // end is a crash artifact — truncate it away and continue appending after
  // the last complete frame. A complete frame with a bad CRC is real
  // corruption anywhere (each frame's CRC covers exactly the bytes its own
  // append wrote, so a torn append can never form a complete bad frame).
  Env* env = Env::Default();
  const std::string path = dir_ + kLogFile;
  read_offset_ = 0;
  newest_.reset();
  if (!env->FileExists(path)) return Status::OK();

  std::unique_ptr<RandomAccessFile> reader;
  OPDELTA_RETURN_IF_ERROR(env->NewRandomAccessFile(path, &reader));
  const uint64_t size = reader->Size();
  // Offsets of the messages no ack record has consumed yet, oldest first.
  std::deque<uint64_t> unacked;
  uint64_t offset = 0;
  std::string body;
  while (offset < size) {
    if (size - offset < kHeaderSize) break;  // torn header at the tail
    uint32_t len = 0;
    uint32_t crc = 0;
    OPDELTA_RETURN_IF_ERROR(ReadHeader(*reader, offset, &len, &crc));
    if (size - offset - kHeaderSize < len) break;  // torn body at the tail
    body.resize(len);
    Slice result;
    OPDELTA_RETURN_IF_ERROR(
        reader->Read(offset + kHeaderSize, len, &result, body.data()));
    if (result.size() != len) break;
    if (Crc32c(result.data(), result.size()) != crc) {
      return Status::Corruption("queue message crc at offset " +
                                std::to_string(offset) + " in " + path);
    }
    if (len > 0) {
      unacked.push_back(offset);
      newest_ = offset;
    } else if (unacked.empty()) {
      return Status::Corruption("queue ack with no message to acknowledge "
                                "at offset " +
                                std::to_string(offset) + " in " + path);
    } else {
      unacked.pop_front();
    }
    offset += kHeaderSize + len;
  }
  if (offset < size) {
    OPDELTA_LOG(kWarn) << "queue " << path << ": dropping torn tail ("
                       << (size - offset) << " bytes after offset " << offset
                       << ")";
    OPDELTA_RETURN_IF_ERROR(env->Truncate(path, offset));
  }
  read_offset_ = unacked.empty() ? offset : unacked.front();
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

Status PersistentQueue::Enqueue(Slice message, bool durable) {
  if (message.empty()) {
    return Status::InvalidArgument(
        "empty queue message: the empty record is the log's ack");
  }
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (log_ == nullptr) return Status::Internal("queue not open");
  const uint64_t offset = log_->Size();
  OPDELTA_RETURN_IF_ERROR(AppendRecord(message, durable));
  newest_ = offset;
  return Status::OK();
}

Status PersistentQueue::AppendRecord(Slice payload, bool durable) {
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  PutFixed32(&frame, Crc32c(payload.data(), payload.size()));
  frame.append(payload.data(), payload.size());
  const uint64_t frame_start = log_->Size();
  // Appending (and syncing) under the queue mutex is the design: the mutex
  // serializes frames so a torn append can never interleave with another
  // producer's frame, and durability must land before Enqueue returns.
  Status st = log_->Append(Slice(frame));  // NOLINT(opdelta-R8: the mutex serializes log frames by design)
  if (st.ok()) st = durable ? log_->Sync() : log_->Flush();  // NOLINT(opdelta-R8: durability must land before Enqueue returns)
  if (!st.ok()) {
    // Heal the log in place: a short write may have left a torn prefix of
    // this frame, and a retried append after it would make that prefix look
    // like a complete-but-corrupt frame. Reopen at the pre-append length so
    // the caller can simply retry.
    HealFailedAppend(frame_start);
    return st;
  }
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

Status PersistentQueue::OpenReader(std::unique_ptr<RandomAccessFile>* reader) {
  if (log_ == nullptr) return Status::Internal("queue not open");
  // NOLINTNEXTLINE(opdelta-R8: flush of the queue's own log, which this mutex serializes)
  OPDELTA_RETURN_IF_ERROR(log_->Flush());
  return Env::Default()->NewRandomAccessFile(dir_ + kLogFile, reader);
}

Status PersistentQueue::Peek(std::string* message) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  std::unique_ptr<RandomAccessFile> reader;
  OPDELTA_RETURN_IF_ERROR(OpenReader(&reader));
  // Every ack record past the cursor acknowledges a message before it, so
  // the cursor moves past them for good.
  while (read_offset_ < reader->Size()) {
    OPDELTA_RETURN_IF_ERROR(ReadRecord(*reader, read_offset_, message));
    const uint64_t next = read_offset_ + kHeaderSize + message->size();
    if (!message->empty()) {
      peeked_next_ = next;
      has_peeked_ = true;
      return Status::OK();
    }
    read_offset_ = next;
  }
  return Status::NotFound("queue empty");
}

Status PersistentQueue::Ack() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (!has_peeked_) return Status::InvalidArgument("Ack without Peek");
  if (log_ == nullptr) return Status::Internal("queue not open");
  OPDELTA_RETURN_IF_ERROR(AppendRecord(Slice(), /*durable=*/false));
  read_offset_ = peeked_next_;
  has_peeked_ = false;
  return Status::OK();
}

Status PersistentQueue::PeekLast(std::string* message) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  std::unique_ptr<RandomAccessFile> reader;
  OPDELTA_RETURN_IF_ERROR(OpenReader(&reader));
  if (!newest_.has_value()) return Status::NotFound("queue holds no message");
  return ReadRecord(*reader, *newest_, message);
}

Result<uint64_t> PersistentQueue::Backlog() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  std::unique_ptr<RandomAccessFile> reader;
  OPDELTA_RETURN_IF_ERROR(OpenReader(&reader));
  uint64_t count = 0;
  for (uint64_t offset = read_offset_; offset < reader->Size();) {
    uint32_t len = 0;
    uint32_t crc = 0;
    OPDELTA_RETURN_IF_ERROR(ReadHeader(*reader, offset, &len, &crc));
    if (len > 0) ++count;  // ack records are not backlog
    offset += kHeaderSize + len;
  }
  return count;
}

}  // namespace opdelta::transport
