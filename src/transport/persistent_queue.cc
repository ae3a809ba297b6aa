#include "transport/persistent_queue.h"

#include "common/env.h"

namespace opdelta::transport {

constexpr char kLogName[] = "queue";

Status PersistentQueue::Open(const std::string& dir) {
  if (Env::Default()->FileExists(dir + "/queue.log")) {
    return Status::NotSupported(
        dir + "/queue.log is a queue log of an older build; see the README "
              "note \"Upgrading from a build that wrote queue.log\"");
  }
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  OPDELTA_RETURN_IF_ERROR(log_.Open(dir, kLogName));
  unacked_.clear();
  newest_.reset();
  has_peeked_ = false;
  Status replay;
  OPDELTA_RETURN_IF_ERROR(common::RecordLog::Read(
      dir, kLogName, common::RecordPosition{},
      [&](Slice payload, const common::RecordPosition& at) {
        if (!payload.empty()) {
          unacked_.push_back(Message{at, payload.size()});
          newest_ = unacked_.back();
        } else if (unacked_.empty()) {
          replay = Status::Corruption("queue ack with no message in " +
                                      common::RecordLog::SegmentName(
                                          kLogName, at.segment));
          return false;
        } else {
          unacked_.pop_front();
        }
        return true;
      },
      nullptr));
  return replay;
}

Status PersistentQueue::Close() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  return log_.Close();
}

Status PersistentQueue::Enqueue(Slice message, bool durable) {
  if (message.empty()) {
    return Status::InvalidArgument(
        "empty queue message: the empty record is the log's ack");
  }
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  const bool roll = unacked_.empty() && log_.end().offset >= kSegmentBytes;
  if (roll) OPDELTA_RETURN_IF_ERROR(log_.Roll(/*sync=*/false));  // NOLINT(opdelta-R8: a roll needs an empty backlog, which only the queue mutex keeps true until the message lands)
  // Writing (and syncing) under the queue mutex is the design: the mutex
  // serializes frames, and durability must land before Enqueue returns. A
  // failed write leaves the message out, so the caller may simply retry.
  const common::RecordPosition at = log_.end();
  OPDELTA_RETURN_IF_ERROR(log_.Write(message, durable || roll));  // NOLINT(opdelta-R8: the mutex serializes frames, and durability must land before Enqueue returns)
  unacked_.push_back(Message{at, message.size()});
  newest_ = unacked_.back();
  // The new segment's first message is durable, so nothing later points
  // into the segments before it. A delete that fails is retried at the
  // next roll.
  if (roll) (void)log_.DeleteBefore(at.segment);  // NOLINT(opdelta-R8: the segments are unreferenced only while the mutex keeps the unacknowledged positions fixed)
  return Status::OK();
}

Status PersistentQueue::Peek(std::string* message) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (unacked_.empty()) return Status::NotFound("queue empty");
  OPDELTA_RETURN_IF_ERROR(
      log_.ReadFrame(unacked_.front().at, unacked_.front().size, message));  // NOLINT(opdelta-R8: the oldest message's position holds only under the mutex; a concurrent Ack would move it)
  has_peeked_ = true;
  return Status::OK();
}

Status PersistentQueue::Ack() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (!has_peeked_) return Status::InvalidArgument("Ack without Peek");
  OPDELTA_RETURN_IF_ERROR(log_.Write(Slice(), /*sync=*/false));  // NOLINT(opdelta-R8: an ack record must follow the message it acknowledges; the mutex serializes frames)
  unacked_.pop_front();
  has_peeked_ = false;
  return Status::OK();
}

Status PersistentQueue::PeekLast(std::string* message) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (!newest_.has_value()) return Status::NotFound("queue holds no message");
  return log_.ReadFrame(newest_->at, newest_->size, message);  // NOLINT(opdelta-R8: the newest message's position holds only under the mutex; a concurrent Enqueue replaces it)
}

Result<uint64_t> PersistentQueue::Backlog() {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  return static_cast<uint64_t>(unacked_.size());
}

}  // namespace opdelta::transport
