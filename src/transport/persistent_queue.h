#ifndef OPDELTA_TRANSPORT_PERSISTENT_QUEUE_H_
#define OPDELTA_TRANSPORT_PERSISTENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/env.h"
#include "common/status.h"
#include "common/sync.h"

namespace opdelta::transport {

/// Durable FIFO message queue with at-least-once delivery: the "persistent
/// queues ... [whose] choice depends on the requirement of transaction
/// guarantees" transport of §1. Messages survive process restarts; a
/// consumer Peek()s, processes, then Ack()s.
///
/// On-disk layout: one append-only log (`queue.log`) of framed,
/// CRC-protected records. A record with a payload is a message; an empty
/// record is an ack, and acknowledges the oldest message no earlier ack
/// record has. Open replays the acks to find the read cursor, so the log
/// is the queue's only file.
///
/// Crash tolerance mirrors txn::Wal: an incomplete frame at the tail of the
/// log (a torn append) is truncated away on Open and the queue continues; a
/// complete frame whose CRC mismatches is hard Corruption. A failed append
/// is healed in place — the log is truncated back to the pre-append length
/// so a retry cannot interleave a garbage prefix with the retried frame.
class PersistentQueue {
 public:
  PersistentQueue() = default;
  ~PersistentQueue();

  PersistentQueue(const PersistentQueue&) = delete;
  PersistentQueue& operator=(const PersistentQueue&) = delete;

  /// Opens (creating if needed) a queue rooted at `dir`.
  Status Open(const std::string& dir);
  Status Close();

  /// Appends a message (fsync when `durable`, which also makes every
  /// earlier ack durable). An empty message is InvalidArgument: the empty
  /// record is the log's ack.
  Status Enqueue(Slice message, bool durable = false);

  /// Reads the message at the cursor without consuming it. Returns
  /// NotFound when the queue is drained.
  Status Peek(std::string* message);

  /// Acknowledges the message returned by the last Peek by appending an
  /// ack record. The record is written but not synced; the next durable
  /// Enqueue syncs it. An ack lost to a power failure only redelivers its
  /// message.
  Status Ack();

  /// Reads the newest message in the log, acknowledged or not. Returns
  /// NotFound when the log holds no message.
  Status PeekLast(std::string* message);

  /// Current backlog (messages after the cursor).
  Result<uint64_t> Backlog();

 private:
  /// Scans the log from offset 0, truncating a torn tail frame (crash
  /// artifact), rejecting complete frames with CRC mismatch, and replaying
  /// the ack records into the cursor. Runs on Open before the log is
  /// reopened for append.
  Status RecoverLog();
  /// Appends one record; on failure heals the log and returns the error.
  /// Requires mutex_.
  Status AppendRecord(Slice payload, bool durable);
  /// After a failed append: truncates the log back to `frame_start` and
  /// reopens it so a retry starts from a clean frame boundary.
  void HealFailedAppend(uint64_t frame_start);
  /// Flushes the log and opens a reader over it. Requires mutex_.
  Status OpenReader(std::unique_ptr<RandomAccessFile>* reader);

  std::string dir_;
  std::unique_ptr<WritableFile> log_;
  common::OrderedMutex mutex_{
      OPDELTA_LOCK_RANK(transport_queue, common::lockrank::kTransportQueue)};
  // Byte offset of the oldest unacknowledged message, or of an ack record
  // before it (Peek skips those).
  uint64_t read_offset_ = 0;
  uint64_t peeked_next_ = 0;   // offset after the last peeked message
  bool has_peeked_ = false;
  std::optional<uint64_t> newest_;  // offset of the newest message
};

}  // namespace opdelta::transport

#endif  // OPDELTA_TRANSPORT_PERSISTENT_QUEUE_H_
