#ifndef OPDELTA_TRANSPORT_PERSISTENT_QUEUE_H_
#define OPDELTA_TRANSPORT_PERSISTENT_QUEUE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>

#include "common/record_log.h"
#include "common/status.h"
#include "common/sync.h"

namespace opdelta::transport {

/// Durable FIFO message queue with at-least-once delivery: the "persistent
/// queues ... [whose] choice depends on the requirement of transaction
/// guarantees" transport of §1. Messages survive process restarts; a
/// consumer Peek()s, processes, then Ack()s.
///
/// On-disk layout: a common::RecordLog of segments `queue-000001.log`, ...
/// A record with a payload is a message; an empty record is an ack, and
/// acknowledges the oldest message no earlier ack record has. Open replays
/// the acks, so the log is the queue's only state. A write that fails
/// leaves its record out of the queue.
///
/// Trimming: an Enqueue that finds the backlog empty once the active
/// segment holds kSegmentBytes starts a new segment with its message,
/// syncs it, then deletes every earlier segment: each message there is
/// acknowledged, so no later ack points into them, and the newest message
/// (PeekLast) is the one just synced. The queue keeps about one segment
/// plus its backlog on disk.
class PersistentQueue {
 public:
  /// Active segment size from which an Enqueue that finds the backlog
  /// empty starts a new segment.
  static constexpr uint64_t kSegmentBytes = 256 << 10;

  PersistentQueue() = default;

  PersistentQueue(const PersistentQueue&) = delete;
  PersistentQueue& operator=(const PersistentQueue&) = delete;

  /// Opens (creating if needed) a queue rooted at `dir`. A directory that
  /// holds a `queue.log` from before segmented queues is NotSupported.
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
  struct Message {  // where a message's frame starts, and its length
    common::RecordPosition at;
    size_t size = 0;
  };

  common::RecordLog log_;
  common::OrderedMutex mutex_{
      OPDELTA_LOCK_RANK(transport_queue, common::lockrank::kTransportQueue)};
  std::deque<Message> unacked_;    // oldest first
  std::optional<Message> newest_;  // acknowledged or not
  bool has_peeked_ = false;
};

}  // namespace opdelta::transport

#endif  // OPDELTA_TRANSPORT_PERSISTENT_QUEUE_H_
