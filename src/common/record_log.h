#ifndef OPDELTA_COMMON_RECORD_LOG_H_
#define OPDELTA_COMMON_RECORD_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/env.h"
#include "common/slice.h"
#include "common/status.h"

namespace opdelta::common {

/// A place in a RecordLog: byte `offset` of segment `segment`. Segment
/// indexes start at 1, so the default position is the start of the log.
struct RecordPosition {
  uint64_t segment = 0;
  uint64_t offset = 0;
};

/// An append-only log of checksummed records: a directory of numbered
/// segment files `<name>-000001.log`, ..., each a run of frames
/// [u32 len][u32 crc32c(payload)][payload]. The WAL, each hub source's
/// queue and each table's dead-letter log are one. Appended frames collect
/// in an in-memory tail until a Flush writes them to the newest (active)
/// segment; Read scans from a position, one read per segment.
///
/// Not thread-safe: the owner serializes the calls on an instance. The
/// static reader sees only written bytes, so it may run alongside a writer.
class RecordLog {
 public:
  RecordLog() = default;
  ~RecordLog();  // best-effort Close

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Opens (creating `dir` and segment 1 if needed) the log `name` in
  /// `dir`. A partial frame at the end of the newest segment is cut off,
  /// and appends continue after that segment's last whole frame.
  Status Open(const std::string& dir, const std::string& name);
  /// Writes the tail (no fdatasync) and closes the active segment.
  Status Close();
  bool is_open() const { return file_ != nullptr; }

  /// Adds a frame holding `payload` to the tail; returns where it starts.
  RecordPosition Append(Slice payload) {
    return AppendWith([payload](std::string* out) {
      out->append(payload.data(), payload.size());
    });
  }
  /// Adds a frame whose payload `encode(std::string*)` appends straight to
  /// the tail; returns where it starts.
  template <typename Encode>
  RecordPosition AppendWith(const Encode& encode) {
    const RecordPosition at = end();
    tail_.append(kHeaderSize, '\0');
    encode(&tail_);
    SealFrame(at);
    return at;
  }
  /// Appends a frame holding `payload` and writes the tail, syncing if
  /// `sync`. A failed write takes the frame back: it is not in the log.
  Status Write(Slice payload, bool sync);
  /// Takes back the frames from `at` on, which must still be in the tail.
  void Unappend(const RecordPosition& at) {
    tail_.resize(at.offset - written_);
  }

  /// Cuts the active segment back to its last whole frame and reopens it,
  /// if a failed write marked it for repair.
  Status Repair();
  /// Repairs, writes the tail, then fdatasyncs the active segment if `sync`.
  /// A failed write or sync keeps the frames in the tail and marks the
  /// segment for repair; while the repair fails, so does every Flush.
  Status Flush(bool sync);
  /// Flush(sync), then continues in a new segment.
  Status Roll(bool sync);
  /// Deletes every segment before `segment`; never the active one.
  Status DeleteBefore(uint64_t segment);

  /// Just past the last appended frame, tail included.
  RecordPosition end() const { return {active_, written_ + tail_.size()}; }
  uint64_t first_segment() const { return first_; }
  size_t buffered() const { return tail_.size(); }

  /// Reads the frame at `at`, whose payload is `size` bytes long, in one
  /// read; the frame must have been written.
  Status ReadFrame(const RecordPosition& at, size_t size,
                   std::string* payload) const;

  /// Visits a payload and the position its frame starts at; returns false
  /// to stop the read.
  using Visitor = std::function<bool(Slice payload, const RecordPosition& at)>;

  /// Reads the frames from `from` to the end of the log in order. On OK,
  /// *end (if non-null) is just past the last frame read, where a later
  /// read continues. A position whose segment is gone (the default one, or
  /// one DeleteBefore removed) reads from the oldest remaining segment, and
  /// *restarted (if non-null) says so before the first visit. A partial
  /// frame ends its segment: in the newest one it is a write in flight or
  /// torn by a crash, and the read ends there; in an older one it is a tail
  /// a crash tore before it was synced, and the read goes on in the next
  /// one. A checksum mismatch or a missing segment is Corruption; a missing
  /// `dir` is an empty log.
  static Status Read(const std::string& dir, const std::string& name,
                     const RecordPosition& from, const Visitor& visitor,
                     RecordPosition* end, bool* restarted = nullptr);

  /// "<name>-000042.log" for index 42 (more digits past 999999).
  static std::string SegmentName(const std::string& name, uint64_t index);
  /// Accepts exactly the names SegmentName produces.
  static bool ParseSegmentName(const std::string& file, std::string* name,
                               uint64_t* index);

 private:
  static constexpr size_t kHeaderSize = 8;  // fixed32 length + fixed32 CRC

  /// Fills in the header of the frame from `at` to the end of the tail.
  void SealFrame(const RecordPosition& at);

  std::string dir_;
  std::string name_;
  std::unique_ptr<WritableFile> file_;  // the active segment
  uint64_t first_ = 1;  // the oldest segment
  uint64_t active_ = 0;
  uint64_t written_ = 0;  // active segment bytes up to its last whole frame
  std::string tail_;      // frames not yet written
  bool needs_repair_ = false;  // the segment may hold bytes past written_
};

}  // namespace opdelta::common

#endif  // OPDELTA_COMMON_RECORD_LOG_H_
