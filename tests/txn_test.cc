#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/coding.h"
#include "common/fault_env.h"
#include "txn/lock_manager.h"
#include "txn/log_record.h"
#include "txn/wal.h"
#include "tests/test_util.h"

namespace opdelta::txn {
namespace {

using opdelta::testing::TempDir;

// -------------------------------------------------------------- LogRecord

TEST(LogRecordTest, RoundTripAllFields) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn_id = 77;
  rec.lsn = 123456;
  rec.table_id = 9;
  rec.rid = storage::Rid{42, 7};
  rec.rid2 = storage::Rid{43, 1};
  rec.before = "before-image-bytes";
  rec.after = "after-image-bytes";

  std::string buf;
  rec.EncodeTo(&buf);
  Slice in(buf);
  LogRecord out;
  OPDELTA_ASSERT_OK(LogRecord::DecodeFrom(&in, &out));
  EXPECT_EQ(out.type, rec.type);
  EXPECT_EQ(out.txn_id, rec.txn_id);
  EXPECT_EQ(out.lsn, rec.lsn);
  EXPECT_EQ(out.table_id, rec.table_id);
  EXPECT_TRUE(out.rid == rec.rid);
  EXPECT_TRUE(out.rid2 == rec.rid2);
  EXPECT_EQ(out.before, rec.before);
  EXPECT_EQ(out.after, rec.after);
}

TEST(LogRecordTest, RejectsBadType) {
  std::string buf = "\x7f rest";
  Slice in(buf);
  LogRecord out;
  EXPECT_FALSE(LogRecord::DecodeFrom(&in, &out).ok());
}

// -------------------------------------------------------------------- Wal

TEST(WalTest, AppendAssignsMonotonicLsns) {
  TempDir dir;
  Wal wal;
  OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), WalOptions()));
  Lsn prev = 0;
  for (int i = 0; i < 10; ++i) {
    LogRecord rec;
    rec.type = LogRecordType::kBegin;
    rec.txn_id = i;
    OPDELTA_ASSERT_OK(wal.Append(&rec));
    EXPECT_GT(rec.lsn, prev);
    prev = rec.lsn;
  }
  OPDELTA_ASSERT_OK(wal.Close());
}

TEST(WalTest, ReadAllReturnsRecordsInOrder) {
  TempDir dir;
  {
    Wal wal;
    OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), WalOptions()));
    for (int i = 0; i < 100; ++i) {
      LogRecord rec;
      rec.type = LogRecordType::kInsert;
      rec.txn_id = i;
      rec.after = "row-" + std::to_string(i);
      OPDELTA_ASSERT_OK(wal.Append(&rec));
    }
    OPDELTA_ASSERT_OK(wal.Close());
  }
  int i = 0;
  OPDELTA_ASSERT_OK(Wal::ReadAll(dir.Sub("wal"), [&](const LogRecord& r) {
    EXPECT_EQ(r.txn_id, static_cast<TxnId>(i));
    EXPECT_EQ(r.after, "row-" + std::to_string(i));
    ++i;
    return true;
  }));
  EXPECT_EQ(i, 100);
}

TEST(WalTest, SegmentsRollOver) {
  TempDir dir;
  WalOptions options;
  options.segment_size = 4096;  // tiny segments force rolls
  Wal wal;
  OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), options));
  for (int i = 0; i < 200; ++i) {
    LogRecord rec;
    rec.type = LogRecordType::kInsert;
    rec.after = std::string(100, 'x');
    OPDELTA_ASSERT_OK(wal.Append(&rec));
  }
  OPDELTA_ASSERT_OK(wal.Sync());  // the newest records are still buffered
  std::vector<std::string> segments;
  OPDELTA_ASSERT_OK(wal.ListSegments(&segments));
  EXPECT_GT(segments.size(), 2u);
  // All records must still stream back.
  int count = 0;
  OPDELTA_ASSERT_OK(Wal::ReadAll(dir.Sub("wal"), [&](const LogRecord&) {
    ++count;
    return true;
  }));
  EXPECT_EQ(count, 200);
}

TEST(WalTest, ArchiveModeRetainsSegmentsAtCheckpoint) {
  TempDir dir;
  WalOptions options;
  options.segment_size = 4096;
  options.archive_mode = true;
  Wal wal;
  OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), options));
  for (int i = 0; i < 200; ++i) {
    LogRecord rec;
    rec.type = LogRecordType::kInsert;
    rec.after = std::string(100, 'x');
    OPDELTA_ASSERT_OK(wal.Append(&rec));
  }
  std::vector<std::string> before;
  OPDELTA_ASSERT_OK(wal.ListSegments(&before));
  OPDELTA_ASSERT_OK(wal.Checkpoint());
  std::vector<std::string> after;
  OPDELTA_ASSERT_OK(wal.ListSegments(&after));
  EXPECT_EQ(before.size(), after.size());  // nothing recycled
}

TEST(WalTest, NonArchiveCheckpointRecyclesClosedSegments) {
  TempDir dir;
  WalOptions options;
  options.segment_size = 4096;
  options.archive_mode = false;
  Wal wal;
  OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), options));
  for (int i = 0; i < 200; ++i) {
    LogRecord rec;
    rec.type = LogRecordType::kInsert;
    rec.after = std::string(100, 'x');
    OPDELTA_ASSERT_OK(wal.Append(&rec));
  }
  OPDELTA_ASSERT_OK(wal.Checkpoint());
  std::vector<std::string> segments;
  OPDELTA_ASSERT_OK(wal.ListSegments(&segments));
  EXPECT_EQ(segments.size(), 1u);  // only the active segment remains
}

TEST(WalTest, ReopenContinuesLsnSequence) {
  TempDir dir;
  Lsn last;
  {
    Wal wal;
    OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), WalOptions()));
    LogRecord rec;
    rec.type = LogRecordType::kBegin;
    OPDELTA_ASSERT_OK(wal.Append(&rec));
    last = rec.lsn;
    OPDELTA_ASSERT_OK(wal.Close());
  }
  Wal wal;
  OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), WalOptions()));
  LogRecord rec;
  rec.type = LogRecordType::kBegin;
  OPDELTA_ASSERT_OK(wal.Append(&rec));
  EXPECT_GT(rec.lsn, last);
}

TEST(WalTest, CorruptFrameDetected) {
  TempDir dir;
  {
    Wal wal;
    OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), WalOptions()));
    LogRecord rec;
    rec.type = LogRecordType::kInsert;
    rec.after = "payload";
    OPDELTA_ASSERT_OK(wal.Append(&rec));
    OPDELTA_ASSERT_OK(wal.Close());
  }
  // Flip a payload byte in the only segment.
  std::vector<std::string> children;
  OPDELTA_ASSERT_OK(Env::Default()->ListDir(dir.Sub("wal"), &children));
  ASSERT_FALSE(children.empty());
  const std::string seg = dir.Sub("wal") + "/" + children[0];
  std::string data;
  OPDELTA_ASSERT_OK(Env::Default()->ReadFileToString(seg, &data));
  data[data.size() - 2] ^= 0xFF;
  OPDELTA_ASSERT_OK(Env::Default()->WriteStringToFile(seg, Slice(data)));

  Status st = Wal::ReadAll(dir.Sub("wal"), [](const LogRecord&) {
    return true;
  });
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(WalTest, TornTailOfNewestSegmentIsEndOfLog) {
  // A crash mid-append leaves a partial frame at the end of the active
  // segment; recovery must treat it as the end of the log, not corruption.
  TempDir dir;
  {
    Wal wal;
    OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), WalOptions()));
    for (int i = 0; i < 5; ++i) {
      LogRecord rec;
      rec.type = LogRecordType::kInsert;
      rec.txn_id = i;
      rec.after = "row";
      OPDELTA_ASSERT_OK(wal.Append(&rec));
    }
    OPDELTA_ASSERT_OK(wal.Close());
  }
  std::vector<std::string> children;
  OPDELTA_ASSERT_OK(Env::Default()->ListDir(dir.Sub("wal"), &children));
  ASSERT_EQ(children.size(), 1u);
  const std::string seg = dir.Sub("wal") + "/" + children[0];
  std::string data;
  OPDELTA_ASSERT_OK(Env::Default()->ReadFileToString(seg, &data));
  // Chop the last record in half and append a few header bytes of a
  // never-completed frame.
  data.resize(data.size() - 10);
  data.append("\x40\x00", 2);
  OPDELTA_ASSERT_OK(Env::Default()->WriteStringToFile(seg, Slice(data)));

  int seen = 0;
  OPDELTA_ASSERT_OK(Wal::ReadAll(dir.Sub("wal"), [&](const LogRecord&) {
    ++seen;
    return true;
  }));
  EXPECT_EQ(seen, 4);  // the torn 5th record is dropped cleanly
}

TEST(WalTest, TruncationInOlderSegmentIsCorruption) {
  TempDir dir;
  WalOptions options;
  options.segment_size = 512;  // force several segments
  {
    Wal wal;
    OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), options));
    for (int i = 0; i < 50; ++i) {
      LogRecord rec;
      rec.type = LogRecordType::kInsert;
      rec.after = std::string(100, 'x');
      OPDELTA_ASSERT_OK(wal.Append(&rec));
    }
    OPDELTA_ASSERT_OK(wal.Close());
  }
  std::vector<std::string> children;
  OPDELTA_ASSERT_OK(Env::Default()->ListDir(dir.Sub("wal"), &children));
  std::sort(children.begin(), children.end());
  ASSERT_GT(children.size(), 2u);
  // Truncate the FIRST segment: a hole in the middle of the log.
  const std::string seg = dir.Sub("wal") + "/" + children[0];
  std::string data;
  OPDELTA_ASSERT_OK(Env::Default()->ReadFileToString(seg, &data));
  data.resize(data.size() / 2);
  OPDELTA_ASSERT_OK(Env::Default()->WriteStringToFile(seg, Slice(data)));

  Status st = Wal::ReadAll(dir.Sub("wal"), [](const LogRecord&) {
    return true;
  });
  EXPECT_TRUE(st.IsCorruption());
}

TEST(WalTest, MidSegmentCrcFlipIsCorruption) {
  // Corruption of an EARLY record in a multi-record segment must be a hard
  // error even though plenty of valid frames follow it — only a torn frame
  // at the very tail of the newest segment is forgivable.
  TempDir dir;
  {
    Wal wal;
    OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), WalOptions()));
    for (int i = 0; i < 5; ++i) {
      LogRecord rec;
      rec.type = LogRecordType::kInsert;
      rec.txn_id = i;
      rec.after = "row-payload";
      OPDELTA_ASSERT_OK(wal.Append(&rec));
    }
    OPDELTA_ASSERT_OK(wal.Close());
  }
  std::vector<std::string> children;
  OPDELTA_ASSERT_OK(Env::Default()->ListDir(dir.Sub("wal"), &children));
  ASSERT_EQ(children.size(), 1u);
  const std::string seg = dir.Sub("wal") + "/" + children[0];
  std::string data;
  OPDELTA_ASSERT_OK(Env::Default()->ReadFileToString(seg, &data));
  data[12] ^= 0xFF;  // payload byte of the FIRST frame (header is 8 bytes)
  OPDELTA_ASSERT_OK(Env::Default()->WriteStringToFile(seg, Slice(data)));

  Status st = Wal::ReadAll(dir.Sub("wal"), [](const LogRecord&) {
    return true;
  });
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(WalTest, FrameBoundaryTruncationInOlderSegmentIsCorruption) {
  // Truncation that lands exactly on a frame boundary leaves a segment of
  // perfectly valid frames — only the dense-LSN check can notice that the
  // tail of the segment went missing.
  TempDir dir;
  WalOptions options;
  options.segment_size = 512;  // force several segments
  {
    Wal wal;
    OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), options));
    for (int i = 0; i < 50; ++i) {
      LogRecord rec;
      rec.type = LogRecordType::kInsert;
      rec.after = std::string(100, 'x');
      OPDELTA_ASSERT_OK(wal.Append(&rec));
    }
    OPDELTA_ASSERT_OK(wal.Close());
  }
  std::vector<std::string> children;
  OPDELTA_ASSERT_OK(Env::Default()->ListDir(dir.Sub("wal"), &children));
  std::sort(children.begin(), children.end());
  ASSERT_GT(children.size(), 2u);
  const std::string seg = dir.Sub("wal") + "/" + children[0];
  std::string data;
  OPDELTA_ASSERT_OK(Env::Default()->ReadFileToString(seg, &data));
  // Walk the [u32 len][u32 crc][payload] frames and count them, remembering
  // where the last complete frame begins.
  size_t offset = 0, frames = 0, last_frame_start = 0;
  auto le32 = [&](size_t at) {
    return static_cast<uint32_t>(static_cast<uint8_t>(data[at])) |
           static_cast<uint32_t>(static_cast<uint8_t>(data[at + 1])) << 8 |
           static_cast<uint32_t>(static_cast<uint8_t>(data[at + 2])) << 16 |
           static_cast<uint32_t>(static_cast<uint8_t>(data[at + 3])) << 24;
  };
  while (offset + 8 <= data.size() && offset + 8 + le32(offset) <= data.size()) {
    last_frame_start = offset;
    offset += 8 + le32(offset);
    ++frames;
  }
  ASSERT_GE(frames, 2u);  // need a surviving frame before the cut
  // Cut EXACTLY at the final frame boundary: every remaining byte still
  // parses and checksums, but one LSN has vanished.
  data.resize(last_frame_start);
  OPDELTA_ASSERT_OK(Env::Default()->WriteStringToFile(seg, Slice(data)));

  Status st = Wal::ReadAll(dir.Sub("wal"), [](const LogRecord&) {
    return true;
  });
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("lsn gap"), std::string::npos)
      << st.ToString();
}

// Appends `n` insert records (txn ids 0..n-1) to a fresh log in `dir`.
void WriteRecords(const std::string& dir, int n, const WalOptions& options) {
  Wal wal;
  OPDELTA_ASSERT_OK(wal.Open(dir, options));
  for (int i = 0; i < n; ++i) {
    LogRecord rec;
    rec.type = LogRecordType::kInsert;
    rec.txn_id = i;
    rec.after = "row-" + std::to_string(i);
    OPDELTA_ASSERT_OK(wal.Append(&rec));
  }
  OPDELTA_ASSERT_OK(wal.Close());
}

// Every record from `from` on, with the position each was read at.
struct PositionedRead {
  std::vector<LogRecord> records;
  std::vector<WalPosition> at;
  WalPosition end;
};

PositionedRead ReadFromPosition(const std::string& dir,
                                const WalPosition& from) {
  PositionedRead out;
  Status st = Wal::ReadFrom(
      dir, from,
      [&](const LogRecord& r, const WalPosition& at) {
        out.records.push_back(r);
        out.at.push_back(at);
        return true;
      },
      &out.end);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

std::string OnlySegment(const std::string& dir) {
  std::vector<std::string> children;
  EXPECT_TRUE(Env::Default()->ListDir(dir, &children).ok());
  EXPECT_EQ(children.size(), 1u);
  return children.empty() ? std::string() : dir + "/" + children[0];
}

TEST(WalTest, TornTailSurvivesReopen) {
  // Open accepts a torn tail as the end of the log, then moves appends to a
  // fresh segment — after which the torn segment is no longer the newest,
  // so it must have been cut back to its last complete frame.
  TempDir dir;
  WriteRecords(dir.Sub("wal"), 5, WalOptions());
  const std::string seg = OnlySegment(dir.Sub("wal"));
  std::string data;
  OPDELTA_ASSERT_OK(Env::Default()->ReadFileToString(seg, &data));
  data.resize(data.size() - 10);
  data.append("\x40\x00", 2);
  OPDELTA_ASSERT_OK(Env::Default()->WriteStringToFile(seg, Slice(data)));

  {
    Wal wal;
    OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), WalOptions()));
    LogRecord rec;
    rec.type = LogRecordType::kInsert;
    rec.txn_id = 42;
    rec.after = "after-reopen";
    OPDELTA_ASSERT_OK(wal.Append(&rec));
    OPDELTA_ASSERT_OK(wal.Close());
  }

  std::vector<LogRecord> seen;
  OPDELTA_ASSERT_OK(Wal::ReadAll(dir.Sub("wal"), [&](const LogRecord& r) {
    seen.push_back(r);
    return true;
  }));
  ASSERT_EQ(seen.size(), 5u);  // 4 surviving records + 1 appended after
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(seen[i].txn_id, i);
  EXPECT_EQ(seen[4].txn_id, 42u);
  EXPECT_EQ(seen[4].lsn, seen[3].lsn + 1);

  Wal again;
  OPDELTA_ASSERT_OK(again.Open(dir.Sub("wal"), WalOptions()));
  EXPECT_EQ(again.last_lsn(), seen[4].lsn);
  OPDELTA_ASSERT_OK(again.Close());
}

TEST(WalTest, ReadFromResumesWithExactlyTheSuffix) {
  TempDir dir;
  WalOptions options;
  options.segment_size = 512;  // positions in many segments
  WriteRecords(dir.Sub("wal"), 60, options);
  const PositionedRead all = ReadFromPosition(dir.Sub("wal"), WalPosition{});
  ASSERT_EQ(all.records.size(), 60u);
  EXPECT_GT(all.end.segment, 2u);

  for (size_t k = 0; k < all.records.size(); ++k) {
    const PositionedRead suffix = ReadFromPosition(dir.Sub("wal"), all.at[k]);
    ASSERT_EQ(suffix.records.size(), all.records.size() - k) << "from " << k;
    for (size_t i = 0; i < suffix.records.size(); ++i) {
      EXPECT_EQ(suffix.records[i].lsn, all.records[k + i].lsn);
      EXPECT_EQ(suffix.records[i].after, all.records[k + i].after);
      EXPECT_EQ(suffix.at[i].segment, all.at[k + i].segment);
      EXPECT_EQ(suffix.at[i].offset, all.at[k + i].offset);
    }
    EXPECT_EQ(suffix.end.segment, all.end.segment);
    EXPECT_EQ(suffix.end.offset, all.end.offset);
    EXPECT_EQ(suffix.end.prev_lsn, all.records.back().lsn);
  }
  const PositionedRead none = ReadFromPosition(dir.Sub("wal"), all.end);
  EXPECT_TRUE(none.records.empty());
  EXPECT_EQ(none.end.offset, all.end.offset);
}

TEST(WalTest, ReadFromReportsFrameMissingAfterPositionAsCorruption) {
  TempDir dir;
  WriteRecords(dir.Sub("wal"), 10, WalOptions());
  WalPosition mid;
  OPDELTA_ASSERT_OK(Wal::ReadFrom(
      dir.Sub("wal"), WalPosition{},
      [](const LogRecord& r, const WalPosition&) { return r.txn_id < 4; },
      &mid));
  ASSERT_EQ(mid.prev_lsn, 5u);  // stopped just past the 5th record

  // Splice out the frame right after the position: the next frame still
  // parses and checksums, but the resumed read must see the LSN jump.
  const std::string seg = OnlySegment(dir.Sub("wal"));
  std::string data;
  OPDELTA_ASSERT_OK(Env::Default()->ReadFileToString(seg, &data));
  Slice header(data.data() + mid.offset, 4);
  uint32_t len = 0;
  ASSERT_TRUE(GetFixed32(&header, &len));
  data.erase(mid.offset, 8 + len);
  OPDELTA_ASSERT_OK(Env::Default()->WriteStringToFile(seg, Slice(data)));

  Status st = Wal::ReadFrom(
      dir.Sub("wal"), mid,
      [](const LogRecord&, const WalPosition&) { return true; }, nullptr);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("lsn gap"), std::string::npos)
      << st.ToString();
}

TEST(WalTest, ReadFromStopsBeforeTornTailAndReturnsItOnceComplete) {
  // A reader racing an append can find the newest frame half written. The
  // returned position must stay at the frame's start, so the next read
  // returns it — once — when it is complete.
  TempDir dir;
  WriteRecords(dir.Sub("wal"), 5, WalOptions());
  const std::string seg = OnlySegment(dir.Sub("wal"));
  std::string full;
  OPDELTA_ASSERT_OK(Env::Default()->ReadFileToString(seg, &full));
  const PositionedRead whole = ReadFromPosition(dir.Sub("wal"), WalPosition{});
  ASSERT_EQ(whole.records.size(), 5u);
  const uint64_t last_start = whole.at[4].offset;

  OPDELTA_ASSERT_OK(Env::Default()->WriteStringToFile(
      seg, Slice(full.data(), static_cast<size_t>(last_start) + 10)));
  const PositionedRead torn = ReadFromPosition(dir.Sub("wal"), WalPosition{});
  EXPECT_EQ(torn.records.size(), 4u);
  EXPECT_EQ(torn.end.offset, last_start);
  EXPECT_EQ(torn.end.prev_lsn, whole.records[3].lsn);

  OPDELTA_ASSERT_OK(Env::Default()->WriteStringToFile(seg, Slice(full)));
  const PositionedRead rest = ReadFromPosition(dir.Sub("wal"), torn.end);
  ASSERT_EQ(rest.records.size(), 1u);
  EXPECT_EQ(rest.records[0].lsn, whole.records[4].lsn);
  EXPECT_EQ(rest.end.offset, full.size());
  EXPECT_TRUE(ReadFromPosition(dir.Sub("wal"), rest.end).records.empty());
}

TEST(WalTest, ReadFromRecycledSegmentRestartsAtFirstRemaining) {
  TempDir dir;
  WalOptions options;
  options.segment_size = 512;
  options.archive_mode = false;
  Wal wal;
  OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), options));
  for (int i = 0; i < 30; ++i) {
    LogRecord rec;
    rec.type = LogRecordType::kInsert;
    rec.txn_id = i;
    rec.after = std::string(100, 'x');
    OPDELTA_ASSERT_OK(wal.Append(&rec));
  }
  OPDELTA_ASSERT_OK(wal.Sync());  // the newest records are still buffered
  const PositionedRead before = ReadFromPosition(dir.Sub("wal"), WalPosition{});
  ASSERT_EQ(before.records.size(), 30u);
  const WalPosition in_first = before.at[2];
  OPDELTA_ASSERT_OK(wal.Checkpoint());  // recycles every closed segment
  for (int i = 0; i < 2; ++i) {
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    OPDELTA_ASSERT_OK(wal.Append(&rec));
  }
  OPDELTA_ASSERT_OK(wal.Sync());

  std::vector<Lsn> remaining;
  OPDELTA_ASSERT_OK(Wal::ReadAll(dir.Sub("wal"), [&](const LogRecord& r) {
    remaining.push_back(r.lsn);
    return true;
  }));
  ASSERT_LT(remaining.size(), 30u);
  const PositionedRead resumed = ReadFromPosition(dir.Sub("wal"), in_first);
  ASSERT_EQ(resumed.records.size(), remaining.size());
  for (size_t i = 0; i < remaining.size(); ++i) {
    EXPECT_EQ(resumed.records[i].lsn, remaining[i]);
  }
  EXPECT_GT(resumed.end.segment, in_first.segment);
  OPDELTA_ASSERT_OK(wal.Close());
}

TEST(WalTest, MissingMiddleSegmentIsCorruption) {
  TempDir dir;
  WalOptions options;
  options.segment_size = 512;
  WriteRecords(dir.Sub("wal"), 100, options);
  const PositionedRead all = ReadFromPosition(dir.Sub("wal"), WalPosition{});
  ASSERT_GT(all.end.segment, 3u);
  WalPosition in_second;
  for (const WalPosition& at : all.at) {
    if (at.segment == all.at[0].segment + 1 && at.offset > 0) {
      in_second = at;
      break;
    }
  }
  ASSERT_NE(in_second.segment, 0u);
  OPDELTA_ASSERT_OK(Env::Default()->DeleteFile(
      dir.Sub("wal") + "/" + WalSegmentName(in_second.segment)));

  auto visit = [](const LogRecord&, const WalPosition&) { return true; };
  Status st = Wal::ReadFrom(dir.Sub("wal"), WalPosition{}, visit, nullptr);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  st = Wal::ReadFrom(dir.Sub("wal"), in_second, visit, nullptr);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

// Appends fill the in-memory tail; the readable log is what the last flush
// point wrote.
TEST(WalTest, RecordsBecomeReadableAtFlushPoints) {
  TempDir dir;
  Wal wal;
  OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), WalOptions()));
  auto readable = [&]() {
    size_t n = 0;
    Status st = Wal::ReadAll(dir.Sub("wal"), [&](const LogRecord&) {
      ++n;
      return true;
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    return n;
  };
  LogRecord rec;
  rec.type = LogRecordType::kInsert;
  rec.after = "row";
  OPDELTA_ASSERT_OK(wal.Append(&rec));
  OPDELTA_ASSERT_OK(wal.Append(&rec));
  EXPECT_EQ(readable(), 0u);
  OPDELTA_ASSERT_OK(wal.Flush());
  EXPECT_EQ(readable(), 2u);
  OPDELTA_ASSERT_OK(wal.Append(&rec));
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  OPDELTA_ASSERT_OK(wal.AppendCommit(&commit));
  EXPECT_EQ(commit.lsn, 4u);
  EXPECT_EQ(readable(), 4u);

  // A full tail is written without a flush point.
  rec.after = std::string(1000, 'v');
  for (int i = 0; i < 100; ++i) OPDELTA_ASSERT_OK(wal.Append(&rec));
  const size_t written = readable();
  EXPECT_GT(written, 4u);
  EXPECT_LT(written, 104u);
  OPDELTA_ASSERT_OK(wal.Close());
  EXPECT_EQ(readable(), 104u);
}

// A commit whose write fails hands its LSN back, and the segment is cut
// back to its last whole frame before the next write: the log reads back
// dense, without the failed commit, and reopens.
TEST(WalTest, FailedCommitWriteIsCutBackAndItsLsnReused) {
  TempDir dir;
  FaultInjectionEnv fenv(Env::Default());
  opdelta::testing::ScopedEnvOverride guard(&fenv);
  Wal wal;
  OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), WalOptions()));
  LogRecord rec;
  rec.type = LogRecordType::kInsert;
  rec.after = std::string(200, 'r');
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  OPDELTA_ASSERT_OK(wal.Append(&rec));
  OPDELTA_ASSERT_OK(wal.AppendCommit(&commit));
  const std::string seg = dir.Sub("wal") + "/" + WalSegmentName(1);
  uint64_t whole = 0;
  OPDELTA_ASSERT_OK(Env::Default()->GetFileSize(seg, &whole));
  const uint64_t bytes = wal.bytes_appended();

  OPDELTA_ASSERT_OK(wal.Append(&rec));
  fenv.SetErrorProbability(FaultInjectionEnv::OpKind::kWrite, 1.0);
  fenv.SetShortWriteProbability(1.0);
  Status st = wal.AppendCommit(&commit);
  fenv.ClearFaults();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(commit.lsn, kInvalidLsn);
  EXPECT_EQ(wal.last_lsn(), 3u);  // the insert stays in the tail
  EXPECT_GT(wal.bytes_appended(), bytes);
  uint64_t torn = 0;
  OPDELTA_ASSERT_OK(Env::Default()->GetFileSize(seg, &torn));
  ASSERT_GT(torn, whole);  // a prefix of the tail reached the segment

  LogRecord abort;
  abort.type = LogRecordType::kAbort;
  OPDELTA_ASSERT_OK(wal.Append(&abort));
  EXPECT_EQ(abort.lsn, 4u);  // the failed commit's LSN
  OPDELTA_ASSERT_OK(wal.Close());

  std::vector<LogRecordType> types;
  Lsn prev = 0;
  OPDELTA_ASSERT_OK(Wal::ReadAll(dir.Sub("wal"), [&](const LogRecord& r) {
    EXPECT_EQ(r.lsn, prev + 1);
    prev = r.lsn;
    types.push_back(r.type);
    return true;
  }));
  EXPECT_EQ(types,
            (std::vector<LogRecordType>{
                LogRecordType::kInsert, LogRecordType::kCommit,
                LogRecordType::kInsert, LogRecordType::kAbort}));
  Wal again;
  OPDELTA_ASSERT_OK(again.Open(dir.Sub("wal"), WalOptions()));
  EXPECT_EQ(again.last_lsn(), 4u);
  OPDELTA_ASSERT_OK(again.Close());
}

// Under sync_on_commit a committed transaction survives a power failure
// even when its records span segment rolls: each roll syncs the segment it
// closes, which a commit's sync of the active segment does not reach.
TEST(WalTest, SyncOnCommitCoversSegmentsClosedByARoll) {
  TempDir dir;
  FaultInjectionEnv fenv(Env::Default());
  opdelta::testing::ScopedEnvOverride guard(&fenv);
  WalOptions options;
  options.segment_size = 4096;
  options.sync_on_commit = true;
  {
    Wal wal;
    OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), options));
    LogRecord rec;
    rec.type = LogRecordType::kInsert;
    rec.after = std::string(100, 'x');
    for (int i = 0; i < 100; ++i) OPDELTA_ASSERT_OK(wal.Append(&rec));
    LogRecord commit;
    commit.type = LogRecordType::kCommit;
    OPDELTA_ASSERT_OK(wal.AppendCommit(&commit));
    std::vector<std::string> segments;
    OPDELTA_ASSERT_OK(wal.ListSegments(&segments));
    ASSERT_GT(segments.size(), 2u);
    // Power fails: every byte no fdatasync covered is gone.
    OPDELTA_ASSERT_OK(fenv.CrashAndDropUnsynced(/*torn_tails=*/false));
  }
  std::vector<Lsn> lsns;
  OPDELTA_ASSERT_OK(Wal::ReadAll(dir.Sub("wal"), [&](const LogRecord& r) {
    lsns.push_back(r.lsn);
    return true;
  }));
  ASSERT_EQ(lsns.size(), 101u);
  EXPECT_EQ(lsns.front(), 1u);
  EXPECT_EQ(lsns.back(), 101u);
}

// A crash leaves a begun transaction with neither a commit nor an abort
// record; the next Open logs its abort, once.
TEST(WalTest, ReopenAbortsTransactionsLeftOpen) {
  TempDir dir;
  auto append = [](Wal* wal, LogRecordType type, TxnId txn) {
    LogRecord rec;
    rec.type = type;
    rec.txn_id = txn;
    return type == LogRecordType::kCommit ? wal->AppendCommit(&rec)
                                          : wal->Append(&rec);
  };
  {
    Wal wal;
    OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), WalOptions()));
    OPDELTA_ASSERT_OK(append(&wal, LogRecordType::kBegin, 7));
    OPDELTA_ASSERT_OK(append(&wal, LogRecordType::kInsert, 7));
    OPDELTA_ASSERT_OK(append(&wal, LogRecordType::kBegin, 8));
    OPDELTA_ASSERT_OK(append(&wal, LogRecordType::kCommit, 8));
    OPDELTA_ASSERT_OK(append(&wal, LogRecordType::kBegin, 9));
    OPDELTA_ASSERT_OK(append(&wal, LogRecordType::kAbort, 9));
    OPDELTA_ASSERT_OK(append(&wal, LogRecordType::kInsert, 10));  // no kBegin
    OPDELTA_ASSERT_OK(wal.Close());
  }
  auto aborts = [&]() {
    std::vector<TxnId> out;
    EXPECT_TRUE(Wal::ReadAll(dir.Sub("wal"), [&](const LogRecord& r) {
                  if (r.type == LogRecordType::kAbort) out.push_back(r.txn_id);
                  return true;
                }).ok());
    return out;
  };
  for (int reopen = 0; reopen < 2; ++reopen) {
    Wal wal;
    OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), WalOptions()));
    EXPECT_EQ(wal.last_lsn(), 8u);
    EXPECT_EQ(aborts(), (std::vector<TxnId>{9, 7})) << "reopen " << reopen;
    OPDELTA_ASSERT_OK(wal.Close());
  }
}

TEST(WalTest, BytesAppendedTracksVolume) {
  TempDir dir;
  Wal wal;
  OPDELTA_ASSERT_OK(wal.Open(dir.Sub("wal"), WalOptions()));
  EXPECT_EQ(wal.bytes_appended(), 0u);
  LogRecord rec;
  rec.type = LogRecordType::kInsert;
  rec.after = std::string(1000, 'v');
  OPDELTA_ASSERT_OK(wal.Append(&rec));
  EXPECT_GT(wal.bytes_appended(), 1000u);
}

// ------------------------------------------------------------ LockManager

TEST(LockModeTest, CompatibilityMatrix) {
  using L = LockMode;
  // IS compatible with all but X.
  EXPECT_TRUE(LockModesCompatible(L::kIS, L::kIS));
  EXPECT_TRUE(LockModesCompatible(L::kIS, L::kIX));
  EXPECT_TRUE(LockModesCompatible(L::kIS, L::kS));
  EXPECT_FALSE(LockModesCompatible(L::kIS, L::kX));
  // IX compatible with intentions only.
  EXPECT_TRUE(LockModesCompatible(L::kIX, L::kIX));
  EXPECT_FALSE(LockModesCompatible(L::kIX, L::kS));
  EXPECT_FALSE(LockModesCompatible(L::kIX, L::kX));
  // S compatible with IS and S.
  EXPECT_TRUE(LockModesCompatible(L::kS, L::kIS));
  EXPECT_TRUE(LockModesCompatible(L::kS, L::kS));
  EXPECT_FALSE(LockModesCompatible(L::kS, L::kIX));
  // X compatible with nothing.
  EXPECT_FALSE(LockModesCompatible(L::kX, L::kIS));
  EXPECT_FALSE(LockModesCompatible(L::kX, L::kX));
}

TEST(LockManagerTest, SharedTableLocksCoexist) {
  LockManager lm;
  OPDELTA_ASSERT_OK(lm.LockTable(1, 100, LockMode::kS));
  OPDELTA_ASSERT_OK(lm.LockTable(2, 100, LockMode::kS));
  OPDELTA_ASSERT_OK(lm.LockTable(3, 100, LockMode::kIS));
  EXPECT_EQ(lm.HoldersOnTable(100), 3u);
}

TEST(LockManagerTest, ExclusiveBlocksOthersUntilRelease) {
  LockManager lm(std::chrono::milliseconds(100));
  OPDELTA_ASSERT_OK(lm.LockTable(1, 100, LockMode::kX));
  // A second transaction times out while txn 1 holds X.
  Status st = lm.LockTable(2, 100, LockMode::kIS,
                           std::chrono::milliseconds(50));
  EXPECT_TRUE(st.IsConflict());

  // After release the blocked mode is grantable.
  lm.ReleaseAll(1);
  OPDELTA_ASSERT_OK(lm.LockTable(2, 100, LockMode::kIS));
}

TEST(LockManagerTest, BlockedRequestWakesOnRelease) {
  LockManager lm;
  OPDELTA_ASSERT_OK(lm.LockTable(1, 5, LockMode::kX));
  std::atomic<bool> granted{false};
  std::thread waiter([&]() {
    Status st = lm.LockTable(2, 5, LockMode::kS, std::chrono::seconds(5));
    if (st.ok()) granted = true;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (lm.WaitersOnTable(5) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(lm.WaitersOnTable(5), 1u);
  EXPECT_FALSE(granted.load());
  lm.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(granted.load());
}

TEST(LockManagerTest, ReentrantAndUpgrade) {
  LockManager lm(std::chrono::milliseconds(100));
  OPDELTA_ASSERT_OK(lm.LockTable(1, 7, LockMode::kIS));
  OPDELTA_ASSERT_OK(lm.LockTable(1, 7, LockMode::kIS));  // re-entrant
  OPDELTA_ASSERT_OK(lm.LockTable(1, 7, LockMode::kX));   // upgrade, sole holder
  // Another txn now conflicts.
  EXPECT_TRUE(lm.LockTable(2, 7, LockMode::kIS, std::chrono::milliseconds(30))
                  .IsConflict());
}

TEST(LockManagerTest, RowLocksConflictOnlyOnSameRow) {
  LockManager lm(std::chrono::milliseconds(100));
  const storage::Rid r1{1, 1}, r2{1, 2};
  OPDELTA_ASSERT_OK(lm.LockRow(1, 9, r1, /*exclusive=*/true));
  OPDELTA_ASSERT_OK(lm.LockRow(2, 9, r2, /*exclusive=*/true));  // no conflict
  EXPECT_TRUE(lm.LockRow(2, 9, r1, true, std::chrono::milliseconds(30))
                  .IsConflict());
  // Shared row locks coexist.
  const storage::Rid r3{2, 0};
  OPDELTA_ASSERT_OK(lm.LockRow(1, 9, r3, false));
  OPDELTA_ASSERT_OK(lm.LockRow(2, 9, r3, false));
  EXPECT_TRUE(lm.LockRow(3, 9, r3, true, std::chrono::milliseconds(30))
                  .IsConflict());
}

TEST(LockManagerTest, RowLockReentrantUpgrade) {
  LockManager lm;
  const storage::Rid r{1, 1};
  OPDELTA_ASSERT_OK(lm.LockRow(1, 3, r, false));
  OPDELTA_ASSERT_OK(lm.LockRow(1, 3, r, true));  // upgrade, sole sharer
  OPDELTA_ASSERT_OK(lm.LockRow(1, 3, r, true));  // re-entrant
}

TEST(LockManagerTest, ReleaseAllClearsEverything) {
  LockManager lm;
  OPDELTA_ASSERT_OK(lm.LockTable(1, 1, LockMode::kX));
  OPDELTA_ASSERT_OK(lm.LockRow(1, 1, storage::Rid{0, 0}, true));
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.HoldersOnTable(1), 0u);
  OPDELTA_ASSERT_OK(lm.LockTable(2, 1, LockMode::kX));
}

TEST(LockManagerTest, TableXCoversRowLocksWithoutRecordingThem) {
  LockManager lm(std::chrono::milliseconds(100));
  const storage::Rid r1{1, 1}, r2{1, 2};
  OPDELTA_ASSERT_OK(lm.LockTable(1, 4, LockMode::kX));
  OPDELTA_ASSERT_OK(lm.LockRow(1, 4, r1, /*exclusive=*/true));
  OPDELTA_ASSERT_OK(lm.LockRow(1, 4, r2, /*exclusive=*/false));
  // Covered requests leave no row entry, so a second transaction's direct
  // row request (one that skips the table lock) meets no holder.
  OPDELTA_EXPECT_OK(lm.LockRow(2, 4, r1, true, std::chrono::milliseconds(30)));
  OPDELTA_EXPECT_OK(lm.LockRow(3, 4, r2, true, std::chrono::milliseconds(30)));
}

TEST(LockManagerTest, TableSCoversSharedRowRequestsOnly) {
  LockManager lm(std::chrono::milliseconds(100));
  const storage::Rid shared{2, 1}, exclusive{2, 2};
  OPDELTA_ASSERT_OK(lm.LockTable(1, 6, LockMode::kS));
  OPDELTA_ASSERT_OK(lm.LockRow(1, 6, shared, /*exclusive=*/false));
  OPDELTA_EXPECT_OK(
      lm.LockRow(2, 6, shared, true, std::chrono::milliseconds(30)));
  // An exclusive request is not covered by table S: it is recorded.
  OPDELTA_ASSERT_OK(lm.LockRow(1, 6, exclusive, /*exclusive=*/true));
  EXPECT_TRUE(lm.LockRow(3, 6, exclusive, false, std::chrono::milliseconds(30))
                  .IsConflict());
}

TEST(LockManagerTest, RowEntryTakenBeforeATableUpgradeStaysUntilReleaseAll) {
  LockManager lm(std::chrono::milliseconds(100));
  const storage::Rid r{3, 1};
  OPDELTA_ASSERT_OK(lm.LockTable(1, 8, LockMode::kIX));
  OPDELTA_ASSERT_OK(lm.LockRow(1, 8, r, /*exclusive=*/true));
  OPDELTA_ASSERT_OK(lm.LockTable(1, 8, LockMode::kX));
  OPDELTA_ASSERT_OK(lm.LockRow(1, 8, r, /*exclusive=*/true));  // covered
  EXPECT_TRUE(lm.LockRow(2, 8, r, false, std::chrono::milliseconds(30))
                  .IsConflict());
  lm.ReleaseAll(1);
  OPDELTA_EXPECT_OK(lm.LockRow(2, 8, r, false, std::chrono::milliseconds(30)));
}

}  // namespace
}  // namespace opdelta::txn
