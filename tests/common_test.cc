#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iterator>
#include <set>
#include <thread>

#include "common/clock.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/digest.h"
#include "common/env.h"
#include "common/random.h"
#include "common/record_log.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "tests/test_util.h"

namespace opdelta {
namespace {

using testing::TempDir;

// ----------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "missing thing");
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, DistinctCodes) {
  EXPECT_TRUE(Status::Conflict("x").IsConflict());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_FALSE(Status::IOError("x").IsConflict());
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Busy("nope"); };
  auto wrapper = [&]() -> Status {
    OPDELTA_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kBusy);
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err(Status::InvalidArgument("bad"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = []() -> Result<std::string> { return std::string("hi"); };
  auto consume = [&]() -> Result<size_t> {
    OPDELTA_ASSIGN_OR_RETURN(std::string s, produce());
    return s.size();
  };
  Result<size_t> r = consume();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2u);
}

// ------------------------------------------------------------------ Slice

TEST(SliceTest, BasicViews) {
  std::string s = "hello world";
  Slice slice(s);
  EXPECT_EQ(slice.size(), 11u);
  EXPECT_TRUE(slice.starts_with("hello"));
  slice.remove_prefix(6);
  EXPECT_EQ(slice.ToString(), "world");
}

TEST(SliceTest, Comparison) {
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

// ----------------------------------------------------------------- Coding

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEF);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Slice in(buf);
  uint16_t a;
  uint32_t b;
  uint64_t c;
  ASSERT_TRUE(GetFixed16(&in, &a));
  ASSERT_TRUE(GetFixed32(&in, &b));
  ASSERT_TRUE(GetFixed64(&in, &c));
  EXPECT_EQ(a, 0xBEEF);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintBoundaries) {
  const uint64_t cases[] = {0,       1,          127,        128,
                            16383,   16384,      (1u << 21) - 1,
                            1u << 21, 0xFFFFFFFFull, 1ull << 42,
                            ~0ull};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint64(&buf, v);
    Slice in(buf);
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(&in, &out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodingTest, Varint32TruncatedFails) {
  std::string buf;
  PutVarint32(&buf, 1u << 30);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint32_t out;
  EXPECT_FALSE(GetVarint32(&in, &out));
}

TEST(CodingTest, ZigZagSigned) {
  const int64_t cases[] = {0, 1, -1, 63, -64, INT64_MAX, INT64_MIN, -123456789};
  for (int64_t v : cases) {
    std::string buf;
    PutVarint64Signed(&buf, v);
    Slice in(buf);
    int64_t out = 0;
    ASSERT_TRUE(GetVarint64Signed(&in, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, Slice("alpha"));
  PutLengthPrefixed(&buf, Slice(""));
  PutLengthPrefixed(&buf, Slice(std::string(1000, 'x')));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a.ToString(), "alpha");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 1000u);
}

// Property sweep: random varint round trips.
class CodingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodingPropertyTest, RandomVarintRoundTrips) {
  Rng rng(GetParam());
  std::string buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Next() >> (rng.Uniform(64));
    values.push_back(v);
    PutVarint64(&buf, v);
  }
  Slice in(buf);
  for (uint64_t expected : values) {
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(&in, &out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_TRUE(in.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodingPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

// -------------------------------------------------------------------- CRC

TEST(Crc32Test, KnownValues) {
  // CRC-32C of "123456789" is 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32Test, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); split += 7) {
    uint32_t crc = Crc32c(data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, Crc32c(data.data(), data.size()));
  }
}

TEST(Crc32Test, DetectsCorruption) {
  std::string data = "some payload";
  const uint32_t crc = Crc32c(data.data(), data.size());
  data[3] ^= 0x01;
  EXPECT_NE(Crc32c(data.data(), data.size()), crc);
}

uint32_t PortableCrc(const std::string& data) {
  return Crc32cExtendPortableForTesting(0, data.data(), data.size());
}

TEST(Crc32Test, HardwarePathSelectedOnSse42Cpus) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  EXPECT_EQ(Crc32cUsesHardwareForTesting(),
            __builtin_cpu_supports("sse4.2") != 0);
#else
  EXPECT_FALSE(Crc32cUsesHardwareForTesting());
#endif
}

TEST(Crc32Test, Rfc3720VectorsOnBothPaths) {
  // RFC 3720 section B.4.
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  const std::pair<std::string, uint32_t> vectors[] = {
      {std::string(32, '\0'), 0x8A9136AAu},
      {std::string(32, '\xff'), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},
  };
  for (const auto& [data, expected] : vectors) {
    EXPECT_EQ(Crc32c(data.data(), data.size()), expected);
    EXPECT_EQ(PortableCrc(data), expected);
  }
}

TEST(Crc32Test, MatchesTablePathAtEveryLengthAndOffset) {
  Rng rng(20260);
  std::string buf(128 * 1024 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  // `buf` is heap-allocated, so its data is at least 8-byte aligned.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const std::string piece = buf.substr(offset, len);
      ASSERT_EQ(Crc32c(buf.data() + offset, len), PortableCrc(piece))
          << "offset " << offset << " len " << len;
    }
  }
  for (size_t len : {size_t{4096}, size_t{64 * 1024 + 3}, size_t{128 * 1024}}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      EXPECT_EQ(Crc32c(buf.data() + offset, len),
                PortableCrc(buf.substr(offset, len)))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32Test, ExtendAtEverySplitMatchesOneShot) {
  Rng rng(7);
  std::string data(100, '\0');
  for (char& c : data) c = static_cast<char>(rng.Uniform(256));
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(Crc32cExtend(Crc32c(data.data(), split), data.data() + split,
                           data.size() - split),
              whole);
    EXPECT_EQ(Crc32cExtendPortableForTesting(
                  PortableCrc(data.substr(0, split)), data.data() + split,
                  data.size() - split),
              whole);
  }
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextStringAlphanumeric) {
  Rng rng(9);
  std::string s = rng.NextString(64);
  EXPECT_EQ(s.size(), 64u);
  for (char c : s) EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)));
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ------------------------------------------------------------------ Clock

TEST(ClockTest, RealClockAdvances) {
  RealClock* clock = RealClock::Default();
  Micros a = clock->NowMicros();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(clock->NowMicros(), a);
}

TEST(ClockTest, SimulatedClockTicksAndAdvances) {
  SimulatedClock clock(1000, 1);
  EXPECT_EQ(clock.NowMicros(), 1000);
  EXPECT_EQ(clock.NowMicros(), 1001);  // auto tick
  clock.Advance(500);
  EXPECT_GE(clock.NowMicros(), 1500);
  clock.Set(42);
  EXPECT_EQ(clock.NowMicros(), 42);
}

TEST(ClockTest, StopwatchMeasures) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(sw.ElapsedMicros(), 4000);
}

// -------------------------------------------------------------------- Env

TEST(EnvTest, WriteReadRoundTrip) {
  TempDir dir;
  Env* env = Env::Default();
  const std::string path = dir.Sub("file.txt");
  OPDELTA_ASSERT_OK(env->WriteStringToFile(path, Slice("payload")));
  EXPECT_TRUE(env->FileExists(path));
  std::string data;
  OPDELTA_ASSERT_OK(env->ReadFileToString(path, &data));
  EXPECT_EQ(data, "payload");
  uint64_t size = 0;
  OPDELTA_ASSERT_OK(env->GetFileSize(path, &size));
  EXPECT_EQ(size, 7u);
}

TEST(EnvTest, AppendableFileAccumulates) {
  TempDir dir;
  Env* env = Env::Default();
  const std::string path = dir.Sub("log.txt");
  for (int i = 0; i < 3; ++i) {
    std::unique_ptr<WritableFile> f;
    OPDELTA_ASSERT_OK(env->NewAppendableFile(path, &f));
    OPDELTA_ASSERT_OK(f->Append(Slice("x")));
    OPDELTA_ASSERT_OK(f->Close());
  }
  std::string data;
  OPDELTA_ASSERT_OK(env->ReadFileToString(path, &data));
  EXPECT_EQ(data, "xxx");
}

TEST(EnvTest, RandomAccessReadAtOffset) {
  TempDir dir;
  Env* env = Env::Default();
  const std::string path = dir.Sub("ra.bin");
  OPDELTA_ASSERT_OK(env->WriteStringToFile(path, Slice("0123456789")));
  std::unique_ptr<RandomAccessFile> f;
  OPDELTA_ASSERT_OK(env->NewRandomAccessFile(path, &f));
  char scratch[4];
  Slice result;
  OPDELTA_ASSERT_OK(f->Read(3, 4, &result, scratch));
  EXPECT_EQ(result.ToString(), "3456");
}

TEST(EnvTest, ListDirAndDelete) {
  TempDir dir;
  Env* env = Env::Default();
  OPDELTA_ASSERT_OK(env->WriteStringToFile(dir.Sub("a"), Slice("1")));
  OPDELTA_ASSERT_OK(env->WriteStringToFile(dir.Sub("b"), Slice("2")));
  std::vector<std::string> children;
  OPDELTA_ASSERT_OK(env->ListDir(dir.path(), &children));
  std::set<std::string> names(children.begin(), children.end());
  EXPECT_TRUE(names.count("a"));
  EXPECT_TRUE(names.count("b"));
  OPDELTA_ASSERT_OK(env->DeleteFile(dir.Sub("a")));
  EXPECT_FALSE(env->FileExists(dir.Sub("a")));
}

TEST(EnvTest, MissingFileErrors) {
  TempDir dir;
  std::string data;
  EXPECT_FALSE(Env::Default()->ReadFileToString(dir.Sub("nope"), &data).ok());
  EXPECT_FALSE(Env::Default()->DeleteFile(dir.Sub("nope")).ok());
}

TEST(EnvTest, AtomicWriteReplaces) {
  TempDir dir;
  Env* env = Env::Default();
  const std::string path = dir.Sub("atomic");
  OPDELTA_ASSERT_OK(WriteFileAtomic(env, path, Slice("v1")));
  OPDELTA_ASSERT_OK(WriteFileAtomic(env, path, Slice("v2")));
  std::string data;
  OPDELTA_ASSERT_OK(env->ReadFileToString(path, &data));
  EXPECT_EQ(data, "v2");
  EXPECT_FALSE(env->FileExists(path + ".tmp"));
}

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 1000);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
    pool.Shutdown();  // must not drop accepted tasks
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsDropped) {
  ThreadPool pool(1);
  pool.Shutdown();
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });  // no crash, no execution
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, SubmitFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  CountDownLatch latch(1);
  pool.Submit([&] {
    pool.Submit([&] {
      ran.fetch_add(1);
      latch.CountDown();
    });
  });
  latch.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, WaitIdleObservesRunningTasks) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done.fetch_add(1);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 16);
}

// ----------------------------------------------------------------- digest

TEST(DigestTest, HashBytesIsStableAndSpreads) {
  const std::string a = "delta";
  const std::string b = "delta!";
  EXPECT_EQ(HashBytes64(a.data(), a.size()), HashBytes64(a.data(), a.size()));
  EXPECT_NE(HashBytes64(a.data(), a.size()), HashBytes64(b.data(), b.size()));
  // Single-bit input changes must not produce nearby hashes (the set
  // digest sums hashes, so clustered values would cancel easily).
  const std::string c = "deltb";
  const uint64_t ha = HashBytes64(a.data(), a.size());
  const uint64_t hc = HashBytes64(c.data(), c.size());
  EXPECT_GT(ha > hc ? ha - hc : hc - ha, 1u << 20);
}

TEST(DigestTest, SetDigestIsOrderInsensitive) {
  SetDigest forward, backward;
  const std::string rows[] = {"row-a", "row-b", "row-c", "row-d"};
  for (const std::string& r : rows) forward.Add(r);
  for (auto it = std::rbegin(rows); it != std::rend(rows); ++it) {
    backward.Add(*it);
  }
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward.count, 4u);
}

TEST(DigestTest, SetDigestSeesElementAndMultiplicityChanges) {
  SetDigest base;
  base.Add(std::string("row-a"));
  base.Add(std::string("row-b"));

  SetDigest changed;
  changed.Add(std::string("row-a"));
  changed.Add(std::string("row-B"));
  EXPECT_NE(base, changed);

  // Same element twice vs. two distinct elements: the count tells the
  // multiset apart even when xor would cancel.
  SetDigest doubled;
  doubled.Add(std::string("row-a"));
  doubled.Add(std::string("row-a"));
  EXPECT_NE(base, doubled);
  EXPECT_EQ(doubled.count, 2u);

  EXPECT_EQ(SetDigest{}, SetDigest{});
  EXPECT_FALSE(base.ToString().empty());
}

TEST(CountDownLatchTest, WaitReleasesAtZero) {
  CountDownLatch latch(3);
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    latch.Wait();
    released.store(true);
  });
  latch.CountDown();
  latch.CountDown();
  EXPECT_FALSE(released.load());
  latch.CountDown();
  waiter.join();
  EXPECT_TRUE(released.load());
}

// -------------------------------------------------------------- RecordLog

TEST(RecordLogTest, SegmentNamesRoundTrip) {
  std::string name;
  uint64_t index = 0;
  ASSERT_TRUE(common::RecordLog::ParseSegmentName(
      common::RecordLog::SegmentName("my-table", 1234567), &name, &index));
  EXPECT_EQ(name, "my-table");
  EXPECT_EQ(index, 1234567u);
  EXPECT_EQ(common::RecordLog::SegmentName("wal", 42), "wal-000042.log");
  for (const char* other : {"queue.log", "wal-5.log.tmp", "wal-.log",
                            "-000001.log", "wal-00x1.log", "wal-1.lo"}) {
    EXPECT_FALSE(common::RecordLog::ParseSegmentName(other, &name, &index))
        << other;
  }
}

// A crash can tear the unsynced tail of any segment. In an older segment
// the partial frame ends that segment and the read goes on in the next
// one; in the newest it ends the read, and the next Open cuts it off.
TEST(RecordLogTest, PartialFrameEndsItsSegment) {
  TempDir dir;
  const std::string log_dir = dir.Sub("log");
  {
    common::RecordLog log;
    OPDELTA_ASSERT_OK(log.Open(log_dir, "t"));
    OPDELTA_ASSERT_OK(log.Write(Slice("a"), /*sync=*/false));
    OPDELTA_ASSERT_OK(log.Roll(/*sync=*/false));
    OPDELTA_ASSERT_OK(log.Write(Slice("b"), /*sync=*/false));
    OPDELTA_ASSERT_OK(log.Close());
  }
  const std::string torn("\x05\x00\x00\x00\x01\x02", 6);  // header only
  uint64_t whole = 0;
  for (const char* segment : {"/t-000001.log", "/t-000002.log"}) {
    std::unique_ptr<WritableFile> file;
    OPDELTA_ASSERT_OK(
        Env::Default()->NewAppendableFile(log_dir + segment, &file));
    whole = file->Size();
    OPDELTA_ASSERT_OK(file->Append(Slice(torn)));
    OPDELTA_ASSERT_OK(file->Close());
  }
  auto read = [&](common::RecordPosition* end) {
    std::vector<std::string> payloads;
    Status st = common::RecordLog::Read(
        log_dir, "t", common::RecordPosition{},
        [&](Slice payload, const common::RecordPosition&) {
          payloads.push_back(payload.ToString());
          return true;
        },
        end);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return payloads;
  };
  common::RecordPosition end;
  EXPECT_EQ(read(&end), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(end.segment, 2u);
  EXPECT_EQ(end.offset, whole);

  common::RecordLog log;
  OPDELTA_ASSERT_OK(log.Open(log_dir, "t"));
  OPDELTA_ASSERT_OK(log.Write(Slice("c"), /*sync=*/false));
  EXPECT_EQ(read(&end), (std::vector<std::string>{"a", "b", "c"}));
}

}  // namespace
}  // namespace opdelta
