#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "common/fault_env.h"
#include "common/record_log.h"
#include "transport/file_transport.h"
#include "transport/network_simulator.h"
#include "transport/persistent_queue.h"
#include "tests/test_util.h"

namespace opdelta::transport {
namespace {

using opdelta::testing::TempDir;

// -------------------------------------------------------- NetworkSimulator

TEST(NetworkSimulatorTest, LoopbackIsFree) {
  NetworkSimulator net(NetworkSimulator::Loopback());
  Stopwatch sw;
  for (int i = 0; i < 100; ++i) net.RoundTrip(1000);
  EXPECT_LT(sw.ElapsedMicros(), 50000);
  EXPECT_EQ(net.round_trips(), 100u);
  EXPECT_EQ(net.bytes_transferred(), 100000u);
  EXPECT_EQ(net.simulated_micros(), 0);
}

TEST(NetworkSimulatorTest, RoundTripCostsWallTime) {
  NetworkSimulator::Profile profile{2000, 0.0, 0};
  NetworkSimulator net(profile);
  Stopwatch sw;
  net.RoundTrip(0);
  EXPECT_GE(sw.ElapsedMicros(), 2000);
  EXPECT_EQ(net.simulated_micros(), 2000);
}

TEST(NetworkSimulatorTest, BandwidthScalesWithPayload) {
  NetworkSimulator::Profile profile{0, 1.0, 0};  // 1 us per byte
  NetworkSimulator net(profile);
  Stopwatch sw;
  net.Transfer(5000);
  EXPECT_GE(sw.ElapsedMicros(), 5000);
}

TEST(NetworkSimulatorTest, ConnectPaidOnce) {
  NetworkSimulator::Profile profile{0, 0.0, 3000};
  NetworkSimulator net(profile);
  Stopwatch sw;
  net.Connect();
  EXPECT_GE(sw.ElapsedMicros(), 3000);
}

TEST(NetworkSimulatorTest, ProfilesOrdered) {
  // The same-machine IPC profile must be cheaper than the LAN profile,
  // matching the paper's one-vs-two orders of magnitude observation.
  auto ipc = NetworkSimulator::SameMachineIpc();
  auto lan = NetworkSimulator::SwitchedLan10Mbps();
  EXPECT_LT(ipc.round_trip_micros, lan.round_trip_micros);
  EXPECT_LT(ipc.micros_per_byte, lan.micros_per_byte);
}

// ----------------------------------------------------------- FileTransport

TEST(FileTransportTest, ShipsFileAndCounts) {
  TempDir dir;
  Env* env = Env::Default();
  const std::string src = dir.Sub("delta.csv");
  OPDELTA_ASSERT_OK(env->WriteStringToFile(src, Slice("1,2,3\n4,5,6\n")));
  NetworkSimulator net(NetworkSimulator::Loopback());
  FileTransport transport(&net);
  const std::string dst = dir.Sub("shipped.csv");
  OPDELTA_ASSERT_OK(transport.Ship(src, dst));
  std::string data;
  OPDELTA_ASSERT_OK(env->ReadFileToString(dst, &data));
  EXPECT_EQ(data, "1,2,3\n4,5,6\n");
  EXPECT_EQ(transport.files_shipped(), 1u);
  EXPECT_EQ(transport.bytes_shipped(), 12u);
  EXPECT_EQ(net.bytes_transferred(), 12u);
}

TEST(FileTransportTest, MissingSourceErrors) {
  TempDir dir;
  NetworkSimulator net(NetworkSimulator::Loopback());
  FileTransport transport(&net);
  EXPECT_FALSE(transport.Ship(dir.Sub("nope"), dir.Sub("out")).ok());
}

// --------------------------------------------------------- PersistentQueue

TEST(PersistentQueueTest, FifoOrder) {
  TempDir dir;
  PersistentQueue q;
  OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
  OPDELTA_ASSERT_OK(q.Enqueue(Slice("first")));
  OPDELTA_ASSERT_OK(q.Enqueue(Slice("second")));
  OPDELTA_ASSERT_OK(q.Enqueue(Slice("third")));

  std::string msg;
  OPDELTA_ASSERT_OK(q.Peek(&msg));
  EXPECT_EQ(msg, "first");
  OPDELTA_ASSERT_OK(q.Ack());
  OPDELTA_ASSERT_OK(q.Peek(&msg));
  EXPECT_EQ(msg, "second");
  OPDELTA_ASSERT_OK(q.Ack());
  OPDELTA_ASSERT_OK(q.Peek(&msg));
  EXPECT_EQ(msg, "third");
  OPDELTA_ASSERT_OK(q.Ack());
  EXPECT_TRUE(q.Peek(&msg).IsNotFound());
}

TEST(PersistentQueueTest, PeekWithoutAckRedelivers) {
  TempDir dir;
  PersistentQueue q;
  OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
  OPDELTA_ASSERT_OK(q.Enqueue(Slice("msg")));
  std::string a, b;
  OPDELTA_ASSERT_OK(q.Peek(&a));
  OPDELTA_ASSERT_OK(q.Peek(&b));  // at-least-once: same message again
  EXPECT_EQ(a, b);
}

TEST(PersistentQueueTest, AckWithoutPeekRejected) {
  TempDir dir;
  PersistentQueue q;
  OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
  EXPECT_FALSE(q.Ack().ok());
}

TEST(PersistentQueueTest, SurvivesReopen) {
  TempDir dir;
  {
    PersistentQueue q;
    OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
    OPDELTA_ASSERT_OK(q.Enqueue(Slice("a"), /*durable=*/true));
    OPDELTA_ASSERT_OK(q.Enqueue(Slice("b"), /*durable=*/true));
    std::string msg;
    OPDELTA_ASSERT_OK(q.Peek(&msg));
    OPDELTA_ASSERT_OK(q.Ack());  // consume "a"
    OPDELTA_ASSERT_OK(q.Close());
  }
  PersistentQueue q;
  OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
  std::string msg;
  OPDELTA_ASSERT_OK(q.Peek(&msg));
  EXPECT_EQ(msg, "b");  // cursor survived; "a" stays consumed
}

TEST(PersistentQueueTest, BacklogCountsUnconsumed) {
  TempDir dir;
  PersistentQueue q;
  OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
  for (int i = 0; i < 5; ++i) {
    OPDELTA_ASSERT_OK(q.Enqueue(Slice("m" + std::to_string(i))));
  }
  Result<uint64_t> backlog = q.Backlog();
  ASSERT_TRUE(backlog.ok());
  EXPECT_EQ(*backlog, 5u);
  std::string msg;
  OPDELTA_ASSERT_OK(q.Peek(&msg));
  OPDELTA_ASSERT_OK(q.Ack());
  backlog = q.Backlog();
  EXPECT_EQ(*backlog, 4u);
}

TEST(PersistentQueueTest, LargeAndBinaryMessages) {
  TempDir dir;
  PersistentQueue q;
  OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
  std::string binary(10000, '\0');
  for (size_t i = 0; i < binary.size(); ++i) {
    binary[i] = static_cast<char>(i % 256);
  }
  OPDELTA_ASSERT_OK(q.Enqueue(Slice(binary)));
  std::string msg;
  OPDELTA_ASSERT_OK(q.Peek(&msg));
  EXPECT_EQ(msg, binary);
}

TEST(PersistentQueueTest, ConcurrentProducerSingleConsumer) {
  TempDir dir;
  PersistentQueue q;
  OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  std::vector<std::thread> producers;
  std::atomic<int> enqueue_failures{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p]() {
      for (int i = 0; i < kPerProducer; ++i) {
        std::string msg =
            std::to_string(p) + ":" + std::to_string(i);
        if (!q.Enqueue(Slice(msg)).ok()) enqueue_failures++;
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(enqueue_failures.load(), 0);

  // Drain: every message exactly once, and per-producer order preserved
  // (the log is append-ordered; interleaving across producers is free).
  std::map<int, int> next_expected;
  int total = 0;
  while (true) {
    std::string msg;
    Status st = q.Peek(&msg);
    if (st.IsNotFound()) break;
    OPDELTA_ASSERT_OK(st);
    const int producer = std::stoi(msg.substr(0, msg.find(':')));
    const int seq = std::stoi(msg.substr(msg.find(':') + 1));
    EXPECT_EQ(seq, next_expected[producer]) << "producer " << producer;
    next_expected[producer] = seq + 1;
    ++total;
    OPDELTA_ASSERT_OK(q.Ack());
  }
  EXPECT_EQ(total, kProducers * kPerProducer);
}

TEST(PersistentQueueTest, ConcurrentProducersWithLiveConsumer) {
  // The hub's shape: several producers enqueueing while a consumer
  // Peek/Acks concurrently, its ack records interleaving with their
  // messages in the one log. Per-producer order and the counts must come
  // out exact.
  TempDir dir;
  PersistentQueue q;
  OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  constexpr int kTotal = kProducers * kPerProducer;

  std::atomic<int> enqueue_failures{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p]() {
      for (int i = 0; i < kPerProducer; ++i) {
        std::string msg = std::to_string(p) + ":" + std::to_string(i);
        if (!q.Enqueue(Slice(msg)).ok()) enqueue_failures++;
      }
    });
  }

  // Consumer drains concurrently until it has seen every message.
  std::map<int, int> next_expected;
  int consumed = 0;
  std::thread consumer([&]() {
    while (consumed < kTotal) {
      std::string msg;
      Status st = q.Peek(&msg);
      if (st.IsNotFound()) continue;  // producers still catching up
      OPDELTA_ASSERT_OK(st);
      const int producer = std::stoi(msg.substr(0, msg.find(':')));
      const int seq = std::stoi(msg.substr(msg.find(':') + 1));
      EXPECT_EQ(seq, next_expected[producer]) << "producer " << producer;
      next_expected[producer] = seq + 1;
      ++consumed;
      OPDELTA_ASSERT_OK(q.Ack());
    }
  });

  for (auto& t : producers) t.join();
  consumer.join();

  EXPECT_EQ(enqueue_failures.load(), 0);
  EXPECT_EQ(consumed, kTotal);
  Result<uint64_t> backlog = q.Backlog();
  ASSERT_TRUE(backlog.ok());
  EXPECT_EQ(*backlog, 0u);  // fully drained: backlog exact
}

TEST(PersistentQueueTest, CorruptMessageDetected) {
  TempDir dir;
  PersistentQueue q;
  OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
  OPDELTA_ASSERT_OK(q.Enqueue(Slice("important payload"), true));
  OPDELTA_ASSERT_OK(q.Close());

  // Corrupt the log body: a complete frame with a bad CRC is real damage,
  // so recovery refuses the queue outright at Open.
  const std::string log = dir.Sub("q") + "/queue-000001.log";
  std::string data;
  OPDELTA_ASSERT_OK(Env::Default()->ReadFileToString(log, &data));
  data[10] ^= 0xFF;
  OPDELTA_ASSERT_OK(Env::Default()->WriteStringToFile(log, Slice(data)));

  PersistentQueue reopened;
  Status st = reopened.Open(dir.Sub("q"));
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(PersistentQueueTest, TornTailTruncatedAndQueueContinues) {
  TempDir dir;
  PersistentQueue q;
  OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
  OPDELTA_ASSERT_OK(q.Enqueue(Slice("alpha"), true));
  OPDELTA_ASSERT_OK(q.Enqueue(Slice("beta"), true));
  std::string msg;
  OPDELTA_ASSERT_OK(q.Peek(&msg));
  OPDELTA_ASSERT_OK(q.Ack());  // cursor advanced past "alpha"
  OPDELTA_ASSERT_OK(q.Close());

  // A crash mid-append leaves a torn frame at the tail: a header claiming
  // more body bytes than exist. Recovery truncates it and continues.
  const std::string log = dir.Sub("q") + "/queue-000001.log";
  std::string data;
  OPDELTA_ASSERT_OK(Env::Default()->ReadFileToString(log, &data));
  const uint64_t intact_size = data.size();
  data.append("\x80\x00\x00\x00\xde\xad\xbe\xef", 8);  // len=128, no body
  data.append("torn", 4);
  OPDELTA_ASSERT_OK(Env::Default()->WriteStringToFile(log, Slice(data)));

  PersistentQueue reopened;
  OPDELTA_ASSERT_OK(reopened.Open(dir.Sub("q")));
  uint64_t size = 0;
  OPDELTA_ASSERT_OK(Env::Default()->GetFileSize(log, &size));
  EXPECT_EQ(size, intact_size);  // torn tail gone, intact frames kept

  // The surviving backlog replays and the queue accepts new appends
  // starting at a clean frame boundary.
  OPDELTA_ASSERT_OK(reopened.Peek(&msg));
  EXPECT_EQ(msg, "beta");
  OPDELTA_ASSERT_OK(reopened.Ack());
  OPDELTA_ASSERT_OK(reopened.Enqueue(Slice("gamma"), true));
  OPDELTA_ASSERT_OK(reopened.Peek(&msg));
  EXPECT_EQ(msg, "gamma");
}

TEST(PersistentQueueTest, PeekLastReadsTheNewestMessageAcrossReopen) {
  TempDir dir;
  {
    PersistentQueue q;
    OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
    std::string msg;
    EXPECT_TRUE(q.PeekLast(&msg).IsNotFound());
    OPDELTA_ASSERT_OK(q.Enqueue(Slice("first"), /*durable=*/true));
    OPDELTA_ASSERT_OK(q.Enqueue(Slice("second"), /*durable=*/true));
    OPDELTA_ASSERT_OK(q.PeekLast(&msg));
    EXPECT_EQ(msg, "second");
    // Acknowledged or not, the newest message stays readable.
    OPDELTA_ASSERT_OK(q.Peek(&msg));
    OPDELTA_ASSERT_OK(q.Ack());
    OPDELTA_ASSERT_OK(q.Peek(&msg));
    OPDELTA_ASSERT_OK(q.Ack());
    OPDELTA_ASSERT_OK(q.PeekLast(&msg));
    EXPECT_EQ(msg, "second");
    OPDELTA_ASSERT_OK(q.Close());
  }
  PersistentQueue q;
  OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
  std::string msg;
  OPDELTA_ASSERT_OK(q.PeekLast(&msg));
  EXPECT_EQ(msg, "second");  // the ack records after it are skipped
  OPDELTA_ASSERT_OK(q.Enqueue(Slice("third"), /*durable=*/true));
  OPDELTA_ASSERT_OK(q.PeekLast(&msg));
  EXPECT_EQ(msg, "third");
}

TEST(PersistentQueueTest, AcksAreReplayedAtOpen) {
  TempDir dir;
  {
    PersistentQueue q;
    OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
    for (const char* m : {"one", "two", "three"}) {
      OPDELTA_ASSERT_OK(q.Enqueue(Slice(m), /*durable=*/true));
    }
    std::string msg;
    for (int i = 0; i < 2; ++i) {
      OPDELTA_ASSERT_OK(q.Peek(&msg));
      OPDELTA_ASSERT_OK(q.Ack());
    }
    OPDELTA_ASSERT_OK(q.Close());
  }
  // The log is the queue's only file: no cursor file holds the position.
  std::vector<std::string> files;
  OPDELTA_ASSERT_OK(Env::Default()->ListDir(dir.Sub("q"), &files));
  EXPECT_EQ(files, std::vector<std::string>{"queue-000001.log"});

  PersistentQueue q;
  OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
  Result<uint64_t> backlog = q.Backlog();
  ASSERT_TRUE(backlog.ok()) << backlog.status().ToString();
  EXPECT_EQ(*backlog, 1u);
  std::string msg;
  OPDELTA_ASSERT_OK(q.Peek(&msg));
  EXPECT_EQ(msg, "three");
}

TEST(PersistentQueueTest, TornAckRecordIsTruncatedAndItsMessageRedelivered) {
  TempDir dir;
  const std::string log = dir.Sub("q") + "/queue-000001.log";
  uint64_t before_ack = 0;
  {
    PersistentQueue q;
    OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
    OPDELTA_ASSERT_OK(q.Enqueue(Slice("alpha"), /*durable=*/true));
    OPDELTA_ASSERT_OK(Env::Default()->GetFileSize(log, &before_ack));
    std::string msg;
    OPDELTA_ASSERT_OK(q.Peek(&msg));
    OPDELTA_ASSERT_OK(q.Ack());
    OPDELTA_ASSERT_OK(q.Close());
  }
  // A crash tore the ack record: half of its 8-byte header reached disk.
  uint64_t size = 0;
  OPDELTA_ASSERT_OK(Env::Default()->GetFileSize(log, &size));
  ASSERT_EQ(size, before_ack + 8);
  OPDELTA_ASSERT_OK(Env::Default()->Truncate(log, before_ack + 4));

  PersistentQueue q;
  OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
  OPDELTA_ASSERT_OK(Env::Default()->GetFileSize(log, &size));
  EXPECT_EQ(size, before_ack);  // the torn ack is gone
  std::string msg;
  OPDELTA_ASSERT_OK(q.Peek(&msg));
  EXPECT_EQ(msg, "alpha");  // unacknowledged again: redelivered
  OPDELTA_ASSERT_OK(q.Ack());
  EXPECT_TRUE(q.Peek(&msg).IsNotFound());
}

TEST(PersistentQueueTest, EnqueueRejectsAnEmptyMessage) {
  // The empty record is the log's ack, so it cannot be a message.
  TempDir dir;
  PersistentQueue q;
  OPDELTA_ASSERT_OK(q.Open(dir.Sub("q")));
  Status st = q.Enqueue(Slice(), /*durable=*/true);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  std::string msg;
  EXPECT_TRUE(q.Peek(&msg).IsNotFound());
  EXPECT_TRUE(q.PeekLast(&msg).IsNotFound());
}

TEST(PersistentQueueTest, OpenRefusesAQueueLogOfAnOlderBuild) {
  TempDir dir;
  OPDELTA_ASSERT_OK(Env::Default()->CreateDir(dir.Sub("q")));
  OPDELTA_ASSERT_OK(
      Env::Default()->WriteStringToFile(dir.Sub("q") + "/queue.log", "x"));
  PersistentQueue q;
  Status st = q.Open(dir.Sub("q"));
  EXPECT_EQ(st.code(), StatusCode::kNotSupported) << st.ToString();
  EXPECT_NE(st.message().find("Upgrading from a build that wrote queue.log"),
            std::string::npos)
      << st.ToString();
}

/// The queue's segment indexes in `dir`, ascending; any other file there
/// fails the test.
std::vector<uint64_t> Segments(const std::string& dir) {
  std::vector<std::string> files;
  EXPECT_TRUE(Env::Default()->ListDir(dir, &files).ok());
  std::vector<uint64_t> out;
  for (const std::string& file : files) {
    std::string name;
    uint64_t index = 0;
    if (common::RecordLog::ParseSegmentName(file, &name, &index) &&
        name == "queue") {
      out.push_back(index);
    } else {
      ADD_FAILURE() << "unexpected file " << file;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PersistentQueueTest, AcknowledgedSegmentsAreDeleted) {
  TempDir dir;
  const std::string qdir = dir.Sub("q");
  PersistentQueue q;
  OPDELTA_ASSERT_OK(q.Open(qdir));
  const std::string body(PersistentQueue::kSegmentBytes / 4, 'm');
  size_t most = 0;
  int sent = 0;
  // Segment 11 exists once ten full segments have gone by.
  while (Segments(qdir).back() < 11) {
    ASSERT_LT(sent, 1000);
    const std::string message = std::to_string(sent++) + body;
    OPDELTA_ASSERT_OK(q.Enqueue(Slice(message)));
    std::string got;
    OPDELTA_ASSERT_OK(q.Peek(&got));
    EXPECT_EQ(got, message);
    OPDELTA_ASSERT_OK(q.Ack());
    most = std::max(most, Segments(qdir).size());
  }
  EXPECT_LE(most, 2u);

  // A backlog of two, and a reopen that answers as the queue did.
  for (const char* m : {"x", "y", "z"}) {
    OPDELTA_ASSERT_OK(q.Enqueue(Slice(m), /*durable=*/true));
  }
  std::string msg;
  OPDELTA_ASSERT_OK(q.Peek(&msg));
  EXPECT_EQ(msg, "x");
  OPDELTA_ASSERT_OK(q.Ack());
  auto answers = [](PersistentQueue* queue) {
    Result<uint64_t> backlog = queue->Backlog();
    std::string head;
    std::string last;
    EXPECT_TRUE(queue->Peek(&head).ok());
    EXPECT_TRUE(queue->PeekLast(&last).ok());
    return std::to_string(backlog.ok() ? *backlog : 99) + " " + head + " " +
           last;
  };
  EXPECT_EQ(answers(&q), "2 y z");
  OPDELTA_ASSERT_OK(q.Close());
  PersistentQueue reopened;
  OPDELTA_ASSERT_OK(reopened.Open(qdir));
  EXPECT_EQ(answers(&reopened), "2 y z");
  EXPECT_LE(Segments(qdir).size(), 2u);
}

// A power failure right after a roll loses no unacknowledged message: the
// message that starts the new segment is synced before the earlier
// segments are deleted. When that delete fails, the old segment loses its
// unsynced tail, and with it acks: that only redelivers messages that were
// acknowledged.
TEST(PersistentQueueTest, CrashRightAfterARollLosesNoUnacknowledgedMessage) {
  for (bool delete_fails : {false, true}) {
    SCOPED_TRACE(delete_fails ? "the delete failed" : "the delete succeeded");
    TempDir dir;
    const std::string qdir = dir.Sub("q");
    FaultInjectionEnv fenv(Env::Default(), /*seed=*/7);
    opdelta::testing::ScopedEnvOverride guard(&fenv);
    std::set<std::string> acked;
    {
      PersistentQueue q;
      OPDELTA_ASSERT_OK(q.Open(qdir));
      const std::string body(PersistentQueue::kSegmentBytes / 8, 'a');
      const std::string first = qdir + "/queue-000001.log";
      uint64_t size = 0;
      // Fill segment 1 with acknowledged messages, none of them synced.
      for (int i = 0; size < PersistentQueue::kSegmentBytes; ++i) {
        const std::string message = std::to_string(i) + body;
        OPDELTA_ASSERT_OK(q.Enqueue(Slice(message), /*durable=*/false));
        std::string got;
        OPDELTA_ASSERT_OK(q.Peek(&got));
        OPDELTA_ASSERT_OK(q.Ack());
        acked.insert(message);
        OPDELTA_ASSERT_OK(Env::Default()->GetFileSize(first, &size));
      }
      fenv.SetErrorProbability(FaultInjectionEnv::OpKind::kDelete,
                               delete_fails ? 1.0 : 0.0);
      OPDELTA_ASSERT_OK(q.Enqueue(Slice("pending"), /*durable=*/false));
      fenv.ClearFaults();
      const std::vector<uint64_t> expected =
          delete_fails ? std::vector<uint64_t>{1, 2}
                       : std::vector<uint64_t>{2};
      EXPECT_EQ(Segments(qdir), expected);
      OPDELTA_ASSERT_OK(fenv.CrashAndDropUnsynced(/*torn_tails=*/true));
    }

    PersistentQueue q;
    OPDELTA_ASSERT_OK(q.Open(qdir));
    std::string msg;
    OPDELTA_ASSERT_OK(q.PeekLast(&msg));
    EXPECT_EQ(msg, "pending");
    std::vector<std::string> delivered;
    while (q.Peek(&msg).ok()) {
      delivered.push_back(msg);
      OPDELTA_ASSERT_OK(q.Ack());
    }
    ASSERT_FALSE(delivered.empty());
    EXPECT_EQ(delivered.back(), "pending");
    delivered.pop_back();
    for (const std::string& redelivered : delivered) {
      EXPECT_EQ(acked.count(redelivered), 1u);
    }
    if (!delete_fails) {
      EXPECT_TRUE(delivered.empty());
    }
  }
}

// ----------------------------------------------------------- link faults

TEST(NetworkSimulatorTest, DropFaultsReturnIOErrorAndCount) {
  NetworkSimulator net(NetworkSimulator::Loopback());
  NetworkSimulator::FaultProfile faults;
  faults.drop_probability = 1.0;
  net.SetFaults(faults);

  Status st = net.TryRoundTrip(100);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_TRUE(net.TryTransfer(100).IsIOError());
  EXPECT_EQ(net.drops(), 2u);
  EXPECT_EQ(net.round_trips(), 0u);  // nothing got through

  // Disarming restores clean delivery.
  net.SetFaults(NetworkSimulator::FaultProfile());
  OPDELTA_ASSERT_OK(net.TryRoundTrip(100));
  EXPECT_EQ(net.round_trips(), 1u);
}

TEST(NetworkSimulatorTest, TimeoutFaultsSpinAndReturnBusy) {
  NetworkSimulator net(NetworkSimulator::Loopback());
  NetworkSimulator::FaultProfile faults;
  faults.timeout_probability = 1.0;
  faults.timeout_micros = 2000;
  net.SetFaults(faults);

  Stopwatch sw;
  Status st = net.TryRoundTrip(100);
  EXPECT_EQ(st.code(), StatusCode::kBusy) << st.ToString();
  EXPECT_GE(sw.ElapsedMicros(), 2000);  // we waited for the silent peer
  EXPECT_EQ(net.timeouts(), 1u);
}

TEST(FileTransportTest, ShipPropagatesLinkFaults) {
  TempDir dir;
  const std::string src = dir.Sub("delta.csv");
  OPDELTA_ASSERT_OK(
      Env::Default()->WriteStringToFile(src, Slice("1,2,3\n")));
  NetworkSimulator net(NetworkSimulator::Loopback());
  NetworkSimulator::FaultProfile faults;
  faults.drop_probability = 1.0;
  net.SetFaults(faults);
  FileTransport transport(&net);

  const std::string dst = dir.Sub("shipped.csv");
  EXPECT_TRUE(transport.Ship(src, dst).IsIOError());
  EXPECT_FALSE(Env::Default()->FileExists(dst));  // the send was lost
  EXPECT_EQ(transport.files_shipped(), 0u);
}

}  // namespace
}  // namespace opdelta::transport
