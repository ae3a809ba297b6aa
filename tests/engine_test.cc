#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "catalog/row_codec.h"
#include "common/fault_env.h"
#include "engine/database.h"
#include "workload/workload.h"
#include "tests/test_util.h"

namespace opdelta::engine {
namespace {

using catalog::Row;
using catalog::Value;
using opdelta::testing::CountRows;
using opdelta::testing::OpenDb;
using opdelta::testing::TableContents;
using opdelta::testing::TempDir;

catalog::Schema PartsSchema() { return workload::PartsWorkload::Schema(); }

Row PartsRow(int64_t id, const std::string& status) {
  return {Value::Int64(id), Value::String(status), Value::String("payload"),
          Value::Null()};
}

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenDb(dir_, "src");
    OPDELTA_ASSERT_OK(db_->CreateTable("parts", PartsSchema()));
  }

  Status InsertOne(int64_t id, const std::string& status = "active") {
    return db_->WithTransaction([&](txn::Transaction* txn) {
      return db_->Insert(txn, "parts", PartsRow(id, status));
    });
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

// --------------------------------------------------------------- Predicate

TEST(PredicateTest, BindRejectsUnknownColumn) {
  Predicate p = Predicate::Where("ghost", CompareOp::kEq, Value::Int64(1));
  EXPECT_FALSE(p.Bind(PartsSchema()).ok());
}

TEST(PredicateTest, MatchSemantics) {
  catalog::Schema s = PartsSchema();
  Row row = {Value::Int64(5), Value::String("active"), Value::String("p"),
             Value::Timestamp(100)};

  struct Case {
    CompareOp op;
    int64_t literal;
    bool expect;
  };
  const Case cases[] = {
      {CompareOp::kEq, 5, true},  {CompareOp::kEq, 6, false},
      {CompareOp::kNe, 6, true},  {CompareOp::kLt, 6, true},
      {CompareOp::kLt, 5, false}, {CompareOp::kLe, 5, true},
      {CompareOp::kGt, 4, true},  {CompareOp::kGe, 5, true},
      {CompareOp::kGe, 6, false},
  };
  for (const Case& c : cases) {
    Predicate p = Predicate::Where("id", c.op, Value::Int64(c.literal));
    OPDELTA_ASSERT_OK(p.Bind(s));
    EXPECT_EQ(p.Matches(row), c.expect)
        << CompareOpSql(c.op) << " " << c.literal;
  }
}

TEST(PredicateTest, ConjunctionAndNulls) {
  catalog::Schema s = PartsSchema();
  Predicate p = Predicate::Where("id", CompareOp::kGe, Value::Int64(0))
                    .And("status", CompareOp::kEq, Value::String("active"));
  OPDELTA_ASSERT_OK(p.Bind(s));
  Row match = {Value::Int64(1), Value::String("active"), Value::Null(),
               Value::Null()};
  Row wrong_status = {Value::Int64(1), Value::String("retired"),
                      Value::Null(), Value::Null()};
  Row null_status = {Value::Int64(1), Value::Null(), Value::Null(),
                     Value::Null()};
  EXPECT_TRUE(p.Matches(match));
  EXPECT_FALSE(p.Matches(wrong_status));
  EXPECT_FALSE(p.Matches(null_status));  // null never matches
}

TEST(PredicateTest, SqlRendering) {
  Predicate p = Predicate::Where("id", CompareOp::kGt, Value::Int64(10))
                    .And("status", CompareOp::kEq, Value::String("x"));
  EXPECT_EQ(p.ToSql(), "id > 10 AND status = 'x'");
  EXPECT_EQ(Predicate::True().ToSql(), "");
}

// ------------------------------------------------------------------- DML

TEST_F(DatabaseTest, InsertAndScan) {
  OPDELTA_ASSERT_OK(InsertOne(1));
  OPDELTA_ASSERT_OK(InsertOne(2));
  EXPECT_EQ(CountRows(db_.get(), "parts"), 2u);
  auto contents = TableContents(db_.get(), "parts");
  EXPECT_TRUE(contents.count(Value::Int64(1)));
  EXPECT_TRUE(contents.count(Value::Int64(2)));
}

TEST_F(DatabaseTest, AutoTimestampStamped) {
  OPDELTA_ASSERT_OK(InsertOne(1));
  auto contents = TableContents(db_.get(), "parts");
  const Row& row = contents.at(Value::Int64(1));
  ASSERT_FALSE(row[3].is_null());
  EXPECT_GT(row[3].AsTimestamp(), 0);
}

TEST_F(DatabaseTest, UpdateWhereStampsAndChanges) {
  OPDELTA_ASSERT_OK(InsertOne(1));
  OPDELTA_ASSERT_OK(InsertOne(2));
  const Micros ts_before =
      TableContents(db_.get(), "parts").at(Value::Int64(1))[3].AsTimestamp();

  OPDELTA_ASSERT_OK(db_->WithTransaction([&](txn::Transaction* txn) {
    return db_
        ->UpdateWhere(txn, "parts",
                      Predicate::Where("id", CompareOp::kEq, Value::Int64(1)),
                      {Assignment{"status", Value::String("revised")}})
        .status();
  }));
  auto contents = TableContents(db_.get(), "parts");
  EXPECT_EQ(contents.at(Value::Int64(1))[1].AsString(), "revised");
  EXPECT_EQ(contents.at(Value::Int64(2))[1].AsString(), "active");
  EXPECT_GT(contents.at(Value::Int64(1))[3].AsTimestamp(), ts_before);
}

TEST_F(DatabaseTest, DeleteWhereRemovesMatching) {
  for (int64_t i = 0; i < 10; ++i) OPDELTA_ASSERT_OK(InsertOne(i));
  OPDELTA_ASSERT_OK(db_->WithTransaction([&](txn::Transaction* txn) {
    Result<size_t> r = db_->DeleteWhere(
        txn, "parts", Predicate::Where("id", CompareOp::kLt, Value::Int64(5)));
    if (!r.ok()) return r.status();
    EXPECT_EQ(r.value(), 5u);
    return Status::OK();
  }));
  EXPECT_EQ(CountRows(db_.get(), "parts"), 5u);
}

TEST_F(DatabaseTest, UpdateAffectedCountReported) {
  for (int64_t i = 0; i < 20; ++i) OPDELTA_ASSERT_OK(InsertOne(i));
  OPDELTA_ASSERT_OK(db_->WithTransaction([&](txn::Transaction* txn) {
    Result<size_t> r = db_->UpdateWhere(
        txn, "parts",
        Predicate::Where("id", CompareOp::kGe, Value::Int64(15)),
        {Assignment{"status", Value::String("hot")}});
    if (!r.ok()) return r.status();
    EXPECT_EQ(r.value(), 5u);
    return Status::OK();
  }));
}

TEST_F(DatabaseTest, InsertValidatesSchema) {
  OPDELTA_ASSERT_OK(db_->WithTransaction([&](txn::Transaction* txn) {
    Row bad = {Value::String("not-an-int"), Value::String("a"),
               Value::String("b"), Value::Null()};
    Status st = db_->Insert(txn, "parts", bad);
    EXPECT_FALSE(st.ok());
    return Status::OK();
  }));
}

TEST_F(DatabaseTest, UnknownTableErrors) {
  auto txn = db_->Begin();
  EXPECT_TRUE(db_->Insert(txn.get(), "ghost", PartsRow(1, "a")).IsNotFound());
  (void)db_->Abort(txn.get());
}

// ----------------------------------------------------------- Transactions

TEST_F(DatabaseTest, AbortUndoesInsert) {
  auto txn = db_->Begin();
  OPDELTA_ASSERT_OK(db_->Insert(txn.get(), "parts", PartsRow(1, "a")));
  OPDELTA_ASSERT_OK(db_->Abort(txn.get()));
  EXPECT_EQ(CountRows(db_.get(), "parts"), 0u);
}

TEST_F(DatabaseTest, AbortUndoesUpdateAndDelete) {
  OPDELTA_ASSERT_OK(InsertOne(1, "original"));
  OPDELTA_ASSERT_OK(InsertOne(2, "original"));

  auto txn = db_->Begin();
  OPDELTA_ASSERT_OK(
      db_->UpdateWhere(txn.get(), "parts",
                       Predicate::Where("id", CompareOp::kEq, Value::Int64(1)),
                       {Assignment{"status", Value::String("mutated")}})
          .status());
  OPDELTA_ASSERT_OK(
      db_->DeleteWhere(txn.get(), "parts",
                       Predicate::Where("id", CompareOp::kEq, Value::Int64(2)))
          .status());
  OPDELTA_ASSERT_OK(db_->Abort(txn.get()));

  auto contents = TableContents(db_.get(), "parts");
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents.at(Value::Int64(1))[1].AsString(), "original");
  EXPECT_EQ(contents.at(Value::Int64(2))[1].AsString(), "original");
}

TEST_F(DatabaseTest, AbortRestoresIndexConsistency) {
  OPDELTA_ASSERT_OK(db_->CreateIndex("parts", "id"));
  OPDELTA_ASSERT_OK(InsertOne(10));

  auto txn = db_->Begin();
  OPDELTA_ASSERT_OK(db_->Insert(txn.get(), "parts", PartsRow(20, "a")));
  OPDELTA_ASSERT_OK(
      db_->DeleteWhere(txn.get(), "parts",
                       Predicate::Where("id", CompareOp::kEq, Value::Int64(10)))
          .status());
  OPDELTA_ASSERT_OK(db_->Abort(txn.get()));

  // The index range must see exactly id=10 again.
  std::vector<int64_t> ids;
  OPDELTA_ASSERT_OK(db_->Scan(
      nullptr, "parts",
      Predicate::Where("id", CompareOp::kGe, Value::Int64(INT64_MIN)),
      [&](const storage::Rid&, const Row& row) {
        ids.push_back(row[0].AsInt64());
        return true;
      }));
  EXPECT_EQ(ids, std::vector<int64_t>{10});
}

TEST_F(DatabaseTest, CommitReleasesLocks) {
  auto t1 = db_->Begin();
  OPDELTA_ASSERT_OK(db_->LockTableExclusive(t1.get(), "parts"));
  OPDELTA_ASSERT_OK(db_->Commit(t1.get()));
  auto t2 = db_->Begin();
  OPDELTA_ASSERT_OK(db_->LockTableExclusive(t2.get(), "parts"));
  OPDELTA_ASSERT_OK(db_->Commit(t2.get()));
}

TEST_F(DatabaseTest, WithTransactionAbortsOnError) {
  Status st = db_->WithTransaction([&](txn::Transaction* txn) -> Status {
    OPDELTA_RETURN_IF_ERROR(db_->Insert(txn, "parts", PartsRow(1, "x")));
    return Status::Internal("forced failure");
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(CountRows(db_.get(), "parts"), 0u);
}

// -------------------------------------------------------------- Point ops

TEST_F(DatabaseTest, PointOpsRoundTrip) {
  storage::Rid rid;
  OPDELTA_ASSERT_OK(db_->WithTransaction([&](txn::Transaction* txn) {
    return db_->Insert(txn, "parts", PartsRow(1, "a"), &rid);
  }));

  OPDELTA_ASSERT_OK(db_->WithTransaction([&](txn::Transaction* txn) -> Status {
    Row row;
    OPDELTA_RETURN_IF_ERROR(db_->ReadAt(txn, "parts", rid, &row));
    EXPECT_EQ(row[0].AsInt64(), 1);
    row[1] = Value::String("updated");
    storage::Rid new_rid;
    OPDELTA_RETURN_IF_ERROR(db_->UpdateAt(txn, "parts", rid, row, &new_rid));
    return db_->DeleteAt(txn, "parts", new_rid);
  }));
  EXPECT_EQ(CountRows(db_.get(), "parts"), 0u);
}

// --------------------------------------------------------------- Triggers

class RecordingSink : public TriggerSink {
 public:
  Status Write(Database*, txn::Transaction*, TriggerEvents event,
               const Row& before, const Row& after) override {
    events.push_back(event);
    befores.push_back(before);
    afters.push_back(after);
    return Status::OK();
  }
  std::vector<TriggerEvents> events;
  std::vector<Row> befores, afters;
};

TEST_F(DatabaseTest, TriggersFirePerRowWithImages) {
  auto sink = std::make_shared<RecordingSink>();
  OPDELTA_ASSERT_OK(
      db_->CreateTrigger("parts", TriggerDef{"t", kOnAll, sink}));

  OPDELTA_ASSERT_OK(InsertOne(1));
  ASSERT_EQ(sink->events.size(), 1u);
  EXPECT_EQ(sink->events[0], kOnInsert);
  EXPECT_TRUE(sink->befores[0].empty());
  EXPECT_EQ(sink->afters[0][0].AsInt64(), 1);

  OPDELTA_ASSERT_OK(db_->WithTransaction([&](txn::Transaction* txn) {
    return db_
        ->UpdateWhere(txn, "parts", Predicate::True(),
                      {Assignment{"status", Value::String("u")}})
        .status();
  }));
  ASSERT_EQ(sink->events.size(), 2u);
  EXPECT_EQ(sink->events[1], kOnUpdate);
  EXPECT_EQ(sink->befores[1][1].AsString(), "active");
  EXPECT_EQ(sink->afters[1][1].AsString(), "u");

  OPDELTA_ASSERT_OK(db_->WithTransaction([&](txn::Transaction* txn) {
    return db_->DeleteWhere(txn, "parts", Predicate::True()).status();
  }));
  ASSERT_EQ(sink->events.size(), 3u);
  EXPECT_EQ(sink->events[2], kOnDelete);
  EXPECT_EQ(sink->befores[2][1].AsString(), "u");
}

TEST_F(DatabaseTest, EventMaskFilters) {
  auto sink = std::make_shared<RecordingSink>();
  OPDELTA_ASSERT_OK(
      db_->CreateTrigger("parts", TriggerDef{"t", kOnDelete, sink}));
  OPDELTA_ASSERT_OK(InsertOne(1));
  EXPECT_TRUE(sink->events.empty());
  OPDELTA_ASSERT_OK(db_->WithTransaction([&](txn::Transaction* txn) {
    return db_->DeleteWhere(txn, "parts", Predicate::True()).status();
  }));
  EXPECT_EQ(sink->events.size(), 1u);
}

class FailingSink : public TriggerSink {
 public:
  Status Write(Database*, txn::Transaction*, TriggerEvents, const Row&,
               const Row&) override {
    return Status::Internal("trigger boom");
  }
};

TEST_F(DatabaseTest, FailingTriggerAbortsUserTransaction) {
  // "If a trigger fails it also aborts the user transaction."
  OPDELTA_ASSERT_OK(db_->CreateTrigger(
      "parts", TriggerDef{"bad", kOnInsert, std::make_shared<FailingSink>()}));
  Status st = InsertOne(1);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(CountRows(db_.get(), "parts"), 0u);
}

TEST_F(DatabaseTest, DropTriggerStopsFiring) {
  auto sink = std::make_shared<RecordingSink>();
  OPDELTA_ASSERT_OK(
      db_->CreateTrigger("parts", TriggerDef{"t", kOnAll, sink}));
  OPDELTA_ASSERT_OK(db_->DropTrigger("parts", "t"));
  OPDELTA_ASSERT_OK(InsertOne(1));
  EXPECT_TRUE(sink->events.empty());
  EXPECT_TRUE(db_->DropTrigger("parts", "t").IsNotFound());
}

TEST_F(DatabaseTest, UpsertByKeyReplacesInPlaceOrInserts) {
  auto sink = std::make_shared<RecordingSink>();
  OPDELTA_ASSERT_OK(
      db_->CreateTrigger("parts", TriggerDef{"t", kOnAll, sink}));
  storage::Rid rid;
  OPDELTA_ASSERT_OK(db_->WithTransaction([&](txn::Transaction* txn) {
    return db_->Insert(txn, "parts", PartsRow(1, "aaaa"), &rid);
  }));

  OPDELTA_ASSERT_OK(db_->WithTransaction([&](txn::Transaction* txn) -> Status {
    Result<bool> replaced = db_->UpsertByKey(txn, "parts", PartsRow(1, "bbbb"));
    OPDELTA_RETURN_IF_ERROR(replaced.status());
    EXPECT_TRUE(replaced.value());
    Result<bool> inserted = db_->UpsertByKey(txn, "parts", PartsRow(2, "new"));
    OPDELTA_RETURN_IF_ERROR(inserted.status());
    EXPECT_FALSE(inserted.value());
    return Status::OK();
  }));

  // A same-size image stays at its rid; both writes are stamped.
  Row at_rid;
  OPDELTA_ASSERT_OK(db_->ReadAt(nullptr, "parts", rid, &at_rid));
  EXPECT_EQ(at_rid[1].AsString(), "bbbb");
  const auto contents = TableContents(db_.get(), "parts");
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents.at(Value::Int64(2))[1].AsString(), "new");
  EXPECT_FALSE(at_rid[3].is_null());
  EXPECT_FALSE(contents.at(Value::Int64(2))[3].is_null());

  ASSERT_EQ(sink->events.size(), 3u);
  EXPECT_EQ(sink->events[1], kOnUpdate);
  EXPECT_EQ(sink->befores[1][1].AsString(), "aaaa");
  EXPECT_EQ(sink->afters[1][1].AsString(), "bbbb");
  EXPECT_EQ(sink->events[2], kOnInsert);
}

// ---------------------------------------------------------------- Indexes

TEST_F(DatabaseTest, IndexScanRange) {
  OPDELTA_ASSERT_OK(db_->CreateIndex("parts", "id"));
  for (int64_t i = 0; i < 100; ++i) OPDELTA_ASSERT_OK(InsertOne(i));
  std::vector<int64_t> ids;
  OPDELTA_ASSERT_OK(db_->Scan(
      nullptr, "parts",
      Predicate::Where("id", CompareOp::kGe, Value::Int64(40))
          .And("id", CompareOp::kLe, Value::Int64(49)),
      [&](const storage::Rid&, const Row& row) {
        ids.push_back(row[0].AsInt64());
        return true;
      }));
  // Key order, as the B+tree range yields it.
  EXPECT_EQ(ids, (std::vector<int64_t>{40, 41, 42, 43, 44, 45, 46, 47, 48,
                                       49}));
}

TEST_F(DatabaseTest, IndexMaintainedThroughUpdates) {
  OPDELTA_ASSERT_OK(db_->CreateIndex("parts", "last_modified"));
  OPDELTA_ASSERT_OK(InsertOne(1));
  const Micros first_ts =
      TableContents(db_.get(), "parts").at(Value::Int64(1))[3].AsTimestamp();

  OPDELTA_ASSERT_OK(db_->WithTransaction([&](txn::Transaction* txn) {
    return db_
        ->UpdateWhere(txn, "parts", Predicate::True(),
                      {Assignment{"status", Value::String("v2")}})
        .status();
  }));
  // Old timestamp entry must be gone; new one must be found.
  int found_old = 0, found_new = 0;
  OPDELTA_ASSERT_OK(db_->Scan(
      nullptr, "parts",
      Predicate::Where("last_modified", CompareOp::kEq,
                       Value::Timestamp(first_ts)),
      [&](const storage::Rid&, const Row&) {
        ++found_old;
        return true;
      }));
  OPDELTA_ASSERT_OK(db_->Scan(
      nullptr, "parts",
      Predicate::Where("last_modified", CompareOp::kGt,
                       Value::Timestamp(first_ts)),
      [&](const storage::Rid&, const Row&) {
        ++found_new;
        return true;
      }));
  EXPECT_EQ(found_old, 0);
  EXPECT_EQ(found_new, 1);
}

TEST_F(DatabaseTest, IndexBackfillsExistingRows) {
  for (int64_t i = 0; i < 50; ++i) OPDELTA_ASSERT_OK(InsertOne(i));
  OPDELTA_ASSERT_OK(db_->CreateIndex("parts", "id"));
  int count = 0;
  OPDELTA_ASSERT_OK(db_->Scan(
      nullptr, "parts",
      Predicate::Where("id", CompareOp::kGe, Value::Int64(0))
          .And("id", CompareOp::kLe, Value::Int64(49)),
      [&](const storage::Rid&, const Row&) {
        ++count;
        return true;
      }));
  EXPECT_EQ(count, 50);
}

// Replacing a row moves an index entry only when its column's key or the
// row's rid changed; an abort puts every entry back.
class IndexUpkeepTest : public DatabaseTest {
 protected:
  using Entries = std::vector<index::BPlusTree::Entry>;

  void SetUp() override {
    DatabaseTest::SetUp();
    OPDELTA_ASSERT_OK(db_->CreateIndex("parts", "id"));
  }

  Status InsertAt(const Row& row, storage::Rid* rid) {
    return db_->WithTransaction([&](txn::Transaction* txn) {
      return db_->Insert(txn, "parts", row, rid);
    });
  }

  Entries EntriesOf(const std::string& column) {
    Entries out;
    db_->GetTable("parts")->GetIndex(column)->ScanAll(
        [&](int64_t key, const storage::Rid& rid) {
          out.emplace_back(key, rid);
          return true;
        });
    return out;
  }

  /// Every id entry leads to a row carrying that id, with `status`.
  void ExpectLookup(int64_t id, const std::string& status) {
    int found = 0;
    OPDELTA_ASSERT_OK(db_->Scan(
        nullptr, "parts",
        Predicate::Where("id", CompareOp::kEq, Value::Int64(id)),
        [&](const storage::Rid&, const Row& row) {
          EXPECT_EQ(row[0].AsInt64(), id);
          EXPECT_EQ(row[1].AsString(), status);
          ++found;
          return true;
        }));
    EXPECT_EQ(found, 1) << "id " << id;
  }

  void ExpectTreesValid() {
    for (const std::string& col : db_->GetTable("parts")->IndexedColumns()) {
      OPDELTA_EXPECT_OK(
          db_->GetTable("parts")->GetIndex(col)->CheckInvariants());
    }
  }
};

TEST_F(IndexUpkeepTest, SameSizeReplaceKeepsTheKeysEntry) {
  for (int64_t id = 1; id <= 3; ++id) {
    storage::Rid rid;
    OPDELTA_ASSERT_OK(InsertAt(PartsRow(id, "aaaa"), &rid));
  }
  const Entries before = EntriesOf("id");
  const size_t size = db_->GetTable("parts")->GetIndex("id")->size();

  auto txn = db_->Begin();
  Result<bool> replaced =
      db_->UpsertByKey(txn.get(), "parts", PartsRow(2, "bbbb"));
  OPDELTA_ASSERT_OK(replaced.status());
  EXPECT_TRUE(replaced.value());
  OPDELTA_ASSERT_OK(
      db_->UpdateWhere(txn.get(), "parts",
                       Predicate::Where("id", CompareOp::kEq, Value::Int64(3)),
                       {Assignment{"status", Value::String("cccc")}})
          .status());
  EXPECT_EQ(EntriesOf("id"), before);
  EXPECT_EQ(db_->GetTable("parts")->GetIndex("id")->size(), size);
  ExpectLookup(2, "bbbb");
  ExpectLookup(3, "cccc");
  ExpectTreesValid();

  OPDELTA_ASSERT_OK(db_->Abort(txn.get()));
  EXPECT_EQ(EntriesOf("id"), before);
  for (int64_t id = 1; id <= 3; ++id) ExpectLookup(id, "aaaa");
  ExpectTreesValid();
}

TEST_F(IndexUpkeepTest, RelocatingReplaceRePointsTheKey) {
  // Three 2 KB rows share a page, so one grown to 6 KB has to move.
  auto row_of = [](int64_t id, const std::string& status, size_t payload) {
    return Row{Value::Int64(id), Value::String(status),
               Value::String(std::string(payload, 'p')), Value::Null()};
  };
  storage::Rid rid;
  for (int64_t id = 1; id <= 3; ++id) {
    OPDELTA_ASSERT_OK(InsertAt(row_of(id, "aaaa", 2000), &rid));
  }
  const Entries before = EntriesOf("id");
  const size_t size = db_->GetTable("parts")->GetIndex("id")->size();
  storage::Rid old_rid;
  for (const auto& [key, r] : before) {
    if (key == 2) old_rid = r;
  }

  auto txn = db_->Begin();
  Result<bool> replaced =
      db_->UpsertByKey(txn.get(), "parts", row_of(2, "grown", 6000));
  OPDELTA_ASSERT_OK(replaced.status());
  EXPECT_TRUE(replaced.value());
  storage::Rid new_rid;
  int entries_for_2 = 0;
  for (const auto& [key, r] : EntriesOf("id")) {
    if (key != 2) continue;
    new_rid = r;
    ++entries_for_2;
  }
  EXPECT_EQ(entries_for_2, 1);
  EXPECT_FALSE(new_rid == old_rid);
  EXPECT_EQ(db_->GetTable("parts")->GetIndex("id")->size(), size);
  ExpectLookup(2, "grown");
  ExpectTreesValid();

  OPDELTA_ASSERT_OK(db_->Abort(txn.get()));
  for (int64_t id = 1; id <= 3; ++id) ExpectLookup(id, "aaaa");
  EXPECT_EQ(db_->GetTable("parts")->GetIndex("id")->size(), size);
  ExpectTreesValid();
}

TEST_F(IndexUpkeepTest, UpdateOfAnIndexedNonKeyColumnMovesItsEntry) {
  OPDELTA_ASSERT_OK(db_->CreateIndex("parts", "last_modified"));
  storage::Rid rid;
  OPDELTA_ASSERT_OK(InsertAt(PartsRow(1, "aaaa"), &rid));
  const Entries ids = EntriesOf("id");
  const Entries stamps = EntriesOf("last_modified");
  ASSERT_EQ(stamps.size(), 1u);

  auto txn = db_->Begin();
  constexpr int64_t kStamp = 12345;
  OPDELTA_ASSERT_OK(
      db_->UpdateWhere(txn.get(), "parts",
                       Predicate::Where("id", CompareOp::kEq, Value::Int64(1)),
                       {Assignment{"last_modified", Value::Timestamp(kStamp)}})
          .status());
  EXPECT_EQ(EntriesOf("id"), ids);
  EXPECT_EQ(EntriesOf("last_modified"), (Entries{{kStamp, rid}}));
  ExpectTreesValid();

  OPDELTA_ASSERT_OK(db_->Abort(txn.get()));
  EXPECT_EQ(EntriesOf("id"), ids);
  EXPECT_EQ(EntriesOf("last_modified"), stamps);
  ExpectLookup(1, "aaaa");
  ExpectTreesValid();
}

TEST_F(IndexUpkeepTest, UpsertByKeyPastAStaleIndexEntryInserts) {
  storage::Rid rid1, rid2;
  OPDELTA_ASSERT_OK(InsertAt(PartsRow(1, "one"), &rid1));
  OPDELTA_ASSERT_OK(InsertAt(PartsRow(2, "two"), &rid2));
  // Plant a stale entry: key 1 now leads to row 2.
  index::BPlusTree* tree = db_->GetTable("parts")->GetIndex("id");
  ASSERT_TRUE(tree->Erase(1, rid1));
  tree->Insert(1, rid2);

  Result<bool> replaced(false);
  OPDELTA_ASSERT_OK(db_->WithTransaction([&](txn::Transaction* txn) {
    replaced = db_->UpsertByKey(txn, "parts", PartsRow(1, "new"));
    return replaced.status();
  }));
  // No row the index leads to carries key 1, so the row is inserted.
  EXPECT_FALSE(replaced.value());
  Row row2;
  OPDELTA_ASSERT_OK(db_->ReadAt(nullptr, "parts", rid2, &row2));
  EXPECT_EQ(row2[0].AsInt64(), 2);
  EXPECT_EQ(row2[1].AsString(), "two");
  EXPECT_EQ(CountRows(db_.get(), "parts"), 3u);
}

TEST_F(IndexUpkeepTest, LoggedBeforeImagesAreTheHeapBytes) {
  std::map<int64_t, storage::Rid> rids;
  for (int64_t id = 1; id <= 3; ++id) {
    OPDELTA_ASSERT_OK(InsertAt(PartsRow(id, "aaaa"), &rids[id]));
  }
  std::map<storage::Rid, std::string> heap_bytes;
  for (const auto& [id, rid] : rids) {
    OPDELTA_ASSERT_OK(
        db_->GetTable("parts")->heap()->Read(rid, &heap_bytes[rid]));
  }

  auto txn = db_->Begin();
  const txn::TxnId id = txn->id();
  OPDELTA_ASSERT_OK(
      db_->UpdateWhere(txn.get(), "parts",
                       Predicate::Where("id", CompareOp::kEq, Value::Int64(1)),
                       {Assignment{"status", Value::String("bbbb")}})
          .status());
  OPDELTA_ASSERT_OK(
      db_->DeleteWhere(txn.get(), "parts",
                       Predicate::Where("id", CompareOp::kEq, Value::Int64(2)))
          .status());
  OPDELTA_ASSERT_OK(
      db_->UpsertByKey(txn.get(), "parts", PartsRow(3, "cccc")).status());
  OPDELTA_ASSERT_OK(db_->Commit(txn.get()));

  std::map<storage::Rid, std::string> logged;
  OPDELTA_ASSERT_OK(txn::Wal::ReadAll(
      db_->wal()->dir(), [&](const txn::LogRecord& r) {
        if (r.txn_id == id && (r.type == txn::LogRecordType::kUpdate ||
                               r.type == txn::LogRecordType::kDelete)) {
          logged[r.rid] = r.before;
        }
        return true;
      }));
  EXPECT_EQ(logged, heap_bytes);
}

TEST(DoubleColumnTest, FullDmlLifecycle) {
  // Double columns through insert / predicate / update / persistence.
  TempDir dir;
  auto db = OpenDb(dir, "db");
  catalog::Schema schema({catalog::Column{"id", catalog::ValueType::kInt64},
                          catalog::Column{"price",
                                          catalog::ValueType::kDouble}});
  OPDELTA_ASSERT_OK(db->CreateTable("prices", schema));
  OPDELTA_ASSERT_OK(db->WithTransaction([&](txn::Transaction* txn) -> Status {
    for (int i = 0; i < 10; ++i) {
      OPDELTA_RETURN_IF_ERROR(db->Insert(
          txn, "prices",
          {Value::Int64(i), Value::Double(i * 1.5)}));
    }
    return Status::OK();
  }));

  // Predicate over doubles, including int literal coercion via Compare.
  int matches = 0;
  OPDELTA_ASSERT_OK(db->Scan(
      nullptr, "prices",
      Predicate::Where("price", CompareOp::kGt, Value::Double(6.0)),
      [&](const storage::Rid&, const Row& row) {
        EXPECT_GT(row[1].AsDouble(), 6.0);
        ++matches;
        return true;
      }));
  EXPECT_EQ(matches, 5);  // 7.5, 9.0, 10.5, 12.0, 13.5

  OPDELTA_ASSERT_OK(db->WithTransaction([&](txn::Transaction* txn) {
    return db
        ->UpdateWhere(txn, "prices",
                      Predicate::Where("id", CompareOp::kEq, Value::Int64(0)),
                      {Assignment{"price", Value::Double(99.25)}})
        .status();
  }));
  auto contents = TableContents(db.get(), "prices");
  EXPECT_DOUBLE_EQ(contents.at(Value::Int64(0))[1].AsDouble(), 99.25);
}

// ------------------------------------------------------------ Persistence

TEST(DatabasePersistenceTest, SurvivesReopen) {
  TempDir dir;
  {
    auto db = OpenDb(dir, "db");
    OPDELTA_ASSERT_OK(db->CreateTable("parts", PartsSchema()));
    OPDELTA_ASSERT_OK(db->WithTransaction([&](txn::Transaction* txn) {
      OPDELTA_RETURN_IF_ERROR(db->Insert(txn, "parts", PartsRow(1, "a")));
      return db->Insert(txn, "parts", PartsRow(2, "b"));
    }));
    OPDELTA_ASSERT_OK(db->Close());
  }
  auto db = OpenDb(dir, "db");
  ASSERT_NE(db->GetTable("parts"), nullptr);
  EXPECT_EQ(CountRows(db.get(), "parts"), 2u);
  auto contents = TableContents(db.get(), "parts");
  EXPECT_EQ(contents.at(Value::Int64(2))[1].AsString(), "b");
}

TEST(DatabasePersistenceTest, TxnIdsNeverRepeatAcrossReopens) {
  // A reopened database must continue the txn-id sequence: the archive log
  // identifies transactions by id, and an old commit record must not vouch
  // for a new transaction's redo (it could even be aborted).
  TempDir dir;
  txn::TxnId first_id;
  {
    auto db = OpenDb(dir, "db");
    OPDELTA_ASSERT_OK(db->CreateTable("parts", PartsSchema()));
    auto txn = db->Begin();
    first_id = txn->id();
    OPDELTA_ASSERT_OK(db->Insert(txn.get(), "parts", PartsRow(1, "a")));
    OPDELTA_ASSERT_OK(db->Commit(txn.get()));
    OPDELTA_ASSERT_OK(db->Close());
  }
  auto db = OpenDb(dir, "db");
  auto txn = db->Begin();
  EXPECT_GT(txn->id(), first_id);
  (void)db->Abort(txn.get());
}

TEST(DatabasePersistenceTest, DropTableRemovesData) {
  TempDir dir;
  auto db = OpenDb(dir, "db");
  OPDELTA_ASSERT_OK(db->CreateTable("t", PartsSchema()));
  OPDELTA_ASSERT_OK(db->DropTable("t"));
  EXPECT_EQ(db->GetTable("t"), nullptr);
  EXPECT_TRUE(db->CreateTable("t", PartsSchema()).ok());  // recreatable
}

// ------------------------------------------------------------ Concurrency

TEST_F(DatabaseTest, ExclusiveLockBlocksReaderTransaction) {
  OPDELTA_ASSERT_OK(InsertOne(1));
  auto writer = db_->Begin();
  OPDELTA_ASSERT_OK(db_->LockTableExclusive(writer.get(), "parts"));

  std::atomic<bool> reader_done{false};
  std::thread reader([&]() {
    auto txn = db_->Begin();
    Status st = db_->LockTableShared(txn.get(), "parts");
    if (st.ok()) {
      (void)db_->Commit(txn.get());
      reader_done = true;
    } else {
      (void)db_->Abort(txn.get());
    }
  });
  const catalog::TableId table = db_->GetTable("parts")->id();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (db_->locks()->WaitersOnTable(table) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(db_->locks()->WaitersOnTable(table), 1u);
  EXPECT_FALSE(reader_done.load());  // blocked by X
  OPDELTA_ASSERT_OK(db_->Commit(writer.get()));
  reader.join();
  EXPECT_TRUE(reader_done.load());
}

TEST(ScanCommittedTest, LocksOnlyTheRowsItsPredicateCanMatch) {
  // The scrubber reads one key range of a warehouse table at a time
  // through ScanCommitted. A writer holding a row outside the range must
  // not make that read wait for it, or time out (here after 200 ms).
  TempDir dir;
  DatabaseOptions options;
  options.lock_timeout = std::chrono::milliseconds(200);
  auto db = OpenDb(dir, "db", options);
  OPDELTA_ASSERT_OK(db->CreateTable("parts", PartsSchema()));
  OPDELTA_ASSERT_OK(db->WithTransaction([&](txn::Transaction* txn) {
    for (int64_t id = 0; id < 100; ++id) {
      OPDELTA_RETURN_IF_ERROR(db->Insert(txn, "parts", PartsRow(id, "old")));
    }
    return Status::OK();
  }));

  auto writer = db->Begin();
  Result<size_t> updated = db->UpdateWhere(
      writer.get(), "parts",
      Predicate::Where("id", CompareOp::kEq, Value::Int64(90)),
      {Assignment{"status", Value::String("dirty")}});
  OPDELTA_ASSERT_OK(updated.status());
  ASSERT_EQ(*updated, 1u);

  std::set<int64_t> ids;
  OPDELTA_ASSERT_OK(db->ScanCommitted(
      "parts", Predicate::Where("id", CompareOp::kLe, Value::Int64(9)),
      [&](const Row& row) {
        EXPECT_EQ(row[1].AsString(), "old");
        ids.insert(row[0].AsInt64());
        return true;
      }));
  EXPECT_EQ(ids.size(), 10u);
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), 9);
  OPDELTA_ASSERT_OK(db->Commit(writer.get()));
}

TEST_F(DatabaseTest, ConcurrentWritersOnDifferentRowsProceed) {
  OPDELTA_ASSERT_OK(InsertOne(1));
  OPDELTA_ASSERT_OK(InsertOne(2));
  std::atomic<int> committed{0};
  auto worker = [&](int64_t id, const char* status) {
    Status st = db_->WithTransaction([&](txn::Transaction* txn) {
      return db_
          ->UpdateWhere(txn, "parts",
                        Predicate::Where("id", CompareOp::kEq,
                                         Value::Int64(id)),
                        {Assignment{"status", Value::String(status)}})
          .status();
    });
    if (st.ok()) committed++;
  };
  std::thread t1(worker, 1, "one");
  std::thread t2(worker, 2, "two");
  t1.join();
  t2.join();
  EXPECT_EQ(committed.load(), 2);
  auto contents = TableContents(db_.get(), "parts");
  EXPECT_EQ(contents.at(Value::Int64(1))[1].AsString(), "one");
  EXPECT_EQ(contents.at(Value::Int64(2))[1].AsString(), "two");
}

// The row path: a write that waited for a row's lock acts on the image
// the lock's previous holder left committed, never on the one it saw
// before the wait. Each case runs with and without an index on id, which
// picks the B+tree range or the heap scan.
class RowPathTest : public DatabaseTest,
                    public ::testing::WithParamInterface<bool> {
 protected:
  void SetUp() override {
    DatabaseTest::SetUp();
    if (GetParam()) OPDELTA_ASSERT_OK(db_->CreateIndex("parts", "id"));
    for (int64_t id = 1; id <= 3; ++id) OPDELTA_ASSERT_OK(InsertOne(id));
    writer_ = db_->Begin();
    OPDELTA_ASSERT_OK(
        db_->UpdateWhere(writer_.get(), "parts", IdIs(2),
                         {Assignment{"status", Value::String("dirty")}})
            .status());
  }

  static Predicate IdIs(int64_t id) {
    return Predicate::Where("id", CompareOp::kEq, Value::Int64(id));
  }

  /// Starts `stmt` in its own transaction on a thread and returns once the
  /// statement waits for a lock the writer holds. `result` and `undo` get
  /// the statement's result and its transaction's undo-log size; the
  /// transaction then commits if the statement succeeded.
  std::thread StartWaiter(
      std::function<Result<size_t>(txn::Transaction*)> stmt,
      Result<size_t>* result, size_t* undo) {
    std::thread waiter([this, stmt, result, undo] {
      std::unique_ptr<txn::Transaction> txn = db_->Begin();
      *result = stmt(txn.get());
      *undo = txn->undo_log().size();
      if (result->ok()) {
        OPDELTA_EXPECT_OK(db_->Commit(txn.get()));
      } else {
        OPDELTA_EXPECT_OK(db_->Abort(txn.get()));
      }
    });
    const catalog::TableId table = db_->GetTable("parts")->id();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (db_->locks()->WaitersOnTable(table) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(db_->locks()->WaitersOnTable(table), 1u);
    return waiter;
  }

  std::unique_ptr<txn::Transaction> writer_;
};

TEST_P(RowPathTest, UpdateAfterAnAbortedWriterKeepsTheCommittedImage) {
  Result<size_t> updated(size_t{0});
  size_t undo = 0;
  std::thread waiter = StartWaiter(
      [&](txn::Transaction* txn) {
        return db_->UpdateWhere(txn, "parts", IdIs(2),
                                {Assignment{"payload", Value::String("x")}});
      },
      &updated, &undo);
  OPDELTA_ASSERT_OK(db_->Abort(writer_.get()));
  waiter.join();
  OPDELTA_ASSERT_OK(updated.status());
  EXPECT_EQ(updated.value(), 1u);
  const Row row = TableContents(db_.get(), "parts").at(Value::Int64(2));
  EXPECT_EQ(row[1].AsString(), "active");  // not the aborted "dirty"
  EXPECT_EQ(row[2].AsString(), "x");
}

TEST_P(RowPathTest, DeleteSkipsARowOnlyTheAbortedImageMatched) {
  Result<size_t> deleted(size_t{0});
  size_t undo = 0;
  std::thread waiter = StartWaiter(
      [&](txn::Transaction* txn) {
        return db_->DeleteWhere(
            txn, "parts",
            Predicate::Where("id", CompareOp::kGe, Value::Int64(0))
                .And("id", CompareOp::kLt, Value::Int64(10))
                .And("status", CompareOp::kEq, Value::String("dirty")));
      },
      &deleted, &undo);
  OPDELTA_ASSERT_OK(db_->Abort(writer_.get()));
  waiter.join();
  OPDELTA_ASSERT_OK(deleted.status());
  EXPECT_EQ(deleted.value(), 0u);
  EXPECT_EQ(undo, 0u);
  EXPECT_EQ(CountRows(db_.get(), "parts"), 3u);
}

TEST_P(RowPathTest, RowDeletedByTheLockHolderIsAConflict) {
  Result<size_t> updated(size_t{0});
  size_t undo = 0;
  std::thread waiter = StartWaiter(
      [&](txn::Transaction* txn) {
        return db_->UpdateWhere(txn, "parts", IdIs(2),
                                {Assignment{"payload", Value::String("x")}});
      },
      &updated, &undo);
  OPDELTA_ASSERT_OK(db_->DeleteWhere(writer_.get(), "parts", IdIs(2)).status());
  OPDELTA_ASSERT_OK(db_->Commit(writer_.get()));
  waiter.join();
  EXPECT_TRUE(updated.status().IsConflict()) << updated.status().ToString();
  EXPECT_EQ(undo, 0u);  // the statement wrote nothing
  const auto contents = TableContents(db_.get(), "parts");
  EXPECT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents.count(Value::Int64(2)), 0u);
}

INSTANTIATE_TEST_SUITE_P(AccessPaths, RowPathTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "IndexOnId" : "HeapScan";
                         });

TEST(FreedSlotQuarantineTest, InsertSkipsSlotFreedByOpenDelete) {
  // A DELETE frees its heap slot at statement time but holds the rid's X
  // row lock until it resolves. An INSERT placed in that slot would wait on
  // the lock (here: time out after 200 ms); the quarantine keeps the slot
  // out of placement until the deleter commits or aborts.
  TempDir dir;
  DatabaseOptions options;
  options.lock_timeout = std::chrono::milliseconds(200);
  auto db = OpenDb(dir, "db", options);
  OPDELTA_ASSERT_OK(db->CreateTable("parts", PartsSchema()));
  for (int64_t id : {0, 1, 2}) {
    OPDELTA_ASSERT_OK(db->WithTransaction([&](txn::Transaction* txn) {
      return db->Insert(txn, "parts", PartsRow(id, "active"));
    }));
  }

  auto deleter = db->Begin();
  Result<size_t> deleted = db->DeleteWhere(
      deleter.get(), "parts",
      Predicate::Where("id", CompareOp::kEq, Value::Int64(1)));
  OPDELTA_ASSERT_OK(deleted.status());
  ASSERT_EQ(deleted.value(), 1u);

  auto inserter = db->Begin();
  OPDELTA_ASSERT_OK(db->Insert(inserter.get(), "parts", PartsRow(9, "new")));
  OPDELTA_ASSERT_OK(db->Commit(inserter.get()));
  OPDELTA_ASSERT_OK(db->Abort(deleter.get()));

  const auto contents = TableContents(db.get(), "parts");
  EXPECT_EQ(contents.size(), 4u);
  for (int64_t id : {0, 1, 2, 9}) {
    EXPECT_EQ(contents.count(Value::Int64(id)), 1u) << "key " << id;
  }
}

// A write whose WAL append fails must still be rolled back by Abort, so
// every write path pushes its undo entry before the append. Faults are
// scoped to the log; the table files stay writable.
class WalFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fenv_.SetScope("/wal/");
    db_ = OpenDb(dir_, "db");
    OPDELTA_ASSERT_OK(db_->CreateTable("parts", PartsSchema()));
    for (int64_t id = 0; id < 10; ++id) {
      OPDELTA_ASSERT_OK(db_->WithTransaction([&](txn::Transaction* txn) {
        return db_->Insert(txn, "parts", PartsRow(id, "active"), &rids_[id]);
      }));
    }
    before_ = TableContents(db_.get(), "parts");
  }

  // Runs `write` in a transaction whose next WAL append fails, expects the
  // IOError, aborts, and checks that the table reads as before. An append
  // only fills the log's in-memory tail, so the disk dies under a commit
  // first: its failed write leaves the segment awaiting a repair, which
  // fails on the dead disk, and so the append under test fails too.
  void ExpectRolledBack(const std::function<Status(txn::Transaction*)>& write) {
    auto txn = db_->Begin();
    fenv_.FailAllOpsAfter(0);
    Status commit = db_->WithTransaction([&](txn::Transaction* other) {
      return db_->Insert(other, "parts", PartsRow(100, "never"));
    });
    EXPECT_TRUE(commit.IsIOError()) << commit.ToString();
    Status st = write(txn.get());
    fenv_.ClearFaults();
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    OPDELTA_ASSERT_OK(db_->Abort(txn.get()));
    const auto after = TableContents(db_.get(), "parts");
    ASSERT_EQ(after.size(), before_.size());
    for (const auto& [key, row] : before_) {
      ASSERT_EQ(after.count(key), 1u) << key.ToSqlLiteral();
      EXPECT_EQ(catalog::CompareRows(after.at(key), row), 0) << key.ToSqlLiteral();
    }
  }

  FaultInjectionEnv fenv_{Env::Default()};
  opdelta::testing::ScopedEnvOverride env_override_{&fenv_};
  TempDir dir_;
  std::unique_ptr<Database> db_;
  std::map<int64_t, storage::Rid> rids_;
  std::map<Value, Row> before_;
};

TEST_F(WalFaultTest, UpdateAtRollsBackAfterFailedLogAppend) {
  ExpectRolledBack([&](txn::Transaction* txn) {
    return db_->UpdateAt(txn, "parts", rids_[3], PartsRow(3, "CHANGED"));
  });
}

TEST_F(WalFaultTest, DeleteAtRollsBackAfterFailedLogAppend) {
  ExpectRolledBack([&](txn::Transaction* txn) {
    return db_->DeleteAt(txn, "parts", rids_[3]);
  });
}

TEST_F(WalFaultTest, UpsertByKeyRollsBackAfterFailedLogAppend) {
  ExpectRolledBack([&](txn::Transaction* txn) {
    return db_->UpsertByKey(txn, "parts", PartsRow(3, "CHANGED")).status();
  });
}

// The log after a fault: a commit whose write failed is not logged, the
// segment is cut back to its last whole frame, and the database reopens
// with dense LSNs and every acknowledged commit. Faults are scoped to the
// log.
class WalRepairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fenv_.SetScope("/wal/");
    db_ = OpenDb(dir_, "db");
    OPDELTA_ASSERT_OK(db_->CreateTable("parts", PartsSchema()));
  }

  Status InsertOne(int64_t id) {
    return db_->WithTransaction([&](txn::Transaction* txn) {
      return db_->Insert(txn, "parts", PartsRow(id, "active"));
    });
  }

  // Closes and reopens the database, then reads the whole log: it must
  // read back with dense LSNs, and its committed transactions must insert
  // exactly `acknowledged`. Returns the log's records.
  std::vector<txn::LogRecord> ReopenAndReadLog(
      const std::set<int64_t>& acknowledged) {
    std::vector<txn::LogRecord> records;
    Status st = db_->Close();
    EXPECT_TRUE(st.ok()) << st.ToString();
    db_.reset();
    st = Database::Open(dir_.Sub("db"), DatabaseOptions(), &db_);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) return records;
    st = txn::Wal::ReadAll(db_->wal()->dir(), [&](const txn::LogRecord& r) {
      records.push_back(r);
      return true;
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    for (size_t i = 1; i < records.size(); ++i) {
      EXPECT_EQ(records[i].lsn, records[i - 1].lsn + 1) << "record " << i;
    }
    std::set<txn::TxnId> committed;
    for (const txn::LogRecord& r : records) {
      if (r.type == txn::LogRecordType::kCommit) committed.insert(r.txn_id);
    }
    const catalog::Schema schema = PartsSchema();
    std::set<int64_t> replayed;
    for (const txn::LogRecord& r : records) {
      if (r.type != txn::LogRecordType::kInsert ||
          committed.count(r.txn_id) == 0) {
        continue;
      }
      Row row;
      st = catalog::RowCodec::Decode(schema, Slice(r.after), &row);
      EXPECT_TRUE(st.ok()) << st.ToString();
      if (st.ok()) replayed.insert(row[0].AsInt64());
    }
    EXPECT_EQ(replayed, acknowledged);
    return records;
  }

  // ROADMAP item 1's repro: commit 10 rows, fail the next commit's write
  // (cleanly or torn) and abort, commit 10 more, then reopen.
  void FailOneCommitThenReopen(bool torn) {
    std::set<int64_t> acknowledged;
    for (int64_t id = 0; id < 10; ++id) {
      OPDELTA_ASSERT_OK(InsertOne(id));
      acknowledged.insert(id);
    }
    auto failed = db_->Begin();
    OPDELTA_ASSERT_OK(db_->Insert(failed.get(), "parts", PartsRow(50, "x")));
    fenv_.SetErrorProbability(FaultInjectionEnv::OpKind::kWrite, 1.0);
    fenv_.SetShortWriteProbability(torn ? 1.0 : 0.0);
    Status st = db_->Commit(failed.get());
    fenv_.ClearFaults();
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    OPDELTA_ASSERT_OK(db_->Abort(failed.get()));
    for (int64_t id = 10; id < 20; ++id) {
      OPDELTA_ASSERT_OK(InsertOne(id));
      acknowledged.insert(id);
    }

    bool aborted = false;
    for (const txn::LogRecord& r : ReopenAndReadLog(acknowledged)) {
      if (r.txn_id != failed->id()) continue;
      EXPECT_NE(r.type, txn::LogRecordType::kCommit);
      aborted = aborted || r.type == txn::LogRecordType::kAbort;
    }
    EXPECT_TRUE(aborted);  // its records were written under its abort
  }

  FaultInjectionEnv fenv_{Env::Default()};
  opdelta::testing::ScopedEnvOverride env_override_{&fenv_};
  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(WalRepairTest, FailedCommitWriteLeavesTheLogReadable) {
  FailOneCommitThenReopen(/*torn=*/false);
}

TEST_F(WalRepairTest, TornCommitWriteIsCutBack) {
  FailOneCommitThenReopen(/*torn=*/true);
}

TEST_F(WalRepairTest, DeadDiskHealsWithoutReopen) {
  std::set<int64_t> acknowledged;
  for (int64_t id = 0; id < 5; ++id) {
    OPDELTA_ASSERT_OK(InsertOne(id));
    acknowledged.insert(id);
  }
  fenv_.FailAllOpsAfter(0);
  Status st = InsertOne(100);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  // The segment waits for its repair, which fails while the disk is dead.
  auto txn = db_->Begin();
  st = db_->Insert(txn.get(), "parts", PartsRow(101, "x"));
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  OPDELTA_ASSERT_OK(db_->Abort(txn.get()));

  fenv_.ClearFaults();
  for (int64_t id = 5; id < 10; ++id) {
    OPDELTA_ASSERT_OK(InsertOne(id));
    acknowledged.insert(id);
  }
  ReopenAndReadLog(acknowledged);
}

// Appends fill an in-memory tail, which reaches the segment at commit or
// once it is full: a 500-row UPDATE transaction writes the log a few times,
// not once per record (begin, 500 updates and commit: 502 writes).
TEST_F(WalRepairTest, RangeUpdateTransactionWritesTheLogAFewTimes) {
  workload::PartsWorkload wl;
  OPDELTA_ASSERT_OK(wl.Populate(db_.get(), "parts", 500));
  const uint64_t before = fenv_.mutations();
  size_t updated = 0;
  OPDELTA_ASSERT_OK(db_->WithTransaction([&](txn::Transaction* txn) {
    Result<size_t> n = db_->UpdateWhere(
        txn, "parts", Predicate::Where("id", CompareOp::kLt, Value::Int64(500)),
        {Assignment{"status", Value::String("revised")}});
    if (n.ok()) updated = n.value();
    return n.status();
  }));
  ASSERT_EQ(updated, 500u);
  EXPECT_LE(fenv_.mutations() - before, 3u);
}

}  // namespace
}  // namespace opdelta::engine
