#include <gtest/gtest.h>

#include "common/fault_env.h"
#include "common/random.h"
#include "dbutils/ascii_dump.h"
#include "dbutils/export.h"
#include "dbutils/loader.h"
#include "workload/workload.h"
#include "tests/test_util.h"

namespace opdelta::dbutils {
namespace {

using catalog::Row;
using catalog::Value;
using opdelta::testing::CountRows;
using opdelta::testing::OpenDb;
using opdelta::testing::TablesEqual;
using opdelta::testing::TempDir;

class DbUtilsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    src_ = OpenDb(dir_, "src");
    dst_ = OpenDb(dir_, "dst");
    OPDELTA_ASSERT_OK(wl_.CreateTable(src_.get(), "parts"));
    OPDELTA_ASSERT_OK(wl_.CreateTable(dst_.get(), "parts"));
    OPDELTA_ASSERT_OK(wl_.Populate(src_.get(), "parts", 500));
  }

  TempDir dir_;
  workload::PartsWorkload wl_;
  std::unique_ptr<engine::Database> src_, dst_;
};

// Forwards to the env it wraps, except that the `fail_at`-th Append
// (counting from 1) to the file at `path` fails, once, with an IOError.
class FailOneAppendEnv : public Env {
 public:
  FailOneAppendEnv(Env* base, std::string path, int fail_at)
      : base_(base), path_(std::move(path)), countdown_(fail_at) {}

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override {
    OPDELTA_RETURN_IF_ERROR(base_->NewWritableFile(path, out));
    if (path == path_) *out = std::make_unique<File>(std::move(*out), this);
    return Status::OK();
  }
  Status NewAppendableFile(const std::string& path,
                           std::unique_ptr<WritableFile>* out) override {
    return base_->NewAppendableFile(path, out);
  }
  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override {
    return base_->NewRandomAccessFile(path, out);
  }
  Status NewRandomRWFile(const std::string& path,
                         std::unique_ptr<RandomRWFile>* out) override {
    return base_->NewRandomRWFile(path, out);
  }
  Status ReadFileToString(const std::string& path, std::string* out) override {
    return base_->ReadFileToString(path, out);
  }
  Status WriteStringToFile(const std::string& path, Slice data) override {
    return base_->WriteStringToFile(path, data);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  bool DirExists(const std::string& path) override {
    return base_->DirExists(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status GetFileSize(const std::string& path, uint64_t* size) override {
    return base_->GetFileSize(path, size);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Status RemoveDirAll(const std::string& path) override {
    return base_->RemoveDirAll(path);
  }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* children) override {
    return base_->ListDir(path, children);
  }

 private:
  class File : public WritableFile {
   public:
    File(std::unique_ptr<WritableFile> base, FailOneAppendEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status Append(Slice data) override {
      if (--env_->countdown_ == 0) {
        return Status::IOError("injected append fault");
      }
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override { return base_->Sync(); }
    Status Close() override { return base_->Close(); }
    uint64_t Size() const override { return base_->Size(); }

   private:
    std::unique_ptr<WritableFile> base_;
    FailOneAppendEnv* env_;
  };

  Env* base_;
  std::string path_;
  int countdown_;
};

// Adds table `big` to `db`: about 2 MB of rows, so Export and DumpTable
// write it in more than one 1 MiB chunk.
void CreateBigTable(engine::Database* db) {
  workload::PartsWorkload big({.record_bytes = 1000});
  OPDELTA_ASSERT_OK(big.CreateTable(db, "big"));
  OPDELTA_ASSERT_OK(big.Populate(db, "big", 2000));
}

// ---------------------------------------------------------- Export/Import

TEST_F(DbUtilsTest, ExportImportRoundTrip) {
  const std::string path = dir_.Sub("parts.exp");
  OPDELTA_ASSERT_OK(ExportUtil::Export(src_.get(), "parts", path));
  OPDELTA_ASSERT_OK(ImportUtil::Import(dst_.get(), "parts", path));
  EXPECT_TRUE(TablesEqual(src_.get(), "parts", dst_.get(), "parts"));
}

TEST_F(DbUtilsTest, ExportFileStreamsRows) {
  const std::string path = dir_.Sub("parts.exp");
  OPDELTA_ASSERT_OK(ExportUtil::Export(src_.get(), "parts", path));
  catalog::Schema schema;
  int rows = 0;
  OPDELTA_ASSERT_OK(
      ExportUtil::ReadExportFile(path, &schema, [&](const Row&) {
        ++rows;
        return true;
      }));
  EXPECT_EQ(rows, 500);
  EXPECT_TRUE(schema == workload::PartsWorkload::Schema());
}

TEST_F(DbUtilsTest, ImportRejectsSchemaMismatch) {
  // "Use of the Export/Import utilities require that the same database
  // product [and schema] exist in the source and in the data warehouse."
  const std::string path = dir_.Sub("parts.exp");
  OPDELTA_ASSERT_OK(ExportUtil::Export(src_.get(), "parts", path));
  OPDELTA_ASSERT_OK(dst_->CreateTable(
      "other", catalog::Schema({catalog::Column{
                   "x", catalog::ValueType::kInt64}})));
  Status st = ImportUtil::Import(dst_.get(), "other", path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(DbUtilsTest, ImportDetectsCorruptFile) {
  const std::string path = dir_.Sub("parts.exp");
  OPDELTA_ASSERT_OK(ExportUtil::Export(src_.get(), "parts", path));
  std::string data;
  OPDELTA_ASSERT_OK(Env::Default()->ReadFileToString(path, &data));
  data[data.size() / 2] ^= 0x40;
  OPDELTA_ASSERT_OK(Env::Default()->WriteStringToFile(path, Slice(data)));
  EXPECT_TRUE(ImportUtil::Import(dst_.get(), "parts", path).IsCorruption());
}

TEST_F(DbUtilsTest, ImportDoesMorePhysicalIoThanLoader) {
  // Reproduce Table 1's qualitative result at unit-test scale: the Import
  // path writes more pages than the Loader path for the same data.
  const std::string exp_path = dir_.Sub("parts.exp");
  const std::string csv_path = dir_.Sub("parts.csv");
  OPDELTA_ASSERT_OK(ExportUtil::Export(src_.get(), "parts", exp_path));
  OPDELTA_ASSERT_OK(AsciiDump::DumpTable(src_.get(), "parts",
                                         engine::Predicate::True(),
                                         csv_path));

  auto import_db = OpenDb(dir_, "imp");
  OPDELTA_ASSERT_OK(wl_.CreateTable(import_db.get(), "parts"));
  ImportUtil::Stats import_stats;
  OPDELTA_ASSERT_OK(ImportUtil::Import(import_db.get(), "parts", exp_path,
                                       ImportUtil::Options(), &import_stats));
  OPDELTA_ASSERT_OK(import_db->FlushAll());

  auto loader_db = OpenDb(dir_, "load");
  OPDELTA_ASSERT_OK(wl_.CreateTable(loader_db.get(), "parts"));
  Loader::Stats loader_stats;
  OPDELTA_ASSERT_OK(
      Loader::Load(loader_db.get(), "parts", csv_path, &loader_stats));

  EXPECT_EQ(loader_stats.rows_loaded, 500u);
  EXPECT_EQ(import_stats.rows_imported, 500u);
  // The Import path's extra physical I/O: staging-page spills plus a WAL
  // record per row; the Loader writes database blocks directly with no
  // logging at all.
  EXPECT_GT(import_stats.staging_spills, 0u);
  EXPECT_GT(import_db->wal()->bytes_appended(),
            500u * 100u);  // ≥ one ~100B image per row
  EXPECT_EQ(loader_db->wal()->bytes_appended(), 0u);
}

TEST_F(DbUtilsTest, ExportReportsAFailedChunkWrite) {
  ASSERT_NO_FATAL_FAILURE(CreateBigTable(src_.get()));
  const std::string path = dir_.Sub("big.exp");
  // Export writes `<path>.tmp`, then renames it. Append 1 is the header;
  // append 2 is the first 1 MiB chunk of rows.
  FailOneAppendEnv env(Env::Default(), path + ".tmp", 2);
  opdelta::testing::ScopedEnvOverride scoped(&env);
  const Status st = ExportUtil::Export(src_.get(), "big", path);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST_F(DbUtilsTest, FailedExportLeavesTheEarlierDumpReadable) {
  // Export publishes by rename: a dump whose writes fail, cleanly or torn,
  // never replaces the good dump already at its path.
  const std::string path = dir_.Sub("parts.exp");
  OPDELTA_ASSERT_OK(ExportUtil::Export(src_.get(), "parts", path));
  OPDELTA_ASSERT_OK(src_->WithTransaction([&](txn::Transaction* txn) {
    return src_
        ->DeleteWhere(txn, "parts",
                      engine::Predicate::Where("id", engine::CompareOp::kLt,
                                               Value::Int64(100)))
        .status();
  }));
  for (bool torn : {false, true}) {
    {
      FaultInjectionEnv fenv(Env::Default());
      fenv.SetScope(path);
      fenv.SetErrorProbability(FaultInjectionEnv::OpKind::kWrite, 1.0);
      fenv.SetShortWriteProbability(torn ? 1.0 : 0.0);
      opdelta::testing::ScopedEnvOverride scoped(&fenv);
      const Status st = ExportUtil::Export(src_.get(), "parts", path);
      EXPECT_TRUE(st.IsIOError()) << st.ToString();
    }
    int rows = 0;
    OPDELTA_ASSERT_OK(ExportUtil::ReadExportFile(path, nullptr,
                                                 [&](const Row&) {
                                                   ++rows;
                                                   return true;
                                                 }));
    EXPECT_EQ(rows, 500) << (torn ? "torn" : "clean") << " write";
  }
}

class ExportImportPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ExportImportPropertyTest, RandomSchemasAndRowsRoundTrip) {
  Rng rng(GetParam());
  TempDir dir;
  auto src = OpenDb(dir, "src");
  auto dst = OpenDb(dir, "dst");

  // Random schema: int key + 1..6 random-typed columns.
  std::vector<catalog::Column> cols = {
      catalog::Column{"k", catalog::ValueType::kInt64}};
  const catalog::ValueType kTypes[] = {catalog::ValueType::kInt64,
                                       catalog::ValueType::kDouble,
                                       catalog::ValueType::kString,
                                       catalog::ValueType::kTimestamp};
  const size_t extra = 1 + rng.Uniform(6);
  for (size_t i = 0; i < extra; ++i) {
    cols.push_back(
        catalog::Column{"c" + std::to_string(i), kTypes[rng.Uniform(4)]});
  }
  catalog::Schema schema(std::move(cols));
  OPDELTA_ASSERT_OK(src->CreateTable("t", schema));
  OPDELTA_ASSERT_OK(dst->CreateTable("t", schema));

  // Random rows with nulls sprinkled in.
  const int n = 50 + static_cast<int>(rng.Uniform(300));
  OPDELTA_ASSERT_OK(src->WithTransaction([&](txn::Transaction* txn) -> Status {
    for (int i = 0; i < n; ++i) {
      Row row;
      row.push_back(Value::Int64(i));
      for (size_t c = 1; c < schema.num_columns(); ++c) {
        if (rng.OneIn(8)) {
          row.push_back(Value::Null());
          continue;
        }
        switch (schema.column(c).type) {
          case catalog::ValueType::kInt64:
            row.push_back(Value::Int64(static_cast<int64_t>(rng.Next())));
            break;
          case catalog::ValueType::kDouble:
            row.push_back(Value::Double(rng.NextDouble() * 1e6));
            break;
          case catalog::ValueType::kString:
            row.push_back(Value::String(rng.NextString(rng.Uniform(80))));
            break;
          default:
            row.push_back(
                Value::Timestamp(static_cast<Micros>(rng.Next() >> 1)));
            break;
        }
      }
      OPDELTA_RETURN_IF_ERROR(src->InsertRaw(txn, "t", std::move(row)));
    }
    return Status::OK();
  }));

  const std::string path = dir.Sub("t.exp");
  OPDELTA_ASSERT_OK(ExportUtil::Export(src.get(), "t", path));
  OPDELTA_ASSERT_OK(ImportUtil::Import(dst.get(), "t", path));
  EXPECT_TRUE(TablesEqual(src.get(), "t", dst.get(), "t"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExportImportPropertyTest,
                         ::testing::Values(61, 62, 63, 64));

// -------------------------------------------------------- AsciiDump/Load

TEST_F(DbUtilsTest, DumpAndLoadRoundTrip) {
  const std::string path = dir_.Sub("parts.csv");
  OPDELTA_ASSERT_OK(AsciiDump::DumpTable(src_.get(), "parts",
                                         engine::Predicate::True(), path));
  OPDELTA_ASSERT_OK(Loader::Load(dst_.get(), "parts", path, nullptr));
  EXPECT_TRUE(TablesEqual(src_.get(), "parts", dst_.get(), "parts"));
}

TEST_F(DbUtilsTest, DumpRespectsPredicate) {
  const std::string path = dir_.Sub("some.csv");
  OPDELTA_ASSERT_OK(AsciiDump::DumpTable(
      src_.get(), "parts",
      engine::Predicate::Where("id", engine::CompareOp::kLt,
                               Value::Int64(100)),
      path));
  std::vector<Row> rows;
  OPDELTA_ASSERT_OK(
      AsciiDump::ReadCsv(path, workload::PartsWorkload::Schema(), &rows));
  EXPECT_EQ(rows.size(), 100u);
}

TEST_F(DbUtilsTest, DumpReportsAFailedChunkWrite) {
  ASSERT_NO_FATAL_FAILURE(CreateBigTable(src_.get()));
  const std::string path = dir_.Sub("big.csv");
  FailOneAppendEnv env(Env::Default(), path, 1);  // the first 1 MiB chunk
  opdelta::testing::ScopedEnvOverride scoped(&env);
  const Status st = AsciiDump::DumpTable(src_.get(), "big",
                                         engine::Predicate::True(), path);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST_F(DbUtilsTest, DumpRowsAndReadBack) {
  std::vector<Row> rows = {{Value::Int64(1), Value::String("a,b"),
                            Value::String("x"), Value::Timestamp(5)},
                           {Value::Int64(2), Value::String("plain"),
                            Value::String(""), Value::Null()}};
  const std::string path = dir_.Sub("rows.csv");
  OPDELTA_ASSERT_OK(AsciiDump::DumpRows(rows, path));
  std::vector<Row> readback;
  OPDELTA_ASSERT_OK(
      AsciiDump::ReadCsv(path, workload::PartsWorkload::Schema(), &readback));
  ASSERT_EQ(readback.size(), 2u);
  EXPECT_EQ(catalog::CompareRows(rows[0], readback[0]), 0);
  EXPECT_EQ(catalog::CompareRows(rows[1], readback[1]), 0);
}

TEST_F(DbUtilsTest, CsvCannotDistinguishNullStringFromEmpty) {
  // A documented ASCII-format limitation: a NULL in a string column comes
  // back as the empty string. Binary Export/Import preserves it exactly —
  // one of the trade-offs §3 weighs between the two dump techniques.
  std::vector<Row> rows = {{Value::Int64(1), Value::Null(),
                            Value::String("p"), Value::Null()}};
  const std::string path = dir_.Sub("null.csv");
  OPDELTA_ASSERT_OK(AsciiDump::DumpRows(rows, path));
  std::vector<Row> readback;
  OPDELTA_ASSERT_OK(
      AsciiDump::ReadCsv(path, workload::PartsWorkload::Schema(), &readback));
  ASSERT_EQ(readback.size(), 1u);
  EXPECT_FALSE(readback[0][1].is_null());
  EXPECT_EQ(readback[0][1].AsString(), "");
}

TEST_F(DbUtilsTest, LoaderRefusesIndexedTable) {
  OPDELTA_ASSERT_OK(dst_->CreateIndex("parts", "id"));
  const std::string path = dir_.Sub("parts.csv");
  OPDELTA_ASSERT_OK(AsciiDump::DumpTable(src_.get(), "parts",
                                         engine::Predicate::True(), path));
  Status st = Loader::Load(dst_.get(), "parts", path, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kNotSupported);
}

TEST_F(DbUtilsTest, LoaderRowsVisibleToScansAndIndexableAfter) {
  const std::string path = dir_.Sub("parts.csv");
  OPDELTA_ASSERT_OK(AsciiDump::DumpTable(src_.get(), "parts",
                                         engine::Predicate::True(), path));
  OPDELTA_ASSERT_OK(Loader::Load(dst_.get(), "parts", path, nullptr));
  // Create the index after the load: it must backfill the loaded rows.
  OPDELTA_ASSERT_OK(dst_->CreateIndex("parts", "id"));
  int count = 0;
  OPDELTA_ASSERT_OK(dst_->Scan(
      nullptr, "parts",
      engine::Predicate::Where("id", engine::CompareOp::kGe,
                               catalog::Value::Int64(0))
          .And("id", engine::CompareOp::kLe, catalog::Value::Int64(499)),
      [&](const storage::Rid&, const Row&) {
        ++count;
        return true;
      }));
  EXPECT_EQ(count, 500);
}

TEST_F(DbUtilsTest, LoadedRowsUpdatableTransactionally) {
  const std::string path = dir_.Sub("parts.csv");
  OPDELTA_ASSERT_OK(AsciiDump::DumpTable(src_.get(), "parts",
                                         engine::Predicate::True(), path));
  OPDELTA_ASSERT_OK(Loader::Load(dst_.get(), "parts", path, nullptr));
  OPDELTA_ASSERT_OK(dst_->WithTransaction([&](txn::Transaction* txn) {
    return dst_
        ->UpdateWhere(txn, "parts",
                      engine::Predicate::Where("id", engine::CompareOp::kLt,
                                               Value::Int64(10)),
                      {engine::Assignment{"status", Value::String("bulk")}})
        .status();
  }));
  int updated = 0;
  OPDELTA_ASSERT_OK(dst_->Scan(
      nullptr, "parts",
      engine::Predicate::Where("status", engine::CompareOp::kEq,
                               Value::String("bulk")),
      [&](const storage::Rid&, const Row&) {
        ++updated;
        return true;
      }));
  EXPECT_EQ(updated, 10);
}

}  // namespace
}  // namespace opdelta::dbutils
