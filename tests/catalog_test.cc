#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/env.h"
#include "common/random.h"
#include "catalog/catalog.h"
#include "catalog/row_codec.h"
#include "catalog/schema.h"
#include "catalog/value.h"
#include "tests/test_util.h"

namespace opdelta::catalog {
namespace {

using opdelta::testing::TempDir;

Schema TestSchema() {
  return Schema({Column{"id", ValueType::kInt64},
                 Column{"name", ValueType::kString},
                 Column{"score", ValueType::kDouble},
                 Column{"modified", ValueType::kTimestamp}});
}

// ------------------------------------------------------------------ Value

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int64(42).AsInt64(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("abc").AsString(), "abc");
  EXPECT_EQ(Value::Timestamp(999).AsTimestamp(), 999);
}

TEST(ValueTest, CompareWithinTypes) {
  EXPECT_LT(Value::Int64(1).Compare(Value::Int64(2)), 0);
  EXPECT_EQ(Value::Int64(2).Compare(Value::Int64(2)), 0);
  EXPECT_GT(Value::String("b").Compare(Value::String("a")), 0);
  EXPECT_LT(Value::Double(1.5).Compare(Value::Double(2.5)), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int64(-100)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, CrossNumericComparison) {
  EXPECT_EQ(Value::Int64(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int64(2).Compare(Value::Double(2.5)), 0);
}

TEST(ValueTest, SqlLiteralRendering) {
  EXPECT_EQ(Value::Null().ToSqlLiteral(), "NULL");
  EXPECT_EQ(Value::Int64(-7).ToSqlLiteral(), "-7");
  EXPECT_EQ(Value::String("it's").ToSqlLiteral(), "'it''s'");
  EXPECT_EQ(Value::Timestamp(123).ToSqlLiteral(), "TS:123");
}

TEST(ValueTest, CsvFieldQuoting) {
  EXPECT_EQ(Value::String("plain").ToCsvField(), "plain");
  EXPECT_EQ(Value::String("a,b").ToCsvField(), "\"a,b\"");
  EXPECT_EQ(Value::String("say \"hi\"").ToCsvField(), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(Value::Null().ToCsvField(), "");
}

TEST(ValueTest, RowComparisonLexicographic) {
  Row a = {Value::Int64(1), Value::String("x")};
  Row b = {Value::Int64(1), Value::String("y")};
  Row c = {Value::Int64(1)};
  EXPECT_LT(CompareRows(a, b), 0);
  EXPECT_EQ(CompareRows(a, a), 0);
  EXPECT_GT(CompareRows(a, c), 0);  // longer row sorts after its prefix
}

// ----------------------------------------------------------------- Schema

TEST(SchemaTest, ColumnLookup) {
  Schema s = TestSchema();
  EXPECT_EQ(s.ColumnIndex("name"), 1);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
  EXPECT_EQ(s.TimestampColumnIndex(), 3);
  EXPECT_EQ(s.KeyColumnIndex(), 0);
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema s = TestSchema();
  std::string buf;
  s.EncodeTo(&buf);
  Slice in(buf);
  Schema out;
  OPDELTA_ASSERT_OK(Schema::DecodeFrom(&in, &out));
  EXPECT_TRUE(s == out);
  EXPECT_TRUE(in.empty());
}

TEST(SchemaTest, DecodeRejectsGarbage) {
  Slice in("\xff\xff\xff garbage");
  Schema out;
  EXPECT_FALSE(Schema::DecodeFrom(&in, &out).ok());
}

TEST(SchemaTest, ValidateRowChecksArityAndTypes) {
  Schema s = TestSchema();
  Row good = {Value::Int64(1), Value::String("a"), Value::Double(0.5),
              Value::Timestamp(1)};
  OPDELTA_EXPECT_OK(ValidateRow(s, good));

  Row with_nulls = {Value::Int64(1), Value::Null(), Value::Null(),
                    Value::Null()};
  OPDELTA_EXPECT_OK(ValidateRow(s, with_nulls));

  Row short_row = {Value::Int64(1)};
  EXPECT_FALSE(ValidateRow(s, short_row).ok());

  Row bad_type = {Value::String("not-an-int"), Value::String("a"),
                  Value::Double(0.5), Value::Timestamp(1)};
  EXPECT_FALSE(ValidateRow(s, bad_type).ok());
}

// --------------------------------------------------------------- RowCodec

TEST(RowCodecTest, RoundTripAllTypes) {
  Schema s = TestSchema();
  Row row = {Value::Int64(-12345), Value::String("hello world"),
             Value::Double(3.14159), Value::Timestamp(1710000000000000)};
  std::string enc = RowCodec::Encode(s, row);
  Row out;
  OPDELTA_ASSERT_OK(RowCodec::Decode(s, Slice(enc), &out));
  EXPECT_EQ(CompareRows(row, out), 0);
}

TEST(RowCodecTest, NullBitmap) {
  Schema s = TestSchema();
  Row row = {Value::Int64(1), Value::Null(), Value::Null(), Value::Null()};
  std::string enc = RowCodec::Encode(s, row);
  Row out;
  OPDELTA_ASSERT_OK(RowCodec::Decode(s, Slice(enc), &out));
  EXPECT_TRUE(out[1].is_null());
  EXPECT_TRUE(out[2].is_null());
  EXPECT_TRUE(out[3].is_null());
  EXPECT_EQ(out[0].AsInt64(), 1);
}

TEST(RowCodecTest, EmptyStringRoundTrips) {
  Schema s({Column{"k", ValueType::kInt64}, Column{"v", ValueType::kString}});
  Row row = {Value::Int64(0), Value::String("")};
  Row out;
  OPDELTA_ASSERT_OK(RowCodec::Decode(s, Slice(RowCodec::Encode(s, row)),
                                     &out));
  EXPECT_FALSE(out[1].is_null());
  EXPECT_EQ(out[1].AsString(), "");
}

TEST(RowCodecTest, TruncatedInputFails) {
  Schema s = TestSchema();
  Row row = {Value::Int64(1), Value::String("abc"), Value::Double(1.0),
             Value::Timestamp(5)};
  std::string enc = RowCodec::Encode(s, row);
  Row out;
  EXPECT_FALSE(
      RowCodec::Decode(s, Slice(enc.data(), enc.size() / 2), &out).ok());
}

class RowCodecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowCodecPropertyTest, RandomRowsRoundTrip) {
  Rng rng(GetParam());
  Schema s = TestSchema();
  for (int i = 0; i < 500; ++i) {
    Row row;
    row.push_back(rng.OneIn(10) ? Value::Null()
                                : Value::Int64(static_cast<int64_t>(
                                      rng.Next())));
    row.push_back(rng.OneIn(10)
                      ? Value::Null()
                      : Value::String(rng.NextString(rng.Uniform(300))));
    row.push_back(rng.OneIn(10) ? Value::Null()
                                : Value::Double(rng.NextDouble() * 1e9));
    row.push_back(rng.OneIn(10)
                      ? Value::Null()
                      : Value::Timestamp(static_cast<Micros>(rng.Next() >> 1)));
    Row out;
    OPDELTA_ASSERT_OK(RowCodec::Decode(s, Slice(RowCodec::Encode(s, row)),
                                       &out));
    ASSERT_EQ(CompareRows(row, out), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowCodecPropertyTest,
                         ::testing::Values(5, 6, 7, 8));

// --------------------------------------------------------------- CsvCodec

TEST(CsvCodecTest, LineRoundTrip) {
  Schema s = TestSchema();
  Row row = {Value::Int64(7), Value::String("widget,a \"big\" one"),
             Value::Double(0.25), Value::Timestamp(1234)};
  std::string line;
  CsvCodec::EncodeLine(row, &line);
  ASSERT_EQ(line.back(), '\n');
  Row out;
  OPDELTA_ASSERT_OK(CsvCodec::DecodeLine(
      s, Slice(line.data(), line.size() - 1), &out));
  EXPECT_EQ(CompareRows(row, out), 0);
}

TEST(CsvCodecTest, NullsAsEmptyFields) {
  Schema s = TestSchema();
  Row row = {Value::Int64(1), Value::String("x"), Value::Null(),
             Value::Null()};
  std::string line;
  CsvCodec::EncodeLine(row, &line);
  Row out;
  OPDELTA_ASSERT_OK(CsvCodec::DecodeLine(
      s, Slice(line.data(), line.size() - 1), &out));
  EXPECT_TRUE(out[2].is_null());
  EXPECT_TRUE(out[3].is_null());
}

TEST(CsvCodecTest, FieldCountMismatchRejected) {
  Schema s = TestSchema();
  Row out;
  EXPECT_FALSE(CsvCodec::DecodeLine(s, Slice("1,2"), &out).ok());
}

TEST(CsvCodecTest, BadNumberRejected) {
  Schema s({Column{"n", ValueType::kInt64}});
  Row out;
  EXPECT_FALSE(CsvCodec::DecodeLine(s, Slice("notanumber"), &out).ok());
}

// ---------------------------------------------------------------- Catalog

TEST(CatalogTest, CreateLookupDrop) {
  Catalog catalog;
  TableId id;
  OPDELTA_ASSERT_OK(catalog.CreateTable("parts", TestSchema(), &id));
  const TableInfo* info = catalog.GetTable("parts");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->id, id);
  EXPECT_EQ(catalog.GetTable(id), info);
  EXPECT_EQ(catalog.GetTable("nope"), nullptr);

  EXPECT_TRUE(catalog.CreateTable("parts", TestSchema(), nullptr)
                  .code() == StatusCode::kAlreadyExists);
  OPDELTA_ASSERT_OK(catalog.DropTable("parts"));
  EXPECT_EQ(catalog.GetTable("parts"), nullptr);
  EXPECT_TRUE(catalog.DropTable("parts").IsNotFound());
}

TEST(CatalogTest, PersistsToFile) {
  TempDir dir;
  const std::string path = dir.Sub("catalog.meta");
  TableId id1, id2;
  {
    Catalog catalog;
    OPDELTA_ASSERT_OK(catalog.CreateTable("a", TestSchema(), &id1));
    OPDELTA_ASSERT_OK(catalog.CreateTable("b", TestSchema(), &id2));
    OPDELTA_ASSERT_OK(catalog.SaveToFile(path));
  }
  Catalog reloaded;
  OPDELTA_ASSERT_OK(reloaded.LoadFromFile(path));
  ASSERT_NE(reloaded.GetTable("a"), nullptr);
  ASSERT_NE(reloaded.GetTable("b"), nullptr);
  EXPECT_EQ(reloaded.GetTable("a")->id, id1);
  EXPECT_TRUE(reloaded.GetTable("b")->schema == TestSchema());

  // New ids continue after the loaded ones.
  TableId id3;
  OPDELTA_ASSERT_OK(reloaded.CreateTable("c", TestSchema(), &id3));
  EXPECT_GT(id3, id2);
}

TEST(CatalogTest, RejectsFileWithoutFormatVersion) {
  // The pre-versioning layout — varint next_id, table count, then
  // id/name/v1-schema per table — is read by no build any more: it fails
  // naming the format instead of decoding.
  TempDir dir;
  const std::string path = dir.Sub("catalog.meta");
  std::string legacy;
  PutVarint32(&legacy, 2);  // next_id
  PutVarint32(&legacy, 1);  // one table
  PutVarint32(&legacy, 1);  // its id
  PutLengthPrefixed(&legacy, Slice("parts"));
  TestSchema().EncodeTo(&legacy);
  OPDELTA_ASSERT_OK(WriteFileAtomic(Env::Default(), path, Slice(legacy)));

  Catalog catalog;
  const Status st = catalog.LoadFromFile(path);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("catalog format version"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(catalog.GetTable("parts"), nullptr);
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog catalog;
  OPDELTA_ASSERT_OK(catalog.CreateTable("zeta", TestSchema(), nullptr));
  OPDELTA_ASSERT_OK(catalog.CreateTable("alpha", TestSchema(), nullptr));
  std::vector<std::string> names = catalog.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

}  // namespace
}  // namespace opdelta::catalog
