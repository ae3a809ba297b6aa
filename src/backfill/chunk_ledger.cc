#include "backfill/chunk_ledger.h"

#include <utility>

namespace opdelta::backfill {

using catalog::Column;
using catalog::Value;
using catalog::ValueType;

namespace {

constexpr char kCursorKind[] = "C";
constexpr char kDoneKind[] = "D";

// Column order of TableSchema().
enum LedgerCol { kTbl = 0, kKind = 1, kChunk = 2, kCursor = 3, kRows = 4 };

engine::Predicate RowsOf(const std::string& table) {
  return engine::Predicate::Where("tbl", engine::CompareOp::kEq,
                                  Value::String(table));
}

}  // namespace

constexpr char ChunkLedger::kTable[];

catalog::Schema ChunkLedger::TableSchema() {
  return catalog::Schema({Column{"tbl", ValueType::kString},
                          Column{"kind", ValueType::kString},
                          Column{"chunk", ValueType::kInt64},
                          Column{"cursor", ValueType::kInt64},
                          Column{"rows", ValueType::kInt64}});
}

Status ChunkLedger::Setup() {
  if (db_->GetTable(kTable) != nullptr) return Status::OK();
  Status st = db_->CreateTable(kTable, TableSchema());
  if (st.code() == StatusCode::kAlreadyExists) return Status::OK();
  return st;
}

Result<ChunkLedger::Progress> ChunkLedger::Get(const std::string& table) {
  Progress best;
  OPDELTA_RETURN_IF_ERROR(db_->Scan(
      nullptr, kTable, RowsOf(table),
      [&](const storage::Rid&, const catalog::Row& row) {
        const uint64_t chunk = static_cast<uint64_t>(row[kChunk].AsInt64());
        if (row[kKind].AsString() == kDoneKind) best.done = true;
        if (!best.exists || chunk > best.chunks_done) {
          best.exists = true;
          best.chunks_done = chunk;
          best.cursor = row[kCursor].AsInt64();
          best.rows_shipped = static_cast<uint64_t>(row[kRows].AsInt64());
        }
        return true;
      }));
  return best;
}

Status ChunkLedger::Put(const std::string& table, const char* kind,
                        uint64_t chunk, int64_t cursor,
                        uint64_t rows_shipped) {
  return db_->WithTransaction([&](txn::Transaction* txn) {
    OPDELTA_RETURN_IF_ERROR(
        db_->DeleteWhere(txn, kTable,
                         RowsOf(table).And("kind", engine::CompareOp::kEq,
                                           Value::String(kind)))
            .status());
    catalog::Row row(5);
    row[kTbl] = Value::String(table);
    row[kKind] = Value::String(kind);
    row[kChunk] = Value::Int64(static_cast<int64_t>(chunk));
    row[kCursor] = Value::Int64(cursor);
    row[kRows] = Value::Int64(static_cast<int64_t>(rows_shipped));
    return db_->InsertRaw(txn, kTable, std::move(row));
  });
}

Status ChunkLedger::Advance(const std::string& table, uint64_t chunk,
                            int64_t cursor, uint64_t rows_shipped) {
  return Put(table, kCursorKind, chunk, cursor, rows_shipped);
}

Status ChunkLedger::MarkDone(const std::string& table, uint64_t chunk,
                             uint64_t rows_shipped) {
  return Put(table, kDoneKind, chunk, 0, rows_shipped);
}

Status ChunkLedger::Reset(const std::string& table) {
  return db_->WithTransaction([&](txn::Transaction* txn) {
    return db_->DeleteWhere(txn, kTable, RowsOf(table)).status();
  });
}

}  // namespace opdelta::backfill
