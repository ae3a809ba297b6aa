#include "scrub/scrub_ledger.h"

#include <utility>

namespace opdelta::scrub {

using catalog::Column;
using catalog::Value;
using catalog::ValueType;

namespace {

constexpr char kCursorKind[] = "C";
constexpr char kPassKind[] = "P";

// Column order of TableSchema().
enum LedgerCol { kTbl = 0, kKind = 1, kPass = 2, kCursor = 3, kChunks = 4 };

engine::Predicate RowsOf(const std::string& table) {
  return engine::Predicate::Where("tbl", engine::CompareOp::kEq,
                                  Value::String(table));
}

}  // namespace

constexpr char ScrubLedger::kTable[];

catalog::Schema ScrubLedger::TableSchema() {
  return catalog::Schema({Column{"tbl", ValueType::kString},
                          Column{"kind", ValueType::kString},
                          Column{"pass", ValueType::kInt64},
                          Column{"cursor", ValueType::kInt64},
                          Column{"chunks", ValueType::kInt64}});
}

Status ScrubLedger::Setup() {
  if (db_->GetTable(kTable) != nullptr) return Status::OK();
  Status st = db_->CreateTable(kTable, TableSchema());
  if (st.code() == StatusCode::kAlreadyExists) return Status::OK();
  return st;
}

Result<ScrubLedger::Progress> ScrubLedger::Get(const std::string& table) {
  // Newest 'P' row, and the newest 'C' row of the newest pass. Cursor rows
  // within a pass are ordered by chunk count (cursor keys may be negative).
  uint64_t pass_done = 0;
  bool have_c = false;
  uint64_t c_pass = 0;
  int64_t c_cursor = 0;
  uint64_t c_chunks = 0;
  OPDELTA_RETURN_IF_ERROR(db_->Scan(
      nullptr, kTable, RowsOf(table),
      [&](const storage::Rid&, const catalog::Row& row) {
        const uint64_t pass = static_cast<uint64_t>(row[kPass].AsInt64());
        const uint64_t chunks = static_cast<uint64_t>(row[kChunks].AsInt64());
        if (row[kKind].AsString() == kPassKind) {
          if (pass > pass_done) pass_done = pass;
          return true;
        }
        if (!have_c || pass > c_pass ||
            (pass == c_pass && chunks > c_chunks)) {
          have_c = true;
          c_pass = pass;
          c_cursor = row[kCursor].AsInt64();
          c_chunks = chunks;
        }
        return true;
      }));

  Progress out;
  out.passes_complete = pass_done;
  if (have_c && c_pass > pass_done) {
    // Mid-pass: resume above the durable cursor.
    out.pass = c_pass;
    out.have_cursor = true;
    out.cursor = c_cursor;
    out.chunks = c_chunks;
  } else {
    out.pass = pass_done + 1;
  }
  return out;
}

Status ScrubLedger::Put(const std::string& table, const char* kind,
                        uint64_t pass, int64_t cursor, uint64_t chunks) {
  return db_->WithTransaction([&](txn::Transaction* txn) {
    OPDELTA_RETURN_IF_ERROR(
        db_->DeleteWhere(txn, kTable,
                         RowsOf(table).And("kind", engine::CompareOp::kEq,
                                           Value::String(kind)))
            .status());
    catalog::Row row(5);
    row[kTbl] = Value::String(table);
    row[kKind] = Value::String(kind);
    row[kPass] = Value::Int64(static_cast<int64_t>(pass));
    row[kCursor] = Value::Int64(cursor);
    row[kChunks] = Value::Int64(static_cast<int64_t>(chunks));
    return db_->InsertRaw(txn, kTable, std::move(row));
  });
}

Status ScrubLedger::Advance(const std::string& table, uint64_t pass,
                            int64_t cursor, uint64_t chunks) {
  return Put(table, kCursorKind, pass, cursor, chunks);
}

Status ScrubLedger::MarkPass(const std::string& table, uint64_t pass,
                             uint64_t chunks) {
  return Put(table, kPassKind, pass, 0, chunks);
}

}  // namespace opdelta::scrub
