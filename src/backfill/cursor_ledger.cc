#include "backfill/cursor_ledger.h"

#include <tuple>
#include <utility>

namespace opdelta::backfill {

using catalog::Value;
using catalog::ValueType;

namespace {

// Column order of the ledger tables.
enum LedgerCol { kTbl = 0, kKind = 1, kStep = 2, kCursorCol = 3, kCount = 4 };

engine::Predicate RowsOf(const std::string& tbl) {
  return engine::Predicate::Where("tbl", engine::CompareOp::kEq,
                                  Value::String(tbl));
}

engine::Predicate RowsOf(const std::string& tbl, const char* kind) {
  return RowsOf(tbl).And("kind", engine::CompareOp::kEq, Value::String(kind));
}

}  // namespace

Status CursorLedger::Setup() {
  if (db_->GetTable(layout_.table) != nullptr) return Status::OK();
  Status st = db_->CreateTable(
      layout_.table,
      catalog::Schema({catalog::Column{"tbl", ValueType::kString},
                       catalog::Column{"kind", ValueType::kString},
                       catalog::Column{layout_.step, ValueType::kInt64},
                       catalog::Column{"cursor", ValueType::kInt64},
                       catalog::Column{layout_.count, ValueType::kInt64}}));
  if (st.code() == StatusCode::kAlreadyExists) return Status::OK();
  return st;
}

Result<CursorLedger::Mark> CursorLedger::Get(const std::string& tbl,
                                             const char* kind) {
  Mark newest;
  OPDELTA_RETURN_IF_ERROR(db_->Scan(
      nullptr, layout_.table, RowsOf(tbl, kind),
      [&](const storage::Rid&, const catalog::Row& row) {
        const Mark mark{true, static_cast<uint64_t>(row[kStep].AsInt64()),
                        row[kCursorCol].AsInt64(),
                        static_cast<uint64_t>(row[kCount].AsInt64())};
        if (!newest.exists || std::tie(mark.step, mark.count) >
                                  std::tie(newest.step, newest.count)) {
          newest = mark;
        }
        return true;
      }));
  return newest;
}

Status CursorLedger::Put(const std::string& tbl, const char* kind,
                         uint64_t step, int64_t cursor, uint64_t count) {
  const Value step_value = Value::Int64(static_cast<int64_t>(step));
  const Value cursor_value = Value::Int64(cursor);
  const Value count_value = Value::Int64(static_cast<int64_t>(count));
  return db_->WithTransaction([&](txn::Transaction* txn) -> Status {
    // The steady state rewrites the one row in place: a deleted record's
    // bytes are reclaimed only when its page takes a new insert, so a
    // delete + insert per write would grow the heap by a page every few
    // hundred writes, and every Get scans them.
    OPDELTA_ASSIGN_OR_RETURN(
        size_t updated,
        db_->UpdateWhere(txn, layout_.table, RowsOf(tbl, kind),
                         {{layout_.step, step_value},
                          {"cursor", cursor_value},
                          {layout_.count, count_value}}));
    if (updated == 1) return Status::OK();
    // No row yet, or several an append-only build left: replace them all.
    if (updated > 1) {
      OPDELTA_RETURN_IF_ERROR(
          db_->DeleteWhere(txn, layout_.table, RowsOf(tbl, kind)).status());
    }
    return db_->InsertRaw(txn, layout_.table,
                          catalog::Row{Value::String(tbl), Value::String(kind),
                                       step_value, cursor_value, count_value});
  });
}

Status CursorLedger::Reset(const std::string& tbl) {
  return db_->WithTransaction([&](txn::Transaction* txn) {
    return db_->DeleteWhere(txn, layout_.table, RowsOf(tbl)).status();
  });
}

}  // namespace opdelta::backfill
