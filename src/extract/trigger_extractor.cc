#include "extract/trigger_extractor.h"

#include <algorithm>

#include "catalog/row_codec.h"

namespace opdelta::extract {

using catalog::Column;
using catalog::Row;
using catalog::Value;
using catalog::ValueType;

catalog::Schema DeltaTableSchemaFor(const catalog::Schema& source) {
  std::vector<Column> cols;
  cols.reserve(source.num_columns() + 3);
  cols.push_back(Column{"delta_op", ValueType::kInt64});
  cols.push_back(Column{"delta_txn", ValueType::kInt64});
  cols.push_back(Column{"delta_seq", ValueType::kInt64});
  for (const Column& c : source.columns()) {
    cols.push_back(Column{"src_" + c.name, c.type});
  }
  return catalog::Schema(std::move(cols));
}

namespace {

/// Position of `delta_seq` in DeltaTableSchemaFor's columns.
constexpr int kDeltaSeqColumn = 2;

Row MakeDeltaRow(DeltaOp op, txn::TxnId txn_id, uint64_t seq,
                 const Row& image) {
  Row row;
  row.reserve(image.size() + 3);
  row.push_back(Value::Int64(static_cast<int64_t>(op)));
  row.push_back(Value::Int64(static_cast<int64_t>(txn_id)));
  row.push_back(Value::Int64(static_cast<int64_t>(seq)));
  for (const Value& v : image) row.push_back(v);
  return row;
}

}  // namespace

Status DeltaTableSink::Write(engine::Database* db, txn::Transaction* txn,
                             engine::TriggerEvents event, const Row& before,
                             const Row& after) {
  auto insert = [&](DeltaOp op, const Row& image) -> Status {
    OPDELTA_ASSIGN_OR_RETURN(uint64_t seq,
                             seq_.Next(db, delta_table_, kDeltaSeqColumn));
    return db->InsertRaw(txn, delta_table_,
                         MakeDeltaRow(op, txn->id(), seq, image));
  };
  switch (event) {
    case engine::kOnInsert:
      // "for insertions into the source tables, the new values being
      // inserted are captured" — one triggered insertion.
      return insert(DeltaOp::kInsert, after);
    case engine::kOnUpdate:
      // "for updates, the old and new values are captured" — two triggered
      // insertions (before and after image).
      OPDELTA_RETURN_IF_ERROR(insert(DeltaOp::kUpdateBefore, before));
      return insert(DeltaOp::kUpdateAfter, after);
    case engine::kOnDelete:
      // "for deletions, the old values are captured."
      return insert(DeltaOp::kDelete, before);
    default:
      return Status::Internal("unexpected trigger event");
  }
}

Status RemoteDeltaTableSink::Write(engine::Database* /*db*/,
                                   txn::Transaction* txn,
                                   engine::TriggerEvents event,
                                   const Row& before, const Row& after) {
  // First use pays the connection-establishment penalty.
  bool expected = false;
  if (connected_.compare_exchange_strong(expected, true)) {
    net_->Connect();
  }

  auto write_one = [&](DeltaOp op, const Row& image) -> Status {
    Row delta_row = MakeDeltaRow(op, txn->id(), seq_.fetch_add(1), image);
    const uint64_t payload =
        catalog::RowCodec::Encode(
            remote_db_->GetTable(delta_table_)->schema(), delta_row)
            .size();
    // Every captured image is a remote statement: round trip + its own
    // transaction on the remote database (no distributed commit).
    net_->RoundTrip(payload);
    return remote_db_->WithTransaction([&](txn::Transaction* rtxn) {
      return remote_db_->InsertRaw(rtxn, delta_table_, std::move(delta_row));
    });
  };

  switch (event) {
    case engine::kOnInsert:
      return write_one(DeltaOp::kInsert, after);
    case engine::kOnUpdate:
      OPDELTA_RETURN_IF_ERROR(write_one(DeltaOp::kUpdateBefore, before));
      return write_one(DeltaOp::kUpdateAfter, after);
    case engine::kOnDelete:
      return write_one(DeltaOp::kDelete, before);
    default:
      return Status::Internal("unexpected trigger event");
  }
}

Result<std::string> TriggerExtractor::Install(engine::Database* db,
                                              const std::string& source_table,
                                              const InstallOptions& options) {
  engine::Table* src = db->GetTable(source_table);
  if (src == nullptr) return Status::NotFound("table " + source_table);

  const std::string delta_table = DeltaTableName(source_table);
  std::shared_ptr<engine::TriggerSink> sink = options.custom_sink;
  if (sink == nullptr) {
    if (db->GetTable(delta_table) == nullptr) {
      OPDELTA_RETURN_IF_ERROR(
          db->CreateTable(delta_table, DeltaTableSchemaFor(src->schema())));
    }
    sink = std::make_shared<DeltaTableSink>(delta_table);
  }

  engine::TriggerDef def;
  def.name = TriggerName(source_table);
  def.events = options.events;
  def.sink = std::move(sink);
  OPDELTA_RETURN_IF_ERROR(db->CreateTrigger(source_table, std::move(def)));
  return delta_table;
}

Status TriggerExtractor::Uninstall(engine::Database* db,
                                   const std::string& source_table) {
  return db->DropTrigger(source_table, TriggerName(source_table));
}

Result<DeltaBatch> TriggerExtractor::Drain(engine::Database* db,
                                           const std::string& source_table) {
  engine::Table* src = db->GetTable(source_table);
  if (src == nullptr) return Status::NotFound("table " + source_table);
  const std::string delta_table = DeltaTableName(source_table);
  engine::Table* dt = db->GetTable(delta_table);
  if (dt == nullptr) return Status::NotFound("delta table " + delta_table);

  DeltaBatch batch;
  batch.table = source_table;
  batch.schema = src->schema();
  const size_t n_src = src->schema().num_columns();

  // Scan and clear atomically under a table X lock: once granted, no
  // trigger-writing transaction is in flight, so the scan sees a stable
  // snapshot and no delta row inserted after the scan can be deleted
  // unextracted.
  OPDELTA_RETURN_IF_ERROR(db->WithTransaction([&](txn::Transaction* txn) {
    OPDELTA_RETURN_IF_ERROR(db->LockTableExclusive(txn, delta_table));
    OPDELTA_RETURN_IF_ERROR(db->Scan(
        nullptr, delta_table, engine::Predicate::True(),
        [&](const storage::Rid&, const Row& row) {
          DeltaRecord r;
          r.op = static_cast<DeltaOp>(row[0].AsInt64());
          r.source_txn = static_cast<txn::TxnId>(row[1].AsInt64());
          r.seq = static_cast<uint64_t>(row[kDeltaSeqColumn].AsInt64());
          r.image.assign(row.begin() + 3, row.begin() + 3 + n_src);
          batch.records.push_back(std::move(r));
          return true;
        }));
    return db->DeleteWhere(txn, delta_table, engine::Predicate::True())
        .status();
  }));
  std::sort(batch.records.begin(), batch.records.end(),
            [](const DeltaRecord& a, const DeltaRecord& b) {
              return a.seq < b.seq;
            });
  return batch;
}

}  // namespace opdelta::extract
