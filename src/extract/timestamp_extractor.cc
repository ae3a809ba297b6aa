#include "extract/timestamp_extractor.h"

#include "common/env.h"
#include "catalog/row_codec.h"

namespace opdelta::extract {

Status TimestampExtractor::ForEachMatch(
    Micros watermark, const std::function<bool(const catalog::Row&)>& fn) {
  engine::Table* t = db_->GetTable(table_);
  if (t == nullptr) return Status::NotFound("table " + table_);
  const int col = t->schema().ColumnIndex(column_);
  if (col < 0 ||
      t->schema().column(col).type != catalog::ValueType::kTimestamp) {
    return Status::InvalidArgument(column_ + " is not a timestamp column");
  }
  engine::Predicate pred = engine::Predicate::Where(
      column_, engine::CompareOp::kGt, catalog::Value::Timestamp(watermark));
  return db_->Scan(nullptr, table_, pred,
                   [&](const storage::Rid&, const catalog::Row& row) {
                     return fn(row);
                   });
}

Result<DeltaBatch> TimestampExtractor::ExtractSince(Micros watermark) {
  engine::Table* t = db_->GetTable(table_);
  if (t == nullptr) return Status::NotFound("table " + table_);
  DeltaBatch batch;
  batch.table = table_;
  batch.schema = t->schema();
  uint64_t seq = 0;
  OPDELTA_RETURN_IF_ERROR(ForEachMatch(watermark, [&](const catalog::Row& row) {
    batch.records.push_back(DeltaRecord{DeltaOp::kUpsert, 0, seq++, row});
    return true;
  }));
  return batch;
}

Status TimestampExtractor::ExtractToFile(Micros watermark,
                                         const std::string& path,
                                         uint64_t* rows_out) {
  std::unique_ptr<WritableFile> file;
  OPDELTA_RETURN_IF_ERROR(Env::Default()->NewWritableFile(path, &file));
  std::string buf;
  uint64_t rows = 0;
  Status inner;
  OPDELTA_RETURN_IF_ERROR(ForEachMatch(watermark, [&](const catalog::Row& row) {
    catalog::CsvCodec::EncodeLine(row, &buf);
    ++rows;
    if (buf.size() >= 1 << 20) {
      inner = file->Append(Slice(buf));
      if (!inner.ok()) return false;
      buf.clear();
    }
    return true;
  }));
  OPDELTA_RETURN_IF_ERROR(inner);
  if (!buf.empty()) OPDELTA_RETURN_IF_ERROR(file->Append(Slice(buf)));
  OPDELTA_RETURN_IF_ERROR(file->Sync());
  OPDELTA_RETURN_IF_ERROR(file->Close());
  if (rows_out != nullptr) *rows_out = rows;
  return Status::OK();
}

Status TimestampExtractor::ExtractToTable(Micros watermark,
                                          const std::string& delta_table,
                                          uint64_t* rows_out) {
  engine::Table* dt = db_->GetTable(delta_table);
  if (dt == nullptr) return Status::NotFound("delta table " + delta_table);

  // Collect first, then insert: inserting while scanning the source would
  // self-interfere if the delta table shared storage. Batch-commit every
  // 4096 rows to bound transaction size.
  uint64_t rows = 0;
  std::vector<catalog::Row> pending;
  Status flush_status;
  auto flush = [&]() -> Status {
    if (pending.empty()) return Status::OK();
    return db_->WithTransaction([&](txn::Transaction* txn) -> Status {
      for (catalog::Row& row : pending) {
        OPDELTA_RETURN_IF_ERROR(
            db_->InsertRaw(txn, delta_table, std::move(row)));
      }
      pending.clear();
      return Status::OK();
    });
  };

  OPDELTA_RETURN_IF_ERROR(ForEachMatch(watermark, [&](const catalog::Row& row) {
    pending.push_back(row);
    ++rows;
    if (pending.size() >= 4096) {
      flush_status = flush();
      if (!flush_status.ok()) return false;
    }
    return true;
  }));
  OPDELTA_RETURN_IF_ERROR(flush_status);
  OPDELTA_RETURN_IF_ERROR(flush());
  if (rows_out != nullptr) *rows_out = rows;
  return Status::OK();
}

}  // namespace opdelta::extract
