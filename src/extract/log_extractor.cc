#include "extract/log_extractor.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "catalog/row_codec.h"
#include "txn/wal.h"

namespace opdelta::extract {

using catalog::Row;
using catalog::RowCodec;
using txn::LogRecord;
using txn::LogRecordType;

namespace {

/// Appends the value deltas of one record on the table, tagged with its
/// LSN.
Status AppendDeltas(const catalog::Schema& schema, const LogRecord& r,
                    std::vector<std::pair<txn::Lsn, DeltaRecord>>* out) {
  auto add = [&](DeltaOp op, const std::string& image) {
    Row row;
    OPDELTA_RETURN_IF_ERROR(RowCodec::Decode(schema, Slice(image), &row));
    out->emplace_back(r.lsn, DeltaRecord{op, r.txn_id, 0, std::move(row)});
    return Status::OK();
  };
  switch (r.type) {
    case LogRecordType::kInsert:
      return add(DeltaOp::kInsert, r.after);
    case LogRecordType::kUpdate:
      OPDELTA_RETURN_IF_ERROR(add(DeltaOp::kUpdateBefore, r.before));
      return add(DeltaOp::kUpdateAfter, r.after);
    case LogRecordType::kDelete:
      return add(DeltaOp::kDelete, r.before);
    default:
      return Status::OK();
  }
}

}  // namespace

Result<DeltaBatch> LogExtractor::ExtractSince(txn::Lsn watermark,
                                              catalog::TableId table_id,
                                              const std::string& table_name,
                                              const catalog::Schema& schema,
                                              txn::Lsn* new_watermark) {
  txn::WalPosition from;  // the start of the log
  if (cursor_.has_value() && cursor_->table_id == table_id &&
      cursor_->watermark == watermark) {
    from = cursor_->resume;
  }
  cursor_.reset();  // a failed call leaves the next one reading from the start

  // Records are selected by their transaction's commit, not their own LSN:
  // a transaction still open at the previous extraction has records below
  // that watermark and commits above it, and must ship now (the commit
  // order rule DBLog uses). A transaction's records on the table wait in
  // `open` until its commit or abort; only selected ones are decoded.
  struct OpenTxn {
    txn::WalPosition first;  // where its first record on the table starts
    std::vector<LogRecord> records;
  };
  std::unordered_map<txn::TxnId, OpenTxn> open;
  std::vector<std::pair<txn::Lsn, DeltaRecord>> selected;
  Status decode_status;
  txn::WalPosition end;
  OPDELTA_RETURN_IF_ERROR(txn::Wal::ReadFrom(
      wal_dir_, from,
      [&](LogRecord& r, const txn::WalPosition& at) {
        if (r.table_id == table_id) {
          auto [it, fresh] = open.try_emplace(r.txn_id);
          if (fresh) it->second.first = at;
          it->second.records.push_back(std::move(r));
          return true;
        }
        if (r.type != LogRecordType::kCommit &&
            r.type != LogRecordType::kAbort) {
          return true;
        }
        auto it = open.find(r.txn_id);
        if (it == open.end()) return true;
        if (r.type == LogRecordType::kCommit && r.lsn > watermark) {
          for (const LogRecord& rec : it->second.records) {
            decode_status = AppendDeltas(schema, rec, &selected);
            if (!decode_status.ok()) return false;
          }
        }
        open.erase(it);
        return true;
      },
      &end));
  OPDELTA_RETURN_IF_ERROR(decode_status);

  // Commit order is not log order when transactions interleave; ship in
  // log order, as a read of the whole log would.
  auto by_lsn = [](const auto& a, const auto& b) { return a.first < b.first; };
  if (!std::is_sorted(selected.begin(), selected.end(), by_lsn)) {
    std::stable_sort(selected.begin(), selected.end(), by_lsn);
  }
  DeltaBatch batch;
  batch.table = table_name;
  batch.schema = schema;
  batch.records.reserve(selected.size());
  for (auto& [lsn, record] : selected) {
    record.seq = batch.records.size();
    batch.records.push_back(std::move(record));
  }

  // The next call resumes at the oldest open transaction's first record on
  // the table: every record before it belongs to a transaction that is
  // shipped, was decided by a commit at or below the new watermark, or
  // aborted.
  Cursor cursor{table_id, std::max(watermark, end.prev_lsn), end};
  for (const auto& [id, t] : open) {
    if (t.first.prev_lsn < cursor.resume.prev_lsn) cursor.resume = t.first;
  }
  if (new_watermark != nullptr) *new_watermark = cursor.watermark;
  cursor_ = cursor;
  return batch;
}

}  // namespace opdelta::extract
