#include "extract/log_extractor.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "catalog/row_codec.h"
#include "txn/wal.h"

namespace opdelta::extract {

using catalog::Row;
using catalog::RowCodec;
using storage::Rid;
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

Status LogExtractor::ReplayInto(
    const std::string& wal_dir, engine::Database* dest,
    const std::map<catalog::TableId, std::string>& table_map,
    txn::RecoveryStats* stats) {
  // Validate destinations exist and are empty.
  for (const auto& [src_id, dest_name] : table_map) {
    engine::Table* t = dest->GetTable(dest_name);
    if (t == nullptr) return Status::NotFound("dest table " + dest_name);
    if (t->heap()->live_records() != 0) {
      return Status::InvalidArgument(
          "ReplayInto re-creates tables; destination " + dest_name +
          " must be empty");
    }
  }

  // Source rid -> destination rid, per table (physiological records are
  // rid-directed; the destination heap allocates its own rids).
  struct RidHash {
    size_t operator()(const std::pair<uint32_t, uint32_t>& p) const {
      return std::hash<uint64_t>()((static_cast<uint64_t>(p.first) << 32) |
                                   p.second);
    }
  };
  std::unordered_map<catalog::TableId,
                     std::unordered_map<std::pair<uint32_t, uint32_t>, Rid,
                                        RidHash>>
      rid_maps;

  // Value delta is applied "as an indivisible batch": one transaction.
  std::unique_ptr<txn::Transaction> txn = dest->Begin();
  Status apply_status = txn::ReplayCommitted(
      wal_dir,
      [&](const LogRecord& r) -> Status {
        auto it = table_map.find(r.table_id);
        if (it == table_map.end()) return Status::OK();  // unmapped table
        const std::string& dest_name = it->second;
        engine::Table* t = dest->GetTable(dest_name);
        auto& rid_map = rid_maps[r.table_id];
        const std::pair<uint32_t, uint32_t> src_key{r.rid.page_id,
                                                    r.rid.slot};
        switch (r.type) {
          case LogRecordType::kInsert: {
            Row row;
            OPDELTA_RETURN_IF_ERROR(
                RowCodec::Decode(t->schema(), Slice(r.after), &row));
            Rid rid;
            OPDELTA_RETURN_IF_ERROR(
                dest->InsertRaw(txn.get(), dest_name, std::move(row), &rid));
            rid_map[src_key] = rid;
            return Status::OK();
          }
          case LogRecordType::kUpdate: {
            Row row;
            OPDELTA_RETURN_IF_ERROR(
                RowCodec::Decode(t->schema(), Slice(r.after), &row));
            auto rit = rid_map.find(src_key);
            if (rit == rid_map.end()) {
              return Status::Corruption("update for unknown source rid");
            }
            Rid dest_rid = rit->second;
            Rid new_dest_rid;
            OPDELTA_RETURN_IF_ERROR(dest->UpdateAt(
                txn.get(), dest_name, dest_rid, std::move(row),
                &new_dest_rid));
            // The source row may have moved (rid2 != rid); re-key the map
            // so later records referencing the new source rid resolve.
            rid_map.erase(rit);
            rid_map[{r.rid2.page_id, r.rid2.slot}] = new_dest_rid;
            return Status::OK();
          }
          case LogRecordType::kDelete: {
            auto rit = rid_map.find(src_key);
            if (rit == rid_map.end()) {
              return Status::Corruption("delete for unknown source rid");
            }
            OPDELTA_RETURN_IF_ERROR(
                dest->DeleteAt(txn.get(), dest_name, rit->second));
            rid_map.erase(rit);
            return Status::OK();
          }
          default:
            return Status::OK();
        }
      },
      stats);
  if (!apply_status.ok()) {
    (void)dest->Abort(txn.get());  // surface the apply error
    return apply_status;
  }
  Status commit = dest->Commit(txn.get());
  if (!commit.ok()) {
    // A failed commit leaves the transaction active; abort to release its
    // locks instead of leaking them until timeout.
    (void)dest->Abort(txn.get());
  }
  return commit;
}

}  // namespace opdelta::extract
