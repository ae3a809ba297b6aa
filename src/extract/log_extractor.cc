#include "extract/log_extractor.h"

#include <unordered_map>
#include <unordered_set>

#include "catalog/row_codec.h"
#include "txn/wal.h"

namespace opdelta::extract {

using catalog::Row;
using catalog::RowCodec;
using storage::Rid;
using txn::LogRecord;
using txn::LogRecordType;

Result<DeltaBatch> LogExtractor::ExtractSince(txn::Lsn watermark,
                                              catalog::TableId table_id,
                                              const std::string& table_name,
                                              const catalog::Schema& schema,
                                              txn::Lsn* new_watermark) {
  // Pass 1: transactions whose commit record lies above the watermark.
  // Records are selected by their transaction's commit, not their own LSN:
  // a transaction still open at the previous extraction has records below
  // that watermark and commits above it, and must ship now (the commit
  // order rule DBLog uses).
  std::unordered_set<txn::TxnId> committed;
  txn::Lsn max_lsn = watermark;
  OPDELTA_RETURN_IF_ERROR(
      txn::Wal::ReadAll(wal_dir_, [&](const LogRecord& r) {
        if (r.lsn > max_lsn) max_lsn = r.lsn;
        if (r.type == LogRecordType::kCommit && r.lsn > watermark) {
          committed.insert(r.txn_id);
        }
        return true;
      }));

  DeltaBatch batch;
  batch.table = table_name;
  batch.schema = schema;
  uint64_t seq = 0;
  Status decode_status;

  OPDELTA_RETURN_IF_ERROR(
      txn::Wal::ReadAll(wal_dir_, [&](const LogRecord& r) {
        if (r.table_id != table_id || !committed.count(r.txn_id)) {
          return true;
        }
        auto decode = [&](const std::string& enc, Row* row) {
          decode_status = RowCodec::Decode(schema, Slice(enc), row);
          return decode_status.ok();
        };
        switch (r.type) {
          case LogRecordType::kInsert: {
            Row row;
            if (!decode(r.after, &row)) return false;
            batch.records.push_back(
                DeltaRecord{DeltaOp::kInsert, r.txn_id, seq++, std::move(row)});
            break;
          }
          case LogRecordType::kUpdate: {
            Row before, after;
            if (!decode(r.before, &before) || !decode(r.after, &after)) {
              return false;
            }
            batch.records.push_back(DeltaRecord{DeltaOp::kUpdateBefore,
                                                r.txn_id, seq++,
                                                std::move(before)});
            batch.records.push_back(DeltaRecord{
                DeltaOp::kUpdateAfter, r.txn_id, seq++, std::move(after)});
            break;
          }
          case LogRecordType::kDelete: {
            Row row;
            if (!decode(r.before, &row)) return false;
            batch.records.push_back(
                DeltaRecord{DeltaOp::kDelete, r.txn_id, seq++, std::move(row)});
            break;
          }
          default:
            break;
        }
        return true;
      }));
  OPDELTA_RETURN_IF_ERROR(decode_status);
  if (new_watermark != nullptr) *new_watermark = max_lsn;
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
