#include "warehouse/apply_ledger.h"

#include <tuple>
#include <utility>

namespace opdelta::warehouse {

using catalog::Column;
using catalog::Value;
using catalog::ValueType;
using engine::CompareOp;
using engine::Predicate;

namespace {

constexpr char kWatermarkKind[] = "W";
constexpr char kHoleKind[] = "H";

// Column order of TableSchema().
enum LedgerCol { kSource = 0, kKind = 1, kEpoch = 2, kSeq = 3, kTxns = 4 };

/// (epoch, seq, txns) lexicographic order — the per-source progress order.
bool ProgressLess(const ApplyLedger::Watermark& a,
                  const ApplyLedger::Watermark& b) {
  return std::tie(a.epoch, a.seq, a.txns) < std::tie(b.epoch, b.seq, b.txns);
}

Predicate RowsOf(const std::string& source_id, const char* kind) {
  return Predicate::Where("source", CompareOp::kEq, Value::String(source_id))
      .And("kind", CompareOp::kEq, Value::String(kind));
}

Predicate HoleOf(const extract::BatchId& id) {
  return RowsOf(id.source_id, kHoleKind)
      .And("epoch", CompareOp::kEq,
           Value::Int64(static_cast<int64_t>(id.epoch)))
      .And("seq", CompareOp::kEq, Value::Int64(static_cast<int64_t>(id.seq)));
}

}  // namespace

constexpr char ApplyLedger::kTable[];

catalog::Schema ApplyLedger::TableSchema() {
  return catalog::Schema({Column{"source", ValueType::kString},
                          Column{"kind", ValueType::kString},
                          Column{"epoch", ValueType::kInt64},
                          Column{"seq", ValueType::kInt64},
                          Column{"txns", ValueType::kInt64}});
}

Status ApplyLedger::Setup() {
  if (db_->GetTable(kTable) != nullptr) return Status::OK();
  Status st = db_->CreateTable(kTable, TableSchema());
  if (st.code() == StatusCode::kAlreadyExists) return Status::OK();
  return st;
}

Result<ApplyLedger::Watermark> ApplyLedger::Newest(txn::Transaction* txn,
                                                   const Predicate& rows,
                                                   size_t* matched) {
  Watermark best;
  size_t n = 0;
  OPDELTA_RETURN_IF_ERROR(db_->Scan(
      txn, kTable, rows, [&](const storage::Rid&, const catalog::Row& row) {
        const Watermark w{true, static_cast<uint64_t>(row[kEpoch].AsInt64()),
                          static_cast<uint64_t>(row[kSeq].AsInt64()),
                          static_cast<uint64_t>(row[kTxns].AsInt64())};
        if (!best.exists || ProgressLess(best, w)) best = w;
        ++n;
        return true;
      }));
  if (matched != nullptr) *matched = n;
  return best;
}

Status ApplyLedger::Put(txn::Transaction* txn, const Predicate& rows,
                        const std::string& source_id, const char* kind,
                        Watermark mark) {
  size_t matched = 0;
  OPDELTA_ASSIGN_OR_RETURN(Watermark newest, Newest(txn, rows, &matched));
  if (newest.exists && ProgressLess(mark, newest)) mark = newest;
  const Value epoch = Value::Int64(static_cast<int64_t>(mark.epoch));
  const Value seq = Value::Int64(static_cast<int64_t>(mark.seq));
  const Value txns = Value::Int64(static_cast<int64_t>(mark.txns));
  if (matched == 1) {
    // The steady state. Rewriting the row in place keeps the heap from
    // growing by a record per write: deleted records' bytes are reclaimed
    // only when their page takes a new insert.
    return db_
        ->UpdateWhere(txn, kTable, rows,
                      {{"epoch", epoch}, {"seq", seq}, {"txns", txns}})
        .status();
  }
  OPDELTA_RETURN_IF_ERROR(db_->DeleteWhere(txn, kTable, rows).status());
  catalog::Row row(5);
  row[kSource] = Value::String(source_id);
  row[kKind] = Value::String(kind);
  row[kEpoch] = epoch;
  row[kSeq] = seq;
  row[kTxns] = txns;
  return db_->InsertRaw(txn, kTable, std::move(row));
}

Result<ApplyLedger::Watermark> ApplyLedger::Get(const std::string& source_id) {
  return Newest(nullptr, RowsOf(source_id, kWatermarkKind));
}

Result<ApplyLedger::Admission> ApplyLedger::Admit(const extract::BatchId& id,
                                                  uint64_t total_txns) {
  if (!id.valid()) return Admission{Decision::kFresh, 0};
  OPDELTA_ASSIGN_OR_RETURN(Watermark w, Get(id.source_id));
  if (!w.exists || std::tie(w.epoch, w.seq) < std::tie(id.epoch, id.seq)) {
    return Admission{Decision::kFresh, 0};
  }
  if (w.epoch == id.epoch && w.seq == id.seq) {
    // The watermark batch itself, redelivered: resume past the applied
    // prefix; a fully-applied batch (the apply-vs-Ack crash window) drops.
    if (w.txns >= total_txns) return Admission{Decision::kDuplicate, 0};
    return Admission{Decision::kResume, w.txns};
  }
  // Below the watermark: a duplicate, unless it was dead-lettered past —
  // then an operator replay legitimately lands here and must be admitted.
  OPDELTA_ASSIGN_OR_RETURN(Watermark hole, Newest(nullptr, HoleOf(id)));
  if (!hole.exists) return Admission{Decision::kDuplicate, 0};
  if (hole.txns >= total_txns) return Admission{Decision::kDuplicate, 0};
  return Admission{Decision::kResume, hole.txns};
}

Status ApplyLedger::Advance(txn::Transaction* txn, const extract::BatchId& id,
                            uint64_t txns_applied) {
  if (!id.valid()) return Status::OK();
  // Once the batch applies, it must never be re-admitted below the
  // watermark. An operator replay below the watermark leaves the watermark
  // where it is (Put keeps the larger row).
  OPDELTA_RETURN_IF_ERROR(db_->DeleteWhere(txn, kTable, HoleOf(id)).status());
  return Put(txn, RowsOf(id.source_id, kWatermarkKind), id.source_id,
             kWatermarkKind, Watermark{true, id.epoch, id.seq, txns_applied});
}

Status ApplyLedger::RecordSkip(const extract::BatchId& id) {
  if (!id.valid()) return Status::OK();
  // Carry the already-applied prefix (if the watermark is this very batch)
  // into the hole so a replay resumes instead of repeating transactions. A
  // batch skipped again keeps its hole's larger prefix.
  OPDELTA_ASSIGN_OR_RETURN(Watermark w, Get(id.source_id));
  const uint64_t applied =
      (w.exists && w.epoch == id.epoch && w.seq == id.seq) ? w.txns : 0;
  return db_->WithTransaction([&](txn::Transaction* txn) {
    return Put(txn, HoleOf(id), id.source_id, kHoleKind,
               Watermark{true, id.epoch, id.seq, applied});
  });
}

}  // namespace opdelta::warehouse
