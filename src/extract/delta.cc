#include "extract/delta.h"

#include <algorithm>

#include "common/coding.h"
#include "catalog/row_codec.h"
#include "engine/database.h"

namespace opdelta::extract {

const char* DeltaOpName(DeltaOp op) {
  switch (op) {
    case DeltaOp::kInsert:
      return "INSERT";
    case DeltaOp::kDelete:
      return "DELETE";
    case DeltaOp::kUpdateBefore:
      return "UPDATE_BEFORE";
    case DeltaOp::kUpdateAfter:
      return "UPDATE_AFTER";
    case DeltaOp::kUpsert:
      return "UPSERT";
  }
  return "?";
}

std::string BatchId::ToString() const {
  if (!valid()) return "(unstamped)";
  std::string out =
      source_id + "@" + std::to_string(epoch) + ":" + std::to_string(seq);
  if (snapshot) out += "+snap";
  return out;
}

uint64_t DeltaBatch::SizeBytes() const {
  uint64_t total = 0;
  for (const DeltaRecord& r : records) {
    total += catalog::RowCodec::Encode(schema, r.image).size() + 12;
  }
  return total;
}

void DeltaBatch::EncodeTo(std::string* dst) const {
  PutLengthPrefixed(dst, Slice(table));
  schema.EncodeTo(dst);
  PutVarint64(dst, records.size());
  std::string enc;
  for (const DeltaRecord& r : records) {
    dst->push_back(static_cast<char>(r.op));
    PutVarint64(dst, r.source_txn);
    PutVarint64(dst, r.seq);
    enc.clear();
    catalog::RowCodec::Encode(schema, r.image, &enc);
    PutLengthPrefixed(dst, Slice(enc));
  }
}

Status DeltaBatch::DecodeFrom(Slice input, DeltaBatch* out) {
  Slice table;
  if (!GetLengthPrefixed(&input, &table)) {
    return Status::Corruption("delta batch: table");
  }
  out->table = table.ToString();
  OPDELTA_RETURN_IF_ERROR(catalog::Schema::DecodeFrom(&input, &out->schema));
  uint64_t n = 0;
  if (!GetVarint64(&input, &n)) return Status::Corruption("delta batch: count");
  out->records.clear();
  out->records.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    DeltaRecord r;
    if (input.empty()) return Status::Corruption("delta batch: op");
    r.op = static_cast<DeltaOp>(input[0]);
    input.remove_prefix(1);
    if (!GetVarint64(&input, &r.source_txn) || !GetVarint64(&input, &r.seq)) {
      return Status::Corruption("delta batch: ids");
    }
    Slice enc;
    if (!GetLengthPrefixed(&input, &enc)) {
      return Status::Corruption("delta batch: image");
    }
    OPDELTA_RETURN_IF_ERROR(
        catalog::RowCodec::Decode(out->schema, enc, &r.image));
    out->records.push_back(std::move(r));
  }
  return Status::OK();
}

Status ComputeNetChanges(const DeltaBatch& batch, NetChanges* out) {
  const int key_col = batch.schema.KeyColumnIndex();
  if (key_col < 0) return Status::InvalidArgument("schema has no key column");
  out->clear();
  for (const DeltaRecord& r : batch.records) {
    if (r.op == DeltaOp::kUpdateBefore) continue;  // superseded by the after
    const catalog::Value& key = r.image[key_col];
    switch (r.op) {
      case DeltaOp::kInsert:
      case DeltaOp::kUpdateAfter:
      case DeltaOp::kUpsert:
        (*out)[key] = r.image;
        break;
      case DeltaOp::kDelete:
        (*out)[key] = std::nullopt;
        break;
      case DeltaOp::kUpdateBefore:
        break;
    }
  }
  return Status::OK();
}

Result<uint64_t> CaptureSeq::Next(engine::Database* db,
                                   const std::string& table, int column) {
  uint64_t next = next_.load(std::memory_order_acquire);
  if (next == 0) {
    uint64_t largest = 0;
    OPDELTA_RETURN_IF_ERROR(db->Scan(
        nullptr, table, engine::Predicate::True(),
        [&](const storage::Rid&, const catalog::Row& row) {
          largest = std::max(largest,
                             static_cast<uint64_t>(row[column].AsInt64()));
          return true;
        }));
    // Concurrent first calls read the same table; the first store wins.
    next_.compare_exchange_strong(next, largest + 1);
  }
  return next_.fetch_add(1);
}

}  // namespace opdelta::extract
