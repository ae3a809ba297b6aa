#include "engine/table.h"

namespace opdelta::engine {

Table::Table(catalog::TableInfo info, size_t buffer_pool_pages)
    : id_(info.id),
      info_(std::move(info)),
      buffer_pool_pages_(buffer_pool_pages) {
  retained_schemas_.push_back(
      std::make_unique<const catalog::Schema>(info_.schema));
  current_schema_.store(retained_schemas_.back().get(),
                        std::memory_order_release);
}

void Table::SwapStorage(const catalog::TableInfo& new_info,
                        std::unique_ptr<storage::FileManager> file,
                        std::unique_ptr<storage::BufferPool> pool,
                        std::unique_ptr<storage::HeapFile> heap,
                        std::unique_ptr<storage::FileManager>* old_file) {
  // Order matters: the storage chain tears down pool-before-file, so hand
  // the old pool/heap their destruction before releasing the old file to
  // the caller.
  heap_ = std::move(heap);
  pool_.swap(pool);
  pool.reset();  // flushes nothing: the migration already synced old pages
  file_.swap(file);
  *old_file = std::move(file);
  info_ = new_info;
  retained_schemas_.push_back(
      std::make_unique<const catalog::Schema>(info_.schema));
  current_schema_.store(retained_schemas_.back().get(),
                        std::memory_order_release);
}

std::vector<std::string> Table::IndexedColumns() const {
  std::vector<std::string> cols;
  cols.reserve(indexes_.size());
  for (const auto& [col, entry] : indexes_) cols.push_back(col);
  return cols;
}

Status Table::Open(const std::string& file_path) {
  file_ = std::make_unique<storage::FileManager>();
  OPDELTA_RETURN_IF_ERROR(file_->Open(file_path));
  pool_ = std::make_unique<storage::BufferPool>(file_.get(),
                                                buffer_pool_pages_);
  heap_ = std::make_unique<storage::HeapFile>(pool_.get());
  return heap_->Open();
}

Status Table::Close() {
  if (pool_ != nullptr) {
    OPDELTA_RETURN_IF_ERROR(pool_->FlushAll(/*sync=*/true));
  }
  if (file_ != nullptr) return file_->Close();
  return Status::OK();
}

Status Table::CreateIndex(const std::string& column) {
  const int idx = info_.schema.ColumnIndex(column);
  if (idx < 0) return Status::InvalidArgument("no such column: " + column);
  const catalog::ValueType type = info_.schema.column(idx).type;
  if (type != catalog::ValueType::kInt64 &&
      type != catalog::ValueType::kTimestamp) {
    return Status::NotSupported("index requires int64/timestamp column");
  }
  if (indexes_.count(column)) {
    return Status::AlreadyExists("index on " + column);
  }
  auto tree = std::make_unique<index::BPlusTree>();
  // Backfill from existing rows.
  Status decode_status;
  OPDELTA_RETURN_IF_ERROR(
      heap_->ForEach([&](const storage::Rid& rid, Slice record) {
        catalog::Row row;
        decode_status = catalog::RowCodec::Decode(info_.schema, record, &row);
        if (!decode_status.ok()) return false;
        const catalog::Value& v = row[idx];
        if (!v.is_null()) {
          tree->Insert(type == catalog::ValueType::kInt64 ? v.AsInt64()
                                                          : v.AsTimestamp(),
                       rid);
        }
        return true;
      }));
  OPDELTA_RETURN_IF_ERROR(decode_status);
  indexes_[column] = std::make_pair(idx, std::move(tree));
  return Status::OK();
}

bool Table::HasIndex(const std::string& column) const {
  return indexes_.count(column) != 0;
}

index::BPlusTree* Table::GetIndex(const std::string& column) {
  auto it = indexes_.find(column);
  return it == indexes_.end() ? nullptr : it->second.second.get();
}

namespace {
int64_t IndexKeyOf(const catalog::Value& v) {
  return v.type() == catalog::ValueType::kTimestamp ? v.AsTimestamp()
                                                    : v.AsInt64();
}
}  // namespace

void Table::IndexInsert(const catalog::Row& row, const storage::Rid& rid) {
  for (auto& [col, entry] : indexes_) {
    const catalog::Value& v = row[entry.first];
    if (!v.is_null()) entry.second->Insert(IndexKeyOf(v), rid);
  }
}

void Table::IndexErase(const catalog::Row& row, const storage::Rid& rid) {
  for (auto& [col, entry] : indexes_) {
    const catalog::Value& v = row[entry.first];
    if (!v.is_null()) entry.second->Erase(IndexKeyOf(v), rid);
  }
}

void Table::IndexReplace(const catalog::Row& before, const storage::Rid& rid,
                         const catalog::Row& after,
                         const storage::Rid& new_rid) {
  for (auto& [col, entry] : indexes_) {
    const catalog::Value& b = before[entry.first];
    const catalog::Value& a = after[entry.first];
    if (rid == new_rid && b.is_null() == a.is_null() &&
        (b.is_null() || IndexKeyOf(b) == IndexKeyOf(a))) {
      continue;
    }
    if (!b.is_null()) entry.second->Erase(IndexKeyOf(b), rid);
    if (!a.is_null()) entry.second->Insert(IndexKeyOf(a), new_rid);
  }
}

}  // namespace opdelta::engine
