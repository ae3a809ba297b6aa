#include "catalog/catalog.h"

#include "common/coding.h"
#include "common/env.h"

namespace opdelta::catalog {

namespace {

// Catalog file: a leading varint32 0 sentinel, then the format version.
// kCatalogFormatV1 carries ddl_epoch, per-table schema_epoch/file_gen, v2
// schemas (column defaults) and the SchemaHistory.
constexpr uint32_t kVersionSentinel = 0;
constexpr uint32_t kCatalogFormatV1 = 1;

}  // namespace

Status Catalog::CreateTable(const std::string& name, const Schema& schema,
                            TableId* id_out) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table " + name);
  }
  TableInfo info;
  info.id = next_id_++;
  info.name = name;
  info.schema = schema;
  info.schema_epoch = ddl_epoch_;
  if (id_out != nullptr) *id_out = info.id;
  tables_.emplace(name, std::move(info));
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (tables_.erase(name) == 0) return Status::NotFound("table " + name);
  return Status::OK();
}

const TableInfo* Catalog::GetTable(const std::string& name) const {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const TableInfo* Catalog::GetTable(TableId id) const {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  for (const auto& [name, info] : tables_) {
    if (info.id == id) return &info;
  }
  return nullptr;
}

std::vector<std::string> Catalog::TableNames() const {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, info] : tables_) names.push_back(name);
  return names;
}

SchemaMap Catalog::CurrentSchemasLocked() const {
  SchemaMap map;
  for (const auto& [name, info] : tables_) map.emplace(name, info.schema);
  return map;
}

Status Catalog::AlterTable(const std::string& name,
                           const AlterTableSpec& spec, TableInfo* new_info,
                           AlterUndo* undo) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  Schema next;
  OPDELTA_RETURN_IF_ERROR(ApplyAlter(it->second.schema, spec, &next));

  undo->prev_info = it->second;
  undo->prev_epoch = ddl_epoch_;
  undo->history_added = history_.count(ddl_epoch_) == 0;
  if (undo->history_added) {
    history_.emplace(ddl_epoch_, CurrentSchemasLocked());
  }
  ++ddl_epoch_;
  it->second.schema = std::move(next);
  it->second.schema_epoch = ddl_epoch_;
  it->second.file_gen = undo->prev_info.file_gen + 1;
  if (new_info != nullptr) *new_info = it->second;
  return Status::OK();
}

void Catalog::UndoAlter(const AlterUndo& undo) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  auto it = tables_.find(undo.prev_info.name);
  if (it != tables_.end()) it->second = undo.prev_info;
  if (undo.history_added) history_.erase(undo.prev_epoch);
  ddl_epoch_ = undo.prev_epoch;
}

uint64_t Catalog::ddl_epoch() const {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  return ddl_epoch_;
}

SchemaMap Catalog::CurrentSchemas() const {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  return CurrentSchemasLocked();
}

Result<SchemaMap> Catalog::SchemasAt(uint64_t epoch) const {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  if (epoch == ddl_epoch_) return CurrentSchemasLocked();
  auto it = history_.find(epoch);
  if (it != history_.end()) return it->second;
  if (epoch > ddl_epoch_) {
    return Status::SchemaMismatch(
        "schema epoch " + std::to_string(epoch) +
        " is ahead of this catalog (current " + std::to_string(ddl_epoch_) +
        "); refusing to guess a schema for data from the future");
  }
  return Status::SchemaMismatch("schema epoch " + std::to_string(epoch) +
                                " is not in this catalog's history");
}

void Catalog::EncodeTo(std::string* dst) const {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  PutVarint32(dst, kVersionSentinel);
  PutVarint32(dst, kCatalogFormatV1);
  PutVarint32(dst, next_id_);
  PutVarint64(dst, ddl_epoch_);
  PutVarint32(dst, static_cast<uint32_t>(tables_.size()));
  for (const auto& [name, info] : tables_) {
    PutVarint32(dst, info.id);
    PutLengthPrefixed(dst, Slice(name));
    PutVarint64(dst, info.schema_epoch);
    PutVarint32(dst, info.file_gen);
    info.schema.EncodeToV2(dst);
  }
  PutVarint32(dst, static_cast<uint32_t>(history_.size()));
  for (const auto& [epoch, schemas] : history_) {
    PutVarint64(dst, epoch);
    PutVarint32(dst, static_cast<uint32_t>(schemas.size()));
    for (const auto& [name, schema] : schemas) {
      PutLengthPrefixed(dst, Slice(name));
      schema.EncodeToV2(dst);
    }
  }
}

Status Catalog::DecodeFrom(Slice input, Catalog* out) {
  uint32_t sentinel = 0;
  if (!GetVarint32(&input, &sentinel)) {
    return Status::Corruption("catalog header");
  }
  if (sentinel != kVersionSentinel) {
    return Status::Corruption(
        "catalog file lacks the format-version sentinel; this build reads "
        "only catalog format version " + std::to_string(kCatalogFormatV1));
  }
  std::lock_guard<common::OrderedMutex> lock(out->mutex_);
  out->tables_.clear();
  out->history_.clear();

  uint32_t version = 0;
  if (!GetVarint32(&input, &version)) {
    return Status::Corruption("catalog version");
  }
  if (version != kCatalogFormatV1) {
    return Status::SchemaMismatch(
        "catalog format version " + std::to_string(version) +
        " is not supported by this build (max " +
        std::to_string(kCatalogFormatV1) + ")");
  }
  uint32_t count = 0;
  if (!GetVarint32(&input, &out->next_id_) ||
      !GetVarint64(&input, &out->ddl_epoch_) ||
      !GetVarint32(&input, &count)) {
    return Status::Corruption("catalog v1 header");
  }
  for (uint32_t i = 0; i < count; ++i) {
    TableInfo info;
    if (!GetVarint32(&input, &info.id)) return Status::Corruption("catalog id");
    Slice name;
    if (!GetLengthPrefixed(&input, &name)) {
      return Status::Corruption("catalog name");
    }
    info.name = name.ToString();
    if (!GetVarint64(&input, &info.schema_epoch) ||
        !GetVarint32(&input, &info.file_gen)) {
      return Status::Corruption("catalog table epochs");
    }
    OPDELTA_RETURN_IF_ERROR(Schema::DecodeFromV2(&input, &info.schema));
    out->tables_.emplace(info.name, std::move(info));
  }
  uint32_t epochs = 0;
  if (!GetVarint32(&input, &epochs)) {
    return Status::Corruption("catalog history count");
  }
  for (uint32_t e = 0; e < epochs; ++e) {
    uint64_t epoch = 0;
    uint32_t ntables = 0;
    if (!GetVarint64(&input, &epoch) || !GetVarint32(&input, &ntables)) {
      return Status::Corruption("catalog history header");
    }
    SchemaMap schemas;
    for (uint32_t t = 0; t < ntables; ++t) {
      Slice name;
      if (!GetLengthPrefixed(&input, &name)) {
        return Status::Corruption("catalog history name");
      }
      Schema schema;
      OPDELTA_RETURN_IF_ERROR(Schema::DecodeFromV2(&input, &schema));
      schemas.emplace(name.ToString(), std::move(schema));
    }
    out->history_.emplace(epoch, std::move(schemas));
  }
  return Status::OK();
}

Status Catalog::SaveToFile(const std::string& path) const {
  std::string data;
  EncodeTo(&data);
  return WriteFileAtomic(Env::Default(), path, Slice(data));
}

Status Catalog::LoadFromFile(const std::string& path) {
  std::string data;
  OPDELTA_RETURN_IF_ERROR(Env::Default()->ReadFileToString(path, &data));
  return DecodeFrom(Slice(data), this);
}

}  // namespace opdelta::catalog
