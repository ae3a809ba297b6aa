#include "engine/database.h"

#include <algorithm>
#include <optional>

#include "common/env.h"
#include "common/logging.h"
#include "catalog/row_codec.h"

namespace opdelta::engine {

using catalog::Row;
using catalog::RowCodec;
using storage::Rid;
using txn::LockMode;
using txn::LogRecord;
using txn::LogRecordType;
using txn::Transaction;
using txn::UndoEntry;

Database::Database(std::string dir, DatabaseOptions options)
    : dir_(std::move(dir)),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : RealClock::Default()),
      locks_(std::chrono::duration_cast<std::chrono::milliseconds>(
          options.lock_timeout)) {}

Database::~Database() { (void)Close(); }  // best effort; Close() for errors

Status Database::Open(const std::string& dir, const DatabaseOptions& options,
                      std::unique_ptr<Database>* out) {
  Env* env = Env::Default();
  OPDELTA_RETURN_IF_ERROR(env->CreateDir(dir));
  std::unique_ptr<Database> db(new Database(dir, options));
  OPDELTA_RETURN_IF_ERROR(db->wal_.Open(dir + "/wal", options.wal));
  // Txn ids must never repeat across reopens: the archive log identifies
  // transactions by id, and a stale commit record must not vouch for a
  // fresh transaction's redo.
  db->next_txn_id_ = db->wal_.max_txn_id_at_open() + 1;

  const std::string catalog_path = dir + "/catalog.meta";
  if (env->FileExists(catalog_path)) {
    OPDELTA_RETURN_IF_ERROR(db->catalog_.LoadFromFile(catalog_path));
    for (const std::string& name : db->catalog_.TableNames()) {
      const catalog::TableInfo* info = db->catalog_.GetTable(name);
      OPDELTA_RETURN_IF_ERROR(db->OpenTable(*info));
    }
  }
  *out = std::move(db);
  return Status::OK();
}

Status Database::Close() {
  std::lock_guard<common::OrderedMutex> lock(tables_mutex_);
  for (auto& [name, table] : tables_) {
    OPDELTA_RETURN_IF_ERROR(table->Close());
  }
  tables_.clear();
  return wal_.Close();
}

std::string Database::TableFilePath(catalog::TableId id,
                                    uint32_t gen) const {
  if (gen == 0) return dir_ + "/t_" + std::to_string(id) + ".db";
  return dir_ + "/t_" + std::to_string(id) + ".g" + std::to_string(gen) +
         ".db";
}

Status Database::SaveCatalog() {
  return catalog_.SaveToFile(dir_ + "/catalog.meta");
}

Status Database::OpenTable(const catalog::TableInfo& info) {
  auto table = std::make_unique<Table>(info, options_.buffer_pool_pages);
  OPDELTA_RETURN_IF_ERROR(table->Open(TableFilePath(info.id, info.file_gen)));
  std::lock_guard<common::OrderedMutex> lock(tables_mutex_);
  tables_[info.name] = std::move(table);
  return Status::OK();
}

Status Database::CreateTable(const std::string& name,
                             const catalog::Schema& schema) {
  catalog::TableId id;
  OPDELTA_RETURN_IF_ERROR(catalog_.CreateTable(name, schema, &id));
  const catalog::TableInfo* info = catalog_.GetTable(name);
  Status st = OpenTable(*info);
  if (!st.ok()) {
    (void)catalog_.DropTable(name);  // roll back the entry; best effort
    return st;
  }
  InvalidateSchemaCache();
  return SaveCatalog();
}

Status Database::DropTable(const std::string& name) {
  const catalog::TableInfo* info = catalog_.GetTable(name);
  if (info == nullptr) return Status::NotFound("table " + name);
  const catalog::TableId id = info->id;
  const uint32_t gen = info->file_gen;
  {
    std::lock_guard<common::OrderedMutex> lock(tables_mutex_);
    auto it = tables_.find(name);
    if (it != tables_.end()) {
      OPDELTA_RETURN_IF_ERROR(it->second->Close());
      tables_.erase(it);
    }
  }
  OPDELTA_RETURN_IF_ERROR(catalog_.DropTable(name));
  (void)Env::Default()->DeleteFile(TableFilePath(id, gen));  // best effort
  InvalidateSchemaCache();
  return SaveCatalog();
}

Status Database::CreateIndex(const std::string& table,
                             const std::string& column) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  std::unique_lock<common::OrderedSharedMutex> latch(t->latch);
  return t->CreateIndex(column);
}

namespace {

/// ALTER COLUMN type coercion for existing cells. Numeric-family casts
/// (int64/double/timestamp) plus rendering to string; a string cell cannot
/// be coerced back into anything else.
Result<catalog::Value> CoerceValue(const catalog::Value& v,
                                   catalog::ValueType to) {
  using catalog::Value;
  using catalog::ValueType;
  if (v.is_null()) return Value::Null();
  if (v.type() == to) return v;
  switch (to) {
    case ValueType::kInt64:
      if (v.type() == ValueType::kDouble) {
        return Value::Int64(static_cast<int64_t>(v.AsDouble()));
      }
      if (v.type() == ValueType::kTimestamp) {
        return Value::Int64(v.AsTimestamp());
      }
      break;
    case ValueType::kDouble:
      if (v.type() == ValueType::kInt64) {
        return Value::Double(static_cast<double>(v.AsInt64()));
      }
      break;
    case ValueType::kTimestamp:
      if (v.type() == ValueType::kInt64) return Value::Timestamp(v.AsInt64());
      break;
    case ValueType::kString:
      return Value::String(v.ToSqlLiteral());
    case ValueType::kNull:
      break;
  }
  return Status::NotSupported(std::string("cannot coerce ") +
                              catalog::ValueTypeName(v.type()) + " to " +
                              catalog::ValueTypeName(to));
}

}  // namespace

Status Database::AlterTable(const std::string& name,
                            const catalog::AlterTableSpec& spec) {
  if (name.rfind("__", 0) == 0) {
    return Status::NotSupported("ALTER TABLE on internal table " + name);
  }
  Table* table = GetTable(name);
  if (table == nullptr) return Status::NotFound("table " + name);

  return WithTransaction([&](Transaction* txn) -> Status {
    // Table-X lock drains concurrent DML; the exclusive latch then blocks
    // latch-only readers for the duration of the swap.
    OPDELTA_RETURN_IF_ERROR(
        locks_.LockTable(txn->id(), table->id(), LockMode::kX));
    std::unique_lock<common::OrderedSharedMutex> latch(table->latch);

    const catalog::TableInfo old_info = table->info();
    const catalog::Schema& old_schema = table->schema();
    catalog::Schema new_schema;
    OPDELTA_RETURN_IF_ERROR(
        catalog::ApplyAlter(old_schema, spec, &new_schema));

    // Resolve the per-row transform up front.
    const int change_idx =
        spec.kind == catalog::AlterTableSpec::Kind::kAddColumn
            ? -1
            : old_schema.ColumnIndex(spec.column.name);

    // Shadow rewrite: decode every row against the old schema, transform,
    // encode against the new schema into a fresh heap at the next file
    // generation. The old generation is never touched.
    Env* env = Env::Default();
    const std::string new_path =
        TableFilePath(old_info.id, old_info.file_gen + 1);
    // Migration file management stays under the exclusive latch: the latch
    // is what makes the generation swap atomic, and the staging file is
    // invisible to every other thread until the catalog commit below.
    (void)env->DeleteFile(new_path);  // NOLINT(opdelta-R8: crashed-migration leftover; staging files are latch-private)
    auto new_file = std::make_unique<storage::FileManager>();
    OPDELTA_RETURN_IF_ERROR(new_file->Open(new_path));
    auto new_pool = std::make_unique<storage::BufferPool>(
        new_file.get(), options_.buffer_pool_pages);
    auto new_heap = std::make_unique<storage::HeapFile>(new_pool.get());

    Status st = new_heap->Open();
    if (st.ok()) {
      Status inner;
      st = table->heap()->ForEach([&](const Rid&, Slice record) {
        Row row;
        inner = RowCodec::Decode(old_schema, record, &row);
        if (!inner.ok()) return false;
        switch (spec.kind) {
          case catalog::AlterTableSpec::Kind::kAddColumn:
            row.push_back(spec.column.default_value);
            break;
          case catalog::AlterTableSpec::Kind::kDropColumn:
            row.erase(row.begin() + change_idx);
            break;
          case catalog::AlterTableSpec::Kind::kAlterType: {
            Result<catalog::Value> coerced =
                CoerceValue(row[static_cast<size_t>(change_idx)],
                            spec.column.type);
            inner = coerced.status();
            if (!inner.ok()) return false;
            row[static_cast<size_t>(change_idx)] = coerced.value();
            break;
          }
        }
        Rid ignored;
        inner = new_heap->Insert(
            Slice(RowCodec::Encode(new_schema, row)), &ignored);
        return inner.ok();
      });
      if (st.ok()) st = inner;
    }
    // The new heap must be durable before the catalog can point at it.
    if (st.ok()) st = new_pool->FlushAll(/*sync=*/true);
    if (!st.ok()) {
      (void)new_file->Close();
      (void)env->DeleteFile(new_path);  // NOLINT(opdelta-R8: failure-path cleanup of a latch-private staging file)
      return st;
    }

    // Commit point: bump the catalog in memory, then save it atomically.
    // Crash before the save -> reopen sees the old generation everywhere;
    // after it -> the new one. A failed save rolls the memory state back.
    catalog::TableInfo new_info;
    catalog::Catalog::AlterUndo undo;
    st = catalog_.AlterTable(name, spec, &new_info, &undo);
    if (st.ok()) {
      st = SaveCatalog();
      if (!st.ok()) catalog_.UndoAlter(undo);
    }
    if (!st.ok()) {
      (void)new_file->Close();
      (void)env->DeleteFile(new_path);  // NOLINT(opdelta-R8: failure-path cleanup of a latch-private staging file)
      return st;
    }

    // Durable. Install the new storage chain; rebuild indexes on columns
    // that survived and are still indexable; drop the old generation.
    const std::vector<std::string> indexed = table->IndexedColumns();
    std::unique_ptr<storage::FileManager> old_file;
    table->SwapStorage(new_info, std::move(new_file), std::move(new_pool),
                       std::move(new_heap), &old_file);
    table->DropAllIndexes();
    for (const std::string& col : indexed) {
      if (new_schema.ColumnIndex(col) < 0) continue;  // column dropped
      Status idx = table->CreateIndex(col);
      if (!idx.ok() && idx.code() != StatusCode::kNotSupported) return idx;
    }
    (void)old_file->Close();
    (void)env->DeleteFile(TableFilePath(  // NOLINT(opdelta-R8: the old generation must be unlinked before new readers can race a reopen)
        old_info.id, old_info.file_gen));
    InvalidateSchemaCache();
    return Status::OK();
  });
}

Status Database::CreateTrigger(const std::string& table, TriggerDef trigger) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  std::unique_lock<common::OrderedSharedMutex> latch(t->latch);
  for (const TriggerDef& existing : t->triggers()) {
    if (existing.name == trigger.name) {
      return Status::AlreadyExists("trigger " + trigger.name);
    }
  }
  t->triggers().push_back(std::move(trigger));
  return Status::OK();
}

Status Database::DropTrigger(const std::string& table,
                             const std::string& name) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  std::unique_lock<common::OrderedSharedMutex> latch(t->latch);
  auto& triggers = t->triggers();
  for (auto it = triggers.begin(); it != triggers.end(); ++it) {
    if (it->name == name) {
      triggers.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("trigger " + name);
}

std::vector<std::string> Database::ListTables() const {
  std::vector<std::string> names;
  {
    std::lock_guard<common::OrderedMutex> lock(tables_mutex_);
    names.reserve(tables_.size());
    for (const auto& [name, table] : tables_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

Table* Database::GetTable(const std::string& name) {
  std::lock_guard<common::OrderedMutex> lock(tables_mutex_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Table* Database::GetTableById(catalog::TableId id) {
  std::lock_guard<common::OrderedMutex> lock(tables_mutex_);
  for (auto& [name, table] : tables_) {
    if (table->id() == id) return table.get();
  }
  return nullptr;
}

void Database::InvalidateSchemaCache() {
  schema_cache_version_.fetch_add(1, std::memory_order_acq_rel);
}

std::shared_ptr<const catalog::SchemaMap> Database::CurrentSchemaMap() {
  const uint64_t version =
      schema_cache_version_.load(std::memory_order_acquire);
  std::lock_guard<common::OrderedMutex> lock(schema_cache_mutex_);
  if (schema_cache_ == nullptr || schema_cache_built_at_ != version) {
    schema_cache_ = std::make_shared<const catalog::SchemaMap>(
        catalog_.CurrentSchemas());
    schema_cache_built_at_ = version;
  }
  return schema_cache_;
}

Result<std::shared_ptr<const catalog::SchemaMap>> Database::SchemaMapAt(
    uint64_t epoch) {
  // Epoch 0 is an unstamped identity: decode against the current schemas.
  if (epoch == 0 || epoch == catalog_.ddl_epoch()) return CurrentSchemaMap();
  Result<catalog::SchemaMap> schemas = catalog_.SchemasAt(epoch);
  OPDELTA_RETURN_IF_ERROR(schemas.status());
  return std::shared_ptr<const catalog::SchemaMap>(
      std::make_shared<const catalog::SchemaMap>(std::move(schemas.value())));
}

std::unique_ptr<Transaction> Database::Begin() {
  auto txn = std::make_unique<Transaction>(next_txn_id_.fetch_add(1));
  LogRecord rec;
  rec.type = LogRecordType::kBegin;
  rec.txn_id = txn->id();
  // A failed begin append is not fatal here: commit is the durability
  // point, and its append/sync failure aborts the transaction.
  (void)wal_.Append(&rec);
  return txn;
}

Status Database::Commit(Transaction* txn) {
  if (!txn->active()) return Status::InvalidArgument("txn not active");
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = txn->id();
  OPDELTA_RETURN_IF_ERROR(wal_.AppendCommit(&rec));
  txn->MarkCommitted();
  locks_.ReleaseAll(txn->id());
  ReleaseFreedSlots(txn->id());
  return Status::OK();
}

void Database::QuarantineFreedSlot(txn::TxnId txn, catalog::TableId table,
                                   const storage::Rid& rid) {
  std::lock_guard<common::OrderedMutex> lock(freed_slots_mutex_);
  if (freed_slots_[table].insert(rid).second) {
    freed_by_txn_[txn].emplace_back(table, rid);
  }
}

storage::HeapFile::SlotFilter Database::FreedSlotFilter(
    catalog::TableId table) {
  return [this, table](const storage::Rid& rid) {
    std::lock_guard<common::OrderedMutex> lock(freed_slots_mutex_);
    auto it = freed_slots_.find(table);
    return it != freed_slots_.end() && it->second.count(rid) > 0;
  };
}

void Database::ReleaseFreedSlots(txn::TxnId txn) {
  std::lock_guard<common::OrderedMutex> lock(freed_slots_mutex_);
  auto it = freed_by_txn_.find(txn);
  if (it == freed_by_txn_.end()) return;
  for (const auto& [table, rid] : it->second) {
    auto t = freed_slots_.find(table);
    if (t == freed_slots_.end()) continue;
    t->second.erase(rid);
    if (t->second.empty()) freed_slots_.erase(t);
  }
  freed_by_txn_.erase(it);
}

Status Database::UndoOne(const UndoEntry& entry) {
  Table* table = GetTableById(entry.table_id);
  if (table == nullptr) return Status::Internal("undo: table gone");
  std::unique_lock<common::OrderedSharedMutex> latch(table->latch);
  switch (entry.type) {
    case LogRecordType::kInsert: {
      std::string current;
      OPDELTA_RETURN_IF_ERROR(table->heap()->Read(entry.rid, &current));
      Row row;
      OPDELTA_RETURN_IF_ERROR(
          RowCodec::Decode(table->schema(), Slice(current), &row));
      table->IndexErase(row, entry.rid);
      return table->heap()->Delete(entry.rid);
    }
    case LogRecordType::kUpdate: {
      std::string current;
      OPDELTA_RETURN_IF_ERROR(table->heap()->Read(entry.rid, &current));
      Row cur_row;
      OPDELTA_RETURN_IF_ERROR(
          RowCodec::Decode(table->schema(), Slice(current), &cur_row));
      Row before_row;
      OPDELTA_RETURN_IF_ERROR(
          RowCodec::Decode(table->schema(), Slice(entry.before), &before_row));
      Rid new_rid;
      OPDELTA_RETURN_IF_ERROR(
          table->heap()->Update(entry.rid, Slice(entry.before), &new_rid,
                                FreedSlotFilter(entry.table_id)));
      table->IndexReplace(cur_row, entry.rid, before_row, new_rid);
      return Status::OK();
    }
    case LogRecordType::kDelete: {
      Rid rid;
      OPDELTA_RETURN_IF_ERROR(
          table->heap()->Insert(Slice(entry.before), &rid,
                                FreedSlotFilter(entry.table_id)));
      Row row;
      OPDELTA_RETURN_IF_ERROR(
          RowCodec::Decode(table->schema(), Slice(entry.before), &row));
      table->IndexInsert(row, rid);
      return Status::OK();
    }
    default:
      return Status::Internal("undo: bad entry type");
  }
}

Status Database::Abort(Transaction* txn) {
  if (!txn->active()) return Status::InvalidArgument("txn not active");
  auto& undo = txn->undo_log();
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    Status st = UndoOne(*it);
    if (!st.ok()) {
      OPDELTA_LOG(kError) << "undo failed: " << st.ToString();
      // Continue: release locks regardless so the system does not wedge.
    }
  }
  LogRecord rec;
  rec.type = LogRecordType::kAbort;
  rec.txn_id = txn->id();
  // Best effort: replay treats a txn without a commit record as aborted,
  // so a lost abort record changes nothing. It is written at once, so it
  // releases the resume point a LogExtractor pins at the txn's records.
  if (wal_.Append(&rec).ok()) (void)wal_.Flush();
  txn->MarkAborted();
  locks_.ReleaseAll(txn->id());
  ReleaseFreedSlots(txn->id());
  return Status::OK();
}

Status Database::WithTransaction(
    const std::function<Status(Transaction*)>& fn) {
  std::unique_ptr<Transaction> txn = Begin();
  Status st = fn(txn.get());
  if (!st.ok()) {
    (void)Abort(txn.get());  // the callback's error is the one to surface
    return st;
  }
  Status commit = Commit(txn.get());
  if (!commit.ok()) {
    // Commit marks the transaction committed only after the WAL records
    // are durable, so a failed commit leaves it active: abort to roll back
    // and release its locks instead of leaking them until timeout.
    (void)Abort(txn.get());  // the commit failure is the one to surface
  }
  return commit;
}

namespace {

/// ALTER TABLE swaps a table's schema snapshot and rewritten heap
/// atomically under its table-X lock. A statement that bound the schema
/// *before* blocking on the table lock (or latch) must not touch the heap
/// with the stale snapshot — it would encode or decode rows against the
/// wrong layout and surface as row-codec corruption. Snapshot identity is
/// the address: the COW swap installs a new object, never mutates one.
/// Returns a retryable Conflict so clients re-bind and re-run.
Status CheckSchemaUnchanged(const Table* table,
                            const catalog::Schema& bound) {
  if (&table->schema() == &bound) return Status::OK();
  return Status::Conflict("table " + table->info().name +
                          ": schema changed by concurrent ALTER while the "
                          "statement waited; retry");
}

/// Maps the row path's read to a write path's result. An empty slot means
/// the lock's previous holder deleted the row or moved it to another rid
/// after the statement picked it, so the statement may have missed the
/// row: a retryable Conflict, like a lock timeout.
Status RowStillThere(const Table* table, const Rid& rid, const Status& read) {
  if (!read.IsNotFound()) return read;
  return Status::Conflict("table " + table->info().name + ": row (" +
                          std::to_string(rid.page_id) + "," +
                          std::to_string(rid.slot) +
                          ") was deleted or moved while the statement "
                          "waited for its lock; retry");
}

}  // namespace

void Database::StampTimestamp(const catalog::Schema& schema, Row* row,
                              int explicit_col) {
  if (!options_.auto_timestamp) return;
  const int ts = schema.TimestampColumnIndex();
  if (ts < 0 || ts == explicit_col) return;
  (*row)[ts] = catalog::Value::Timestamp(clock_->NowMicros());
}

Status Database::FireTriggers(Table* table, Transaction* txn,
                              TriggerEvents event, const Row& before,
                              const Row& after) {
  // Copy the trigger list under the latch, fire outside it: sinks write to
  // other tables (a delta table) and must not self-deadlock on our latch.
  std::vector<TriggerDef> to_fire;
  {
    std::shared_lock<common::OrderedSharedMutex> latch(table->latch);
    for (const TriggerDef& t : table->triggers()) {
      if (t.events & event) to_fire.push_back(t);
    }
  }
  for (const TriggerDef& t : to_fire) {
    OPDELTA_RETURN_IF_ERROR(t.sink->Write(this, txn, event, before, after));
  }
  return Status::OK();
}

Status Database::Insert(Transaction* txn, const std::string& table_name,
                        Row row, Rid* rid_out) {
  return InsertImpl(txn, table_name, std::move(row), rid_out,
                    /*stamp=*/true, /*fire_triggers=*/true);
}

Status Database::InsertRaw(Transaction* txn, const std::string& table_name,
                           Row row, Rid* rid_out) {
  return InsertImpl(txn, table_name, std::move(row), rid_out,
                    /*stamp=*/false, /*fire_triggers=*/false);
}

Status Database::InsertImpl(Transaction* txn, const std::string& table_name,
                            Row row, Rid* rid_out, bool stamp,
                            bool fire_triggers) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return Status::NotFound("table " + table_name);
  const catalog::Schema& schema = table->schema();
  if (stamp) StampTimestamp(schema, &row);
  OPDELTA_RETURN_IF_ERROR(catalog::ValidateRow(schema, row));
  OPDELTA_RETURN_IF_ERROR(
      locks_.LockTable(txn->id(), table->id(), LockMode::kIX));
  OPDELTA_RETURN_IF_ERROR(CheckSchemaUnchanged(table, schema));

  std::string encoded = RowCodec::Encode(schema, row);
  Rid rid;
  {
    std::unique_lock<common::OrderedSharedMutex> latch(table->latch);
    OPDELTA_RETURN_IF_ERROR(table->heap()->Insert(Slice(encoded), &rid,
                                                  FreedSlotFilter(table->id())));
    table->IndexInsert(row, rid);
  }
  OPDELTA_RETURN_IF_ERROR(
      locks_.LockRow(txn->id(), table->id(), rid, /*exclusive=*/true));

  // The undo entry must exist the moment the heap/index mutation does: if
  // the WAL append below fails, the caller aborts, and the abort can only
  // roll back what the undo log covers.
  txn->undo_log().push_back(
      UndoEntry{LogRecordType::kInsert, table->id(), rid, {}});

  LogRecord rec;
  rec.type = LogRecordType::kInsert;
  rec.txn_id = txn->id();
  rec.table_id = table->id();
  rec.rid = rid;
  rec.after = encoded;
  OPDELTA_RETURN_IF_ERROR(wal_.Append(&rec));

  if (rid_out != nullptr) *rid_out = rid;
  if (!fire_triggers) return Status::OK();
  return FireTriggers(table, txn, kOnInsert, Row{}, row);
}

Result<size_t> Database::UpdateWhere(
    Transaction* txn, const std::string& table_name, const Predicate& pred,
    const std::vector<Assignment>& assignments) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return Status::NotFound("table " + table_name);
  const catalog::Schema& schema = table->schema();

  Predicate bound = pred;
  OPDELTA_RETURN_IF_ERROR(bound.Bind(schema));

  // Resolve SET columns once.
  std::vector<std::pair<int, catalog::Value>> sets;
  int explicit_ts_col = -1;
  for (const Assignment& a : assignments) {
    const int idx = schema.ColumnIndex(a.column);
    if (idx < 0) return Status::InvalidArgument("unknown column " + a.column);
    if (!a.value.is_null() && a.value.type() != schema.column(idx).type) {
      return Status::InvalidArgument("type mismatch on " + a.column);
    }
    if (schema.column(idx).type == catalog::ValueType::kTimestamp) {
      explicit_ts_col = idx;
    }
    sets.emplace_back(idx, a.value);
  }

  struct Fired {
    Row before;
    Row after;
  };
  std::vector<Fired> fired;
  OPDELTA_RETURN_IF_ERROR(ForEachLockedMatch(
      txn, table, schema, bound,
      [&](const Rid& rid, Row before, LogRecord* rec) -> Status {
        Row after = before;
        for (const auto& [idx, value] : sets) after[idx] = value;
        StampTimestamp(schema, &after, explicit_ts_col);
        std::string after_enc = RowCodec::Encode(schema, after);
        OPDELTA_RETURN_IF_ERROR(ReplaceRow(txn, table, rid, before, after,
                                           std::move(after_enc), rec));
        fired.push_back(Fired{std::move(before), std::move(after)});
        return Status::OK();
      }));

  for (const Fired& f : fired) {
    OPDELTA_RETURN_IF_ERROR(
        FireTriggers(table, txn, kOnUpdate, f.before, f.after));
  }
  return fired.size();
}

Result<size_t> Database::DeleteWhere(Transaction* txn,
                                     const std::string& table_name,
                                     const Predicate& pred) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return Status::NotFound("table " + table_name);
  const catalog::Schema& schema = table->schema();

  Predicate bound = pred;
  OPDELTA_RETURN_IF_ERROR(bound.Bind(schema));
  std::vector<Row> removed;
  OPDELTA_RETURN_IF_ERROR(ForEachLockedMatch(
      txn, table, schema, bound,
      [&](const Rid& rid, Row before, LogRecord* rec) -> Status {
        OPDELTA_RETURN_IF_ERROR(RemoveRow(txn, table, rid, before, rec));
        removed.push_back(std::move(before));
        return Status::OK();
      }));

  for (const Row& before : removed) {
    OPDELTA_RETURN_IF_ERROR(FireTriggers(table, txn, kOnDelete, before, Row{}));
  }
  return removed.size();
}

Status Database::ForEachLockedMatch(Transaction* txn, Table* table,
                                    const catalog::Schema& schema,
                                    const Predicate& bound,
                                    const RowChange& change) {
  OPDELTA_RETURN_IF_ERROR(
      locks_.LockTable(txn->id(), table->id(), LockMode::kIX));
  // Collect first, then write: a two-phase statement never revisits a row
  // it relocated (the Halloween problem).
  std::vector<Rid> candidates;
  OPDELTA_RETURN_IF_ERROR(VisitRows(table, schema, bound, /*rids_only=*/true,
                                    [&](const Rid& rid, const Row*) {
                                      candidates.push_back(rid);
                                      return true;
                                    }));
  for (const Rid& rid : candidates) {
    OPDELTA_RETURN_IF_ERROR(RowStillThere(
        table, rid, ChangeRow(txn, table, rid, &bound, change).status()));
  }
  return Status::OK();
}

bool Database::PickIndexPath(Table* table, const Predicate& pred,
                             std::string* column, int64_t* lo, int64_t* hi) {
  // Intersect the ranges implied by every conjunct on each indexed column
  // and pick the first constrained column. (Intersection matters: a
  // half-open "id >= lo AND id < hi" must not degenerate into a scan from
  // lo to the end of the index.)
  std::string best_column;
  int64_t best_lo = INT64_MIN, best_hi = INT64_MAX;
  for (const Condition& c : pred.conjuncts()) {
    if (!table->HasIndex(c.column)) continue;
    if (!best_column.empty() && c.column != best_column) continue;
    const catalog::ValueType lit_type = c.literal.type();
    if (lit_type != catalog::ValueType::kInt64 &&
        lit_type != catalog::ValueType::kTimestamp) {
      continue;
    }
    const int64_t v = lit_type == catalog::ValueType::kTimestamp
                          ? c.literal.AsTimestamp()
                          : c.literal.AsInt64();
    int64_t range_lo = INT64_MIN, range_hi = INT64_MAX;
    switch (c.op) {
      case CompareOp::kEq:
        range_lo = range_hi = v;
        break;
      case CompareOp::kGt:
        range_lo = v == INT64_MAX ? INT64_MAX : v + 1;
        break;
      case CompareOp::kGe:
        range_lo = v;
        break;
      case CompareOp::kLt:
        range_hi = v == INT64_MIN ? INT64_MIN : v - 1;
        break;
      case CompareOp::kLe:
        range_hi = v;
        break;
      case CompareOp::kNe:
        continue;  // not a useful index range
    }
    best_column = c.column;
    best_lo = std::max(best_lo, range_lo);
    best_hi = std::min(best_hi, range_hi);
  }
  if (best_column.empty()) return false;
  *column = best_column;
  *lo = best_lo;
  *hi = best_hi;
  return true;
}

Status Database::VisitRows(Table* table, const catalog::Schema& schema,
                           const Predicate& bound, bool rids_only,
                           const RowVisitor& fn) {
  std::shared_lock<common::OrderedSharedMutex> latch(table->latch);
  OPDELTA_RETURN_IF_ERROR(CheckSchemaUnchanged(table, schema));
  // Documented contract: visitors run under the table read latch and must
  // not re-enter mutating APIs (see Scan in database.h).
  Status st;
  auto visit = [&](const Rid& rid, Slice record) {
    if (rids_only && bound.is_true()) return fn(rid, nullptr);  // NOLINT(opdelta-R3: visitor contract)
    Row row;
    st = RowCodec::Decode(schema, record, &row);
    if (!st.ok()) return false;
    return !bound.Matches(row) || fn(rid, &row);  // NOLINT(opdelta-R3: visitor contract)
  };
  std::string column;
  int64_t lo, hi;
  if (PickIndexPath(table, bound, &column, &lo, &hi)) {
    std::string record;
    table->GetIndex(column)->ScanRange(lo, hi, [&](int64_t, const Rid& rid) {
      if (rids_only) return fn(rid, nullptr);  // NOLINT(opdelta-R3: visitor contract)
      st = table->heap()->Read(rid, &record);
      return st.ok() && visit(rid, Slice(record));
    });
    return st;
  }
  OPDELTA_RETURN_IF_ERROR(table->heap()->ForEach(visit));
  return st;
}

Result<bool> Database::UpsertByKey(Transaction* txn,
                                   const std::string& table_name, Row row) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return Status::NotFound("table " + table_name);
  const catalog::Schema& schema = table->schema();
  StampTimestamp(schema, &row);
  OPDELTA_RETURN_IF_ERROR(catalog::ValidateRow(schema, row));
  const int key = schema.KeyColumnIndex();
  if (key < 0) return Status::InvalidArgument("table has no key column");
  Predicate by_key =
      Predicate::Where(schema.column(key).name, CompareOp::kEq, row[key]);
  OPDELTA_RETURN_IF_ERROR(by_key.Bind(schema));
  OPDELTA_RETURN_IF_ERROR(
      locks_.LockTable(txn->id(), table->id(), LockMode::kIX));

  const std::string encoded = RowCodec::Encode(schema, row);
  // After a miss the probe reads each candidate's row before picking it,
  // so a stale index entry cannot hand back the same candidate forever.
  bool rids_only = true;
  for (;;) {
    std::optional<Rid> rid;
    OPDELTA_RETURN_IF_ERROR(VisitRows(table, schema, by_key, rids_only,
                                      [&](const Rid& r, const Row*) {
                                        rid = r;
                                        return false;
                                      }));
    if (!rid.has_value()) break;
    Row before;
    Result<bool> match = ChangeRow(
        txn, table, *rid, &by_key,
        [&](const Rid& r, Row current, LogRecord* rec) {
          before = std::move(current);
          return ReplaceRow(txn, table, r, before, row, encoded, rec);
        });
    if (!match.ok() && !match.status().IsNotFound()) return match.status();
    if (!match.ok() || !match.value()) {
      rids_only = false;  // gone, or re-keyed by the writer the lock waited for
      continue;
    }
    OPDELTA_RETURN_IF_ERROR(FireTriggers(table, txn, kOnUpdate, before, row));
    return true;
  }
  OPDELTA_RETURN_IF_ERROR(InsertImpl(txn, table_name, std::move(row), nullptr,
                                     /*stamp=*/false, /*fire_triggers=*/true));
  return false;
}

Result<bool> Database::ChangeRow(Transaction* txn, Table* table,
                                 const Rid& rid, const Predicate* bound,
                                 const RowChange& change) {
  OPDELTA_RETURN_IF_ERROR(
      locks_.LockRow(txn->id(), table->id(), rid, /*exclusive=*/true));
  LogRecord rec;
  {
    std::unique_lock<common::OrderedSharedMutex> latch(table->latch);
    OPDELTA_RETURN_IF_ERROR(table->heap()->Read(rid, &rec.before));
    Row before;
    OPDELTA_RETURN_IF_ERROR(
        RowCodec::Decode(table->schema(), Slice(rec.before), &before));
    if (bound != nullptr && !bound->Matches(before)) return false;
    // RowChange's contract (database.h): it runs under the latch and
    // calls no Database API but ReplaceRow or RemoveRow.
    OPDELTA_RETURN_IF_ERROR(change(rid, std::move(before), &rec));  // NOLINT(opdelta-R3: row-change contract)
  }

  // Undo before WAL: a failed append must still be rollback-able. An
  // update's undo entry names the rid the row now lives at.
  txn->undo_log().push_back(
      UndoEntry{rec.type, table->id(),
                rec.type == LogRecordType::kUpdate ? rec.rid2 : rec.rid,
                rec.before});
  rec.txn_id = txn->id();
  rec.table_id = table->id();
  OPDELTA_RETURN_IF_ERROR(wal_.Append(&rec));
  return true;
}

Status Database::ReplaceRow(Transaction* txn, Table* table, const Rid& rid,
                            const Row& before, const Row& after,
                            std::string after_enc, LogRecord* rec) {
  OPDELTA_RETURN_IF_ERROR(table->heap()->Update(
      rid, Slice(after_enc), &rec->rid2, FreedSlotFilter(table->id())));
  table->IndexReplace(before, rid, after, rec->rid2);
  if (!(rec->rid2 == rid)) {
    // Relocation freed the old slot; keep it ours until we resolve.
    QuarantineFreedSlot(txn->id(), table->id(), rid);
  }
  rec->type = LogRecordType::kUpdate;
  rec->rid = rid;
  rec->after = std::move(after_enc);
  return Status::OK();
}

Status Database::RemoveRow(Transaction* txn, Table* table, const Rid& rid,
                           const Row& before, LogRecord* rec) {
  table->IndexErase(before, rid);
  OPDELTA_RETURN_IF_ERROR(table->heap()->Delete(rid));
  QuarantineFreedSlot(txn->id(), table->id(), rid);
  rec->type = LogRecordType::kDelete;
  rec->rid = rid;
  return Status::OK();
}

Status Database::ReadAt(Transaction* txn, const std::string& table_name,
                        const Rid& rid, Row* out) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return Status::NotFound("table " + table_name);
  if (txn != nullptr) {
    OPDELTA_RETURN_IF_ERROR(
        locks_.LockTable(txn->id(), table->id(), LockMode::kIS));
    OPDELTA_RETURN_IF_ERROR(
        locks_.LockRow(txn->id(), table->id(), rid, /*exclusive=*/false));
  }
  std::shared_lock<common::OrderedSharedMutex> latch(table->latch);
  std::string record;
  OPDELTA_RETURN_IF_ERROR(table->heap()->Read(rid, &record));
  return RowCodec::Decode(table->schema(), Slice(record), out);
}

Status Database::UpdateAt(Transaction* txn, const std::string& table_name,
                          const Rid& rid, Row row, Rid* new_rid_out) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return Status::NotFound("table " + table_name);
  const catalog::Schema& schema = table->schema();
  // Point ops are raw: apply paths must reproduce images byte-exactly.
  OPDELTA_RETURN_IF_ERROR(catalog::ValidateRow(schema, row));
  OPDELTA_RETURN_IF_ERROR(
      locks_.LockTable(txn->id(), table->id(), LockMode::kIX));
  OPDELTA_RETURN_IF_ERROR(CheckSchemaUnchanged(table, schema));
  std::string encoded = RowCodec::Encode(schema, row);
  return RowStillThere(
      table, rid,
      ChangeRow(txn, table, rid, nullptr,
                [&](const Rid&, Row before, LogRecord* rec) {
                  OPDELTA_RETURN_IF_ERROR(ReplaceRow(
                      txn, table, rid, before, row, std::move(encoded), rec));
                  if (new_rid_out != nullptr) *new_rid_out = rec->rid2;
                  return Status::OK();
                })
          .status());
}

Status Database::DeleteAt(Transaction* txn, const std::string& table_name,
                          const Rid& rid) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return Status::NotFound("table " + table_name);
  OPDELTA_RETURN_IF_ERROR(
      locks_.LockTable(txn->id(), table->id(), LockMode::kIX));
  return RowStillThere(
      table, rid,
      ChangeRow(txn, table, rid, nullptr,
                [&](const Rid&, Row before, LogRecord* rec) {
                  return RemoveRow(txn, table, rid, before, rec);
                })
          .status());
}

Status Database::Scan(
    Transaction* txn, const std::string& table_name, const Predicate& pred,
    const std::function<bool(const Rid&, const Row&)>& fn) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return Status::NotFound("table " + table_name);
  const catalog::Schema& schema = table->schema();

  Predicate bound = pred;
  OPDELTA_RETURN_IF_ERROR(bound.Bind(schema));
  if (txn != nullptr) {
    OPDELTA_RETURN_IF_ERROR(
        locks_.LockTable(txn->id(), table->id(), LockMode::kIS));
  }

  return VisitRows(
      table, schema, bound, /*rids_only=*/false,
      [&](const Rid& rid, const Row* row) { return fn(rid, *row); });
}

Status Database::ScanCommitted(
    const std::string& table_name, const Predicate& pred,
    const std::function<bool(const catalog::Row&)>& fn) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return Status::NotFound("table " + table_name);
  Predicate bound = pred;
  OPDELTA_RETURN_IF_ERROR(bound.Bind(table->schema()));

  // Pass 1 — candidates: the rids whose current image matches, from a
  // latch-only scan. Dirty rows are possible here; pass 2 resolves each
  // against its committed image.
  std::vector<Rid> candidates;
  OPDELTA_RETURN_IF_ERROR(
      Scan(nullptr, table_name, pred, [&](const Rid& rid, const Row&) {
        candidates.push_back(rid);
        return true;
      }));

  // Pass 2 — committed images under row S locks in one transaction,
  // aborted on any error so the locks never leak. A vanished rid (the row
  // was deleted, or an update relocated it) simply drops out — its
  // committed state, if any, lives at another rid the candidate pass may
  // or may not have seen; watermark-bracketing callers handle that window.
  std::unique_ptr<txn::Transaction> txn = Begin();
  Status st;
  for (const Rid& rid : candidates) {
    Row row;
    Status read = ReadAt(txn.get(), table_name, rid, &row);
    if (read.IsNotFound()) continue;
    if (!read.ok()) {
      st = read;
      break;
    }
    if (!bound.Matches(row)) continue;
    if (!fn(row)) break;
  }
  if (st.ok()) st = Commit(txn.get());
  if (!st.ok() && txn->active()) (void)Abort(txn.get());
  return st;
}

Result<uint64_t> Database::CountRows(const std::string& table_name) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return Status::NotFound("table " + table_name);
  std::shared_lock<common::OrderedSharedMutex> latch(table->latch);
  return table->heap()->live_records();
}

Status Database::LockTableExclusive(Transaction* txn,
                                    const std::string& table_name) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return Status::NotFound("table " + table_name);
  return locks_.LockTable(txn->id(), table->id(), LockMode::kX);
}

Status Database::LockTableShared(Transaction* txn,
                                 const std::string& table_name) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return Status::NotFound("table " + table_name);
  return locks_.LockTable(txn->id(), table->id(), LockMode::kS);
}

Status Database::FlushAll() {
  std::lock_guard<common::OrderedMutex> lock(tables_mutex_);
  for (auto& [name, table] : tables_) {
    OPDELTA_RETURN_IF_ERROR(table->pool()->FlushAll(/*sync=*/false));
  }
  return Status::OK();
}

void Database::AggregateIoStats(uint64_t* reads, uint64_t* writes) const {
  std::lock_guard<common::OrderedMutex> lock(tables_mutex_);
  uint64_t r = 0, w = 0;
  for (const auto& [name, table] : tables_) {
    Table* t = const_cast<Table*>(table.get());
    r += t->file()->io_stats().page_reads.load();
    w += t->file()->io_stats().page_writes.load();
  }
  *reads = r;
  *writes = w;
}

}  // namespace opdelta::engine
