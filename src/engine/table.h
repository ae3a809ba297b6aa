#ifndef OPDELTA_ENGINE_TABLE_H_
#define OPDELTA_ENGINE_TABLE_H_

#include <atomic>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "catalog/catalog.h"
#include "catalog/row_codec.h"
#include "engine/trigger.h"
#include "index/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "storage/heap_file.h"

namespace opdelta::engine {

/// Physical table: heap storage plus optional secondary B+tree indexes on
/// int64/timestamp columns. Structural access is serialized by `latch`;
/// transactional isolation is the lock manager's job (Database layer).
class Table {
 public:
  Table(catalog::TableInfo info, size_t buffer_pool_pages);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  Status Open(const std::string& file_path);
  Status Close();

  const catalog::TableInfo& info() const { return info_; }

  /// The current schema, via a copy-on-write snapshot: references returned
  /// here stay valid for the table's lifetime even across ALTER TABLE
  /// (prior snapshots are retained, never freed), so scan/drain paths that
  /// bound a schema reference before a concurrent DDL keep decoding
  /// against the schema they started with instead of dangling.
  const catalog::Schema& schema() const {
    return *current_schema_.load(std::memory_order_acquire);
  }
  /// Never changes, so it is readable without the latch (every DML reads
  /// it before taking a lock) while SwapStorage rewrites info_.
  catalog::TableId id() const { return id_; }

  /// ALTER TABLE commit (storage swap): installs the rewritten heap and
  /// the post-DDL schema in one shot. Caller holds `latch` exclusively and
  /// has already closed-or-abandoned nothing — the old storage chain is
  /// returned so the caller can delete the old generation's file after the
  /// swap. Old schema() references stay valid (see schema()).
  void SwapStorage(const catalog::TableInfo& new_info,
                   std::unique_ptr<storage::FileManager> file,
                   std::unique_ptr<storage::BufferPool> pool,
                   std::unique_ptr<storage::HeapFile> heap,
                   std::unique_ptr<storage::FileManager>* old_file);

  /// Columns currently carrying an index (for rebuild after a migration).
  std::vector<std::string> IndexedColumns() const;

  /// Drops every index (rids change when the heap is rewritten, so a
  /// migration rebuilds indexes from scratch). Caller holds `latch`.
  void DropAllIndexes() { indexes_.clear(); }

  storage::HeapFile* heap() { return heap_.get(); }
  storage::FileManager* file() { return file_.get(); }
  storage::BufferPool* pool() { return pool_.get(); }

  /// Creates (and backfills) a B+tree index on an int64/timestamp column.
  Status CreateIndex(const std::string& column);
  bool HasIndex(const std::string& column) const;
  bool HasAnyIndex() const { return !indexes_.empty(); }
  index::BPlusTree* GetIndex(const std::string& column);

  /// Index maintenance hooks; no-ops for non-indexed columns.
  void IndexInsert(const catalog::Row& row, const storage::Rid& rid);
  void IndexErase(const catalog::Row& row, const storage::Rid& rid);
  /// Re-points the entries of a row replaced at `rid` (now at `new_rid`
  /// with image `after`): an index entry moves only when its column's key
  /// or the rid changed.
  void IndexReplace(const catalog::Row& before, const storage::Rid& rid,
                    const catalog::Row& after, const storage::Rid& new_rid);

  /// Registered row-level triggers.
  std::vector<TriggerDef>& triggers() { return triggers_; }

  /// Structure latch: writers exclusive, readers shared. All table latches
  /// share one rank — no code path may hold two tables' latches at once
  /// (multi-table work like view maintenance collects under one latch,
  /// releases, then writes under the next); the runtime cycle detector is
  /// what backs that invariant between same-rank instances.
  common::OrderedSharedMutex latch{
      OPDELTA_LOCK_RANK(table_latch, common::lockrank::kTableLatch)};

 private:
  const catalog::TableId id_;
  catalog::TableInfo info_;
  size_t buffer_pool_pages_;
  /// Every schema this table has ever had, newest last; current_schema_
  /// points at the live one. Mutated only under an exclusive latch; read
  /// lock-free via the atomic. Bounded by the number of DDLs applied.
  std::vector<std::unique_ptr<const catalog::Schema>> retained_schemas_;
  std::atomic<const catalog::Schema*> current_schema_{nullptr};
  std::unique_ptr<storage::FileManager> file_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<storage::HeapFile> heap_;
  // column name -> (column index, tree)
  std::map<std::string, std::pair<int, std::unique_ptr<index::BPlusTree>>>
      indexes_;
  std::vector<TriggerDef> triggers_;
};

}  // namespace opdelta::engine

#endif  // OPDELTA_ENGINE_TABLE_H_
