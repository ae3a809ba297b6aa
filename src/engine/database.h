#ifndef OPDELTA_ENGINE_DATABASE_H_
#define OPDELTA_ENGINE_DATABASE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/sync.h"
#include "catalog/catalog.h"
#include "engine/predicate.h"
#include "engine/table.h"
#include "engine/trigger.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"
#include "txn/wal.h"

namespace opdelta::engine {

struct DatabaseOptions {
  /// Buffer-pool frames per table.
  size_t buffer_pool_pages = 1024;

  /// Auto-maintain the first kTimestamp column on insert/update — the
  /// source-system behaviour the timestamp extractor (§3.1.1) relies on.
  bool auto_timestamp = true;

  txn::WalOptions wal;

  std::chrono::milliseconds lock_timeout{10000};

  /// Injectable clock (tests use SimulatedClock). nullptr = real clock.
  Clock* clock = nullptr;
};

/// `SET column = value` element of an UPDATE.
struct Assignment {
  std::string column;
  catalog::Value value;
};

/// A single-node transactional relational engine: the "commercial DBMS"
/// substrate every extraction method in the paper runs against. Provides
/// transactions (WAL + hierarchical locks), row-level triggers, automatic
/// timestamp columns, and secondary indexes.
///
/// DML statements deliberately execute the way the paper's §3 assumes:
/// UPDATE/DELETE find their rows with a predicate scan (a B+tree range when
/// an index covers a conjunct), and row-level triggers fire one sink write
/// per captured image inside the user's transaction.
///
/// Every write to an existing row (UpdateWhere, DeleteWhere, UpsertByKey,
/// UpdateAt, DeleteAt) takes one row path: X-lock the row; then, in one
/// hold of the table's exclusive latch, read and decode the committed
/// image, recheck the predicate against it and change the heap and
/// indexes. The undo entry and the WAL record carry those heap bytes, so
/// an image an aborted writer left before the lock was granted never comes
/// back. A row that no longer matches is skipped. A slot empty after the
/// lock (its previous holder deleted the row or moved it to another rid)
/// returns a retryable Conflict: the statement may have missed the row's
/// new place.
class Database {
 public:
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Opens (creating if needed) a database rooted at `dir`.
  static Status Open(const std::string& dir, const DatabaseOptions& options,
                     std::unique_ptr<Database>* out);

  Status Close();

  // -- DDL ------------------------------------------------------------
  Status CreateTable(const std::string& name, const catalog::Schema& schema);
  Status DropTable(const std::string& name);

  /// ALTER TABLE via an online shadow rewrite. Takes a table-X lock (so
  /// concurrent DML drains first), rewrites every row into a fresh heap
  /// file at the next generation, syncs it, and commits by atomically
  /// saving the catalog — a crash before the save leaves the old
  /// generation fully intact; after it, reopen finds the new one. Indexes
  /// on surviving (still-indexable) columns are rebuilt; the old
  /// generation's file is deleted last. Internal (`__`-prefixed) tables
  /// refuse DDL. Bumps the database-wide DDL epoch (see ddl_epoch()).
  Status AlterTable(const std::string& name,
                    const catalog::AlterTableSpec& spec);

  /// Names of every table, sorted. Snapshot — concurrent DDL may change
  /// the catalog before the caller uses it.
  std::vector<std::string> ListTables() const;
  Status CreateIndex(const std::string& table, const std::string& column);

  /// Registers a row-level trigger on `table`.
  Status CreateTrigger(const std::string& table, TriggerDef trigger);
  Status DropTrigger(const std::string& table, const std::string& name);

  // -- Transactions ----------------------------------------------------
  /// Begins a transaction (logs kBegin).
  std::unique_ptr<txn::Transaction> Begin();
  /// Logs the commit record and writes the transaction's buffered log
  /// records with it (Wal::AppendCommit): once Commit returns OK, the whole
  /// transaction is readable in the log, and durable under
  /// WalOptions::sync_on_commit. On error nothing of the commit is logged
  /// and the transaction stays active; the caller must Abort it.
  Status Commit(txn::Transaction* txn);
  /// Rolls the transaction's writes back, then logs an abort record and
  /// writes the log tail, so a log reader sees the transaction end. The
  /// abort record is best effort: a transaction without a commit record
  /// replays as aborted, and the next Open writes the missing record.
  Status Abort(txn::Transaction* txn);

  /// Runs fn inside a transaction, committing on OK and aborting on error.
  Status WithTransaction(const std::function<Status(txn::Transaction*)>& fn);

  // -- DML --------------------------------------------------------------
  /// Inserts a row (stamping the timestamp column per options). Fires
  /// insert triggers. Returns the rid via *rid_out when non-null.
  Status Insert(txn::Transaction* txn, const std::string& table,
                catalog::Row row, storage::Rid* rid_out = nullptr);

  /// Insert that preserves the row exactly (no timestamp stamping, no
  /// triggers). Used by capture sinks writing into delta tables — the
  /// captured images must not be re-stamped — and by bulk apply paths.
  Status InsertRaw(txn::Transaction* txn, const std::string& table,
                   catalog::Row row, storage::Rid* rid_out = nullptr);

  /// UPDATE <table> SET <assignments> WHERE <pred>. Returns rows affected.
  /// Collects candidates, then takes each through the row path (class
  /// comment) and writes committed image + SET. An index range's
  /// candidates are its rids, so every row in the range is X-locked before
  /// its recheck; a heap scan's are the rows whose current image matches.
  /// Rows inserted after the candidate pass are missed (ROADMAP item 2(a)).
  Result<size_t> UpdateWhere(txn::Transaction* txn, const std::string& table,
                             const Predicate& pred,
                             const std::vector<Assignment>& assignments);

  /// DELETE FROM <table> WHERE <pred>. Returns rows affected. Finds,
  /// locks and rechecks its rows as UpdateWhere does.
  Result<size_t> DeleteWhere(txn::Transaction* txn, const std::string& table,
                             const Predicate& pred);

  /// Keyed full-row write: replaces the row whose key column equals
  /// `row`'s key with `row`, or inserts `row` when no row has that key.
  /// Returns true when a row was replaced, false when `row` was inserted.
  ///   - Stamps the timestamp column and validates exactly as Insert does:
  ///     with auto_timestamp off the image's own stamp is kept.
  ///   - Probes, then takes the candidate through the row path (class
  ///     comment) with `key = value` as the recheck. With an index on the
  ///     key column the candidate rid comes from one B+tree probe that
  ///     touches no heap page; without one, from a heap scan. If the slot
  ///     is empty or the row carries another key (a concurrent writer, or
  ///     a stale index entry), the next probe reads each candidate's row.
  ///   - Replaces in place (one kUpdate WAL record; the rid changes only
  ///     when the new image no longer fits its page) and fires update
  ///     triggers, as UpdateWhere does; an insert fires insert triggers.
  ///   - The engine enforces no key uniqueness: if several rows share the
  ///     key, the first one found is replaced. A caller that needs one row
  ///     per key holds the table-X lock, as warehouse::ApplyNetChanges
  ///     does, so no other writer can add the key between lookup and
  ///     insert.
  Result<bool> UpsertByKey(txn::Transaction* txn, const std::string& table,
                           catalog::Row row);

  // Point operations by rid — used by log replay
  // (extract::LogExtractor::ReplayInto), the snapshot-differential apply
  // and the aggregate-view maintainer. UpdateAt and DeleteAt take the row
  // path with no recheck, so an empty slot returns Conflict. They push the
  // same undo entries (before the WAL append, so Abort rolls back even a
  // write whose log append failed) and write the same WAL records as the
  // predicate forms. UpdateAt reports the (possibly relocated) rid.
  // Triggers do NOT fire for point ops: they model a recovery-manager-style
  // apply path below the trigger layer.
  Status ReadAt(txn::Transaction* txn, const std::string& table,
                const storage::Rid& rid, catalog::Row* out);
  Status UpdateAt(txn::Transaction* txn, const std::string& table,
                  const storage::Rid& rid, catalog::Row row,
                  storage::Rid* new_rid = nullptr);
  Status DeleteAt(txn::Transaction* txn, const std::string& table,
                  const storage::Rid& rid);

  // -- Queries ----------------------------------------------------------
  /// Predicate scan under a table IS lock: a B+tree range when a conjunct
  /// compares an indexed int64/timestamp column with a literal (rows in
  /// key order), else the heap. Not read committed: rows are read in place
  /// without row locks, so the scan can see another transaction's
  /// uncommitted writes (ROADMAP item 2(c)); use ScanCommitted for
  /// committed images. `txn` may be nullptr for internal utility reads (no
  /// transactional locking, latch only).
  /// The callback runs while the table read latch is held: it must not
  /// call back into mutating Database APIs, or it will self-deadlock.
  Status Scan(txn::Transaction* txn, const std::string& table,
              const Predicate& pred,
              const std::function<bool(const storage::Rid&,
                                       const catalog::Row&)>& fn);

  /// Committed-read scan: a latch-only candidate pass collects rids, then
  /// one internal transaction re-reads each candidate under a row S lock
  /// (committed image; blocks on in-flight writers) and re-checks `pred`
  /// against it. The transaction is committed — or aborted on any error —
  /// before returning, so no lock outlives the call. Unlike Scan, `fn`
  /// runs *without* the table latch held. Rows inserted or relocated after
  /// the candidate pass are not revisited; callers needing stronger
  /// guarantees bracket the scan with watermarks (see backfill/scrub).
  Status ScanCommitted(const std::string& table, const Predicate& pred,
                       const std::function<bool(const catalog::Row&)>& fn);

  Result<uint64_t> CountRows(const std::string& table);

  // -- Integration helpers ----------------------------------------------
  /// Takes a table-X lock: the value-delta integrator's "warehouse outage".
  Status LockTableExclusive(txn::Transaction* txn, const std::string& table);

  /// Takes a table-S lock (long OLAP reader).
  Status LockTableShared(txn::Transaction* txn, const std::string& table);

  Status FlushAll();

  // -- Accessors ---------------------------------------------------------
  Table* GetTable(const std::string& name);
  Table* GetTableById(catalog::TableId id);
  const catalog::Catalog& catalog() const { return catalog_; }

  /// Current DDL epoch (1 until the first ALTER TABLE).
  uint64_t ddl_epoch() const { return catalog_.ddl_epoch(); }

  /// All current table schemas as one shared snapshot. Cached — rebuilt
  /// only after DDL invalidates it — so hot parse/drain paths stop paying
  /// a ListTables + per-table copy on every call. The returned map is
  /// immutable; holders keep a consistent pre-DDL view.
  std::shared_ptr<const catalog::SchemaMap> CurrentSchemaMap();

  /// Schemas as of `epoch`, for decoding epoch-stamped frames. Epoch 0
  /// (an unstamped BatchId) means "current". Unknown or future epochs fail
  /// with kSchemaMismatch rather than guessing.
  Result<std::shared_ptr<const catalog::SchemaMap>> SchemaMapAt(
      uint64_t epoch);
  txn::Wal* wal() { return &wal_; }
  txn::LockManager* locks() { return &locks_; }
  Clock* clock() { return clock_; }
  const std::string& dir() const { return dir_; }
  const DatabaseOptions& options() const { return options_; }

  /// Sums page reads/writes across all table files (bench reporting).
  void AggregateIoStats(uint64_t* reads, uint64_t* writes) const;

 private:
  Database(std::string dir, DatabaseOptions options);

  Status OpenTable(const catalog::TableInfo& info);

  /// Heap file for generation `gen` of table `id`. Generation 0 keeps the
  /// legacy `t_<id>.db` name so pre-DDL databases reopen unchanged.
  std::string TableFilePath(catalog::TableId id, uint32_t gen) const;
  Status SaveCatalog();
  void InvalidateSchemaCache();

  /// Stamps the timestamp column; `explicitly_set` suppresses stamping for
  /// columns assigned by the user statement.
  void StampTimestamp(const catalog::Schema& schema, catalog::Row* row,
                      int explicit_col = -1);

  /// Fires triggers matching `event`. Runs outside the table latch but
  /// inside the transaction.
  Status FireTriggers(Table* table, txn::Transaction* txn,
                      TriggerEvents event, const catalog::Row& before,
                      const catalog::Row& after);

  Status UndoOne(const txn::UndoEntry& entry);

  // ---- Uncommitted-free slot quarantine -------------------------------
  // A DELETE (or relocating UPDATE) physically frees its heap slot at
  // statement time, but the freeing transaction holds the rid's X lock
  // until it resolves. If another transaction's INSERT reused that slot it
  // would block on a lock held across an arbitrary wait — an op-delta
  // apply insert stalls behind a client DELETE that has not committed.
  // These helpers keep such slots out of placement until the freeing
  // transaction commits or aborts.

  /// Records that `txn` freed `rid` in `table` this transaction. Called
  /// with the table latch held (the free and the quarantine must be
  /// atomic against concurrent placement).
  void QuarantineFreedSlot(txn::TxnId txn, catalog::TableId table,
                           const storage::Rid& rid);

  /// Placement filter for heap inserts into `table`: true while the slot
  /// is quarantined. Queried only for physically free slots.
  storage::HeapFile::SlotFilter FreedSlotFilter(catalog::TableId table);

  /// Lifts every quarantine `txn` holds. Called from Commit and Abort.
  void ReleaseFreedSlots(txn::TxnId txn);

  Status InsertImpl(txn::Transaction* txn, const std::string& table,
                    catalog::Row row, storage::Rid* rid_out, bool stamp,
                    bool fire_triggers);

  /// A row's heap and index change, made under the table's exclusive
  /// latch: gets the row's rid and committed image and fills in the
  /// change's log record. Holding the latch, it calls no Database API but
  /// ReplaceRow or RemoveRow, which do both.
  using RowChange = std::function<Status(
      const storage::Rid&, catalog::Row before, txn::LogRecord* rec)>;

  /// The row path. X-locks `rid`; then, under the table's exclusive latch,
  /// reads and decodes the row, rechecks `bound` (none: always matches)
  /// and hands a match to `change`. Then pushes the undo entry and appends
  /// the record, in that order, so a failed append still rolls back; both
  /// carry the heap's bytes as the before image. Returns whether the row
  /// matched, or the heap's NotFound when the slot is empty.
  Result<bool> ChangeRow(txn::Transaction* txn, Table* table,
                         const storage::Rid& rid, const Predicate* bound,
                         const RowChange& change);

  /// UpdateWhere's and DeleteWhere's loop: takes table IX, collects the
  /// candidates (VisitRows with `rids_only`), then takes each through
  /// ChangeRow. An empty slot returns Conflict.
  Status ForEachLockedMatch(txn::Transaction* txn, Table* table,
                            const catalog::Schema& schema,
                            const Predicate& bound, const RowChange& change);

  /// ChangeRow's two changes, run under the exclusive latch. ReplaceRow
  /// writes `after_enc` over the row (a relocation skips quarantined slots
  /// and quarantines the slot it frees) and moves each index entry whose
  /// key or rid changed (Table::IndexReplace). RemoveRow erases the row's
  /// index entries, frees its slot and quarantines it. Each fills in the
  /// record's type and rids, and a replace its after image.
  Status ReplaceRow(txn::Transaction* txn, Table* table,
                    const storage::Rid& rid, const catalog::Row& before,
                    const catalog::Row& after, std::string after_enc,
                    txn::LogRecord* rec);
  Status RemoveRow(txn::Transaction* txn, Table* table,
                   const storage::Rid& rid, const catalog::Row& before,
                   txn::LogRecord* rec);

  /// Access-path selection: when a conjunct compares an indexed
  /// int64/timestamp column against a literal, derive the B+tree key range
  /// it implies. The full predicate is still re-checked per row.
  static bool PickIndexPath(Table* table, const Predicate& pred,
                            std::string* column, int64_t* lo, int64_t* hi);

  /// The one access-path loop. Under the table's shared latch, after
  /// checking that `bound`'s `schema` is still the table's, walks the
  /// B+tree range PickIndexPath derives, else the heap, and hands `fn`
  /// each row `bound` matches until `fn` returns false. With `rids_only`
  /// a candidate the scan need not decode to test (every rid of an index
  /// range, every row for an empty predicate) comes with a null row.
  using RowVisitor =
      std::function<bool(const storage::Rid&, const catalog::Row*)>;
  Status VisitRows(Table* table, const catalog::Schema& schema,
                   const Predicate& bound, bool rids_only,
                   const RowVisitor& fn);

  std::string dir_;
  DatabaseOptions options_;
  Clock* clock_;
  catalog::Catalog catalog_;
  txn::Wal wal_;
  txn::LockManager locks_;
  std::atomic<txn::TxnId> next_txn_id_{1};
  mutable common::OrderedMutex tables_mutex_{
      OPDELTA_LOCK_RANK(engine_tables, common::lockrank::kEngineTables)};
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;

  /// CurrentSchemaMap cache. `schema_cache_version_` bumps on every DDL
  /// (create/drop/alter); the cached map is rebuilt when the version it
  /// was built at no longer matches.
  std::atomic<uint64_t> schema_cache_version_{1};
  mutable common::OrderedMutex schema_cache_mutex_{OPDELTA_LOCK_RANK(
      engine_schema_cache, common::lockrank::kEngineSchemaCache)};
  std::shared_ptr<const catalog::SchemaMap> schema_cache_;
  uint64_t schema_cache_built_at_ = 0;

  /// Slots freed by in-flight transactions (see QuarantineFreedSlot). The
  /// mutex ranks just above the table latch: the filter runs inside heap
  /// placement, which holds the latch.
  mutable common::OrderedMutex freed_slots_mutex_{
      OPDELTA_LOCK_RANK(freed_slots, common::lockrank::kFreedSlots)};
  std::unordered_map<catalog::TableId, std::set<storage::Rid>> freed_slots_;
  std::unordered_map<txn::TxnId,
                     std::vector<std::pair<catalog::TableId, storage::Rid>>>
      freed_by_txn_;
};

}  // namespace opdelta::engine

#endif  // OPDELTA_ENGINE_DATABASE_H_
