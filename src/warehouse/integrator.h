#ifndef OPDELTA_WAREHOUSE_INTEGRATOR_H_
#define OPDELTA_WAREHOUSE_INTEGRATOR_H_

#include <functional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "extract/delta.h"
#include "extract/op_delta.h"
#include "sql/executor.h"
#include "sql/statement_cache.h"
#include "warehouse/apply_ledger.h"

namespace opdelta::warehouse {

/// Outcome metrics shared by both integrators: the bench harness compares
/// maintenance windows and statement counts.
struct IntegrationStats {
  uint64_t statements_executed = 0;
  uint64_t rows_affected = 0;
  uint64_t transactions = 0;
  Micros wall_micros = 0;
  /// Time the warehouse table was held under an exclusive lock.
  Micros outage_micros = 0;

  // Exactly-once accounting (ledger-aware apply paths only).
  uint64_t duplicate_batches = 0;  // redelivered batches dropped whole
  uint64_t duplicate_txns = 0;     // already-applied prefix skipped on resume

  // Parallel-apply accounting: footprinted transactions that committed on
  // the op-delta apply pool (0 for inline apply; barriers never count).
  uint64_t txns_parallel = 0;

  // Schema evolution accounting.
  uint64_t schema_migrations = 0;  // warehouse ALTERs applied from events
  uint64_t schema_epoch = 0;       // highest frame schema epoch applied
};

/// Value-delta integration (the incumbent the paper measures against).
/// "Since the transaction context of value delta is lost, each original
/// transaction will be captured by one or more value delta records and
/// each of which will be translated into a single SQL statement" and the
/// whole batch "applied as an indivisible batch" — under a table-X lock,
/// which is the warehouse outage.
///
/// Translation rules (paper §4.1):
///   insert record                -> 1 INSERT statement
///   delete record (before img)   -> 1 DELETE-by-key statement
///   update record pair           -> 1 DELETE-by-key (before image)
///                                 + 1 INSERT (after image)
///   upsert record                -> DELETE-by-key + INSERT
class ValueDeltaIntegrator {
 public:
  ValueDeltaIntegrator(engine::Database* warehouse, std::string table)
      : db_(warehouse), table_(std::move(table)), executor_(warehouse) {}

  /// Applies the whole batch as one exclusive-locked transaction.
  Status Apply(const extract::DeltaBatch& batch, IntegrationStats* stats) {
    return Apply(batch, extract::BatchId(), nullptr, stats);
  }

  /// Exactly-once form: consults `ledger` (may be nullptr) before applying
  /// and records the applied watermark for `id` inside the same warehouse
  /// transaction as the delta statements. A redelivered batch is dropped
  /// (stats->duplicate_batches) without touching the warehouse table.
  Status Apply(const extract::DeltaBatch& batch, const extract::BatchId& id,
               ApplyLedger* ledger, IntegrationStats* stats);

 private:
  engine::Database* db_;
  std::string table_;
  sql::Executor executor_;
};

/// Op-Delta integration: "each Op-Delta can be applied as a self-contained
/// transaction to the data warehouse concurrently with the data warehouse
/// queries" — per-source-transaction warehouse transactions under IX + row
/// locks, no table-X outage.
///
/// Every transaction of a batch takes one route: execute its statements,
/// ApplyLedger::Advance, commit — inline on the calling thread when there
/// is no pool or max_inflight <= 1, otherwise on the pool, where
/// transactions with disjoint key footprints (warehouse/apply_scheduler.h)
/// execute concurrently. Commits land in source order either way (each
/// pool worker executes eagerly, then waits for its commit ticket), so the
/// ledger watermark always covers a contiguous applied prefix: duplicate
/// drop, crash-resume and the committed prefix on failure are the same at
/// any width.
///
/// A transaction without a footprint — a schema event, a statement on an
/// unknown or trigger-bearing table, a statement that does not parse — is
/// a full barrier: it starts once every earlier transaction has committed
/// and nothing later starts before it commits. The statements after a
/// schema event are planned only once its migration has committed, since
/// DDL changes the shapes and keys they plan against.
///
/// Pool scheduling is deadlock-free by construction: dispatch is strictly
/// ascending in batch order and the pool starts tasks FIFO, so a ticket
/// wait is always on a task already running or finished, even when several
/// batches share one pool. The pool must outlive every Apply in flight.
class OpDeltaIntegrator {
 public:
  struct Options {
    /// Worker pool for concurrent apply; nullptr = every transaction
    /// applies inline.
    ThreadPool* pool = nullptr;
    /// Transactions of one batch in flight at once; <= 1 = inline.
    size_t max_inflight = 1;
    /// Prepared-statement cache (caller-owned, may be shared across
    /// integrators): parsed skeletons keyed by shape and the warehouse
    /// ddl_epoch, so steady-state replay skips the parser. nullptr = parse
    /// every statement.
    sql::StatementCache* cache = nullptr;
  };

  explicit OpDeltaIntegrator(engine::Database* warehouse)
      : OpDeltaIntegrator(warehouse, Options()) {}
  OpDeltaIntegrator(engine::Database* warehouse, Options options)
      : db_(warehouse), options_(options) {}

  /// Applies each captured source transaction as its own warehouse
  /// transaction, preserving source boundaries and order.
  Status Apply(const std::vector<extract::OpDeltaTxn>& txns,
               IntegrationStats* stats) {
    return Apply(txns, extract::BatchId(), nullptr, stats);
  }

  /// Exactly-once form: each per-source-txn warehouse transaction also
  /// advances `id`'s watermark in `ledger` (may be nullptr), so a batch
  /// interrupted mid-way resumes from the first unapplied transaction on
  /// redelivery — already-applied prefixes are skipped
  /// (stats->duplicate_txns), fully-applied batches dropped whole
  /// (stats->duplicate_batches). On failure the transactions before the
  /// first failing one stay committed and the error is that one's.
  Status Apply(const std::vector<extract::OpDeltaTxn>& txns,
               const extract::BatchId& id, ApplyLedger* ledger,
               IntegrationStats* stats);

 private:
  struct TxnPlan;
  struct Run;

  /// Plans txns[begin..) through the first schema event (inclusive), or to
  /// the end; returns the index after the last planned transaction.
  /// Footprints and barriers are computed only for pool runs.
  size_t PlanSegment(const std::vector<extract::OpDeltaTxn>& txns,
                     size_t begin, bool footprints,
                     std::vector<TxnPlan>* plans);

  /// Runs a planned segment on the pool; `base` is the batch index of
  /// plans[0]. Returns the first failure, after the in-flight suffix
  /// rolled back.
  Status RunOnPool(const std::vector<TxnPlan>& plans, size_t base,
                   const extract::BatchId& id, ApplyLedger* ledger,
                   IntegrationStats* stats);
  static void DispatchLocked(Run* run);

  /// The one apply routine: executes `plan`, waits for `await_turn` (every
  /// earlier transaction resolved; false = one of them failed, so this one
  /// rolls back with Aborted), then advances the ledger to `txns_after`
  /// and commits. Accumulates into *stats only on commit.
  Status ApplyTxn(const TxnPlan& plan, const extract::BatchId& id,
                  ApplyLedger* ledger, uint64_t txns_after,
                  const std::function<bool()>& await_turn,
                  IntegrationStats* stats);

  /// Migrates the warehouse for one captured DDL event. Idempotent: a
  /// warehouse already at the event's new schema is a redelivery no-op.
  /// A warehouse matching neither side of the event has drifted, and an
  /// online type change is not applicable at all — both fail with
  /// kSchemaMismatch (the hub's quarantine trigger), naming the reason.
  Status ApplySchemaEvent(const extract::SchemaEvent& event,
                          IntegrationStats* stats);

  engine::Database* db_;
  Options options_;
};

/// Kept only because cdcbench/cdcbench.cc compiles against this name.
using ParallelApplyScheduler = OpDeltaIntegrator;

/// Applies the *net* changes of a batch keyed by the table's key column —
/// the integration style for extraction methods that only observe final
/// states (timestamp, differential snapshot, reconciled replicas). Each
/// surviving key becomes an upsert (delete-by-key + insert) or a
/// delete-by-key, applied as one exclusive-locked batch.
Status ApplyNetChanges(engine::Database* warehouse, const std::string& table,
                       const extract::DeltaBatch& batch,
                       IntegrationStats* stats);

/// Exactly-once form of ApplyNetChanges (ledger may be nullptr).
Status ApplyNetChanges(engine::Database* warehouse, const std::string& table,
                       const extract::DeltaBatch& batch,
                       const extract::BatchId& id, ApplyLedger* ledger,
                       IntegrationStats* stats);

}  // namespace opdelta::warehouse

#endif  // OPDELTA_WAREHOUSE_INTEGRATOR_H_
