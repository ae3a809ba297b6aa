#ifndef OPDELTA_WAREHOUSE_INTEGRATOR_H_
#define OPDELTA_WAREHOUSE_INTEGRATOR_H_

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
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

  /// Always 0: op-delta apply is inline. Kept only because
  /// cdcbench/cdcbench.cc compiles against this name.
  uint64_t txns_parallel = 0;

  // Schema evolution accounting.
  uint64_t schema_migrations = 0;  // warehouse ALTERs applied from events
  uint64_t schema_epoch = 0;       // highest frame schema epoch applied
};

/// Value-delta integration: the paper's per-record incumbent, which the
/// §4.1 window and online-maintenance benches measure Op-Delta against. It
/// is no longer the pipeline's apply path (final-state sources apply
/// through ApplyNetChanges). "Since the transaction context of value delta
/// is lost, each original transaction will be captured by one or more
/// value delta records and each of which will be translated into a single
/// SQL statement" and the whole batch "applied as an indivisible batch" —
/// under a table-X lock, which is the warehouse outage.
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
/// Replay runs inline on the calling thread, one source transaction at a
/// time, in source commit order: parse each statement (through the
/// statement cache when one is wired) and execute it, then
/// ApplyLedger::Advance and commit in the same warehouse transaction. The
/// ledger watermark therefore always covers a contiguous applied prefix.
/// A captured schema event migrates the warehouse first and then advances
/// the ledger; the statements after it are parsed only once the migration
/// has committed, against the new schema and ddl_epoch.
class OpDeltaIntegrator {
 public:
  /// `cache` (caller-owned, may be shared across integrators) holds parsed
  /// skeletons keyed by shape and the warehouse ddl_epoch, so steady-state
  /// replay skips the parser. nullptr = parse every statement.
  explicit OpDeltaIntegrator(engine::Database* warehouse,
                             sql::StatementCache* cache = nullptr)
      : db_(warehouse), cache_(cache) {}

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
  /// Applies one source transaction and advances the ledger to
  /// `txns_after` inside it. Accumulates into *stats, which Apply discards
  /// on failure.
  Status ApplyTxn(const extract::OpDeltaTxn& source_txn,
                  const extract::BatchId& id, ApplyLedger* ledger,
                  uint64_t txns_after, IntegrationStats* stats);

  /// Migrates the warehouse for one captured DDL event. Idempotent: a
  /// warehouse already at the event's new schema is a redelivery no-op.
  /// A warehouse matching neither side of the event has drifted, and an
  /// online type change is not applicable at all — both fail with
  /// kSchemaMismatch (the hub's quarantine trigger), naming the reason.
  Status ApplySchemaEvent(const extract::SchemaEvent& event,
                          IntegrationStats* stats);

  engine::Database* db_;
  sql::StatementCache* cache_;
};

/// Applies the *net* changes of a batch keyed by the table's key column —
/// the integration style for extraction methods that only observe final
/// states (timestamp, log, trigger, reconciled replicas, backfill and scrub
/// chunks). In key order, each surviving key is one keyed write
/// (engine::Database::UpsertByKey: the row is replaced in place, or
/// inserted when the key is absent) and each deleted key one
/// DELETE-by-key, all in one transaction under a table-X lock with the
/// ledger advance. stats->statements_executed counts the keyed writes.
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
