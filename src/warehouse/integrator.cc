#include "warehouse/integrator.h"

#include <functional>

#include "sql/parser.h"

namespace opdelta::warehouse {

using extract::DeltaOp;
using extract::DeltaRecord;
using sql::DeleteStmt;
using sql::InsertStmt;
using sql::Statement;

namespace {

/// The frame every value-delta apply shares: one indivisible warehouse
/// transaction under a table-X lock (the outage). Admits `id` through
/// `ledger` first (a redelivery is dropped whole), rejects a batch captured
/// with another column count, then runs `write` inside the transaction and
/// advances the ledger in it before committing; any error aborts. `write`
/// gets the warehouse table's schema and counts its statements and rows.
Status ApplyExclusive(
    engine::Database* db, const std::string& table,
    const catalog::Schema& batch_schema, const extract::BatchId& id,
    ApplyLedger* ledger, IntegrationStats* stats,
    const std::function<Status(txn::Transaction*, const catalog::Schema&,
                               IntegrationStats*)>& write) {
  // A value-delta batch is one indivisible warehouse transaction, so its
  // ledger granularity is all-or-nothing (total_txns = 1).
  if (ledger != nullptr && id.valid()) {
    OPDELTA_ASSIGN_OR_RETURN(ApplyLedger::Admission admission,
                             ledger->Admit(id, 1));
    if (admission.decision == ApplyLedger::Decision::kDuplicate) {
      if (stats != nullptr) {
        *stats = IntegrationStats();
        stats->duplicate_batches = 1;
      }
      return Status::OK();
    }
  }
  engine::Table* t = db->GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);
  const catalog::Schema& schema = t->schema();
  if (batch_schema.num_columns() != 0 &&
      batch_schema.num_columns() != schema.num_columns()) {
    // A batch captured under a different column count than the warehouse
    // table now has would integrate garbage positionally. Value-delta
    // streams carry no migration events, so this is a quarantine, not a
    // retry.
    return Status::SchemaMismatch(
        "value-delta batch for table " + table + " was captured with " +
        std::to_string(batch_schema.num_columns()) +
        " columns but the warehouse table has " +
        std::to_string(schema.num_columns()) +
        "; re-snapshot the warehouse");
  }
  if (schema.KeyColumnIndex() < 0) {
    return Status::InvalidArgument("table has no key column");
  }

  IntegrationStats local;
  Stopwatch wall;
  std::unique_ptr<txn::Transaction> txn = db->Begin();
  Stopwatch outage;
  Status st = db->LockTableExclusive(txn.get(), table);
  if (st.ok()) st = write(txn.get(), schema, &local);
  // Record apply progress inside the same transaction: the watermark and
  // the delta rows commit or roll back together under the WAL.
  if (st.ok() && ledger != nullptr && id.valid()) {
    st = ledger->Advance(txn.get(), id, /*txns_applied=*/1);
  }
  if (!st.ok()) {
    (void)db->Abort(txn.get());  // surface the apply/ledger error
    return st;
  }
  Status commit = db->Commit(txn.get());
  if (!commit.ok()) {
    // A failed commit leaves the transaction active; abort it so its locks
    // release and a retry does not deadlock against our own ghost.
    (void)db->Abort(txn.get());
    return commit;
  }
  local.outage_micros = outage.ElapsedMicros();
  local.transactions = 1;
  local.wall_micros = wall.ElapsedMicros();
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace

Status ValueDeltaIntegrator::Apply(const extract::DeltaBatch& batch,
                                   const extract::BatchId& id,
                                   ApplyLedger* ledger,
                                   IntegrationStats* stats) {
  return ApplyExclusive(
      db_, table_, batch.schema, id, ledger, stats,
      [&](txn::Transaction* txn, const catalog::Schema& schema,
          IntegrationStats* local) -> Status {
        const int key_col = schema.KeyColumnIndex();
        const std::string& key_name = schema.column(key_col).name;
        // Each record becomes single SQL statements, executed directly as
        // typed rows: the executor coerces literals to column types either
        // way, so round-tripping each row through ToSql() and the parser
        // would buy nothing but a lex/parse per row on the hot path.
        auto execute = [&](const Statement& stmt) -> Status {
          OPDELTA_ASSIGN_OR_RETURN(size_t rows, executor_.Execute(txn, stmt));
          local->statements_executed++;
          local->rows_affected += rows;
          return Status::OK();
        };
        auto delete_by_key = [&](const catalog::Row& image) {
          DeleteStmt d;
          d.table = table_;
          d.where = engine::Predicate::Where(key_name, engine::CompareOp::kEq,
                                             image[key_col]);
          return execute(Statement(std::move(d)));
        };
        auto insert_image = [&](const catalog::Row& image) {
          InsertStmt i;
          i.table = table_;
          i.rows.push_back(image);
          return execute(Statement(std::move(i)));
        };
        for (const DeltaRecord& r : batch.records) {
          switch (r.op) {
            case DeltaOp::kInsert:
            case DeltaOp::kUpdateAfter:
              OPDELTA_RETURN_IF_ERROR(insert_image(r.image));
              break;
            case DeltaOp::kDelete:
            case DeltaOp::kUpdateBefore:
              OPDELTA_RETURN_IF_ERROR(delete_by_key(r.image));
              break;
            case DeltaOp::kUpsert:
              OPDELTA_RETURN_IF_ERROR(delete_by_key(r.image));
              OPDELTA_RETURN_IF_ERROR(insert_image(r.image));
              break;
          }
        }
        return Status::OK();
      });
}

Status OpDeltaIntegrator::ApplySchemaEvent(const extract::SchemaEvent& ev,
                                           IntegrationStats* stats) {
  if (ev.spec.kind == catalog::AlterTableSpec::Kind::kAlterType) {
    // A type change rewrites the meaning of every existing cell; applying
    // it online under concurrent reads cannot be made safe, and coercing
    // silently is exactly the corruption this path exists to prevent.
    return Status::SchemaMismatch(
        "incompatible schema change for table " + ev.table + " (" +
        ev.ddl_sql + "): column type changes cannot be applied online; "
        "resync the warehouse from a fresh snapshot");
  }
  engine::Table* t = db_->GetTable(ev.table);
  if (t == nullptr) return Status::NotFound("table " + ev.table);
  const catalog::Schema warehouse_schema = t->schema();
  if (warehouse_schema == ev.new_schema) {
    // Redelivery after a crash between the migration and its ledger
    // advance: the warehouse is already at the new schema.
    return Status::OK();
  }
  if (!(warehouse_schema == ev.old_schema)) {
    return Status::SchemaMismatch(
        "warehouse schema for table " + ev.table + " (" +
        warehouse_schema.ToString() + ") matches neither side of captured "
        "DDL \"" + ev.ddl_sql + "\"; the warehouse has drifted from the "
        "source stream");
  }
  OPDELTA_RETURN_IF_ERROR(db_->AlterTable(ev.table, ev.spec));
  if (stats != nullptr) stats->schema_migrations++;
  return Status::OK();
}

Status OpDeltaIntegrator::ApplyTxn(const extract::OpDeltaTxn& source_txn,
                                   const extract::BatchId& id,
                                   ApplyLedger* ledger, uint64_t txns_after,
                                   IntegrationStats* stats) {
  const bool ledgered = ledger != nullptr && id.valid();
  bool has_event = false;
  for (const extract::OpDeltaRecord& op : source_txn.ops) {
    has_event = has_event || op.is_schema_event();
  }
  std::unique_ptr<txn::Transaction> txn;
  if (has_event) {
    // The source capture writes each DDL change in a transaction of its
    // own; anything else is a corrupt stream.
    if (source_txn.ops.size() != 1) {
      return Status::Corruption(
          "captured schema event shares a transaction with other ops");
    }
    // The migration runs its own engine transaction under the table-X
    // lock, so it cannot ride the ledger's: migrate first, then advance.
    // The migration is idempotent, which makes the split crash-safe: a
    // redelivery finds the warehouse at the new schema and only advances.
    OPDELTA_RETURN_IF_ERROR(
        ApplySchemaEvent(*source_txn.ops[0].schema_event, stats));
    if (ledgered) txn = db_->Begin();
  } else {
    // Parsed now, not up front: an earlier schema event of the batch has
    // committed, so the statements bind against the migrated warehouse.
    const uint64_t epoch = db_->ddl_epoch();
    txn = db_->Begin();
    sql::Executor executor(db_);
    for (const extract::OpDeltaRecord& op : source_txn.ops) {
      // Op-Delta's hot path: the same few statement shapes repeat with
      // different literals, so the cache (when wired) turns this parse
      // into a skeleton rebind. Epoch keying makes DDL invalidation
      // automatic.
      Result<Statement> parsed = cache_ != nullptr
                                     ? cache_->Parse(op.sql, epoch)
                                     : sql::Parser::Parse(op.sql);
      Status st = parsed.status();
      if (st.ok()) {
        Result<size_t> r = executor.Execute(txn.get(), parsed.value());
        st = r.status();
        if (st.ok()) {
          stats->statements_executed++;
          stats->rows_affected += r.value();
        }
      }
      if (!st.ok()) {
        (void)db_->Abort(txn.get());
        return st;
      }
    }
  }
  if (txn != nullptr) {
    // Watermark and statements commit atomically: a crash mid-transaction
    // rolls both back, and redelivery resumes exactly at this transaction.
    Status st = ledgered ? ledger->Advance(txn.get(), id, txns_after)
                         : Status::OK();
    if (st.ok()) st = db_->Commit(txn.get());
    if (!st.ok()) {
      // A failed commit leaves the transaction active: abort to unlock.
      (void)db_->Abort(txn.get());
      return st;
    }
  }
  stats->transactions++;
  return Status::OK();
}

Status OpDeltaIntegrator::Apply(const std::vector<extract::OpDeltaTxn>& txns,
                                const extract::BatchId& id,
                                ApplyLedger* ledger,
                                IntegrationStats* stats) {
  IntegrationStats local;
  Stopwatch wall;
  uint64_t skip = 0;
  if (ledger != nullptr && id.valid()) {
    OPDELTA_ASSIGN_OR_RETURN(ApplyLedger::Admission admission,
                             ledger->Admit(id, txns.size()));
    if (admission.decision == ApplyLedger::Decision::kDuplicate) {
      local.duplicate_batches = 1;
      local.wall_micros = wall.ElapsedMicros();
      if (stats != nullptr) *stats = local;
      return Status::OK();
    }
    if (admission.decision == ApplyLedger::Decision::kResume) {
      skip = admission.skip_txns;
      local.duplicate_txns = skip;
    }
  }
  for (size_t i = skip; i < txns.size(); ++i) {
    OPDELTA_RETURN_IF_ERROR(ApplyTxn(txns[i], id, ledger,
                                     /*txns_after=*/i + 1, &local));
  }
  local.wall_micros = wall.ElapsedMicros();
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status ApplyNetChanges(engine::Database* warehouse, const std::string& table,
                       const extract::DeltaBatch& batch,
                       IntegrationStats* stats) {
  return ApplyNetChanges(warehouse, table, batch, extract::BatchId(), nullptr,
                         stats);
}

Status ApplyNetChanges(engine::Database* warehouse, const std::string& table,
                       const extract::DeltaBatch& batch,
                       const extract::BatchId& id, ApplyLedger* ledger,
                       IntegrationStats* stats) {
  extract::NetChanges net;
  OPDELTA_RETURN_IF_ERROR(ComputeNetChanges(batch, &net));
  return ApplyExclusive(
      warehouse, table, batch.schema, id, ledger, stats,
      [&](txn::Transaction* txn, const catalog::Schema& schema,
          IntegrationStats* local) -> Status {
        const std::string& key_name =
            schema.column(schema.KeyColumnIndex()).name;
        // One keyed write per net change, in key order: a surviving key is
        // replaced in place (or inserted), a deleted one removed.
        for (auto& [key, state] : net) {
          size_t rows = 1;
          if (state.has_value()) {
            OPDELTA_RETURN_IF_ERROR(
                warehouse->UpsertByKey(txn, table, std::move(*state)).status());
          } else {
            OPDELTA_ASSIGN_OR_RETURN(
                rows, warehouse->DeleteWhere(
                          txn, table,
                          engine::Predicate::Where(
                              key_name, engine::CompareOp::kEq, key)));
          }
          local->statements_executed++;
          local->rows_affected += rows;
        }
        return Status::OK();
      });
}

}  // namespace opdelta::warehouse
