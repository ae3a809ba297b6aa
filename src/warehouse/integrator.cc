#include "warehouse/integrator.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "common/sync.h"
#include "sql/parser.h"
#include "warehouse/apply_scheduler.h"

namespace opdelta::warehouse {

using extract::DeltaOp;
using extract::DeltaRecord;
using sql::DeleteStmt;
using sql::InsertStmt;
using sql::Statement;

Status ValueDeltaIntegrator::Apply(const extract::DeltaBatch& batch,
                                   const extract::BatchId& id,
                                   ApplyLedger* ledger,
                                   IntegrationStats* stats) {
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
  engine::Table* t = db_->GetTable(table_);
  if (t == nullptr) return Status::NotFound("table " + table_);
  if (batch.schema.num_columns() != 0 &&
      batch.schema.num_columns() != t->schema().num_columns()) {
    // A batch captured under a different column count than the warehouse
    // table now has would integrate garbage positionally. Value-delta
    // streams carry no migration events, so this is a quarantine, not a
    // retry.
    return Status::SchemaMismatch(
        "value-delta batch for table " + table_ + " was captured with " +
        std::to_string(batch.schema.num_columns()) +
        " columns but the warehouse table has " +
        std::to_string(t->schema().num_columns()) +
        "; re-snapshot the warehouse");
  }
  const int key_col = t->schema().KeyColumnIndex();
  if (key_col < 0) return Status::InvalidArgument("table has no key column");
  const std::string& key_name = t->schema().column(key_col).name;

  IntegrationStats local;
  Stopwatch wall;

  auto delete_by_key = [&](const catalog::Row& image) {
    DeleteStmt d;
    d.table = table_;
    d.where = engine::Predicate::Where(key_name, engine::CompareOp::kEq,
                                       image[key_col]);
    return Statement(std::move(d));
  };
  auto insert_image = [&](const catalog::Row& image) {
    InsertStmt i;
    i.table = table_;
    i.rows.push_back(image);
    return Statement(std::move(i));
  };

  // Translate every record into single SQL statements up front.
  std::vector<Statement> stmts;
  stmts.reserve(batch.records.size() * 2);
  for (const DeltaRecord& r : batch.records) {
    switch (r.op) {
      case DeltaOp::kInsert:
        stmts.push_back(insert_image(r.image));
        break;
      case DeltaOp::kDelete:
        stmts.push_back(delete_by_key(r.image));
        break;
      case DeltaOp::kUpdateBefore:
        stmts.push_back(delete_by_key(r.image));
        break;
      case DeltaOp::kUpdateAfter:
        stmts.push_back(insert_image(r.image));
        break;
      case DeltaOp::kUpsert:
        stmts.push_back(delete_by_key(r.image));
        stmts.push_back(insert_image(r.image));
        break;
    }
  }

  // The indivisible batch: one transaction, table-X lock (the outage).
  // The translated statements are executed directly as typed net-change
  // rows — the executor coerces literals to column types either way, so
  // round-tripping each row through ToSql() and the parser would buy
  // nothing but a lex/parse per row on the hot path.
  std::unique_ptr<txn::Transaction> txn = db_->Begin();
  Stopwatch outage;
  Status st = db_->LockTableExclusive(txn.get(), table_);
  for (const Statement& stmt : stmts) {
    if (!st.ok()) break;
    Result<size_t> r = executor_.Execute(txn.get(), stmt);
    st = r.status();
    if (st.ok()) {
      local.statements_executed++;
      local.rows_affected += r.value();
    }
  }
  // Record apply progress inside the same transaction: the watermark and
  // the delta statements commit or roll back together under the WAL.
  if (st.ok() && ledger != nullptr && id.valid()) {
    st = ledger->Advance(txn.get(), id, /*txns_applied=*/1);
  }
  if (!st.ok()) {
    (void)db_->Abort(txn.get());  // surface the apply/ledger error
    return st;
  }
  Status commit = db_->Commit(txn.get());
  if (!commit.ok()) {
    // A failed commit leaves the transaction active; abort it so its locks
    // release and a retry does not deadlock against our own ghost.
    (void)db_->Abort(txn.get());
    return commit;
  }
  local.outage_micros = outage.ElapsedMicros();
  local.transactions = 1;
  local.wall_micros = wall.ElapsedMicros();
  if (stats != nullptr) *stats = local;
  return Status::OK();
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

/// One source transaction, planned once before it runs.
struct OpDeltaIntegrator::TxnPlan {
  std::vector<Statement> stmts;  // parsed, in source order
  Status parse_error;  // the statement after `stmts` failed to parse
  const extract::SchemaEvent* event = nullptr;  // a captured DDL txn
  bool footprinted = false;  // false: a full barrier (runs alone)
  int64_t barrier = -1;      // plans up to this index commit first
};

/// Shared state of one segment's pool run. Lives on RunOnPool's stack,
/// which returns only after every dispatched task has run its completion
/// section, so no task outlives the Run it points into.
struct OpDeltaIntegrator::Run {
  OpDeltaIntegrator* self = nullptr;
  const std::vector<TxnPlan>* plans = nullptr;
  size_t base = 0;  // batch index of plans[0]
  const extract::BatchId* id = nullptr;
  ApplyLedger* ledger = nullptr;

  // Never held across an engine call: workers execute, advance the ledger
  // and commit with it released.
  common::OrderedMutex mutex{OPDELTA_LOCK_RANK(
      apply_scheduler, common::lockrank::kApplyScheduler)};
  std::condition_variable_any cv;  // _any: waits on an OrderedMutex
  size_t next_dispatch = 0;  // plans [0, next_dispatch) are submitted
  size_t next_commit = 0;    // plans [0, next_commit) have resolved
  size_t inflight = 0;
  Status failure;  // the first failure in commit order, which is the
                   // failure of the earliest failing transaction
  IntegrationStats committed;
};

size_t OpDeltaIntegrator::PlanSegment(
    const std::vector<extract::OpDeltaTxn>& txns, size_t begin,
    bool footprints, std::vector<TxnPlan>* plans) {
  const uint64_t epoch = db_->ddl_epoch();
  plans->clear();
  std::vector<TxnFootprint> claims;
  size_t i = begin;
  while (i < txns.size()) {
    const extract::OpDeltaTxn& txn = txns[i++];
    TxnPlan plan;
    TxnFootprint claim;
    bool has_event = false;
    for (const extract::OpDeltaRecord& op : txn.ops) {
      has_event = has_event || op.is_schema_event();
    }
    if (has_event) {
      // The source capture writes each DDL change in a transaction of its
      // own; anything else is a corrupt stream.
      if (txn.ops.size() == 1) {
        plan.event = txn.ops[0].schema_event.get();
      } else {
        plan.parse_error = Status::Corruption(
            "captured schema event shares a transaction with other ops");
      }
    } else {
      plan.footprinted = footprints;
      for (const extract::OpDeltaRecord& op : txn.ops) {
        // Op-Delta's hot path: the same few statement shapes repeat with
        // different literals, so the cache (when wired) turns this parse
        // into a skeleton rebind. Epoch keying makes DDL invalidation
        // automatic.
        Result<Statement> parsed =
            options_.cache != nullptr ? options_.cache->Parse(op.sql, epoch)
                                      : sql::Parser::Parse(op.sql);
        if (!parsed.ok()) {
          plan.parse_error = parsed.status();
          plan.footprinted = false;
          break;
        }
        if (plan.footprinted &&
            !StatementFootprint(db_, parsed.value(), &claim)) {
          plan.footprinted = false;
        }
        plan.stmts.push_back(std::move(parsed.value()));
      }
    }
    plans->push_back(std::move(plan));
    claims.push_back(std::move(claim));
    if (plans->back().event != nullptr) break;
  }
  if (footprints) {
    const std::vector<int64_t> barriers = ComputeConflictBarriers(claims);
    int64_t last_full = -1;
    for (size_t p = 0; p < plans->size(); ++p) {
      TxnPlan& plan = (*plans)[p];
      if (plan.footprinted) {
        plan.barrier = std::max(barriers[p], last_full);
      } else {
        plan.barrier = static_cast<int64_t>(p) - 1;
        last_full = static_cast<int64_t>(p);
      }
    }
  }
  return i;
}

Status OpDeltaIntegrator::ApplyTxn(const TxnPlan& plan,
                                   const extract::BatchId& id,
                                   ApplyLedger* ledger, uint64_t txns_after,
                                   const std::function<bool()>& await_turn,
                                   IntegrationStats* stats) {
  const bool ledgered = ledger != nullptr && id.valid();
  IntegrationStats local;
  std::unique_ptr<txn::Transaction> txn;
  Status st;
  if (plan.event != nullptr) {
    // The migration runs its own engine transaction under the table-X
    // lock, so it cannot ride the ledger's: migrate first, then advance.
    // The migration is idempotent, which makes the split crash-safe: a
    // redelivery finds the warehouse at the new schema and only advances.
    st = ApplySchemaEvent(*plan.event, &local);
    if (st.ok() && ledgered) txn = db_->Begin();
  } else {
    // Footprint disjointness means no other in-flight transaction wants
    // these row locks, so holding them across the turn wait blocks no one
    // who still has work to do.
    txn = db_->Begin();
    sql::Executor executor(db_);
    for (const Statement& stmt : plan.stmts) {
      Result<size_t> r = executor.Execute(txn.get(), stmt);
      st = r.status();
      if (!st.ok()) break;
      local.statements_executed++;
      local.rows_affected += r.value();
    }
    if (st.ok()) st = plan.parse_error;
    if (!st.ok()) {
      (void)db_->Abort(txn.get());  // release locks before the turn
      txn.reset();
    }
  }
  if (!await_turn()) {
    // An earlier transaction failed: committing past it would break the
    // contiguous-prefix contract.
    if (txn != nullptr) (void)db_->Abort(txn.get());
    return Status::Aborted("an earlier transaction of the batch failed");
  }
  if (!st.ok()) return st;
  if (txn != nullptr) {
    // Watermark and statements commit atomically: a crash mid-transaction
    // rolls both back, and redelivery resumes exactly at this transaction.
    if (ledgered) st = ledger->Advance(txn.get(), id, txns_after);
    if (st.ok()) st = db_->Commit(txn.get());
    if (!st.ok()) {
      // A failed commit leaves the transaction active: abort to unlock.
      (void)db_->Abort(txn.get());
      return st;
    }
  }
  stats->statements_executed += local.statements_executed;
  stats->rows_affected += local.rows_affected;
  stats->schema_migrations += local.schema_migrations;
  stats->transactions++;
  return Status::OK();
}

void OpDeltaIntegrator::DispatchLocked(Run* run) {
  // Strictly ascending: plan j is never submitted before plan j-1. With
  // the pool's FIFO start order the commit-cursor owner is always already
  // running (or done). After a failure nothing new starts; the in-flight
  // suffix drains through its tickets and rolls back.
  const std::vector<TxnPlan>& plans = *run->plans;
  while (run->failure.ok() && run->next_dispatch < plans.size() &&
         run->inflight < run->self->options_.max_inflight &&
         plans[run->next_dispatch].barrier <
             static_cast<int64_t>(run->next_commit)) {
    const size_t index = run->next_dispatch++;
    ++run->inflight;
    run->self->options_.pool->Submit([run, index] {
      const TxnPlan& plan = (*run->plans)[index];
      IntegrationStats local;
      Status st = run->self->ApplyTxn(
          plan, *run->id, run->ledger, run->base + index + 1,
          [run, index] {
            std::unique_lock<common::OrderedMutex> lock(run->mutex);
            run->cv.wait(lock,
                         [run, index] { return run->next_commit == index; });
            return run->failure.ok();
          },
          &local);
      std::lock_guard<common::OrderedMutex> lock(run->mutex);
      if (st.ok()) {
        run->committed.statements_executed += local.statements_executed;
        run->committed.rows_affected += local.rows_affected;
        run->committed.schema_migrations += local.schema_migrations;
        run->committed.transactions += local.transactions;
        if (plan.footprinted) run->committed.txns_parallel++;
      } else if (run->failure.ok()) {
        run->failure = std::move(st);
      }
      run->next_commit = index + 1;
      --run->inflight;
      DispatchLocked(run);
      // Notify under the lock: Run lives on RunOnPool's stack, and a wait
      // that returned between an unlocked update and its notify could
      // destroy the cv under us.
      run->cv.notify_all();
    });
  }
}

Status OpDeltaIntegrator::RunOnPool(const std::vector<TxnPlan>& plans,
                                    size_t base, const extract::BatchId& id,
                                    ApplyLedger* ledger,
                                    IntegrationStats* stats) {
  Run run;
  run.self = this;
  run.plans = &plans;
  run.base = base;
  run.id = &id;
  run.ledger = ledger;
  std::unique_lock<common::OrderedMutex> lock(run.mutex);
  DispatchLocked(&run);
  run.cv.wait(lock, [&run, &plans] {
    return run.inflight == 0 &&
           (!run.failure.ok() || run.next_dispatch == plans.size());
  });
  if (!run.failure.ok()) return run.failure;
  stats->statements_executed += run.committed.statements_executed;
  stats->rows_affected += run.committed.rows_affected;
  stats->schema_migrations += run.committed.schema_migrations;
  stats->transactions += run.committed.transactions;
  stats->txns_parallel += run.committed.txns_parallel;
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
  // A lone transaction gains nothing from a hop onto the pool.
  const bool on_pool = options_.pool != nullptr &&
                       options_.max_inflight > 1 && txns.size() - skip >= 2;
  std::vector<TxnPlan> plans;
  for (size_t begin = skip; begin < txns.size();) {
    // Each segment ends at a schema event, so the next one plans against
    // the migrated warehouse.
    const size_t end = PlanSegment(txns, begin, on_pool, &plans);
    if (on_pool) {
      OPDELTA_RETURN_IF_ERROR(RunOnPool(plans, begin, id, ledger, &local));
    } else {
      for (size_t p = 0; p < plans.size(); ++p) {
        OPDELTA_RETURN_IF_ERROR(ApplyTxn(plans[p], id, ledger,
                                         /*txns_after=*/begin + p + 1,
                                         [] { return true; }, &local));
      }
    }
    begin = end;
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
  extract::DeltaBatch translated;
  translated.table = table;
  translated.schema = batch.schema;
  uint64_t seq = 0;
  for (const auto& [key, state] : net) {
    if (state.has_value()) {
      translated.records.push_back(
          extract::DeltaRecord{DeltaOp::kUpsert, 0, seq++, *state});
    } else {
      catalog::Row img(batch.schema.num_columns());
      img[0] = key;
      translated.records.push_back(
          extract::DeltaRecord{DeltaOp::kDelete, 0, seq++, std::move(img)});
    }
  }
  ValueDeltaIntegrator integrator(warehouse, table);
  return integrator.Apply(translated, id, ledger, stats);
}

}  // namespace opdelta::warehouse
