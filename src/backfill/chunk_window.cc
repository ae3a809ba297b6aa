#include "backfill/chunk_window.h"

#include <map>
#include <set>
#include <utility>

#include "sql/parser.h"

namespace opdelta::backfill {

using catalog::Value;
using catalog::ValueType;

namespace {

/// Bound on drain/repair rounds per window under sustained writes.
constexpr int kMaxWindowDrains = 8;

}  // namespace

constexpr char ChunkWindow::kSignalTable[];

catalog::Schema ChunkWindow::SignalTableSchema() {
  return catalog::Schema({catalog::Column{"sig", ValueType::kInt64},
                          catalog::Column{"kind", ValueType::kString},
                          catalog::Column{"tbl", ValueType::kString}});
}

Status ChunkWindow::EnsureSignalTable(engine::Database* db) {
  if (db->GetTable(kSignalTable) != nullptr) return Status::OK();
  Status st = db->CreateTable(kSignalTable, SignalTableSchema());
  if (st.code() == StatusCode::kAlreadyExists) return Status::OK();
  return st;
}

ChunkWindow::ChunkWindow(pipeline::SourceLeg* leg, Options options)
    : leg_(leg),
      source_(leg->source()),
      options_(std::move(options)),
      table_(leg->options().source_table) {
  engine::Table* table = source_->GetTable(table_);
  schema_ = table->schema();
  key_col_ = schema_.KeyColumnIndex();
}

Status ChunkWindow::WriteSignal(uint64_t id, const std::string& kind) {
  catalog::Row row(3);
  row[0] = Value::Int64(static_cast<int64_t>(id));
  row[1] = Value::String(kind);
  row[2] = Value::String(table_);
  if (leg_->capture() != nullptr) {
    // Op-delta: the signal insert rides the captured stream, so its
    // position in the op log *is* the watermark.
    sql::InsertStmt ins;
    ins.table = kSignalTable;
    ins.rows.push_back(std::move(row));
    return leg_->capture()
        ->RunTransaction({sql::Statement(std::move(ins))})
        .status();
  }
  // Value-delta methods watermark implicitly (anything committed before
  // the window-closing drain is captured); the row is kept for operators
  // debugging a window, not for correctness.
  return source_->WithTransaction([&](txn::Transaction* txn) {
    return source_->InsertRaw(txn, kSignalTable, std::move(row));
  });
}

Status ChunkWindow::Open(uint64_t id) {
  // Re-resolve the table schema per window: source DDL between windows
  // changes row arity, and a chunk selected under a stale schema would
  // ship (backfill) or compare (scrub) the wrong shape.
  engine::Table* table = source_->GetTable(table_);
  if (table == nullptr) return Status::NotFound("table " + table_);
  schema_ = table->schema();
  key_col_ = schema_.KeyColumnIndex();
  return WriteSignal(id, options_.low_kind);
}

Status ChunkWindow::ReadRange(std::optional<int64_t> lo,
                              std::optional<int64_t> hi, uint64_t limit,
                              std::vector<WindowRow>* rows, bool* more) {
  rows->clear();
  *more = false;
  const std::string& key_name =
      schema_.column(static_cast<size_t>(key_col_)).name;

  // Pass 1 — candidates: the `limit`+1 smallest in-range keys, from a
  // latch-only scan (dirty reads possible; resolved in pass 2).
  engine::Predicate pred = engine::Predicate::True();
  if (lo.has_value()) {
    pred = engine::Predicate::Where(key_name, engine::CompareOp::kGt,
                                    Value::Int64(*lo));
    if (hi.has_value()) {
      pred.And(key_name, engine::CompareOp::kLe, Value::Int64(*hi));
    }
  } else if (hi.has_value()) {
    pred = engine::Predicate::Where(key_name, engine::CompareOp::kLe,
                                    Value::Int64(*hi));
  }
  std::map<int64_t, storage::Rid> candidates;
  bool truncated = false;
  const size_t cap =
      limit == 0 ? 0 : static_cast<size_t>(limit) + 1;  // 0 = unbounded
  OPDELTA_RETURN_IF_ERROR(source_->Scan(
      nullptr, table_, pred,
      [&](const storage::Rid& rid, const catalog::Row& row) {
        if (static_cast<size_t>(key_col_) >= row.size() ||
            row[static_cast<size_t>(key_col_)].type() != ValueType::kInt64) {
          return true;  // unkeyable row; outside the chunk protocol
        }
        const int64_t key = row[static_cast<size_t>(key_col_)].AsInt64();
        candidates[key] = rid;
        if (cap != 0 && candidates.size() > cap) {
          candidates.erase(std::prev(candidates.end()));
          truncated = true;
        }
        return true;
      }));
  if (candidates.empty()) return Status::OK();

  // Pass 2 — committed images: one transaction, a row S lock per read.
  // Any mid-chunk error aborts the transaction (releasing every lock
  // taken so far) before surfacing; a dangling un-aborted transaction
  // would pin its row locks until process death.
  std::unique_ptr<txn::Transaction> txn = source_->Begin();
  Status st;
  for (const auto& [key, rid] : candidates) {
    catalog::Row image;
    Status read = source_->ReadAt(txn.get(), table_, rid, &image);
    if (read.IsNotFound()) {
      // The row vanished between the scans (delete, or an update that
      // relocated it). Its committed state is re-resolved by key after
      // the window closes — it may still exist elsewhere, and skipping
      // it here while advancing a cursor past its key would lose it.
      rows->push_back(WindowRow{key, {}, false, true, false});
      continue;
    }
    if (!read.ok()) {
      st = read;
      break;
    }
    if (static_cast<size_t>(key_col_) >= image.size() ||
        image[static_cast<size_t>(key_col_)].type() != ValueType::kInt64 ||
        image[static_cast<size_t>(key_col_)].AsInt64() != key) {
      rows->push_back(WindowRow{key, {}, false, true, false});  // relocated
      continue;
    }
    rows->push_back(WindowRow{key, std::move(image), true, false, false});
  }
  if (st.ok()) st = source_->Commit(txn.get());
  if (!st.ok()) {
    if (txn->active()) (void)source_->Abort(txn.get());
    rows->clear();
    return st;
  }

  if (truncated || (limit != 0 && rows->size() > limit)) *more = true;
  while (limit != 0 && rows->size() > limit) rows->pop_back();
  return Status::OK();
}

Status ChunkWindow::InspectShipped(const std::string& message, uint64_t id,
                                   CloseMode mode, bool collect,
                                   std::optional<int64_t> collect_lo,
                                   std::optional<int64_t> collect_hi,
                                   std::vector<WindowRow>* rows,
                                   bool* saw_low, bool* saw_high,
                                   bool* touched) {
  // Other tables can share this leg's capture wrapper; op-delta payloads
  // decode against the source's all-tables map of their frame's epoch.
  pipeline::ShippedBatch batch;
  OPDELTA_RETURN_IF_ERROR(pipeline::DecodeShipped(
      message,
      [this](uint64_t epoch) { return source_->SchemaMapAt(epoch); },
      &batch));

  std::set<int64_t> have;
  if (collect) {
    for (const WindowRow& r : *rows) have.insert(r.key);
  }
  const auto note_key = [&](int64_t key) {
    // A key our chunk never selected, touched inside the window: append it
    // so the repair read resolves its committed state — without this, a
    // key inserted mid-window could land on a scrub repair's delete list.
    if (!collect || !KeyInRange(key, collect_lo, collect_hi)) return;
    if (!have.insert(key).second) return;
    rows->push_back(WindowRow{key, {}, false, true, false});
  };
  const auto mark_keys = [&](const std::set<int64_t>& keys) {
    for (WindowRow& r : *rows) {
      if (keys.count(r.key) != 0) r.needs_repair = true;
    }
    for (int64_t key : keys) note_key(key);
  };

  if (!batch.op_delta) {
    const extract::DeltaBatch& delta = batch.delta;
    if (delta.table != table_ || delta.records.empty()) return Status::OK();
    if (mode == CloseMode::kDetect) {
      // Value-delta streams carry no watermark markers (windows close on a
      // dry drain), so every drained event is potentially in-window. No
      // per-row marking: detect mode only needs the flag.
      *touched = true;
      return Status::OK();
    }
    std::set<int64_t> keys;
    for (const extract::DeltaRecord& rec : delta.records) {
      if (static_cast<size_t>(key_col_) < rec.image.size() &&
          rec.image[static_cast<size_t>(key_col_)].type() ==
              ValueType::kInt64) {
        keys.insert(rec.image[static_cast<size_t>(key_col_)].AsInt64());
      }
    }
    mark_keys(keys);
    return Status::OK();
  }
  for (const extract::OpDeltaTxn& t : batch.txns) {
    for (const extract::OpDeltaRecord& op : t.ops) {
      if (op.is_schema_event()) {
        // DDL on this table mid-window changes the row shape under the
        // chunk: conservatively report the window touched so detect-mode
        // callers (scrub) go inconclusive-and-retry instead of comparing
        // mixed-epoch images.
        if (op.schema_event->table == table_) *touched = true;
        continue;
      }
      OPDELTA_ASSIGN_OR_RETURN(
          sql::Statement stmt,
          stmt_cache_.Parse(op.sql, batch.id.schema_epoch));
      if (stmt.is_insert()) {
        const sql::InsertStmt& ins = stmt.insert();
        if (ins.table == kSignalTable) {
          for (const catalog::Row& row : ins.rows) {
            if (row.size() >= 3 && row[0].type() == ValueType::kInt64 &&
                static_cast<uint64_t>(row[0].AsInt64()) == id &&
                row[1].type() == ValueType::kString &&
                row[2].type() == ValueType::kString &&
                row[2].AsString() == table_) {
              if (row[1].AsString() == options_.low_kind) *saw_low = true;
              if (row[1].AsString() == options_.high_kind) *saw_high = true;
            }
          }
          continue;
        }
        if (ins.table != table_) continue;
        if (mode == CloseMode::kDetect) {
          // Conservative: any drained event on the table marks the window
          // touched. Op-log position cannot order events against the low
          // marker (log rows are written at statement time, so a long
          // transaction's events can sit *before* the marker yet commit
          // inside the window); assuming otherwise risks a false verdict.
          *touched = true;
          continue;
        }
        std::set<int64_t> keys;
        for (const catalog::Row& row : ins.rows) {
          if (static_cast<size_t>(key_col_) < row.size() &&
              row[static_cast<size_t>(key_col_)].type() ==
                  ValueType::kInt64) {
            keys.insert(row[static_cast<size_t>(key_col_)].AsInt64());
          }
        }
        mark_keys(keys);
        continue;
      }
      if (!stmt.is_update() && !stmt.is_delete()) continue;
      if (stmt.table() != table_) continue;
      if (mode == CloseMode::kDetect) {
        *touched = true;  // conservative, as for inserts above
        continue;
      }
      // The first in-window statement touching a chunk row evaluated its
      // WHERE clause against exactly the state the chunk captured, so
      // matching chunk images catches every first touch; later touches
      // of the same row are then covered by its repair read.
      engine::Predicate pred =
          stmt.is_update() ? stmt.update().where : stmt.delete_stmt().where;
      OPDELTA_RETURN_IF_ERROR(pred.Bind(schema_));
      for (WindowRow& r : *rows) {
        if (r.needs_repair || !r.present) continue;
        if (pred.is_true() || pred.Matches(r.image)) r.needs_repair = true;
      }
      if (stmt.is_update()) {
        // An update can *move* a key into the collect range (SET id = k);
        // the key lands in the range without any chunk image matching the
        // WHERE clause, so collect it from the assignment literal.
        const std::string& key_name =
            schema_.column(static_cast<size_t>(key_col_)).name;
        for (const engine::Assignment& set : stmt.update().sets) {
          if (set.column == key_name &&
              set.value.type() == ValueType::kInt64) {
            note_key(set.value.AsInt64());
          }
        }
      }
    }
  }
  return Status::OK();
}

Status ChunkWindow::ReadCommittedByKey(txn::Transaction* txn, int64_t key,
                                       catalog::Row* row, bool* found) {
  *found = false;
  const std::string& key_name =
      schema_.column(static_cast<size_t>(key_col_)).name;
  // Two attempts: the latch-only rid lookup can race an update relocating
  // the row; the committed read blocks on the writer's lock, and the
  // second lookup then sees the row's post-commit location.
  for (int attempt = 0; attempt < 2 && !*found; ++attempt) {
    std::vector<storage::Rid> rids;
    OPDELTA_RETURN_IF_ERROR(source_->Scan(
        nullptr, table_,
        engine::Predicate::Where(key_name, engine::CompareOp::kEq,
                                 Value::Int64(key)),
        [&](const storage::Rid& rid, const catalog::Row&) {
          rids.push_back(rid);
          return true;
        }));
    for (const storage::Rid& rid : rids) {
      catalog::Row image;
      Status st = source_->ReadAt(txn, table_, rid, &image);
      if (st.IsNotFound()) continue;  // freed slot
      OPDELTA_RETURN_IF_ERROR(st);
      if (static_cast<size_t>(key_col_) < image.size() &&
          image[static_cast<size_t>(key_col_)].type() == ValueType::kInt64 &&
          image[static_cast<size_t>(key_col_)].AsInt64() == key) {
        *row = std::move(image);
        *found = true;
        break;
      }
    }
  }
  return Status::OK();
}

Status ChunkWindow::RepairRows(std::vector<WindowRow>* rows,
                               CloseOutcome* outcome) {
  bool any = false;
  for (const WindowRow& r : *rows) any = any || r.needs_repair;
  if (!any) return Status::OK();

  // One transaction for all repair reads, aborted on any error — the same
  // lock-release discipline as ReadRange's pass 2.
  std::unique_ptr<txn::Transaction> txn = source_->Begin();
  Status st;
  for (WindowRow& r : *rows) {
    if (!r.needs_repair) continue;
    catalog::Row image;
    bool found = false;
    st = ReadCommittedByKey(txn.get(), r.key, &image, &found);
    if (!st.ok()) break;
    r.needs_repair = false;
    r.present = found;
    if (found) r.image = std::move(image);
    if (!r.deduped) {
      r.deduped = true;
      ++outcome->rows_deduped;
    }
  }
  if (st.ok()) st = source_->Commit(txn.get());
  if (!st.ok() && txn->active()) (void)source_->Abort(txn.get());
  return st;
}

Status ChunkWindow::Close(uint64_t id, CloseMode mode, bool collect,
                          std::optional<int64_t> collect_lo,
                          std::optional<int64_t> collect_hi,
                          std::vector<WindowRow>* rows,
                          CloseOutcome* outcome) {
  *outcome = CloseOutcome();
  OPDELTA_RETURN_IF_ERROR(WriteSignal(id, options_.high_kind));

  const bool op_delta = leg_->capture() != nullptr;
  bool saw_low = false;
  bool saw_high = false;
  for (int drain = 0; drain < kMaxWindowDrains; ++drain) {
    bool shipped = false;
    std::string message;
    OPDELTA_RETURN_IF_ERROR(leg_->ExtractAndShip(&shipped, &message));
    if (shipped) {
      OPDELTA_RETURN_IF_ERROR(InspectShipped(message, id, mode, collect,
                                             collect_lo, collect_hi, rows,
                                             &saw_low, &saw_high,
                                             &outcome->touched));
    }
    // Op-delta: the high watermark is itself a committed captured insert,
    // so the window stays open until a drained batch carries it.
    // Value-delta: signals don't ride the stream; the window closes when
    // extraction runs dry.
    const bool closed = op_delta ? saw_high : !shipped;
    if (!closed) {
      if (op_delta && !shipped) {
        // The high signal is durably committed in the op log; an empty
        // drain without it means the capture path dropped it.
        return Status::Internal("watermark window marker never shipped");
      }
      continue;
    }
    bool any_repair = false;
    for (const WindowRow& r : *rows) any_repair = any_repair || r.needs_repair;
    if (mode == CloseMode::kDetect) {
      // Rows that vanished between the read passes without a matching
      // captured event (e.g. an aborted dirty insert) can't be verified
      // from here — report the window touched so the chunk retries.
      if (any_repair) outcome->touched = true;
      return Status::OK();
    }
    if (!any_repair) return Status::OK();
    // The delta wins: re-read the touched rows committed, then drain once
    // more — anything captured while repairing still ships ahead of the
    // chunk, so its effect on chunk keys must be re-read as well.
    OPDELTA_RETURN_IF_ERROR(RepairRows(rows, outcome));
  }
  if (mode == CloseMode::kDetect) {
    // Sustained writes kept the window from ever draining clean.
    outcome->touched = true;
    return Status::OK();
  }
  // Sustained writes touched the chunk through every drain round. Repair
  // once more and ship: events still in flight ship after the chunk, and
  // replaying a literal-assignment statement over the repaired image it
  // already reflects is idempotent.
  return RepairRows(rows, outcome);
}

Status ChunkWindow::CleanupSignals() {
  // Two statements, one per signal kind, so concurrent users of the shared
  // signal table (backfill vs scrub, distinguished by kind) never delete
  // each other's in-flight markers.
  const auto kind_pred = [&](const std::string& kind) {
    return engine::Predicate::Where("tbl", engine::CompareOp::kEq,
                                    Value::String(table_))
        .And("kind", engine::CompareOp::kEq, Value::String(kind));
  };
  if (leg_->capture() != nullptr) {
    // Captured: the deletes replay at the warehouse, cleaning its copy.
    sql::DeleteStmt del_low;
    del_low.table = kSignalTable;
    del_low.where = kind_pred(options_.low_kind);
    sql::DeleteStmt del_high;
    del_high.table = kSignalTable;
    del_high.where = kind_pred(options_.high_kind);
    return leg_->capture()
        ->RunTransaction({sql::Statement(std::move(del_low)),
                          sql::Statement(std::move(del_high))})
        .status();
  }
  return source_->WithTransaction([&](txn::Transaction* txn) {
    OPDELTA_RETURN_IF_ERROR(
        source_
            ->DeleteWhere(txn, kSignalTable,
                          kind_pred(options_.low_kind))
            .status());
    return source_
        ->DeleteWhere(txn, kSignalTable,
                      kind_pred(options_.high_kind))
        .status();
  });
}

}  // namespace opdelta::backfill
