#include "backfill/chunk_window.h"

#include <algorithm>
#include <map>
#include <shared_mutex>
#include <utility>

#include "common/clock.h"

namespace opdelta::backfill {

using catalog::Value;
using catalog::ValueType;

namespace {

/// Bound on drain/repair rounds per window under sustained writes.
constexpr int kMaxWindowDrains = 8;

bool InRange(int64_t key, std::optional<int64_t> lo,
             std::optional<int64_t> hi) {
  return (!lo.has_value() || key > *lo) && (!hi.has_value() || key <= *hi);
}

}  // namespace

constexpr char ChunkWindow::kSignalTable[];

engine::Predicate KeyRange(const std::string& key, std::optional<int64_t> lo,
                           std::optional<int64_t> hi) {
  engine::Predicate pred =
      lo.has_value() ? engine::Predicate::Where(key, engine::CompareOp::kGt,
                                                Value::Int64(*lo))
                     : engine::Predicate::Where(key, engine::CompareOp::kGe,
                                                Value::Int64(INT64_MIN));
  if (hi.has_value()) {
    pred.And(key, engine::CompareOp::kLe, Value::Int64(*hi));
  }
  return pred;
}

Status ChunkWindow::CheckWalk(pipeline::SourceLeg* leg, uint64_t chunk_rows) {
  if (leg == nullptr) return Status::InvalidArgument("source leg required");
  if (chunk_rows == 0) {
    return Status::InvalidArgument("chunk_rows must be positive");
  }
  const std::string& name = leg->options().source_table;
  if (name == kSignalTable) {
    return Status::NotSupported("cannot walk the signal table itself");
  }
  engine::Table* table = leg->source()->GetTable(name);
  if (table == nullptr) return Status::NotFound("source table " + name);
  const catalog::Schema& schema = table->schema();
  if (schema.num_columns() == 0 || schema.column(0).type != ValueType::kInt64) {
    return Status::NotSupported(
        "a chunk walk needs an INT64 key column (first column): " + name);
  }
  return Status::OK();
}

Status ChunkWindow::EnsureSignalTable(engine::Database* db) {
  if (db->GetTable(kSignalTable) != nullptr) return Status::OK();
  Status st = db->CreateTable(
      kSignalTable,
      catalog::Schema({catalog::Column{"sig", ValueType::kInt64},
                       catalog::Column{"kind", ValueType::kString},
                       catalog::Column{"tbl", ValueType::kString}}));
  if (st.code() == StatusCode::kAlreadyExists) return Status::OK();
  return st;
}

ChunkWindow::ChunkWindow(pipeline::SourceLeg* leg,
                         const std::string& kind_prefix)
    : leg_(leg),
      source_(leg->source()),
      kind_prefix_(kind_prefix),
      table_(leg->options().source_table) {
  schema_ = source_->GetTable(table_)->schema();
}

std::optional<int64_t> ChunkWindow::KeyOf(const catalog::Row& row) const {
  const size_t k = static_cast<size_t>(key_col_);
  if (k >= row.size() || row[k].type() != ValueType::kInt64) {
    return std::nullopt;
  }
  return row[k].AsInt64();
}

catalog::Row ChunkWindow::SignalRow(uint64_t id) const {
  return catalog::Row{Value::Int64(static_cast<int64_t>(id)),
                      Value::String(kind_prefix_ + "high"),
                      Value::String(table_)};
}

Status ChunkWindow::WriteSignal(uint64_t id) {
  if (leg_->capture() != nullptr) {
    // Op-delta: the signal insert rides the captured stream, so its
    // position in the op log *is* the watermark.
    sql::InsertStmt ins;
    ins.table = kSignalTable;
    ins.rows.push_back(SignalRow(id));
    return leg_->capture()
        ->RunTransaction({sql::Statement(std::move(ins))})
        .status();
  }
  // Value-delta methods watermark implicitly (anything committed before
  // the window-closing drain is captured); the row is kept for operators
  // debugging a window, not for correctness.
  return source_->WithTransaction([&](txn::Transaction* txn) {
    return source_->InsertRaw(txn, kSignalTable, SignalRow(id));
  });
}

Status ChunkWindow::Read(std::optional<int64_t> lo, std::optional<int64_t> hi,
                         uint64_t limit, Mode mode, Chunk* chunk) {
  *chunk = Chunk();
  // Re-resolve the table schema per window: source DDL between windows
  // changes row arity, and a chunk selected under a stale schema would
  // ship (backfill) or compare (scrub) the wrong shape.
  engine::Table* table = source_->GetTable(table_);
  if (table == nullptr) return Status::NotFound("table " + table_);
  schema_ = table->schema();
  key_col_ = schema_.KeyColumnIndex();
  {
    // CreateIndex and ALTER TABLE change the index map under the
    // exclusive latch. An ALTER drops and rebuilds the surviving indexes
    // in one hold, so an index read here is still there when the select
    // scans, unless the key column stopped being INT64, and then the
    // select collects no key to stop on.
    std::shared_lock<common::OrderedSharedMutex> latch(table->latch);
    key_indexed_ = table->HasIndex(key_name());
  }

  uint64_t id = static_cast<uint64_t>(RealClock::Default()->NowMicros());
  if (id <= last_window_id_) id = last_window_id_ + 1;
  last_window_id_ = id;
  OPDELTA_RETURN_IF_ERROR(Select(lo, hi, limit, chunk));
  OPDELTA_RETURN_IF_ERROR(WriteSignal(id));
  return Close(id, mode, lo, hi, chunk);
}

Status ChunkWindow::Select(std::optional<int64_t> lo,
                           std::optional<int64_t> hi, uint64_t limit,
                           Chunk* chunk) {
  // Pass 1 — candidates: the `limit`+1 smallest in-range keys, from a
  // latch-only scan (dirty reads possible; resolved in pass 2). A key
  // index hands them over in key order, so the scan stops once it holds
  // `limit`+1; a heap scan visits the whole range.
  const size_t cap = limit == 0 ? SIZE_MAX : static_cast<size_t>(limit) + 1;
  std::map<int64_t, storage::Rid> candidates;
  OPDELTA_RETURN_IF_ERROR(source_->Scan(
      nullptr, table_, KeyRange(key_name(), lo, hi),
      [&](const storage::Rid& rid, const catalog::Row& row) {
        const std::optional<int64_t> key = KeyOf(row);
        if (!key.has_value()) return true;
        candidates[*key] = rid;
        if (candidates.size() > cap) {
          candidates.erase(std::prev(candidates.end()));
        }
        return !key_indexed_ || candidates.size() < cap;
      }));
  if (candidates.size() == cap) {
    chunk->more = true;
    candidates.erase(std::prev(candidates.end()));
  }

  // Pass 2 — committed images: one transaction, a row S lock per read.
  // Any mid-chunk error aborts the transaction (releasing every lock
  // taken so far) before surfacing; a dangling un-aborted transaction
  // would pin its row locks until process death.
  return source_->WithTransaction([&](txn::Transaction* txn) -> Status {
    for (const auto& [key, rid] : candidates) {
      WindowRow row;
      row.key = key;
      OPDELTA_RETURN_IF_ERROR(ReadKeyAt(txn, rid, &row));
      // A row gone between the passes (a delete, or an update that
      // relocated it) is re-resolved by key after the window closes — it
      // may still exist elsewhere, and skipping it while a cursor
      // advances past its key would lose it.
      row.needs_repair = !row.present;
      chunk->rows.push_back(std::move(row));
    }
    return Status::OK();
  });
}

Status ChunkWindow::ReadKeyAt(txn::Transaction* txn, const storage::Rid& rid,
                              WindowRow* row) {
  catalog::Row image;
  Status st = source_->ReadAt(txn, table_, rid, &image);
  if (st.IsNotFound()) return Status::OK();  // freed slot
  OPDELTA_RETURN_IF_ERROR(st);
  if (KeyOf(image) != row->key) return Status::OK();  // relocated
  row->image = std::move(image);
  row->present = true;
  return Status::OK();
}

Status ChunkWindow::ReadByKey(txn::Transaction* txn, WindowRow* row) {
  row->present = false;
  // Two attempts: the latch-only rid lookup can race an update relocating
  // the row; the committed read blocks on the writer's lock, and the
  // second lookup then sees the row's post-commit location.
  for (int attempt = 0; attempt < 2 && !row->present; ++attempt) {
    std::vector<storage::Rid> rids;
    OPDELTA_RETURN_IF_ERROR(source_->Scan(
        nullptr, table_,
        engine::Predicate::Where(key_name(), engine::CompareOp::kEq,
                                 Value::Int64(row->key)),
        [&](const storage::Rid& rid, const catalog::Row&) {
          rids.push_back(rid);
          return true;
        }));
    for (size_t i = 0; i < rids.size() && !row->present; ++i) {
      OPDELTA_RETURN_IF_ERROR(ReadKeyAt(txn, rids[i], row));
    }
  }
  return Status::OK();
}

Status ChunkWindow::Inspect(const std::string& message, uint64_t id,
                            Mode mode, std::optional<int64_t> lo,
                            std::optional<int64_t> hi, Chunk* chunk,
                            bool* saw_high) {
  // Other tables can share this leg's capture wrapper; op-delta payloads
  // decode against the source's all-tables map of their frame's epoch.
  pipeline::ShippedBatch batch;
  OPDELTA_RETURN_IF_ERROR(pipeline::DecodeShipped(
      message,
      [this](uint64_t epoch) { return source_->SchemaMapAt(epoch); },
      &batch));

  std::map<int64_t, size_t> row_of;  // key -> index in chunk->rows
  for (size_t i = 0; i < chunk->rows.size(); ++i) {
    row_of.emplace(chunk->rows[i].key, i);
  }
  // An in-window event on `key`: its chunk row is re-read after the
  // window. Under kRepairRange a key in (lo, hi] the chunk never selected
  // is appended so the repair read resolves its committed state — without
  // this, a key inserted mid-window could land on the delete list.
  const auto touch = [&](std::optional<int64_t> key) {
    if (!key.has_value()) return;
    const auto it = row_of.find(*key);
    if (it != row_of.end()) {
      chunk->rows[it->second].needs_repair = true;
    } else if (mode == Mode::kRepairRange && InRange(*key, lo, hi)) {
      row_of.emplace(*key, chunk->rows.size());
      chunk->rows.push_back(WindowRow{*key, {}, false, true, false});
    }
  };

  if (!batch.op_delta) {
    const extract::DeltaBatch& delta = batch.delta;
    if (delta.table != table_) return Status::OK();
    for (const extract::DeltaRecord& rec : delta.records) {
      touch(KeyOf(rec.image));
    }
    // Value-delta streams carry no watermark markers (windows close on a
    // dry drain), so every drained event is potentially in-window.
    if (mode == Mode::kDetect && !delta.records.empty()) {
      chunk->touched = true;
    }
    return Status::OK();
  }
  const catalog::Row high = SignalRow(id);
  for (const extract::OpDeltaTxn& t : batch.txns) {
    for (const extract::OpDeltaRecord& op : t.ops) {
      if (op.is_schema_event()) {
        // DDL on this table mid-window changes the row shape under the
        // chunk: conservatively report the window touched so detect-mode
        // callers (scrub) go inconclusive-and-retry instead of comparing
        // mixed-epoch images.
        if (op.schema_event->table == table_) chunk->touched = true;
        continue;
      }
      OPDELTA_ASSIGN_OR_RETURN(
          sql::Statement stmt,
          stmt_cache_.Parse(op.sql, batch.id.schema_epoch));
      if (stmt.is_insert() && stmt.table() == kSignalTable) {
        for (const catalog::Row& row : stmt.insert().rows) {
          if (row == high) *saw_high = true;
        }
        continue;
      }
      if (stmt.is_select() || stmt.is_alter() || stmt.table() != table_) {
        continue;
      }
      if (mode == Mode::kDetect) {
        // Conservative: any drained event on the table marks the window
        // touched, whether it committed before the select or during it
        // (op-log rows are written at statement time, so log position
        // cannot tell the two apart); assuming otherwise risks a false
        // verdict.
        chunk->touched = true;
        continue;
      }
      if (stmt.is_insert()) {
        for (const catalog::Row& row : stmt.insert().rows) touch(KeyOf(row));
        continue;
      }
      // The first in-window statement touching a chunk row evaluated its
      // WHERE clause against exactly the state the chunk captured, so
      // matching chunk images catches every first touch; later touches
      // of the same row are then covered by its repair read.
      engine::Predicate pred =
          stmt.is_update() ? stmt.update().where : stmt.delete_stmt().where;
      OPDELTA_RETURN_IF_ERROR(pred.Bind(schema_));
      for (WindowRow& r : chunk->rows) {
        if (r.present && pred.Matches(r.image)) r.needs_repair = true;
      }
      if (!stmt.is_update()) continue;
      // An update can *move* a key into the range (SET id = k) without
      // any chunk image matching its WHERE clause: collect the literal.
      for (const engine::Assignment& set : stmt.update().sets) {
        if (set.column == key_name() && set.value.type() == ValueType::kInt64) {
          touch(set.value.AsInt64());
        }
      }
    }
  }
  return Status::OK();
}

Status ChunkWindow::RepairRows(Chunk* chunk) {
  // One transaction for all repair reads, aborted on any error — the same
  // lock-release discipline as the select's pass 2.
  return source_->WithTransaction([&](txn::Transaction* txn) -> Status {
    for (WindowRow& r : chunk->rows) {
      if (!r.needs_repair) continue;
      OPDELTA_RETURN_IF_ERROR(ReadByKey(txn, &r));
      r.needs_repair = false;
      if (!r.deduped) {
        r.deduped = true;
        ++chunk->rows_deduped;
      }
    }
    return Status::OK();
  });
}

Status ChunkWindow::Close(uint64_t id, Mode mode, std::optional<int64_t> lo,
                          std::optional<int64_t> hi, Chunk* chunk) {
  const bool op_delta = leg_->capture() != nullptr;
  bool saw_high = false;
  const auto any_repair = [&] {
    return std::any_of(chunk->rows.begin(), chunk->rows.end(),
                       [](const WindowRow& r) { return r.needs_repair; });
  };
  for (int drain = 0; drain < kMaxWindowDrains; ++drain) {
    bool shipped = false;
    std::string message;
    OPDELTA_RETURN_IF_ERROR(leg_->ExtractAndShip(&shipped, &message));
    if (shipped) {
      OPDELTA_RETURN_IF_ERROR(
          Inspect(message, id, mode, lo, hi, chunk, &saw_high));
    }
    // Op-delta: the high watermark is itself a committed captured insert,
    // so the window stays open until a drained batch carries it.
    // Value-delta: signals don't ride the stream; the window closes when
    // extraction runs dry.
    if (op_delta ? !saw_high : shipped) {
      if (op_delta && !shipped) {
        // The high signal is durably committed in the op log; an empty
        // drain without it means the capture path dropped it.
        return Status::Internal("watermark window marker never shipped");
      }
      continue;
    }
    if (mode == Mode::kDetect) {
      // Rows that vanished between the read passes without a matching
      // captured event (e.g. an aborted dirty insert) can't be verified
      // from here — report the window touched so the chunk retries.
      if (any_repair()) chunk->touched = true;
      return Status::OK();
    }
    if (!any_repair()) return Status::OK();
    // The delta wins: re-read the touched rows committed, then drain once
    // more — anything captured while repairing still ships ahead of the
    // chunk, so its effect on chunk keys must be re-read as well.
    OPDELTA_RETURN_IF_ERROR(RepairRows(chunk));
  }
  if (mode == Mode::kDetect) {
    // Sustained writes kept the window from ever draining clean.
    chunk->touched = true;
    return Status::OK();
  }
  // Sustained writes touched the chunk through every drain round. Repair
  // once more and ship: events still in flight ship after the chunk, and
  // replaying a literal-assignment statement over the repaired image it
  // already reflects is idempotent.
  return RepairRows(chunk);
}

extract::DeltaBatch ChunkWindow::ToBatch(
    Chunk* chunk, const std::set<int64_t>& stale) const {
  extract::DeltaBatch batch;
  batch.table = table_;
  batch.schema = schema_;
  const auto add = [&](extract::DeltaOp op, catalog::Row image) {
    extract::DeltaRecord rec;
    rec.op = op;
    rec.seq = batch.records.size() + 1;
    rec.image = std::move(image);
    batch.records.push_back(std::move(rec));
  };
  std::set<int64_t> fresh;
  for (WindowRow& r : chunk->rows) {
    fresh.insert(r.key);
    if (r.present) add(extract::DeltaOp::kUpsert, std::move(r.image));
  }
  for (int64_t key : stale) {
    if (fresh.count(key) != 0) continue;
    // A key with no committed source row: the image only carries the
    // key — that is all delete-by-key consumes.
    catalog::Row image(schema_.num_columns());
    image[static_cast<size_t>(key_col_)] = Value::Int64(key);
    add(extract::DeltaOp::kDelete, std::move(image));
  }
  return batch;
}

Status ChunkWindow::CleanupSignals() {
  // One statement per kind under this window's prefix, so concurrent users
  // of the shared signal table (backfill vs scrub) never delete each
  // other's in-flight markers. "low" rows come from builds that opened
  // every window with a low signal too.
  std::vector<sql::Statement> deletes;
  for (const char* kind : {"high", "low"}) {
    sql::DeleteStmt del;
    del.table = kSignalTable;
    del.where = engine::Predicate::Where("tbl", engine::CompareOp::kEq,
                                         Value::String(table_))
                    .And("kind", engine::CompareOp::kEq,
                         Value::String(kind_prefix_ + kind));
    deletes.emplace_back(std::move(del));
  }
  if (leg_->capture() != nullptr) {
    // Captured: the deletes replay at the warehouse, cleaning its copy.
    return leg_->capture()->RunTransaction(deletes).status();
  }
  return source_->WithTransaction([&](txn::Transaction* txn) -> Status {
    for (const sql::Statement& del : deletes) {
      OPDELTA_RETURN_IF_ERROR(
          source_->DeleteWhere(txn, kSignalTable, del.delete_stmt().where)
              .status());
    }
    return Status::OK();
  });
}

}  // namespace opdelta::backfill
