#include "extract/op_delta.h"

#include <algorithm>
#include <map>

#include "catalog/row_codec.h"

namespace opdelta::extract {

using catalog::Column;
using catalog::Row;
using catalog::Value;
using catalog::ValueType;
using sql::Statement;

uint64_t OpDeltaRecord::SizeBytes(const catalog::Schema& schema) const {
  uint64_t total = sql.size() + 16;  // statement text + framing
  for (const Row& img : before_images) {
    total += catalog::RowCodec::Encode(schema, img).size() + 4;
  }
  return total;
}

catalog::Schema OpDeltaLogTableSchema() {
  return catalog::Schema({Column{"seq", ValueType::kInt64},
                          Column{"txn", ValueType::kInt64},
                          Column{"kind", ValueType::kString},
                          Column{"payload", ValueType::kString}});
}

// ---------------------------------------------------------------- DB sink

Status OpDeltaDbSink::Append(engine::Database* db, txn::Transaction* txn,
                             const char* kind, const std::string& payload) {
  OPDELTA_ASSIGN_OR_RETURN(uint64_t seq, seq_.Next(db, log_table_, 0));
  Row row;
  row.push_back(Value::Int64(static_cast<int64_t>(seq)));
  row.push_back(Value::Int64(static_cast<int64_t>(txn->id())));
  row.push_back(Value::String(kind));
  row.push_back(Value::String(payload));
  return db->InsertRaw(txn, log_table_, std::move(row));
}

Status OpDeltaDbSink::OnBegin(engine::Database* db, txn::Transaction* txn) {
  return Append(db, txn, "B", "");
}

namespace {
/// Rows must fit in a storage page; statements larger than this are split
/// across continuation rows (kind "+"), the way wrappers chunk oversized
/// payloads through client APIs with message-size limits.
constexpr size_t kMaxDbSinkPayload = 4000;
}  // namespace

Status OpDeltaDbSink::OnStatement(engine::Database* db,
                                  txn::Transaction* txn,
                                  const OpDeltaRecord& record,
                                  const catalog::Schema& schema) {
  // "T" marks a statement whose before images were captured (hybrid mode);
  // "S" is op-only; "+" continues the previous statement's text.
  const std::string& sql = record.sql;
  const std::string first = sql.substr(0, kMaxDbSinkPayload);
  OPDELTA_RETURN_IF_ERROR(
      Append(db, txn, record.captured_before_images ? "T" : "S", first));
  for (size_t offset = kMaxDbSinkPayload; offset < sql.size();
       offset += kMaxDbSinkPayload) {
    OPDELTA_RETURN_IF_ERROR(
        Append(db, txn, "+", sql.substr(offset, kMaxDbSinkPayload)));
  }
  for (const Row& img : record.before_images) {
    std::string csv;
    catalog::CsvCodec::EncodeLine(img, &csv);
    if (!csv.empty() && csv.back() == '\n') csv.pop_back();
    OPDELTA_RETURN_IF_ERROR(Append(db, txn, "V", csv));
  }
  (void)schema;
  return Status::OK();
}

Status OpDeltaDbSink::OnSchemaEvent(engine::Database* db,
                                    txn::Transaction* txn,
                                    const SchemaEvent& event) {
  std::string bin;
  event.EncodeTo(&bin);
  const std::string hex = HexEncode(bin);
  if (hex.size() > kMaxDbSinkPayload) {
    return Status::Internal("schema event too large for the db sink");
  }
  return Append(db, txn, "D", hex);
}

Status OpDeltaDbSink::OnCommit(engine::Database* db, txn::Transaction* txn) {
  return Append(db, txn, "C", "");
}

Status OpDeltaDbSink::OnAbort(engine::Database* /*db*/,
                              txn::Transaction* /*txn*/) {
  // Captured rows ride the user transaction: the engine abort removes them.
  return Status::OK();
}

// -------------------------------------------------------------- File sink

Result<std::unique_ptr<OpDeltaFileSink>> OpDeltaFileSink::Create(
    const std::string& path) {
  std::unique_ptr<WritableFile> file;
  OPDELTA_RETURN_IF_ERROR(Env::Default()->NewAppendableFile(path, &file));
  return std::unique_ptr<OpDeltaFileSink>(
      new OpDeltaFileSink(std::move(file)));
}

Status OpDeltaFileSink::OnBegin(engine::Database* /*db*/,
                                txn::Transaction* txn) {
  std::string line = "B " + std::to_string(txn->id()) + "\n";
  return file_->Append(Slice(line));
}

Status OpDeltaFileSink::OnStatement(engine::Database* /*db*/,
                                    txn::Transaction* txn,
                                    const OpDeltaRecord& record,
                                    const catalog::Schema& /*schema*/) {
  std::string line = std::string(record.captured_before_images ? "T " : "S ") +
                     std::to_string(txn->id()) + " " +
                     std::to_string(record.seq) + " " + record.sql + "\n";
  OPDELTA_RETURN_IF_ERROR(file_->Append(Slice(line)));
  for (const Row& img : record.before_images) {
    std::string csv;
    catalog::CsvCodec::EncodeLine(img, &csv);
    if (!csv.empty() && csv.back() == '\n') csv.pop_back();
    std::string vline = "V " + std::to_string(txn->id()) + " " +
                        std::to_string(record.seq) + " " + csv + "\n";
    OPDELTA_RETURN_IF_ERROR(file_->Append(Slice(vline)));
  }
  return Status::OK();
}

Status OpDeltaFileSink::OnSchemaEvent(engine::Database* /*db*/,
                                      txn::Transaction* txn,
                                      const SchemaEvent& event) {
  std::string bin;
  event.EncodeTo(&bin);
  const std::string line = "D " + std::to_string(txn->id()) + " " +
                           std::to_string(next_seq_.fetch_add(1)) + " " +
                           HexEncode(bin) + "\n";
  return file_->Append(Slice(line));
}

Status OpDeltaFileSink::OnCommit(engine::Database* /*db*/,
                                 txn::Transaction* txn) {
  std::string line = "C " + std::to_string(txn->id()) + "\n";
  return file_->Append(Slice(line));
}

Status OpDeltaFileSink::OnAbort(engine::Database* /*db*/,
                                txn::Transaction* txn) {
  std::string line = "A " + std::to_string(txn->id()) + "\n";
  return file_->Append(Slice(line));
}

Status OpDeltaFileSink::Flush() { return file_->Flush(); }

// ----------------------------------------------------------- the wrapper

OpDeltaCapture::OpDeltaCapture(sql::Executor* executor,
                               std::shared_ptr<OpDeltaSink> sink,
                               Options options)
    : executor_(executor), sink_(std::move(sink)), options_(options) {}

Result<std::unique_ptr<txn::Transaction>> OpDeltaCapture::Begin() {
  std::unique_ptr<txn::Transaction> txn = executor_->db()->Begin();
  Status st = sink_->OnBegin(executor_->db(), txn.get());
  if (!st.ok()) {
    // The engine transaction must not outlive this call still holding
    // locks: only Commit/Abort release them.
    (void)executor_->db()->Abort(txn.get());
    return st;
  }
  return txn;
}

Result<size_t> OpDeltaCapture::Execute(txn::Transaction* txn,
                                       const Statement& stmt) {
  engine::Database* db = executor_->db();
  engine::Table* table = db->GetTable(stmt.table());
  if (table == nullptr) return Status::NotFound("table " + stmt.table());

  OpDeltaRecord record;
  record.source_txn = txn->id();
  record.seq = next_seq_.fetch_add(1);
  record.sql = stmt.ToSql();

  // Hybrid: read the before images of affected rows first. This is the
  // paper's "worst case" — the op description augmented with the before
  // image — and still cheaper than a value delta, which needs the after
  // image too.
  if (options_.hybrid_before_images &&
      (stmt.is_update() || stmt.is_delete())) {
    record.captured_before_images = true;
    const engine::Predicate& where =
        stmt.is_update() ? stmt.update().where : stmt.delete_stmt().where;
    // Read within the user's transaction (IS lock) so the images are
    // consistent with the statement that follows.
    OPDELTA_RETURN_IF_ERROR(db->Scan(
        txn, stmt.table(), where,
        [&](const storage::Rid&, const Row& row) {
          record.before_images.push_back(row);
          return true;
        }));
  }

  // Capture right before submission to the DBMS.
  OPDELTA_RETURN_IF_ERROR(
      sink_->OnStatement(db, txn, record, table->schema()));
  return executor_->Execute(txn, stmt);
}

Status OpDeltaCapture::Commit(txn::Transaction* txn) {
  Status st = sink_->OnCommit(executor_->db(), txn);
  if (st.ok()) st = executor_->db()->Commit(txn);
  // A failed sink write (e.g. a lock conflict on the capture table with a
  // concurrent drain) or a failed WAL commit leaves the transaction
  // active; abort it so its locks cannot leak.
  if (!st.ok() && txn->active()) (void)executor_->db()->Abort(txn);
  return st;
}

Status OpDeltaCapture::Abort(txn::Transaction* txn) {
  Status sink_st = sink_->OnAbort(executor_->db(), txn);
  Status st = executor_->db()->Abort(txn);
  return sink_st.ok() ? st : sink_st;
}

Result<uint64_t> OpDeltaCapture::ExecuteDdl(const sql::AlterStmt& stmt) {
  engine::Database* db = executor_->db();
  engine::Table* table = db->GetTable(stmt.table);
  if (table == nullptr) return Status::NotFound("table " + stmt.table);

  SchemaEvent ev;
  ev.table = stmt.table;
  ev.spec = stmt.spec;
  ev.old_schema = table->schema();
  ev.ddl_sql = Statement(stmt).ToSql();

  // Engine first: the migration is the authority, the event its
  // announcement (see the header for the crash-window contract).
  OPDELTA_RETURN_IF_ERROR(db->AlterTable(stmt.table, stmt.spec));
  ev.ddl_epoch = db->ddl_epoch();
  ev.new_schema = table->schema();

  OPDELTA_ASSIGN_OR_RETURN(std::unique_ptr<txn::Transaction> txn, Begin());
  Status st = sink_->OnSchemaEvent(db, txn.get(), ev);
  if (!st.ok()) {
    (void)Abort(txn.get());  // the sink failure is the one to surface
    return st;
  }
  OPDELTA_RETURN_IF_ERROR(Commit(txn.get()));
  return ev.ddl_epoch;
}

Result<size_t> OpDeltaCapture::RunTransaction(
    const std::vector<Statement>& stmts) {
  OPDELTA_ASSIGN_OR_RETURN(std::unique_ptr<txn::Transaction> txn, Begin());
  size_t total = 0;
  for (const Statement& stmt : stmts) {
    Result<size_t> r = Execute(txn.get(), stmt);
    if (!r.ok()) {
      (void)Abort(txn.get());  // surface the execution error
      return r.status();
    }
    total += r.value();
  }
  OPDELTA_RETURN_IF_ERROR(Commit(txn.get()));
  return total;
}

// --------------------------------------------------------------- readers

namespace {

/// Extracts the target table name from a statement's SQL without a full
/// parse: "INSERT INTO <t> ...", "UPDATE <t> ...", "DELETE FROM <t> ...".
std::string TableOfSql(const std::string& sql) {
  std::vector<std::string> words;
  size_t pos = 0;
  while (words.size() < 3 && pos < sql.size()) {
    while (pos < sql.size() && sql[pos] == ' ') ++pos;
    size_t end = sql.find(' ', pos);
    if (end == std::string::npos) end = sql.size();
    if (end > pos) words.push_back(sql.substr(pos, end - pos));
    pos = end + 1;
  }
  if (words.empty()) return "";
  std::string kw = words[0];
  for (char& c : kw) c = static_cast<char>(std::toupper(c));
  if (kw == "UPDATE") return words.size() > 1 ? words[1] : "";
  return words.size() > 2 ? words[2] : "";  // INSERT INTO t / DELETE FROM t
}

/// Shared reassembly state machine for both log representations. Entries
/// must arrive in capture order. Only committed transactions survive.
class TxnAssembler {
 public:
  /// `fallback` (optional) decodes before images for tables absent from
  /// the map — the single-schema convenience path.
  TxnAssembler(const SchemaMap& schemas, const catalog::Schema* fallback)
      : schemas_(schemas), fallback_(fallback) {}

  Status Feed(const std::string& kind, txn::TxnId txn_id, uint64_t seq,
              const std::string& payload) {
    if (kind == "B") {
      open_[txn_id] = OpDeltaTxn{txn_id, {}};
      return Status::OK();
    }
    if (kind == "S" || kind == "T") {
      auto it = open_.find(txn_id);
      if (it == open_.end()) {
        return Status::Corruption("statement for unopened txn " +
                                  std::to_string(txn_id));
      }
      OpDeltaRecord rec;
      rec.source_txn = txn_id;
      rec.seq = seq;
      rec.sql = payload;
      rec.captured_before_images = (kind == "T");
      it->second.ops.push_back(std::move(rec));
      return Status::OK();
    }
    if (kind == "+") {
      auto it = open_.find(txn_id);
      if (it == open_.end() || it->second.ops.empty()) {
        return Status::Corruption("continuation without statement");
      }
      it->second.ops.back().sql += payload;
      return Status::OK();
    }
    if (kind == "D") {
      auto it = open_.find(txn_id);
      if (it == open_.end()) {
        return Status::Corruption("schema event for unopened txn " +
                                  std::to_string(txn_id));
      }
      std::string bin;
      OPDELTA_RETURN_IF_ERROR(HexDecode(payload, &bin));
      Slice in(bin);
      auto ev = std::make_shared<SchemaEvent>();
      OPDELTA_RETURN_IF_ERROR(SchemaEvent::DecodeFrom(&in, ev.get()));
      OpDeltaRecord rec;
      rec.source_txn = txn_id;
      rec.seq = seq;
      rec.sql = ev->ddl_sql;
      // Later before images of this table in the same buffer were captured
      // post-DDL: decode them against the event's new schema, not the
      // caller's (pre-DDL) map.
      overlay_[ev->table] = ev->new_schema;
      rec.schema_event = std::move(ev);
      it->second.ops.push_back(std::move(rec));
      return Status::OK();
    }
    if (kind == "V") {
      auto it = open_.find(txn_id);
      if (it == open_.end() || it->second.ops.empty()) {
        return Status::Corruption("before image without statement");
      }
      OpDeltaRecord& op = it->second.ops.back();
      const std::string table = TableOfSql(op.sql);
      auto overlay_it = overlay_.find(table);
      if (overlay_it != overlay_.end()) {
        Row img;
        OPDELTA_RETURN_IF_ERROR(catalog::CsvCodec::DecodeLine(
            overlay_it->second, Slice(payload), &img));
        op.before_images.push_back(std::move(img));
        return Status::OK();
      }
      auto schema_it = schemas_.find(table);
      const catalog::Schema* schema =
          schema_it != schemas_.end() ? &schema_it->second : fallback_;
      if (schema == nullptr) {
        return Status::InvalidArgument(
            "no schema supplied for table '" + table +
            "' while decoding before images");
      }
      Row img;
      OPDELTA_RETURN_IF_ERROR(
          catalog::CsvCodec::DecodeLine(*schema, Slice(payload), &img));
      op.before_images.push_back(std::move(img));
      return Status::OK();
    }
    if (kind == "C") {
      auto it = open_.find(txn_id);
      if (it == open_.end()) {
        return Status::Corruption("commit for unopened txn");
      }
      committed_.push_back(std::move(it->second));
      open_.erase(it);
      return Status::OK();
    }
    if (kind == "A") {
      open_.erase(txn_id);
      return Status::OK();
    }
    return Status::Corruption("bad op-delta log kind: " + kind);
  }

  std::vector<OpDeltaTxn> TakeCommitted() { return std::move(committed_); }

 private:
  const SchemaMap& schemas_;
  const catalog::Schema* fallback_;
  /// Post-DDL schemas for tables whose 'D' event this buffer contains.
  SchemaMap overlay_;
  std::map<txn::TxnId, OpDeltaTxn> open_;
  std::vector<OpDeltaTxn> committed_;
};

Status ParseLogImpl(const std::string& data, const SchemaMap& schemas,
                    const catalog::Schema* fallback,
                    std::vector<OpDeltaTxn>* out) {
  TxnAssembler assembler(schemas, fallback);

  size_t start = 0;
  while (start < data.size()) {
    size_t end = data.find('\n', start);
    if (end == std::string::npos) end = data.size();
    if (end > start) {
      const std::string line = data.substr(start, end - start);
      // "<kind> <txn> [<seq> <payload...>]"
      const size_t sp1 = line.find(' ');
      if (sp1 == std::string::npos || sp1 != 1) {
        return Status::Corruption("bad op-delta log line: " + line);
      }
      const std::string kind = line.substr(0, 1);
      txn::TxnId txn_id = 0;
      uint64_t seq = 0;
      std::string payload;
      if (kind == "B" || kind == "C" || kind == "A") {
        txn_id = std::strtoull(line.c_str() + 2, nullptr, 10);
      } else {
        char* next = nullptr;
        txn_id = std::strtoull(line.c_str() + 2, &next, 10);
        seq = std::strtoull(next, &next, 10);
        if (next != nullptr && *next == ' ') ++next;
        payload.assign(next);
      }
      OPDELTA_RETURN_IF_ERROR(assembler.Feed(kind, txn_id, seq, payload));
    }
    start = end + 1;
  }
  *out = assembler.TakeCommitted();
  return Status::OK();
}

Status ReadFileImpl(const std::string& path, const SchemaMap& schemas,
                    const catalog::Schema* fallback,
                    std::vector<OpDeltaTxn>* out) {
  std::string data;
  OPDELTA_RETURN_IF_ERROR(Env::Default()->ReadFileToString(path, &data));
  return ParseLogImpl(data, schemas, fallback, out);
}

Status DrainDbTableImpl(engine::Database* db, const std::string& log_table,
                        const SchemaMap& schemas,
                        const catalog::Schema* fallback,
                        std::vector<OpDeltaTxn>* out) {
  struct Entry {
    uint64_t seq;
    txn::TxnId txn;
    std::string kind;
    std::string payload;
  };
  // Scan and clear atomically under a table X lock: once granted, every
  // in-flight writer has finished, so the scan sees only complete
  // capture streams and no row can slip in between the scan and the
  // delete (it would be silently lost, never having been extracted).
  std::vector<Entry> entries;
  OPDELTA_RETURN_IF_ERROR(db->WithTransaction([&](txn::Transaction* txn) {
    OPDELTA_RETURN_IF_ERROR(db->LockTableExclusive(txn, log_table));
    OPDELTA_RETURN_IF_ERROR(db->Scan(
        nullptr, log_table, engine::Predicate::True(),
        [&](const storage::Rid&, const Row& row) {
          entries.push_back(Entry{static_cast<uint64_t>(row[0].AsInt64()),
                                  static_cast<txn::TxnId>(row[1].AsInt64()),
                                  row[2].AsString(), row[3].AsString()});
          return true;
        }));
    return db->DeleteWhere(txn, log_table, engine::Predicate::True())
        .status();
  }));
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });

  TxnAssembler assembler(schemas, fallback);
  for (const Entry& e : entries) {
    OPDELTA_RETURN_IF_ERROR(assembler.Feed(e.kind, e.txn, e.seq, e.payload));
  }
  *out = assembler.TakeCommitted();
  return Status::OK();
}

}  // namespace

Status OpDeltaLogReader::ReadFile(const std::string& path,
                                  const SchemaMap& schemas,
                                  std::vector<OpDeltaTxn>* out) {
  return ReadFileImpl(path, schemas, nullptr, out);
}

Status OpDeltaLogReader::ReadFile(const std::string& path,
                                  const catalog::Schema& source_schema,
                                  std::vector<OpDeltaTxn>* out) {
  static const SchemaMap kEmpty;
  return ReadFileImpl(path, kEmpty, &source_schema, out);
}

Status OpDeltaLogReader::DrainDbTable(engine::Database* db,
                                      const std::string& log_table,
                                      const SchemaMap& schemas,
                                      std::vector<OpDeltaTxn>* out) {
  return DrainDbTableImpl(db, log_table, schemas, nullptr, out);
}

Status OpDeltaLogReader::DrainDbTable(engine::Database* db,
                                      const std::string& log_table,
                                      const catalog::Schema& source_schema,
                                      std::vector<OpDeltaTxn>* out) {
  static const SchemaMap kEmpty;
  return DrainDbTableImpl(db, log_table, kEmpty, &source_schema, out);
}

uint64_t OpDeltaVolumeBytes(const std::vector<OpDeltaTxn>& txns,
                            const catalog::Schema& schema) {
  uint64_t total = 0;
  for (const OpDeltaTxn& t : txns) {
    total += 8;  // begin/commit framing
    for (const OpDeltaRecord& op : t.ops) total += op.SizeBytes(schema);
  }
  return total;
}

std::string SerializeOpDeltaTxns(const std::vector<OpDeltaTxn>& txns) {
  std::string out;
  for (const OpDeltaTxn& t : txns) {
    out += "B " + std::to_string(t.id) + "\n";
    for (const OpDeltaRecord& op : t.ops) {
      if (op.is_schema_event()) {
        std::string bin;
        op.schema_event->EncodeTo(&bin);
        out += "D " + std::to_string(t.id) + " " + std::to_string(op.seq) +
               " " + HexEncode(bin) + "\n";
        continue;
      }
      out += std::string(op.captured_before_images ? "T " : "S ") +
             std::to_string(t.id) + " " + std::to_string(op.seq) + " " +
             op.sql + "\n";
      for (const Row& img : op.before_images) {
        std::string csv;
        catalog::CsvCodec::EncodeLine(img, &csv);
        if (!csv.empty() && csv.back() == '\n') csv.pop_back();
        out += "V " + std::to_string(t.id) + " " + std::to_string(op.seq) +
               " " + csv + "\n";
      }
    }
    out += "C " + std::to_string(t.id) + "\n";
  }
  return out;
}

Status ParseOpDeltaLog(const std::string& data, const SchemaMap& schemas,
                       std::vector<OpDeltaTxn>* out) {
  return ParseLogImpl(data, schemas, nullptr, out);
}

}  // namespace opdelta::extract
