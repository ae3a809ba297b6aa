#ifndef OPDELTA_EXTRACT_OP_DELTA_H_
#define OPDELTA_EXTRACT_OP_DELTA_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "catalog/schema.h"
#include "extract/delta.h"
#include "extract/schema_event.h"
#include "sql/executor.h"
#include "sql/statement.h"

namespace opdelta::extract {

/// One captured operation: the statement text — "the SQL statement itself
/// is already an Op-Delta in the size of about 70 bytes" (§4.1) — plus, in
/// hybrid mode, the before images required when the warehouse view is not
/// self-maintainable from the operation alone ("in the worst case, the
/// operation description has to be augmented with the before image").
struct OpDeltaRecord {
  txn::TxnId source_txn = 0;
  uint64_t seq = 0;
  std::string sql;
  /// True when the capture ran in hybrid mode for this statement — the
  /// before_images list is then authoritative even when empty (zero rows
  /// matched at the source).
  bool captured_before_images = false;
  std::vector<catalog::Row> before_images;  // hybrid mode only

  /// Set when this record is a captured DDL change ('D' line) rather than
  /// a DML statement. `sql` then carries the canonical ALTER text for
  /// display; the event holds the full before/after schemas the warehouse
  /// migrates with. shared_ptr keeps records cheap to copy.
  std::shared_ptr<const SchemaEvent> schema_event = nullptr;
  bool is_schema_event() const { return schema_event != nullptr; }

  /// Transport volume of this record.
  uint64_t SizeBytes(const catalog::Schema& schema) const;
};

/// A complete captured source transaction. Op-Delta's defining property:
/// "Op-Delta maintains the original source transaction boundaries", which
/// is what lets the warehouse apply each one as a self-contained
/// transaction concurrently with OLAP queries.
struct OpDeltaTxn {
  txn::TxnId id = 0;
  std::vector<OpDeltaRecord> ops;
};

/// Where captured operations go.
class OpDeltaSink {
 public:
  virtual ~OpDeltaSink() = default;
  virtual Status OnBegin(engine::Database* db, txn::Transaction* txn) = 0;
  virtual Status OnStatement(engine::Database* db, txn::Transaction* txn,
                             const OpDeltaRecord& record,
                             const catalog::Schema& schema) = 0;
  /// Records a captured DDL change as a transactional 'D' event in the
  /// stream (see OpDeltaCapture::ExecuteDdl for the ordering contract).
  virtual Status OnSchemaEvent(engine::Database* db, txn::Transaction* txn,
                               const SchemaEvent& event) = 0;
  /// Called inside the transaction, immediately before the engine commit.
  virtual Status OnCommit(engine::Database* db, txn::Transaction* txn) = 0;
  virtual Status OnAbort(engine::Database* db, txn::Transaction* txn) = 0;
};

/// Schema of the Op-Delta DB log table: (seq, txn, kind, payload).
/// kind: "B" begin, "S" statement (payload = SQL), "V" before image
/// (payload = CSV row), "D" schema event (payload = hex-encoded
/// SchemaEvent), "C" commit.
catalog::Schema OpDeltaLogTableSchema();

/// Sink storing captured operations "transactionally into a database
/// table" (§4.2, first experiment): rows ride the user's transaction, so
/// an abort discards its captured ops automatically.
class OpDeltaDbSink : public OpDeltaSink {
 public:
  /// `log_table` must exist with OpDeltaLogTableSchema().
  explicit OpDeltaDbSink(std::string log_table)
      : log_table_(std::move(log_table)) {}

  Status OnBegin(engine::Database* db, txn::Transaction* txn) override;
  Status OnStatement(engine::Database* db, txn::Transaction* txn,
                     const OpDeltaRecord& record,
                     const catalog::Schema& schema) override;
  Status OnSchemaEvent(engine::Database* db, txn::Transaction* txn,
                       const SchemaEvent& event) override;
  Status OnCommit(engine::Database* db, txn::Transaction* txn) override;
  Status OnAbort(engine::Database* db, txn::Transaction* txn) override;

  const std::string& log_table() const { return log_table_; }

 private:
  Status Append(engine::Database* db, txn::Transaction* txn,
                const char* kind, const std::string& payload);
  std::string log_table_;
  CaptureSeq seq_;  // the log table's `seq` column
};

/// Sink appending to an operating-system file log (§4.2, second
/// experiment): "using a file log significantly improves the original
/// transaction response time as excessive database overheads on query
/// processing and transaction management are reduced". Writes are buffered
/// and not transactional: an abort is recorded with an A marker and the
/// reader discards that transaction.
class OpDeltaFileSink : public OpDeltaSink {
 public:
  static Result<std::unique_ptr<OpDeltaFileSink>> Create(
      const std::string& path);

  Status OnBegin(engine::Database* db, txn::Transaction* txn) override;
  Status OnStatement(engine::Database* db, txn::Transaction* txn,
                     const OpDeltaRecord& record,
                     const catalog::Schema& schema) override;
  Status OnSchemaEvent(engine::Database* db, txn::Transaction* txn,
                       const SchemaEvent& event) override;
  Status OnCommit(engine::Database* db, txn::Transaction* txn) override;
  Status OnAbort(engine::Database* db, txn::Transaction* txn) override;

  Status Flush();

 private:
  explicit OpDeltaFileSink(std::unique_ptr<WritableFile> file)
      : file_(std::move(file)) {}

  std::unique_ptr<WritableFile> file_;
  std::atomic<uint64_t> next_seq_{1};
};

/// The Op-Delta capture wrapper (paper §4.2): intercepts each statement
/// "right before it is submitted to the DBMS, to simulate the capture
/// mechanism that [would be] implemented by COTS software or by the
/// wrapper approach". No application or engine change is needed — the
/// wrapper exposes the same Execute interface as sql::Executor.
class OpDeltaCapture {
 public:
  struct Options {
    /// Also capture before images of update/delete targets (one extra
    /// read pass per statement). Required when the warehouse is not
    /// self-maintainable from operations alone.
    bool hybrid_before_images = false;
  };

  OpDeltaCapture(sql::Executor* executor, std::shared_ptr<OpDeltaSink> sink,
                 Options options);
  OpDeltaCapture(sql::Executor* executor, std::shared_ptr<OpDeltaSink> sink)
      : OpDeltaCapture(executor, std::move(sink), Options()) {}

  /// Begins a transaction, informing the sink.
  Result<std::unique_ptr<txn::Transaction>> Begin();

  /// Captures the operation, then submits it to the DBMS.
  Result<size_t> Execute(txn::Transaction* txn, const sql::Statement& stmt);

  Status Commit(txn::Transaction* txn);
  Status Abort(txn::Transaction* txn);

  /// Convenience: runs the statements as one captured transaction.
  Result<size_t> RunTransaction(const std::vector<sql::Statement>& stmts);

  /// Captured ALTER TABLE: migrates the source (Database::AlterTable, its
  /// own internal transaction), then records the schema event in the
  /// stream as a one-event capture transaction. Returns the post-change
  /// DDL epoch. Ordering is engine-first: the migration is the authority,
  /// the event its announcement. A crash between the two loses the
  /// announcement only — downstream then sees frames stamped with an
  /// epoch it has no event for and quarantines (fail loud, never guess).
  Result<uint64_t> ExecuteDdl(const sql::AlterStmt& stmt);

 private:
  sql::Executor* executor_;
  std::shared_ptr<OpDeltaSink> sink_;
  Options options_;
  std::atomic<uint64_t> next_seq_{1};
};

/// Maps source table name -> schema, for decoding hybrid before images.
/// Captured streams may interleave operations on several tables (e.g. a
/// fact and its dimension).
using SchemaMap = std::map<std::string, catalog::Schema>;

/// Reads captured transactions back out of either sink, committed
/// transactions only, in capture order.
class OpDeltaLogReader {
 public:
  /// Parses an OpDeltaFileSink log. Before images are decoded with the
  /// schema of the statement's target table.
  static Status ReadFile(const std::string& path, const SchemaMap& schemas,
                         std::vector<OpDeltaTxn>* out);

  /// Single-table convenience: every statement targets a table with this
  /// schema.
  static Status ReadFile(const std::string& path,
                         const catalog::Schema& source_schema,
                         std::vector<OpDeltaTxn>* out);

  /// Drains an OpDeltaDbSink table (reads committed entries and deletes
  /// them).
  static Status DrainDbTable(engine::Database* db,
                             const std::string& log_table,
                             const SchemaMap& schemas,
                             std::vector<OpDeltaTxn>* out);

  static Status DrainDbTable(engine::Database* db,
                             const std::string& log_table,
                             const catalog::Schema& source_schema,
                             std::vector<OpDeltaTxn>* out);
};

/// Total transport volume of a set of captured transactions.
uint64_t OpDeltaVolumeBytes(const std::vector<OpDeltaTxn>& txns,
                            const catalog::Schema& schema);

/// Serializes transactions in the file-log line format — the Op-Delta wire
/// representation used for queue shipping.
std::string SerializeOpDeltaTxns(const std::vector<OpDeltaTxn>& txns);

/// Parses a serialized log buffer (inverse of SerializeOpDeltaTxns / the
/// file sink's output). Only committed transactions are returned.
Status ParseOpDeltaLog(const std::string& data, const SchemaMap& schemas,
                       std::vector<OpDeltaTxn>* out);

}  // namespace opdelta::extract

#endif  // OPDELTA_EXTRACT_OP_DELTA_H_
