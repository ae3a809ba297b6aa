#ifndef OPDELTA_EXTRACT_DELTA_H_
#define OPDELTA_EXTRACT_DELTA_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "catalog/schema.h"
#include "catalog/value.h"
#include "txn/log_record.h"

namespace opdelta::engine {
class Database;
}  // namespace opdelta::engine

namespace opdelta::extract {

/// Kind of a value-delta record. Updates carry two records (before image +
/// after image), exactly as the paper's trigger experiment captures them.
enum class DeltaOp : uint8_t {
  kInsert = 0,        // image = new values
  kDelete = 1,        // image = old values
  kUpdateBefore = 2,  // image = old values
  kUpdateAfter = 3,   // image = new values
  kUpsert = 4,        // timestamp extraction: final state, op unknown
};

const char* DeltaOpName(DeltaOp op);

/// One captured value-delta image.
struct DeltaRecord {
  DeltaOp op = DeltaOp::kInsert;
  txn::TxnId source_txn = 0;  // 0 when the method cannot capture it
  uint64_t seq = 0;           // capture order within the batch
  catalog::Row image;
};

/// Stable identity of one shipped delta batch, stamped at capture time and
/// carried through the transport frame to the warehouse. The pair
/// (epoch, seq) orders batches from one source: `seq` increments per
/// shipped batch, `epoch` is minted when a source's capture state is
/// (re)initialized, so a wiped work_dir restarts with a larger epoch and
/// never reuses an already-applied identity. The warehouse ApplyLedger
/// dedupes redelivered batches on this identity.
struct BatchId {
  std::string source_id;
  uint64_t epoch = 0;
  uint64_t seq = 0;

  /// True for a backfill snapshot chunk riding the delta stream: the batch
  /// carries point-in-time row images selected by the backfiller, not
  /// captured changes. Snapshot batches share the source's (epoch, seq)
  /// sequence — the ledger dedupes them exactly like live batches — and
  /// the marker travels as the 'F' frame's kind byte ('C' instead of 'B').
  bool snapshot = false;

  /// Source DDL epoch the batch's payload was encoded under, stamped in
  /// every frame. Readers with no schema for the epoch fail with
  /// kSchemaMismatch instead of guessing.
  uint64_t schema_epoch = 0;

  /// The shipping leg's extraction position after this batch (timestamp or
  /// LSN watermark, drained DDL epoch, 0 for triggers); a restarted leg
  /// resumes from its newest frame's. Not part of the identity.
  uint64_t position = 0;

  /// Identity-less batches (unstamped tooling) apply without
  /// deduplication.
  bool valid() const { return !source_id.empty() && epoch != 0 && seq != 0; }

  /// "source@epoch:seq" — log/CLI display form.
  std::string ToString() const;

  bool operator==(const BatchId& o) const {
    return source_id == o.source_id && epoch == o.epoch && seq == o.seq;
  }
};

/// A batch of value deltas for one source table. This is the "differential
/// file" that research and commercial products assume is "somehow made
/// available".
struct DeltaBatch {
  std::string table;
  catalog::Schema schema;
  std::vector<DeltaRecord> records;

  /// Approximate transport volume: per-record encoded image size plus a
  /// small framing overhead. Used by the transport-volume benches.
  uint64_t SizeBytes() const;

  /// Binary (de)serialization for shipping through a PersistentQueue.
  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, DeltaBatch* out);
};

/// Net effect of a batch keyed by the table's key column: key -> final row
/// (nullopt = deleted). Used to compare extraction methods that observe
/// different granularities (timestamp sees only final states; triggers and
/// logs see every state change).
using NetChanges = std::map<catalog::Value, std::optional<catalog::Row>>;

/// Computes net changes. `key_col` defaults to the schema key column.
Status ComputeNetChanges(const DeltaBatch& batch, NetChanges* out);

/// Seq counter of a capture sink that writes into a table (the Op-Delta
/// DB log, a trigger delta table). Drains order the table by seq, so on
/// first use it starts one past the largest seq the table already holds
/// (1 if empty): a sink made after a restart never sorts below rows an
/// earlier one left.
class CaptureSeq {
 public:
  /// The next seq; `column` is the table's int64 seq column. Thread-safe.
  Result<uint64_t> Next(engine::Database* db, const std::string& table,
                        int column);

 private:
  std::atomic<uint64_t> next_{0};  // 0 until the table has been read
};

}  // namespace opdelta::extract

#endif  // OPDELTA_EXTRACT_DELTA_H_
