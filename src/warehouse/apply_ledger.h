#ifndef OPDELTA_WAREHOUSE_APPLY_LEDGER_H_
#define OPDELTA_WAREHOUSE_APPLY_LEDGER_H_

#include <string>

#include "common/status.h"
#include "engine/database.h"
#include "extract/delta.h"

namespace opdelta::warehouse {

/// Durable record of which delta batches the warehouse has applied, stored
/// *in the warehouse itself* so progress commits atomically with the delta
/// statements it describes. This is what turns the transport's
/// at-least-once delivery (Peek -> apply -> Ack) into exactly-once apply:
/// a crash between apply and Ack redelivers the batch, and the ledger
/// recognizes and drops it.
///
/// Layout: a table (`__apply_ledger`) of rows
///   (source TEXT, kind TEXT, epoch INT, seq INT, txns INT)
/// with two row kinds:
///   'W' — watermark: batch (epoch, seq) applied through its first `txns`
///         source transactions. One row per source, rewritten by every
///         Advance *inside the apply transaction*, so a rolled-back apply
///         also rolls back its progress record.
///   'H' — hole: batch (epoch, seq) was skipped past (dead-lettered) after
///         `txns` transactions. Holes let an operator replay land below the
///         watermark without being mistaken for a duplicate; applying the
///         batch clears its holes in the same transaction.
///
/// Each write replaces the rows it supersedes with their successor in one
/// transaction (in place when there is one), so the table holds one 'W'
/// row per source plus one 'H' row per open hole, and the per-transaction
/// cost does not grow with the number of batches applied. A write never
/// moves progress backwards: it keeps the largest (epoch, seq, txns) of the
/// rows it replaces and the new one. Reads take that same largest row, so
/// a table holding several rows per key (written by an append-only build)
/// reads unchanged and collapses on its first write.
///
/// Thread safety: callers for the *same* source must be externally
/// serialized (the hub's per-table worker lanes guarantee this); distinct
/// sources may Admit/Advance concurrently — their writes touch disjoint
/// rows.
class ApplyLedger {
 public:
  static constexpr char kTable[] = "__apply_ledger";

  explicit ApplyLedger(engine::Database* warehouse) : db_(warehouse) {}

  /// The ledger table's schema (source is the key column by convention).
  static catalog::Schema TableSchema();

  /// Creates the ledger table if missing. Idempotent.
  Status Setup();

  /// Effective applied watermark of a source; exists=false when the source
  /// has never applied a batch.
  struct Watermark {
    bool exists = false;
    uint64_t epoch = 0;
    uint64_t seq = 0;
    uint64_t txns = 0;  // applied source-txn prefix of batch (epoch, seq)
  };
  Result<Watermark> Get(const std::string& source_id);

  /// Admission decision for a (re)delivered batch.
  enum class Decision {
    kFresh,      // never seen: apply from the start
    kResume,     // partially applied: skip the first `skip_txns`
    kDuplicate,  // fully applied (or superseded): drop, do not apply
  };
  struct Admission {
    Decision decision = Decision::kFresh;
    uint64_t skip_txns = 0;  // kResume: already-applied prefix to skip
  };

  /// Decides what to do with batch `id` carrying `total_txns` source
  /// transactions (value-delta batches count as 1). Invalid ids are
  /// admitted as kFresh — identity-less batches bypass deduplication.
  Result<Admission> Admit(const extract::BatchId& id, uint64_t total_txns);

  /// Records inside the caller's open warehouse transaction that batch
  /// `id` is applied through its first `txns_applied` source transactions.
  /// Also clears any hole row for `id` (an operator replay completing).
  Status Advance(txn::Transaction* txn, const extract::BatchId& id,
                 uint64_t txns_applied);

  /// Records that batch `id` was skipped past without (fully) applying —
  /// the dead-letter path. Runs in its own transaction. The hole carries
  /// the currently-applied prefix so a later replay resumes, not repeats.
  Status RecordSkip(const extract::BatchId& id);

  /// No-op: the ledger keeps one row per key, so there is nothing to prune.
  /// Kept only for its one caller, cdcbench/cdcbench.cc.
  Status Compact() { return Status::OK(); }

  const char* table() const { return kTable; }

 private:
  /// The largest (epoch, seq, txns) among the rows matching `rows`;
  /// `*matched`, when given, receives how many rows matched.
  Result<Watermark> Newest(txn::Transaction* txn,
                           const engine::Predicate& rows,
                           size_t* matched = nullptr);

  /// Replaces the rows matching `rows` (one source's rows of `kind`, and
  /// for holes of one batch) with a single row carrying the larger of
  /// `mark` and the newest of them. One matching row is updated in place.
  Status Put(txn::Transaction* txn, const engine::Predicate& rows,
             const std::string& source_id, const char* kind, Watermark mark);

  engine::Database* db_;
};

}  // namespace opdelta::warehouse

#endif  // OPDELTA_WAREHOUSE_APPLY_LEDGER_H_
