#ifndef OPDELTA_PIPELINE_SOURCE_LEG_H_
#define OPDELTA_PIPELINE_SOURCE_LEG_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "extract/delta.h"
#include "extract/log_extractor.h"
#include "extract/op_delta.h"
#include "pipeline/pipeline_options.h"
#include "sql/executor.h"
#include "transport/persistent_queue.h"
#include "warehouse/integrator.h"

namespace opdelta::pipeline {

/// Counters for one extract→ship leg.
struct LegStats {
  uint64_t rounds = 0;             // ExtractAndShip calls
  uint64_t records_extracted = 0;  // value-delta images / op statements
  uint64_t batches_shipped = 0;
  uint64_t bytes_shipped = 0;
};

/// One source table's extract→ship half of the Figure-1 loop: watermarked
/// extraction by any Method, durable shipping through a PersistentQueue,
/// restart-safe state. The integrate half is pulled by whoever consumes the
/// queue — a `hub::DeltaHub` round task, or a test or tool driving one leg
/// by hand — via PeekShipped / Integrate / AckShipped.
///
/// The queue log (`<work_dir>/queue/queue-*.log`) is the leg's only durable
/// state. Every frame carries the extraction position that holds after it,
/// in the same synced append as its batch: once a batch is in the queue it
/// is never re-extracted, a crash before integration replays it from the
/// queue (at-least-once delivery), and Setup resumes from the newest
/// frame. An empty round writes nothing.
///
/// Threading: ExtractAndShip and the consumer-side calls may run on
/// different threads, but each side must be externally serialized (one
/// producer, one consumer at a time).
class SourceLeg {
 public:
  static Result<std::unique_ptr<SourceLeg>> Create(engine::Database* source,
                                                   PipelineOptions options);

  /// Installs capture machinery (trigger / op-log table), opens the queue,
  /// and restores the capture epoch, the next seq and the extraction
  /// position from the queue's newest frame (a fresh epoch when there is
  /// none). Idempotent.
  Status Setup();

  /// For Method::kOpDelta: the capture wrapper the application must route
  /// its statements through. nullptr for other methods.
  extract::OpDeltaCapture* capture() { return capture_.get(); }

  /// Extracts changes since the position, ships them durably in one frame
  /// that carries the advanced position. `*shipped` reports whether a batch
  /// went out.
  /// When `shipped_message` is non-null it receives a copy of the framed
  /// message that went out (empty if nothing shipped) — the backfiller
  /// inspects it for events concurrent with a chunk select.
  ///
  /// At most one frame ships per call. An op-delta drain that crosses a
  /// captured DDL event is split into per-schema-epoch frames (one epoch
  /// stamp per frame); the extras stay pending in memory and ship, in
  /// order, on the following calls — callers that loop until `!*shipped`
  /// (or until a marker arrives) drain them naturally.
  Status ExtractAndShip(bool* shipped = nullptr,
                        std::string* shipped_message = nullptr);

  /// Ships a backfill snapshot chunk through the same durable queue,
  /// stamped with the leg's next (epoch, seq) and the snapshot marker, so
  /// the warehouse integrates and dedupes it exactly like a live batch.
  /// Rejected with Busy while an extracted-but-unshipped live batch is
  /// pending (its identity is already stamped with the next seq).
  Status ShipSnapshot(const extract::DeltaBatch& chunk);

  /// Consumer side: the oldest shipped-but-unacknowledged message.
  /// NotFound when the backlog is empty.
  Status PeekShipped(std::string* message);

  /// Acknowledges the message returned by the last PeekShipped.
  Status AckShipped();

  /// Shipped-but-unacknowledged batches (counts across restarts).
  Result<uint64_t> Backlog();

  /// Applies one shipped message to `warehouse` (table
  /// options().warehouse_table) through DecodeShipped and ApplyShipped,
  /// decoding op-delta payloads against this leg's source schemas. The
  /// message's stamped BatchId is checked against and advanced in `ledger`
  /// (may be nullptr) atomically with the apply; op-delta statements parse
  /// through `cache` (may be nullptr). Accumulates into *stats (may be
  /// nullptr).
  Status Integrate(engine::Database* warehouse,
                   warehouse::ApplyLedger* ledger, const std::string& message,
                   sql::StatementCache* cache,
                   warehouse::IntegrationStats* stats);

  const PipelineOptions& options() const { return options_; }
  const LegStats& stats() const { return stats_; }
  engine::Database* source() { return source_; }

 private:
  SourceLeg(engine::Database* source, PipelineOptions options);

  /// Extracts pending changes into one or more framed queue messages
  /// appended to `pending_` (none = nothing to ship). Op-delta drains
  /// split at schema events; every other method yields at most one frame.
  Status ExtractPending();

  engine::Database* source_;
  PipelineOptions options_;
  transport::PersistentQueue queue_;
  std::unique_ptr<sql::Executor> source_executor_;
  std::unique_ptr<extract::OpDeltaCapture> capture_;
  // Kept for the leg's lifetime so each kLog round reads only the log
  // written since the previous one.
  extract::LogExtractor log_extractor_;
  bool setup_done_ = false;

  // Batch-identity state, restored by Setup from the newest frame:
  // `epoch_` is minted once per capture-state lifetime, `next_seq_` stamps
  // the next shipped batch.
  uint64_t epoch_ = 0;
  uint64_t next_seq_ = 1;

  // Extraction position (extract::BatchId::position): the timestamp
  // watermark (kTimestamp), the LSN watermark (kLog), 0 (kTrigger), or the
  // source DDL epoch through which the op log has been drained (kOpDelta).
  // The source catalog may already be several DDL changes ahead of rows
  // still sitting in the op log; drained before images decode against the
  // schemas of *this* epoch, not the current one.
  uint64_t position_ = 0;
  LegStats stats_;

  // Batches that were extracted but not yet durably enqueued, in ship
  // order, each already framed under its stamped identity. Extraction is
  // destructive for kTrigger/kOpDelta (the capture table is drained) and
  // advances the in-memory position for the others, so the frames must be
  // retained and retried — dropping them on a ship failure would lose
  // data. More than one entry pends only when an op-delta drain was split
  // at schema events into per-epoch frames.
  struct PendingFrame {
    std::string frame;
    uint64_t records = 0;
    uint64_t seq = 0;  // the identity stamped into `frame`
  };
  std::deque<PendingFrame> pending_;
};

/// Message framing. A shipped message is an 'F' identity frame — 'F',
/// version byte (2), fixed32 feature bits, kind ('B' live batch, 'C'
/// backfill snapshot chunk), the stamped extract::BatchId (length-prefixed
/// source id, fixed64 epoch, seq, schema epoch and position), and a CRC32C
/// over the payload — around a payload that is a one-byte tag ('V'
/// value-delta batch, 'O' op-delta transaction log) plus the encoded body.
/// Unknown frame versions, feature bits, or kinds fail with
/// kSchemaMismatch naming the offender — never a guessed decode.
Status DecodeValueDeltaMessage(const std::string& message,
                               extract::DeltaBatch* out);
void EncodeValueDeltaMessage(const extract::DeltaBatch& batch,
                             std::string* out);
/// True for an op-delta payload ('O').
bool IsOpDeltaMessage(const std::string& message);

/// Wraps `inner` (a 'V'/'O' payload) in an 'F' identity frame.
void EncodeBatchFrame(const extract::BatchId& id, const std::string& inner,
                      std::string* out);

/// Splits an 'F' frame into its identity and verified payload. Anything
/// else, and a payload whose CRC does not match, fails with Corruption.
Status DecodeBatchFrame(const std::string& message, extract::BatchId* id,
                        std::string* inner);

/// Reads just the identity without copying or verifying the payload. On
/// failure *id is left invalid.
Status DecodeBatchHeader(Slice message, extract::BatchId* id);

/// A shipped message, decoded: its stamped identity and exactly one of a
/// value-delta batch or op-delta transactions.
struct ShippedBatch {
  extract::BatchId id;
  bool op_delta = false;
  extract::DeltaBatch delta;              // !op_delta
  std::vector<extract::OpDeltaTxn> txns;  // op_delta
};

/// The schemas an op-delta payload decodes against, given the schema epoch
/// stamped in its frame: captured statements can touch auxiliary tables
/// besides the shipped one, and hybrid before images need each touched
/// table's schema to parse.
using SchemaSource =
    std::function<Result<std::shared_ptr<const catalog::SchemaMap>>(
        uint64_t schema_epoch)>;

/// The one decoder of shipped messages: frame, CRC, then the payload by its
/// tag. An unknown tag fails with Corruption.
Status DecodeShipped(const std::string& message, const SchemaSource& schemas,
                     ShippedBatch* out);

/// The one applier of shipped batches. Value-delta batches integrate into
/// `table` as idempotent net changes (one indivisible transaction);
/// op-delta transactions replay through warehouse::OpDeltaIntegrator, one
/// warehouse transaction each, parsing through `cache` (may be nullptr).
/// `ledger` (may be nullptr) dedupes on batch.id and records progress
/// atomically with the apply. Accumulates into *stats (may be nullptr).
Status ApplyShipped(engine::Database* warehouse, const std::string& table,
                    const ShippedBatch& batch, warehouse::ApplyLedger* ledger,
                    sql::StatementCache* cache,
                    warehouse::IntegrationStats* stats);

/// Whether a warehouse table of `warehouse_schema` may be fed from
/// `source_table` of `source` by `method`: the schemas are equal, or the
/// method is op-delta and the warehouse trails the source by captured
/// ALTERs — it equals the table's schema at an earlier DDL epoch, as after
/// a restart between a DDL capture and its apply, and the still-queued
/// migration events catch it up. Any other difference is drift.
bool WarehouseSchemaFits(Method method, engine::Database* source,
                         const std::string& source_table,
                         const catalog::Schema& warehouse_schema);

}  // namespace opdelta::pipeline

#endif  // OPDELTA_PIPELINE_SOURCE_LEG_H_
