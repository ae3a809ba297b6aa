#include "pipeline/source_leg.h"

#include <algorithm>

#include "common/clock.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/env.h"
#include "extract/timestamp_extractor.h"
#include "extract/trigger_extractor.h"

namespace opdelta::pipeline {

using extract::DeltaBatch;

namespace {
// Message framing (see source_leg.h): an 'F' identity frame around a
// 'V'/'O' payload. The kind byte inside the frame marks live ('B') versus
// backfill snapshot ('C') batches.
constexpr char kValueDeltaMessage = 'V';
constexpr char kOpDeltaMessage = 'O';
constexpr char kFrame = 'F';
constexpr char kLiveKind = 'B';
constexpr char kSnapshotKind = 'C';
constexpr uint8_t kFrameVersion = 2;
// Feature bits reserved for additive frame extensions. None are defined
// yet, so any set bit comes from a newer writer this build cannot decode.
constexpr uint32_t kKnownFeatureBits = 0;

// Consumes an 'F' frame up to its payload: the preamble (version, feature
// bits, kind — anything this build does not understand is a reader/writer
// skew and fails with kSchemaMismatch naming it), the identity and the
// payload CRC. *id is assigned only on success.
Status DecodeFrameHeader(Slice* input, extract::BatchId* id, uint32_t* crc) {
  if (input->empty()) return Status::Corruption("empty pipeline message");
  if ((*input)[0] != kFrame) {
    return Status::Corruption(
        std::string("unknown pipeline message frame tag '") + (*input)[0] +
        "'");
  }
  input->remove_prefix(1);
  if (input->empty()) return Status::Corruption("batch frame preamble");
  const uint8_t version = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  if (version != kFrameVersion) {
    return Status::SchemaMismatch(
        "batch frame version " + std::to_string(version) +
        " is not supported by this build (max " +
        std::to_string(kFrameVersion) + ")");
  }
  uint32_t features = 0;
  if (!GetFixed32(input, &features)) {
    return Status::Corruption("batch frame preamble");
  }
  if ((features & ~kKnownFeatureBits) != 0) {
    uint32_t unknown = features & ~kKnownFeatureBits;
    std::string hex = "0x";
    for (int shift = 28; shift >= 0; shift -= 4) {
      hex.push_back("0123456789abcdef"[(unknown >> shift) & 0xf]);
    }
    return Status::SchemaMismatch("batch frame carries unknown feature bits " +
                                  hex + "; a newer writer produced it");
  }
  if (input->empty()) return Status::Corruption("batch frame kind");
  const char kind = (*input)[0];
  input->remove_prefix(1);
  if (kind != kLiveKind && kind != kSnapshotKind) {
    return Status::SchemaMismatch(
        std::string("batch frame has unknown kind tag '") + kind +
        "'; a newer writer produced it");
  }
  extract::BatchId decoded;
  decoded.snapshot = kind == kSnapshotKind;
  Slice source;
  if (!GetLengthPrefixed(input, &source) ||
      !GetFixed64(input, &decoded.epoch) || !GetFixed64(input, &decoded.seq) ||
      !GetFixed64(input, &decoded.schema_epoch) ||
      !GetFixed64(input, &decoded.position) || !GetFixed32(input, crc)) {
    return Status::Corruption("batch identity frame");
  }
  decoded.source_id = source.ToString();
  *id = std::move(decoded);
  return Status::OK();
}
}  // namespace

const char* MethodName(Method method) {
  switch (method) {
    case Method::kTimestamp:
      return "timestamp";
    case Method::kLog:
      return "log";
    case Method::kTrigger:
      return "trigger";
    case Method::kOpDelta:
      return "op-delta";
  }
  return "?";
}

bool ParseMethod(const std::string& name, Method* out) {
  if (name == "timestamp") {
    *out = Method::kTimestamp;
  } else if (name == "log") {
    *out = Method::kLog;
  } else if (name == "trigger") {
    *out = Method::kTrigger;
  } else if (name == "op-delta" || name == "opdelta") {
    *out = Method::kOpDelta;
  } else {
    return false;
  }
  return true;
}

bool IsOpDeltaMessage(const std::string& message) {
  return !message.empty() && message[0] == kOpDeltaMessage;
}

Status DecodeValueDeltaMessage(const std::string& message, DeltaBatch* out) {
  if (message.empty() || message[0] != kValueDeltaMessage) {
    return Status::InvalidArgument("not a value-delta message");
  }
  return DeltaBatch::DecodeFrom(
      Slice(message.data() + 1, message.size() - 1), out);
}

void EncodeValueDeltaMessage(const DeltaBatch& batch, std::string* out) {
  out->clear();
  out->push_back(kValueDeltaMessage);
  batch.EncodeTo(out);
}

void EncodeBatchFrame(const extract::BatchId& id, const std::string& inner,
                      std::string* out) {
  out->clear();
  out->push_back(kFrame);
  out->push_back(static_cast<char>(kFrameVersion));
  PutFixed32(out, kKnownFeatureBits);
  out->push_back(id.snapshot ? kSnapshotKind : kLiveKind);
  PutLengthPrefixed(out, Slice(id.source_id));
  PutFixed64(out, id.epoch);
  PutFixed64(out, id.seq);
  PutFixed64(out, id.schema_epoch);
  PutFixed64(out, id.position);
  // End-to-end payload checksum, stamped once at capture and carried with
  // the batch through every hop (queue, staging memory, dead-letter files,
  // any transport). The queue's own per-frame CRC only covers its log;
  // this one means bit-rot anywhere between capture and apply is caught
  // at apply time instead of silently integrated.
  PutFixed32(out, Crc32c(inner.data(), inner.size()));
  out->append(inner);
}

Status DecodeBatchHeader(Slice message, extract::BatchId* id) {
  *id = extract::BatchId();
  // Header-only read: the payload CRC is verified by DecodeBatchFrame on
  // the apply path, not here.
  uint32_t crc = 0;
  return DecodeFrameHeader(&message, id, &crc);
}

Status DecodeBatchFrame(const std::string& message, extract::BatchId* id,
                        std::string* inner) {
  *id = extract::BatchId();
  Slice input(message);
  uint32_t crc = 0;
  OPDELTA_RETURN_IF_ERROR(DecodeFrameHeader(&input, id, &crc));
  if (Crc32c(input.data(), input.size()) != crc) {
    // Deterministic Corruption: the hub's apply path diverts the batch to
    // the dead-letter log instead of retrying a damaged payload forever.
    return Status::Corruption("batch payload crc mismatch for " +
                              id->ToString());
  }
  inner->assign(input.data(), input.size());
  return Status::OK();
}

Status DecodeShipped(const std::string& message, const SchemaSource& schemas,
                     ShippedBatch* out) {
  std::string payload;
  OPDELTA_RETURN_IF_ERROR(DecodeBatchFrame(message, &out->id, &payload));
  if (payload.empty()) return Status::Corruption("empty pipeline message");
  out->op_delta = false;
  switch (payload[0]) {
    case kValueDeltaMessage:
      return DecodeValueDeltaMessage(payload, &out->delta);
    case kOpDeltaMessage: {
      // Decode against the all-tables map of the epoch the frame was
      // *encoded* under; an epoch the schema source does not know fails
      // with kSchemaMismatch instead of a guessed decode.
      out->op_delta = true;
      OPDELTA_ASSIGN_OR_RETURN(std::shared_ptr<const catalog::SchemaMap> map,
                               schemas(out->id.schema_epoch));
      return extract::ParseOpDeltaLog(payload.substr(1), *map, &out->txns);
    }
    default:
      return Status::Corruption("unknown pipeline message tag");
  }
}

Status ApplyShipped(engine::Database* warehouse, const std::string& table,
                    const ShippedBatch& batch, warehouse::ApplyLedger* ledger,
                    sql::StatementCache* cache,
                    warehouse::IntegrationStats* stats) {
  // Net-change integration is idempotent under at-least-once delivery, and
  // exactly-once when a ledger dedupes the redeliveries outright. Both
  // appliers overwrite their stats; accumulate into the caller's.
  warehouse::IntegrationStats local;
  if (batch.op_delta) {
    warehouse::OpDeltaIntegrator integrator(warehouse, cache);
    OPDELTA_RETURN_IF_ERROR(
        integrator.Apply(batch.txns, batch.id, ledger, &local));
  } else {
    OPDELTA_RETURN_IF_ERROR(warehouse::ApplyNetChanges(
        warehouse, table, batch.delta, batch.id, ledger, &local));
  }
  if (stats != nullptr) {
    stats->statements_executed += local.statements_executed;
    stats->rows_affected += local.rows_affected;
    stats->transactions += local.transactions;
    stats->wall_micros += local.wall_micros;
    stats->outage_micros += local.outage_micros;
    stats->duplicate_batches += local.duplicate_batches;
    stats->duplicate_txns += local.duplicate_txns;
    stats->schema_migrations += local.schema_migrations;
    stats->schema_epoch = std::max(stats->schema_epoch, batch.id.schema_epoch);
  }
  return Status::OK();
}

bool WarehouseSchemaFits(Method method, engine::Database* source,
                         const std::string& source_table,
                         const catalog::Schema& warehouse_schema) {
  engine::Table* table = source->GetTable(source_table);
  if (table != nullptr && table->schema() == warehouse_schema) return true;
  if (method != Method::kOpDelta) return false;
  for (uint64_t e = source->ddl_epoch(); e >= 1; --e) {
    Result<std::shared_ptr<const catalog::SchemaMap>> at =
        source->SchemaMapAt(e);
    if (!at.ok()) break;
    auto it = (*at)->find(source_table);
    if (it != (*at)->end() && it->second == warehouse_schema) return true;
  }
  return false;
}

SourceLeg::SourceLeg(engine::Database* source, PipelineOptions options)
    : source_(source),
      options_(std::move(options)),
      log_extractor_(source->wal()->dir()) {}

Result<std::unique_ptr<SourceLeg>> SourceLeg::Create(
    engine::Database* source, PipelineOptions options) {
  if (options.work_dir.empty()) {
    return Status::InvalidArgument("work_dir required");
  }
  engine::Table* table = source->GetTable(options.source_table);
  if (table == nullptr) {
    return Status::NotFound("source table " + options.source_table);
  }
  if (options.method == Method::kTimestamp &&
      table->schema().TimestampColumnIndex() < 0) {
    // The method extracts by the engine-stamped column.
    return Status::InvalidArgument("timestamp source table has no "
                                   "TIMESTAMP column: " +
                                   options.source_table);
  }
  if (options.source_id.empty()) options.source_id = options.source_table;
  if (options.method == Method::kOpDelta &&
      options.warehouse_table != options.source_table) {
    // Captured statements name the source table; they replay verbatim.
    return Status::NotSupported(
        "op-delta source requires matching table names: " +
        options.source_id);
  }
  return std::unique_ptr<SourceLeg>(
      new SourceLeg(source, std::move(options)));
}

Status SourceLeg::Setup() {
  if (setup_done_) return Status::OK();
  OPDELTA_RETURN_IF_ERROR(Env::Default()->CreateDir(options_.work_dir));
  OPDELTA_RETURN_IF_ERROR(queue_.Open(options_.work_dir + "/queue"));

  // The newest frame holds the leg's restart state: its epoch, its seq and
  // the position after it, synced in one append with its batch.
  std::string newest;
  Status peek = queue_.PeekLast(&newest);
  if (!peek.ok() && !peek.IsNotFound()) return peek;
  extract::BatchId id;
  if (peek.ok() && DecodeBatchHeader(Slice(newest), &id).ok() && id.valid()) {
    epoch_ = id.epoch;
    next_seq_ = id.seq + 1;
    position_ = id.position;
  } else {
    // No frame (an empty queue, or a newest message that carries no
    // state): start afresh under a new epoch, ordered after any applied one
    // by the wall clock so recycled seqs never collide with identities the
    // ledger recorded. An op-delta leg drains from the current DDL epoch.
    epoch_ = static_cast<uint64_t>(RealClock::Default()->NowMicros());
    next_seq_ = 1;
    position_ =
        options_.method == Method::kOpDelta ? source_->ddl_epoch() : 0;
  }

  switch (options_.method) {
    case Method::kTrigger: {
      Result<std::string> delta_table =
          extract::TriggerExtractor::Install(source_, options_.source_table);
      if (!delta_table.ok() &&
          delta_table.status().code() != StatusCode::kAlreadyExists) {
        return delta_table.status();
      }
      break;
    }
    case Method::kOpDelta: {
      if (source_->GetTable(options_.op_log_table) == nullptr) {
        OPDELTA_RETURN_IF_ERROR(source_->CreateTable(
            options_.op_log_table, extract::OpDeltaLogTableSchema()));
      }
      source_executor_ = std::make_unique<sql::Executor>(source_);
      capture_ = std::make_unique<extract::OpDeltaCapture>(
          source_executor_.get(),
          std::make_shared<extract::OpDeltaDbSink>(options_.op_log_table),
          extract::OpDeltaCapture::Options());
      break;
    }
    case Method::kTimestamp:
    case Method::kLog:
      break;  // pure readers, nothing to install
  }
  setup_done_ = true;
  return Status::OK();
}

Status SourceLeg::ExtractPending() {
  engine::Table* src = source_->GetTable(options_.source_table);

  // Frames the inner message under the identity stamped at capture: a
  // ship retry re-ships these exact bytes under this exact identity, so
  // the warehouse sees one stable (source, epoch, seq) per batch of data.
  // Consecutive pending frames get consecutive seqs. Each frame carries
  // the position that holds after it, so callers advance position_ first.
  auto stage = [&](const std::string& inner, uint64_t records,
                   uint64_t schema_epoch) {
    extract::BatchId id{options_.source_id, epoch_,
                        next_seq_ + pending_.size()};
    id.schema_epoch = schema_epoch;
    id.position = position_;
    PendingFrame pf;
    pf.records = records;
    pf.seq = id.seq;
    EncodeBatchFrame(id, inner, &pf.frame);
    pending_.push_back(std::move(pf));
  };

  switch (options_.method) {
    case Method::kTimestamp: {
      // The schema's stamped column (Create checked there is one; a DDL
      // may have dropped it since).
      const int ts_col = src->schema().TimestampColumnIndex();
      if (ts_col < 0) {
        return Status::NotSupported("no TIMESTAMP column in " +
                                    options_.source_table);
      }
      extract::TimestampExtractor extractor(
          source_, options_.source_table,
          src->schema().column(static_cast<size_t>(ts_col)).name);
      Micros watermark = static_cast<Micros>(position_);
      OPDELTA_ASSIGN_OR_RETURN(DeltaBatch batch,
                               extractor.ExtractSince(watermark));
      if (batch.records.empty()) return Status::OK();
      // Advance conservatively to the largest timestamp actually seen.
      for (const extract::DeltaRecord& r : batch.records) {
        if (!r.image[ts_col].is_null() &&
            r.image[ts_col].AsTimestamp() > watermark) {
          watermark = r.image[ts_col].AsTimestamp();
        }
      }
      position_ = static_cast<uint64_t>(watermark);
      std::string inner;
      EncodeValueDeltaMessage(batch, &inner);
      stage(inner, batch.records.size(), source_->ddl_epoch());
      return Status::OK();
    }

    case Method::kLog: {
      txn::Lsn new_watermark = position_;
      OPDELTA_ASSIGN_OR_RETURN(
          DeltaBatch batch,
          log_extractor_.ExtractSince(position_, src->id(),
                                      options_.source_table, src->schema(),
                                      &new_watermark));
      // The watermark may advance on an empty batch too (records on other
      // tables); it is persisted with the next frame that ships.
      position_ = new_watermark;
      if (batch.records.empty()) return Status::OK();
      std::string inner;
      EncodeValueDeltaMessage(batch, &inner);
      stage(inner, batch.records.size(), source_->ddl_epoch());
      return Status::OK();
    }

    case Method::kTrigger: {
      OPDELTA_ASSIGN_OR_RETURN(
          DeltaBatch batch,
          extract::TriggerExtractor::Drain(source_, options_.source_table));
      if (batch.records.empty()) return Status::OK();
      std::string inner;
      EncodeValueDeltaMessage(batch, &inner);
      stage(inner, batch.records.size(), source_->ddl_epoch());
      return Status::OK();
    }

    case Method::kOpDelta: {
      // Drained before images decode against the schemas of the epoch the
      // log rows were *written* under — the source catalog may already be
      // past it. The assembler's own overlay then tracks any schema
      // events found mid-log.
      OPDELTA_ASSIGN_OR_RETURN(
          std::shared_ptr<const catalog::SchemaMap> schemas,
          source_->SchemaMapAt(position_));
      std::vector<extract::OpDeltaTxn> txns;
      OPDELTA_RETURN_IF_ERROR(extract::OpDeltaLogReader::DrainDbTable(
          source_, options_.op_log_table, *schemas, &txns));
      if (txns.empty()) return Status::OK();

      // Split the drain at schema events: a frame carries exactly one
      // schema-epoch stamp, but before images on the two sides of a DDL
      // encode under different schemas. Each segment ships under the
      // epoch its rows were written in and ends with the event that
      // closes that epoch, whose post-change epoch is the segment's
      // position and the next segment's schema epoch.
      std::vector<extract::OpDeltaTxn> segment;
      uint64_t seg_records = 0;
      auto flush_segment = [&](uint64_t schema_epoch) {
        if (segment.empty()) return;
        std::string inner(1, kOpDeltaMessage);
        inner.append(extract::SerializeOpDeltaTxns(segment));
        stage(inner, seg_records, schema_epoch);
        segment.clear();
        seg_records = 0;
      };
      for (extract::OpDeltaTxn& t : txns) {
        uint64_t post_ddl_epoch = 0;
        for (const extract::OpDeltaRecord& op : t.ops) {
          if (op.is_schema_event()) {
            post_ddl_epoch = op.schema_event->ddl_epoch;
          }
        }
        seg_records += t.ops.size();
        segment.push_back(std::move(t));
        if (post_ddl_epoch != 0) {
          const uint64_t schema_epoch = position_;
          position_ = post_ddl_epoch;
          flush_segment(schema_epoch);
        }
      }
      flush_segment(position_);
      return Status::OK();
    }
  }
  return Status::Internal("bad method");
}

Status SourceLeg::ExtractAndShip(bool* shipped,
                                 std::string* shipped_message) {
  if (shipped != nullptr) *shipped = false;
  if (shipped_message != nullptr) shipped_message->clear();
  if (!setup_done_) return Status::Internal("call Setup() first");
  stats_.rounds++;

  if (pending_.empty()) {
    // Nothing staged from a failed ship or a DDL-split drain: extract.
    // Extraction is destructive (drained capture state / advanced
    // position), so anything it stages must ship or stay pending.
    OPDELTA_RETURN_IF_ERROR(ExtractPending());
  }
  if (pending_.empty()) return Status::OK();

  PendingFrame& front = pending_.front();
  OPDELTA_RETURN_IF_ERROR(queue_.Enqueue(Slice(front.frame),
                                         /*durable=*/true));
  next_seq_ = front.seq + 1;
  stats_.records_extracted += front.records;
  stats_.batches_shipped++;
  stats_.bytes_shipped += front.frame.size();
  if (shipped != nullptr) *shipped = true;
  if (shipped_message != nullptr) *shipped_message = front.frame;
  pending_.pop_front();
  return Status::OK();
}

Status SourceLeg::ShipSnapshot(const extract::DeltaBatch& chunk) {
  if (!setup_done_) return Status::Internal("call Setup() first");
  if (!pending_.empty()) {
    // Pending live batches were already stamped from next_seq_ on;
    // shipping a snapshot under the same numbers would make the ledger
    // drop one of the two. Retry the live ship first (ExtractAndShip
    // drains them).
    return Status::Busy("live batch pending; retry its ship first");
  }
  std::string inner;
  EncodeValueDeltaMessage(chunk, &inner);
  extract::BatchId id{options_.source_id, epoch_, next_seq_,
                      /*snapshot=*/true};
  id.schema_epoch = source_->ddl_epoch();
  // The chunk may be the newest frame when the leg restarts, so it carries
  // the position too.
  id.position = position_;
  std::string message;
  EncodeBatchFrame(id, inner, &message);
  OPDELTA_RETURN_IF_ERROR(queue_.Enqueue(Slice(message), /*durable=*/true));
  next_seq_++;
  stats_.batches_shipped++;
  stats_.bytes_shipped += message.size();
  return Status::OK();
}

Status SourceLeg::PeekShipped(std::string* message) {
  return queue_.Peek(message);
}

Status SourceLeg::AckShipped() { return queue_.Ack(); }

Result<uint64_t> SourceLeg::Backlog() { return queue_.Backlog(); }

Status SourceLeg::Integrate(engine::Database* warehouse,
                            warehouse::ApplyLedger* ledger,
                            const std::string& message,
                            sql::StatementCache* cache,
                            warehouse::IntegrationStats* stats) {
  ShippedBatch batch;
  OPDELTA_RETURN_IF_ERROR(DecodeShipped(
      message, [this](uint64_t epoch) { return source_->SchemaMapAt(epoch); },
      &batch));
  return ApplyShipped(warehouse, options_.warehouse_table, batch, ledger,
                      cache, stats);
}

}  // namespace opdelta::pipeline
