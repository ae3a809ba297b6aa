#include "hub/delta_hub.h"

#include <algorithm>
#include <unordered_map>

#include "backfill/backfiller.h"
#include "common/coding.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/random.h"
#include "extract/reconciler.h"
#include "hub/dead_letter.h"
#include "scrub/scrubber.h"

namespace opdelta::hub {

namespace {

/// Uniform ± fraction of a retry delay, added to desynchronize retries
/// across groups hitting a shared fault.
constexpr double kBackoffJitter = 0.2;
/// Group i's retry-jitter RNG is seeded with kRetrySeed + i, so retry
/// delays repeat from run to run.
constexpr uint64_t kRetrySeed = 1;

/// Transient integration failures: the batch stays queued and
/// SuperviseRound's backoff re-drives it. Everything else (Corruption,
/// InvalidArgument, NotSupported, NotFound, ...) is deterministic —
/// replaying it fails the same way forever.
bool IsTransientApplyError(const Status& st) {
  switch (st.code()) {
    case StatusCode::kConflict:
    case StatusCode::kBusy:
    case StatusCode::kAborted:
    case StatusCode::kIOError:
      return true;
    default:
      return false;
  }
}

/// Folds several errors into one: the first error's code, all distinct
/// messages joined. OK when the list is empty.
Status JoinErrors(const std::vector<Status>& errors) {
  if (errors.empty()) return Status::OK();
  if (errors.size() == 1) return errors.front();
  std::string joined;
  for (const Status& e : errors) {
    if (!joined.empty()) joined += "; ";
    joined += e.ToString();
  }
  switch (errors.front().code()) {
    case StatusCode::kNotFound: return Status::NotFound(joined);
    case StatusCode::kInvalidArgument: return Status::InvalidArgument(joined);
    case StatusCode::kIOError: return Status::IOError(joined);
    case StatusCode::kCorruption: return Status::Corruption(joined);
    case StatusCode::kConflict: return Status::Conflict(joined);
    case StatusCode::kBusy: return Status::Busy(joined);
    case StatusCode::kNotSupported: return Status::NotSupported(joined);
    case StatusCode::kAborted: return Status::Aborted(joined);
    case StatusCode::kAlreadyExists: return Status::AlreadyExists(joined);
    case StatusCode::kOutOfRange: return Status::OutOfRange(joined);
    case StatusCode::kSchemaMismatch: return Status::SchemaMismatch(joined);
    default: return Status::Internal(joined);
  }
}

constexpr size_t kMaxRetainedDriverErrors = 16;

}  // namespace

struct DeltaHub::Source {
  SourceSpec spec;
  std::unique_ptr<pipeline::SourceLeg> leg;
  std::unique_ptr<backfill::Backfiller> backfiller;  // spec.backfill only
  std::unique_ptr<scrub::Scrubber> scrubber;         // spec.scrub only
  size_t stats_index = 0;
};

/// A unit of scheduling: one standalone source, or all members of a
/// replica group. Per group at most one batch is in flight at a time, so
/// batches for any one source always apply in ship order.
struct DeltaHub::Group {
  std::string warehouse_table;
  std::vector<Source*> members;  // registration order = site priority

  // Self-healing state, touched only by its lane's round task (RunRound
  // schedules one task per lane); published into stats_ under
  // stats_mutex_.
  int consecutive_failures = 0;
  bool quarantined = false;
  int probes = 0;                // probes attempted while quarantined
  Micros next_probe_micros = 0;  // RealClock time of the next probe
  Rng rng{1};                    // backoff jitter, seeded per group
};

DeltaHub::DeltaHub(engine::Database* warehouse, HubOptions options)
    : warehouse_(warehouse), options_(std::move(options)) {}

DeltaHub::~DeltaHub() { (void)Stop(); }  // teardown; Stop() for errors

Result<std::unique_ptr<DeltaHub>> DeltaHub::Create(
    engine::Database* warehouse, HubOptions options) {
  if (warehouse == nullptr) {
    return Status::InvalidArgument("warehouse database required");
  }
  if (options.work_dir.empty()) {
    return Status::InvalidArgument("work_dir required");
  }
  if (options.extract_threads == 0) options.extract_threads = 1;
  return std::unique_ptr<DeltaHub>(
      new DeltaHub(warehouse, std::move(options)));
}

Status DeltaHub::AddSource(const SourceSpec& spec) {
  if (setup_done_) {
    return Status::InvalidArgument("AddSource must precede Setup");
  }
  if (spec.name.empty()) return Status::InvalidArgument("source name empty");
  if (spec.source == nullptr) {
    return Status::InvalidArgument("source database required");
  }
  for (const auto& existing : sources_) {
    if (existing->spec.name == spec.name) {
      return Status::AlreadyExists("source " + spec.name);
    }
  }
  engine::Table* dst = warehouse_->GetTable(spec.warehouse_table);
  if (dst == nullptr) {
    return Status::NotFound("warehouse table " + spec.warehouse_table);
  }
  if (spec.source->GetTable(spec.source_table) == nullptr) {
    return Status::NotFound("source table " + spec.source_table);
  }
  if (!pipeline::WarehouseSchemaFits(spec.method, spec.source,
                                     spec.source_table, dst->schema())) {
    return Status::InvalidArgument(
        "source and warehouse table schemas must match for " + spec.name);
  }
  if (spec.method == pipeline::Method::kOpDelta &&
      !spec.replica_group.empty()) {
    // §4.1: op-delta captures one authoritative stream at the wrapper, so
    // there is nothing to reconcile — replica groups are value-delta only.
    return Status::NotSupported(
        "op-delta sources cannot join a replica group: " + spec.name);
  }
  if (spec.backfill && !spec.replica_group.empty()) {
    // A snapshot chunk from one replica is not a net-change batch the
    // reconciler can merge against its peers' live batches.
    return Status::NotSupported(
        "backfill is not supported on replica-group members: " + spec.name);
  }
  if (spec.scrub && !spec.replica_group.empty()) {
    // Same reason as backfill — and worse: a repair's deletes would treat
    // the peers' reconciled rows as warehouse corruption.
    return Status::NotSupported(
        "scrub is not supported on replica-group members: " + spec.name);
  }
  // A scrub repair deletes warehouse keys its own source does not carry;
  // with a co-feeding source those keys are peer data, not corruption. So
  // a scrubbed warehouse table belongs to exactly one source.
  for (const auto& existing : sources_) {
    if ((spec.scrub || existing->spec.scrub) &&
        existing->spec.warehouse_table == spec.warehouse_table) {
      return Status::NotSupported(
          "scrub requires exclusive ownership of warehouse table " +
          spec.warehouse_table);
    }
  }

  pipeline::PipelineOptions leg_options;
  leg_options.method = spec.method;
  // The spec name is the stable per-source identity the warehouse ledger
  // dedupes on (unique within the hub, stable across restarts).
  leg_options.source_id = spec.name;
  leg_options.source_table = spec.source_table;
  leg_options.warehouse_table = spec.warehouse_table;
  leg_options.timestamp_column = spec.timestamp_column;
  leg_options.op_log_table = spec.op_log_table;
  leg_options.work_dir = options_.work_dir + "/" + spec.name;

  auto source = std::make_unique<Source>();
  source->spec = spec;
  OPDELTA_ASSIGN_OR_RETURN(
      source->leg,
      pipeline::SourceLeg::Create(spec.source, std::move(leg_options)));
  sources_.push_back(std::move(source));
  return Status::OK();
}

Status DeltaHub::BuildGroups() {
  groups_.clear();
  std::unordered_map<std::string, Group*> by_name;
  for (const auto& source : sources_) {
    const std::string& group_name = source->spec.replica_group;
    Group* group = nullptr;
    if (!group_name.empty()) {
      auto it = by_name.find(group_name);
      if (it != by_name.end()) group = it->second;
    }
    if (group == nullptr) {
      groups_.push_back(std::make_unique<Group>());
      group = groups_.back().get();
      group->warehouse_table = source->spec.warehouse_table;
      if (!group_name.empty()) by_name.emplace(group_name, group);
    }
    if (group->warehouse_table != source->spec.warehouse_table) {
      return Status::InvalidArgument(
          "replica group " + group_name +
          " members disagree on the warehouse table");
    }
    group->members.push_back(source.get());
  }
  for (size_t i = 0; i < groups_.size(); ++i) {
    groups_[i]->rng = Rng(kRetrySeed + i);
  }
  lanes_.clear();
  std::unordered_map<std::string, size_t> table_lane;
  for (const auto& group : groups_) {
    auto [it, inserted] =
        table_lane.emplace(group->warehouse_table, lanes_.size());
    if (inserted) lanes_.emplace_back();
    lanes_[it->second].push_back(group.get());
  }
  return Status::OK();
}

Status DeltaHub::Setup() {
  if (setup_done_) return Status::OK();
  if (sources_.empty()) return Status::InvalidArgument("no sources added");
  OPDELTA_RETURN_IF_ERROR(Env::Default()->CreateDir(options_.work_dir));
  OPDELTA_RETURN_IF_ERROR(BuildGroups());

  ledger_ = std::make_unique<warehouse::ApplyLedger>(warehouse_);
  OPDELTA_RETURN_IF_ERROR(ledger_->Setup());

  stats_.sources.clear();
  for (const auto& source : sources_) {
    source->stats_index = stats_.sources.size();
    SourceStats entry;
    entry.name = source->spec.name;
    entry.warehouse_table = source->spec.warehouse_table;
    stats_.sources.push_back(std::move(entry));
    OPDELTA_RETURN_IF_ERROR(source->leg->Setup());
    if (source->spec.backfill) {
      if (source->spec.method == pipeline::Method::kOpDelta) {
        // Captured watermark-signal statements replay at the warehouse,
        // so it needs the signal table too.
        OPDELTA_RETURN_IF_ERROR(
            backfill::ChunkWindow::EnsureSignalTable(warehouse_));
      }
      backfill::BackfillOptions bf_options;
      bf_options.chunk_rows = source->spec.backfill_chunk_rows;
      OPDELTA_ASSIGN_OR_RETURN(
          source->backfiller,
          backfill::Backfiller::Create(source->leg.get(), bf_options));
      OPDELTA_RETURN_IF_ERROR(source->backfiller->Setup());
    }
    if (source->spec.scrub) {
      if (source->spec.method == pipeline::Method::kOpDelta) {
        // Captured scrub-watermark statements replay at the warehouse,
        // so it needs the signal table (shared with backfill's).
        OPDELTA_RETURN_IF_ERROR(
            backfill::ChunkWindow::EnsureSignalTable(warehouse_));
      }
      Group* group = nullptr;
      for (const auto& g : groups_) {
        if (std::find(g->members.begin(), g->members.end(), source.get()) !=
            g->members.end()) {
          group = g.get();
          break;
        }
      }
      scrub::ScrubOptions sc_options;
      sc_options.chunk_rows = source->spec.scrub_chunk_rows;
      sc_options.repair = source->spec.scrub_repair;
      OPDELTA_ASSIGN_OR_RETURN(
          source->scrubber,
          scrub::Scrubber::Create(
              source->leg.get(), warehouse_,
              [this, group] { return DrainBacklog(group); }, sc_options));
      OPDELTA_RETURN_IF_ERROR(source->scrubber->Setup());
    }
  }

  extract_pool_ = std::make_unique<ThreadPool>(options_.extract_threads);
  setup_done_ = true;
  return Status::OK();
}

extract::OpDeltaCapture* DeltaHub::capture(const std::string& source_name) {
  for (const auto& source : sources_) {
    if (source->spec.name == source_name) return source->leg->capture();
  }
  return nullptr;
}

void DeltaHub::RefreshSourceStats(Source* source) {
  const pipeline::LegStats& leg_stats = source->leg->stats();
  std::lock_guard<common::OrderedMutex> lock(stats_mutex_);
  SourceStats& entry = stats_.sources[source->stats_index];
  entry.rounds = leg_stats.rounds;
  entry.source_schema_epoch = source->leg->source()->ddl_epoch();
  entry.records_extracted = leg_stats.records_extracted;
  entry.batches_shipped = leg_stats.batches_shipped;
  entry.bytes_shipped = leg_stats.bytes_shipped;
  if (source->backfiller != nullptr) {
    const backfill::BackfillStats& bf = source->backfiller->stats();
    entry.chunks_done = bf.chunks_done;
    entry.chunks_total = bf.chunks_total;
    entry.rows_backfilled = bf.rows_backfilled;
    entry.rows_deduped = bf.rows_deduped;
    entry.backfill_done = bf.done;
  }
  if (source->scrubber != nullptr) {
    const scrub::ScrubStats& sc = source->scrubber->stats();
    entry.chunks_scrubbed = sc.chunks_scrubbed;
    entry.chunks_mismatched = sc.chunks_mismatched;
    entry.chunks_repaired = sc.chunks_repaired;
    entry.chunks_inconclusive = sc.chunks_inconclusive;
    entry.last_scrub_pass = sc.passes;
  }
}

Status DeltaHub::ProduceRound(Group* group) {
  // 1. Extract→ship every member (durable; the frame carries the position).
  for (Source* source : group->members) {
    OPDELTA_RETURN_IF_ERROR(source->leg->ExtractAndShip());
    RefreshSourceStats(source);
  }

  // 1b. Online backfill: one snapshot chunk per round, interleaved with
  //     live capture (the chunk's watermark window drains the leg itself).
  //     The shipped chunk joins the backlog drained below, so it applies
  //     this round. Errors flow into the same retry/quarantine policy as
  //     live extraction.
  for (Source* source : group->members) {
    if (source->backfiller == nullptr || source->backfiller->stats().done) {
      continue;
    }
    Status st = source->backfiller->Step();
    RefreshSourceStats(source);
    OPDELTA_RETURN_IF_ERROR(st);
  }

  // 2. Apply the group's shipped backlog — which replays anything shipped
  //    before a restart first, in FIFO order.
  OPDELTA_RETURN_IF_ERROR(DrainBacklog(group));

  // 3. Anti-entropy scrub: one chunk verified (and repaired if needed)
  //    per round, under the same retry/quarantine policy as extraction.
  //    Deferred until backfill completes — a half-bootstrapped mirror
  //    diverges by definition.
  for (Source* source : group->members) {
    if (source->scrubber == nullptr) continue;
    if (source->backfiller != nullptr && !source->backfiller->stats().done) {
      continue;
    }
    Status st = source->scrubber->Step();
    RefreshSourceStats(source);
    OPDELTA_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

Status DeltaHub::DrainBacklog(Group* group) {
  // One batch in flight at a time so per-source apply order matches ship
  // order. Apply-only: nothing is extracted here, so after this returns
  // the warehouse holds exactly what was shipped — the watermark pin the
  // scrubber's digest comparison needs.
  while (true) {
    std::vector<Source*> present;
    std::vector<std::string> messages;
    for (Source* source : group->members) {
      std::string message;
      Status st = source->leg->PeekShipped(&message);
      if (st.IsNotFound()) continue;
      OPDELTA_RETURN_IF_ERROR(st);
      present.push_back(source);
      messages.push_back(std::move(message));
    }
    if (present.empty()) return Status::OK();

    std::string batch;
    extract::BatchId id;
    if (group->members.size() == 1) {
      // Identity is best effort: a message whose frame does not decode
      // still goes to apply, fails there, and is dead-lettered.
      (void)pipeline::DecodeBatchHeader(Slice(messages[0]), &id);
      batch = std::move(messages[0]);
    } else {
      // Replica group: merge this round's per-replica batches into one
      // authoritative net-change stream (§2.2 / §4.1). The merged batch
      // inherits the first present member's identity (site priority), so
      // a crash after a partial ack redelivers under the same identity
      // and the ledger drops the re-merge as a duplicate.
      std::vector<extract::DeltaBatch> batches(messages.size());
      std::vector<const extract::DeltaBatch*> replica_order;
      for (size_t i = 0; i < messages.size(); ++i) {
        engine::Database* source = present[i]->leg->source();
        pipeline::ShippedBatch member;
        OPDELTA_RETURN_IF_ERROR(pipeline::DecodeShipped(
            messages[i],
            [source](uint64_t epoch) { return source->SchemaMapAt(epoch); },
            &member));
        if (member.op_delta) {
          return Status::Corruption("replica group member " +
                                    present[i]->spec.name +
                                    " shipped an op-delta batch");
        }
        if (i == 0) id = member.id;
        batches[i] = std::move(member.delta);
        replica_order.push_back(&batches[i]);
      }
      extract::Reconciler::Stats rstats;
      OPDELTA_ASSIGN_OR_RETURN(
          extract::DeltaBatch merged,
          extract::Reconciler::Reconcile(replica_order, &rstats));
      std::string inner;
      pipeline::EncodeValueDeltaMessage(merged, &inner);
      pipeline::EncodeBatchFrame(id, inner, &batch);
      std::lock_guard<common::OrderedMutex> lock(stats_mutex_);
      stats_.batches_reconciled += present.size();
      stats_.duplicates_dropped += rstats.duplicates_dropped;
      stats_.conflicts += rstats.conflicts;
    }

    OPDELTA_RETURN_IF_ERROR(ApplyBatch(group, batch, id, present));
  }
}

Status DeltaHub::SuperviseRound(Group* group) {
  Clock* clock = RealClock::Default();
  if (group->quarantined && clock->NowMicros() < group->next_probe_micros) {
    return Status::OK();  // skipped; healthy groups keep flowing
  }

  // A quarantined group gets exactly one probe attempt — a retry storm is
  // what put it there. A healthy group gets produce_attempts tries with
  // jittered exponential backoff between them.
  const int attempts =
      group->quarantined ? 1 : std::max(1, options_.produce_attempts);
  Status st;
  for (int attempt = 0;; ++attempt) {
    st = ProduceRound(group);
    if (st.ok() || attempt + 1 >= attempts) break;

    double delay_ms = static_cast<double>(options_.backoff_initial.count()) *
                      static_cast<double>(uint64_t{1} << attempt);
    delay_ms = std::min(
        delay_ms, static_cast<double>(options_.backoff_max.count()));
    delay_ms *= 1.0 + kBackoffJitter * (2.0 * group->rng.NextDouble() - 1.0);
    {
      std::lock_guard<common::OrderedMutex> lock(stats_mutex_);
      for (Source* source : group->members) {
        ++stats_.sources[source->stats_index].retries;
      }
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(delay_ms * 1000.0)));
  }

  if (st.ok()) {
    if (group->quarantined) {
      OPDELTA_LOG(kInfo) << "source group for table "
                         << group->warehouse_table
                         << " recovered; lifting quarantine";
    }
    group->consecutive_failures = 0;
    group->quarantined = false;
    group->probes = 0;
    std::lock_guard<common::OrderedMutex> lock(stats_mutex_);
    for (Source* source : group->members) {
      stats_.sources[source->stats_index].quarantined = false;
    }
    return Status::OK();
  }

  ++group->consecutive_failures;
  if (options_.quarantine_after > 0 &&
      group->consecutive_failures >= options_.quarantine_after) {
    if (!group->quarantined) {
      group->quarantined = true;
      group->probes = 0;
      OPDELTA_LOG(kWarn) << "quarantining source group for table "
                         << group->warehouse_table << " after "
                         << group->consecutive_failures
                         << " consecutive failed rounds: " << st.ToString();
    }
    // Probe at growing intervals so a persistently dead source costs an
    // ever-smaller fraction of each round.
    const int shift = std::min(group->probes, 20);
    const Micros delay_micros =
        std::min(options_.backoff_initial.count() << shift,
                 options_.backoff_max.count()) *
        1000;
    ++group->probes;
    group->next_probe_micros = clock->NowMicros() + delay_micros;
  }
  {
    std::lock_guard<common::OrderedMutex> lock(stats_mutex_);
    for (Source* source : group->members) {
      SourceStats& entry = stats_.sources[source->stats_index];
      ++entry.errors;
      entry.quarantined = group->quarantined;
      entry.last_error = st.ToString();
    }
  }
  return st;
}

Status DeltaHub::ApplyBatch(Group* group, const std::string& message,
                            const extract::BatchId& id,
                            const std::vector<Source*>& acks) {
  Stopwatch apply_timer;
  warehouse::IntegrationStats istats;
  Status st = group->members.front()->leg->Integrate(
      warehouse_, ledger_.get(), message, &stmt_cache_, &istats);
  if (!st.ok()) {
    // A transient failure stays queued for SuperviseRound's retry; a
    // partly committed batch then resumes via the ledger, never repeats.
    // SchemaMismatch stays queued too: the batch is well-formed, the
    // *warehouse* cannot decode or migrate to it (future epoch,
    // incompatible DDL, drift). Dead-lettering would silently advance past
    // a consistency boundary; instead the round fails and SuperviseRound
    // quarantines the group with the reason surfaced in last_error.
    if (IsTransientApplyError(st) ||
        st.code() == StatusCode::kSchemaMismatch) {
      return st;
    }
    // Divert the poison batch so the queue (and the group) can advance;
    // if the diversion itself fails, keep the original error and let the
    // batch replay.
    return DeadLetter(group, message, id, acks, st).ok() ? Status::OK() : st;
  }

  // Acknowledge strictly after the ledger-inclusive warehouse commit: a
  // crash or error before this point leaves the batch in the queues, and
  // its redelivery is recognized by the ledger — applied batches drop as
  // duplicates, interrupted ones resume mid-batch. An ack failure
  // therefore degrades to a harmless redelivery, never a double apply.
  for (Source* source : acks) {
    Status ack = source->leg->AckShipped();
    if (st.ok() && !ack.ok()) st = ack;
  }
  const Micros elapsed = apply_timer.ElapsedMicros();

  {
    std::lock_guard<common::OrderedMutex> lock(stats_mutex_);
    ++stats_.batches_applied;
    stats_.transactions_applied += istats.transactions;
    stats_.apply_micros_total += elapsed;
    if (elapsed > stats_.apply_micros_max) {
      stats_.apply_micros_max = elapsed;
    }
    for (Source* source : acks) {
      SourceStats& entry = stats_.sources[source->stats_index];
      ++entry.batches_applied;
      entry.duplicates_dropped += istats.duplicate_batches;
      // The per-source applied watermark mirrors the ledger: the identity
      // of the newest batch committed for this source.
      if (id.valid() && source->spec.name == id.source_id) {
        entry.applied_epoch = id.epoch;
        entry.applied_seq = id.seq;
      }
      if (istats.schema_epoch > entry.applied_schema_epoch) {
        entry.applied_schema_epoch = istats.schema_epoch;
      }
    }
  }
  if (istats.schema_migrations > 0) {
    // A source DDL just migrated the warehouse: added columns hold their
    // defaults until re-shipped snapshot chunks carry the live source
    // values over, so restart the backfill from chunk one. This runs on
    // the group's round task, so no Backfiller::Step races with it.
    for (Source* source : acks) {
      if (source->backfiller == nullptr) continue;
      Status restart = source->backfiller->Restart();
      if (!restart.ok()) {
        OPDELTA_LOG(kWarn)
            << "backfill restart after schema migration failed for "
            << source->spec.name << ": " << restart.ToString();
      }
      RefreshSourceStats(source);
    }
  }
  return st;
}

Status DeltaHub::DeadLetter(Group* group, const std::string& message,
                            const extract::BatchId& id,
                            const std::vector<Source*>& acks,
                            const Status& cause) {
  // Record the skip in the ledger *first*: a hole row marks this identity
  // as diverted-not-applied, so a later operator replay is admitted below
  // the watermark instead of being mistaken for a duplicate. (A crash
  // after the hole but before the log append leaves a harmless extra
  // hole; the reverse order could silently strand the batch.)
  OPDELTA_RETURN_IF_ERROR(ledger_->RecordSkip(id));
  // Persist the undeliverable batch — identity frame included, so manual
  // replay flows through the same duplicate check — then acknowledge it
  // so the queue advances past the poison message.
  OPDELTA_RETURN_IF_ERROR(AppendDeadLetter(
      options_.work_dir, group->warehouse_table, message, cause));
  OPDELTA_LOG(kWarn) << "dead-lettered undeliverable batch " << id.ToString()
                     << " for table " << group->warehouse_table << ": "
                     << cause.ToString();

  Status ack_status;
  for (Source* source : acks) {
    Status ack = source->leg->AckShipped();
    if (ack_status.ok() && !ack.ok()) ack_status = ack;
  }
  {
    std::lock_guard<common::OrderedMutex> lock(stats_mutex_);
    ++stats_.dead_letters;
    for (Source* source : acks) {
      SourceStats& entry = stats_.sources[source->stats_index];
      ++entry.dead_letters;
      entry.last_error = cause.ToString();
    }
  }
  return ack_status;
}

void DeltaHub::RetainDriverError(const Status& error) {
  std::lock_guard<common::OrderedMutex> lock(driver_mutex_);
  for (const Status& retained : driver_errors_) {
    if (retained == error) return;  // dedupe steady-state repeats
  }
  if (driver_errors_.size() < kMaxRetainedDriverErrors) {
    driver_errors_.push_back(error);
  }
}

Status DeltaHub::RunRound() {
  if (!setup_done_) return Status::Internal("call Setup() first");
  {
    std::lock_guard<common::OrderedMutex> lock(driver_mutex_);
    if (stopped_) return Status::Internal("hub stopped");
  }

  CountDownLatch latch(lanes_.size());
  common::OrderedMutex error_mutex{
      OPDELTA_LOCK_RANK(hub_errors, common::lockrank::kHubErrors)};
  std::vector<Status> errors;
  for (const std::vector<Group*>& lane : lanes_) {
    extract_pool_->Submit([this, &lane, &latch, &error_mutex, &errors] {
      for (Group* group : lane) {
        Status st = SuperviseRound(group);
        if (!st.ok()) {
          std::lock_guard<common::OrderedMutex> lock(error_mutex);
          errors.push_back(st);
        }
      }
      latch.CountDown();
    });
  }
  latch.Wait();

  {
    std::lock_guard<common::OrderedMutex> lock(stats_mutex_);
    ++stats_.rounds;
  }
  return JoinErrors(errors);
}

Status DeltaHub::Start() {
  if (!setup_done_) return Status::Internal("call Setup() first");
  std::lock_guard<common::OrderedMutex> lock(driver_mutex_);
  if (driver_running_) return Status::Busy("hub already started");
  driver_stop_ = false;
  driver_errors_.clear();
  driver_running_ = true;
  driver_ = std::thread([this] {
    while (true) {
      {
        std::unique_lock<common::OrderedMutex> lk(driver_mutex_);
        if (driver_stop_) return;
      }
      // Supervisor, not fail-stop: a failed round is retained for Stop()
      // and the loop keeps driving — healthy groups keep flowing while a
      // failing group backs off or sits in quarantine.
      Status st = RunRound();
      if (!st.ok()) RetainDriverError(st);
      std::unique_lock<common::OrderedMutex> lk(driver_mutex_);
      driver_cv_.wait_for(lk, options_.poll_interval,
                          [this] { return driver_stop_; });
      if (driver_stop_) return;
    }
  });
  return Status::OK();
}

Status DeltaHub::Stop() {
  // 1. Stop the driver (it finishes any in-flight round first).
  {
    std::lock_guard<common::OrderedMutex> lock(driver_mutex_);
    driver_stop_ = true;
  }
  driver_cv_.notify_all();
  if (driver_.joinable()) driver_.join();

  // 2. Quiesce the extract pool, the only other threads the hub runs.
  if (extract_pool_ != nullptr) extract_pool_->Shutdown();
  std::lock_guard<common::OrderedMutex> lock(driver_mutex_);
  driver_running_ = false;
  stopped_ = true;
  return JoinErrors(driver_errors_);
}

HubStats DeltaHub::Stats() const {
  HubStats out;
  {
    std::lock_guard<common::OrderedMutex> lock(stats_mutex_);
    out = stats_;
  }
  const sql::StatementCacheStats cache = stmt_cache_.stats();
  out.stmt_cache_hits = cache.hits;
  out.stmt_cache_misses = cache.misses;
  return out;
}

}  // namespace opdelta::hub
