#ifndef OPDELTA_HUB_DELTA_HUB_H_
#define OPDELTA_HUB_DELTA_HUB_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "extract/op_delta.h"
#include "pipeline/source_leg.h"
#include "sql/statement_cache.h"
#include "warehouse/apply_ledger.h"

namespace opdelta::hub {

/// One operational source feeding the hub: an extract→ship leg over a
/// single table, by any pipeline::Method.
struct SourceSpec {
  /// Unique within the hub; also names the per-source state directory
  /// (`<hub work_dir>/<name>`), so it must be stable across restarts.
  std::string name;
  engine::Database* source = nullptr;
  pipeline::Method method = pipeline::Method::kOpDelta;
  std::string source_table;
  std::string warehouse_table;

  /// Non-empty: this source is one instance of dynamically replicated data
  /// (paper §2.2). All members of a group must use a value-delta method
  /// and feed the same warehouse table; the hub reconciles their batches
  /// into one authoritative stream before applying. Registration order is
  /// the site-priority order on conflicts.
  std::string replica_group;

  /// Method::kOpDelta: the DB-sink log table (created by Setup).
  std::string op_log_table = "op_log";

  /// Bootstrap the warehouse table online: snapshot the source in
  /// PK-ordered chunks interleaved with live capture (one chunk per
  /// round), resuming from a durable cursor across restarts. The source
  /// table's key column must be INT64. Not supported on replica-group
  /// members.
  bool backfill = false;
  /// Rows per backfill snapshot chunk.
  uint64_t backfill_chunk_rows = 256;

  /// Continuously verify this mirror online: one watermark-consistent
  /// chunk digest per round (after any backfill completes), repairing
  /// confirmed divergence by re-shipping the chunk (scrub::Scrubber).
  /// Requires an INT64 key column; not supported on replica-group members
  /// or when another source feeds the same warehouse table.
  bool scrub = false;
  /// Rows per scrub chunk.
  uint64_t scrub_chunk_rows = 256;
  /// false: report mismatches in stats but do not repair them.
  bool scrub_repair = true;

  /// Ignored: op-delta batches apply inline on the hub's round task. Kept
  /// only because cdcbench/cdcbench.cc compiles against this name.
  size_t apply_threads = 1;
};

struct HubOptions {
  /// Root directory for each source's queue log (its only hub-side state,
  /// segments `<work_dir>/<name>/queue/queue-*.log`) and the dead-letter
  /// logs (`<work_dir>/dead_letters/<table>-*.log`).
  std::string work_dir;

  /// Workers running round tasks: one task per warehouse table per round,
  /// which extracts, ships and applies the source groups feeding that
  /// table one after another.
  size_t extract_threads = 4;

  /// Ignored: each round task applies the batches it ships. Kept only
  /// because cdcbench/cdcbench.cc compiles against this name.
  size_t apply_workers = 1;

  /// Idle wait between rounds of the Start() background driver.
  std::chrono::milliseconds poll_interval{20};

  // --- Self-healing (retry / quarantine / dead-letter) ---

  /// Extract→ship→apply attempts per source group per round. A failing
  /// group is retried (attempts - 1) times with exponential backoff before
  /// the round counts as failed for it. A transient apply error
  /// (Conflict/Busy/Aborted/IOError) leaves its batch queued, so the retry
  /// re-drives it; the ledger resumes a partly committed batch.
  int produce_attempts = 3;
  /// First retry delay; doubles per retry up to backoff_max.
  std::chrono::milliseconds backoff_initial{10};
  std::chrono::milliseconds backoff_max{1000};
  /// Consecutive failed rounds after which a group is quarantined: skipped
  /// by subsequent rounds and probed at growing backoff intervals. A
  /// successful probe lifts the quarantine. <= 0 disables quarantining.
  int quarantine_after = 3;
};

/// Per-source counters inside a HubStats snapshot.
struct SourceStats {
  std::string name;
  std::string warehouse_table;
  uint64_t rounds = 0;             // extract rounds driven
  uint64_t records_extracted = 0;
  uint64_t batches_shipped = 0;
  uint64_t bytes_shipped = 0;
  uint64_t batches_applied = 0;    // shipped batches acknowledged

  // Exactly-once apply.
  uint64_t duplicates_dropped = 0; // redelivered batches the ledger dropped
  uint64_t applied_epoch = 0;      // ledger watermark of the last applied
  uint64_t applied_seq = 0;        //   batch from this source (0 = none yet)

  // Schema evolution.
  uint64_t source_schema_epoch = 0;  // the source catalog's live DDL epoch
  uint64_t applied_schema_epoch = 0; // highest frame schema epoch applied

  // Self-healing.
  uint64_t errors = 0;             // supervised rounds that failed
  uint64_t retries = 0;            // backoff retries of a failed round
  uint64_t dead_letters = 0;       // batches diverted to the dead-letter log
  bool quarantined = false;        // currently skipped, probed on backoff
  std::string last_error;          // most recent failure, retained

  // Online backfill (SourceSpec::backfill only).
  uint64_t chunks_done = 0;
  uint64_t chunks_total = 0;       // estimate; exact once backfill_done
  uint64_t rows_backfilled = 0;
  uint64_t rows_deduped = 0;       // chunk rows the in-window delta won over
  bool backfill_done = false;

  // Anti-entropy scrub (SourceSpec::scrub only).
  uint64_t chunks_scrubbed = 0;      // chunks that verified clean
  uint64_t chunks_mismatched = 0;    // confirmed digest mismatches
  uint64_t chunks_repaired = 0;      // mismatched chunks re-shipped
  uint64_t chunks_inconclusive = 0;  // live-delta-touched windows, retried
  uint64_t last_scrub_pass = 0;      // completed full-table passes
};

/// Consistent point-in-time snapshot of the hub's operation.
struct HubStats {
  uint64_t rounds = 0;
  std::vector<SourceStats> sources;

  // Warehouse apply.
  uint64_t batches_applied = 0;
  uint64_t transactions_applied = 0;
  Micros apply_micros_total = 0;    // integrate + acks per batch, summed
  Micros apply_micros_max = 0;

  // Always 0: the hub has no staging area. Kept only because
  // cdcbench/cdcbench.cc compiles against these names.
  uint64_t staging_peak_bytes = 0;
  uint64_t producer_stalls = 0;

  // Prepared-statement cache (shared across round tasks).
  uint64_t stmt_cache_hits = 0;
  uint64_t stmt_cache_misses = 0;

  // Replica reconciliation.
  uint64_t batches_reconciled = 0;  // group batches merged into one
  uint64_t duplicates_dropped = 0;  // replica keys the reconciler dropped
                                    //   as duplicates (the ledger's batch
                                    //   drops are per source, SourceStats)
  uint64_t conflicts = 0;

  // Self-healing.
  uint64_t dead_letters = 0;        // total batches dead-lettered
};

/// A long-running CDC orchestration service over N registered sources: the
/// many-operational-sources → one-warehouse shape of the paper's Figure 1.
/// Each round runs one task per warehouse table on the extract pool. The
/// task extracts, ships and applies every source group feeding its table,
/// one group after another and one batch at a time, so distinct tables
/// proceed concurrently while one table never applies two batches at once.
/// Batches from a replica group pass through extract::Reconciler first,
/// yielding one authoritative stream.
///
/// Restart safety: each source's PersistentQueue log is its only hub-side
/// state. Shipped frames carry the leg's extraction position, a restarted
/// leg resumes from its newest frame, and unacknowledged batches replay —
/// a batch is acked (a log record) only after successful integration, and
/// the warehouse ApplyLedger drops redeliveries, so apply is exactly-once.
///
/// One source is the paper's Figure-1 loop (extract → ship → integrate) as
/// a library object; N sources share one warehouse.
///
/// Usage: Create → AddSource×N → Setup → RunRound loop or Start/Stop.
class DeltaHub {
 public:
  static Result<std::unique_ptr<DeltaHub>> Create(engine::Database* warehouse,
                                                  HubOptions options);
  ~DeltaHub();

  DeltaHub(const DeltaHub&) = delete;
  DeltaHub& operator=(const DeltaHub&) = delete;

  /// Registers a source. Must precede Setup().
  Status AddSource(const SourceSpec& spec);

  /// Opens every leg (its queue, the extraction position restored from the
  /// queue's newest frame, capture machinery), assembles replica groups
  /// and per-table lanes, and starts the extract pool. Idempotent.
  Status Setup();

  /// The op-delta capture wrapper for a registered kOpDelta source
  /// (nullptr for other methods or unknown names). Valid after Setup.
  extract::OpDeltaCapture* capture(const std::string& source_name);

  /// Drives one synchronous round: every source group extracts, ships and
  /// applies its backlog; returns once the warehouse has absorbed
  /// everything pending. Tables run concurrently on the extract pool, the
  /// groups of one table in registration order; a failing group retries
  /// with backoff and — after quarantine_after consecutive failed rounds —
  /// is quarantined (skipped, probed on growing backoff) so healthy groups
  /// keep flowing. Returns every group error of the round, joined. Not
  /// reentrant (the Start() driver or the caller, not both).
  Status RunRound();

  /// Launches the background driver: RunRound in a loop with
  /// poll_interval idle waits. The driver is a supervisor — a failing
  /// round degrades (errors are retained, quarantined groups are skipped)
  /// instead of halting the loop.
  Status Start();

  /// Stops the driver (after its in-flight round) and joins the extract
  /// pool. Returns every distinct retained driver error, joined into one
  /// Status (the first error's code). Idempotent.
  Status Stop();

  HubStats Stats() const;

 private:
  struct Source;
  struct Group;

  DeltaHub(engine::Database* warehouse, HubOptions options);

  Status BuildGroups();
  Status ProduceRound(Group* group);
  /// Applies the group's already-shipped backlog (FIFO, one batch at a
  /// time) until its queues are empty. Extracts nothing — the scrubber
  /// relies on that to pin the warehouse at a watermark.
  Status DrainBacklog(Group* group);
  /// ProduceRound wrapped in the self-healing policy: bounded retries with
  /// jittered exponential backoff, then quarantine with backoff probing.
  /// OK when the group succeeded or is quarantined-and-skipped.
  Status SuperviseRound(Group* group);
  /// Integrates one batch and acknowledges it on every queue in `acks`. A
  /// deterministic failure is dead-lettered; a transient one or a
  /// SchemaMismatch returns with the batch still queued.
  Status ApplyBatch(Group* group, const std::string& message,
                    const extract::BatchId& id,
                    const std::vector<Source*>& acks);
  /// Diverts an undeliverable batch to the per-table dead-letter log and
  /// acknowledges it so the queue can advance past the poison message.
  Status DeadLetter(Group* group, const std::string& message,
                    const extract::BatchId& id,
                    const std::vector<Source*>& acks, const Status& cause);
  void RefreshSourceStats(Source* source);  // locks stats_mutex_
  /// Retains a driver error for Stop(), deduplicated and capped.
  void RetainDriverError(const Status& error);

  engine::Database* warehouse_;
  HubOptions options_;

  /// Applied-batch ledger inside the warehouse: Ack happens strictly after
  /// the ledger-inclusive warehouse commit, so a crash anywhere in the
  /// apply path either rolls the batch back (replayed cleanly) or leaves
  /// it recorded (redelivery dropped as a duplicate).
  std::unique_ptr<warehouse::ApplyLedger> ledger_;

  std::vector<std::unique_ptr<Source>> sources_;
  std::vector<std::unique_ptr<Group>> groups_;
  // One lane per warehouse table: the table's groups in registration
  // order. A round runs each lane as one extract-pool task, so one table
  // never applies two batches at once and its dead-letter log has a
  // single writer.
  std::vector<std::vector<Group*>> lanes_;
  bool setup_done_ = false;

  std::unique_ptr<ThreadPool> extract_pool_;

  // Parsed-statement skeletons shared by every round task; internally
  // synchronized, epoch-keyed against warehouse DDL.
  sql::StatementCache stmt_cache_;

  // Background driver.
  std::thread driver_;
  common::OrderedMutex driver_mutex_{
      OPDELTA_LOCK_RANK(hub_driver, common::lockrank::kHubDriver)};
  std::condition_variable_any driver_cv_;
  bool driver_stop_ = false;
  bool driver_running_ = false;
  bool stopped_ = false;  // Stop() ran; the hub is permanently quiesced
  std::vector<Status> driver_errors_;  // distinct retained errors, capped

  // Aggregate counters (everything HubStats reports except the
  // statement-cache counters, which stmt_cache_ keeps).
  mutable common::OrderedMutex stats_mutex_{
      OPDELTA_LOCK_RANK(hub_stats, common::lockrank::kHubStats)};
  HubStats stats_;
};

}  // namespace opdelta::hub

#endif  // OPDELTA_HUB_DELTA_HUB_H_
