#ifndef OPDELTA_EXTRACT_TRIGGER_EXTRACTOR_H_
#define OPDELTA_EXTRACT_TRIGGER_EXTRACTOR_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/status.h"
#include "engine/database.h"
#include "engine/trigger.h"
#include "extract/delta.h"
#include "transport/network_simulator.h"

namespace opdelta::extract {

/// Schema of a trigger delta table: bookkeeping columns (op, source txn,
/// capture seq) followed by the full source columns. One row per captured
/// image — an update contributes two rows (before + after), which is what
/// makes the paper's Figure 2 update-trigger overhead climb.
catalog::Schema DeltaTableSchemaFor(const catalog::Schema& source);

/// Trigger sink writing images into a delta table in the *same* database,
/// inside the user's transaction (the common commercial setup of §3.1.3).
class DeltaTableSink : public engine::TriggerSink {
 public:
  explicit DeltaTableSink(std::string delta_table)
      : delta_table_(std::move(delta_table)) {}

  Status Write(engine::Database* db, txn::Transaction* txn,
               engine::TriggerEvents event, const catalog::Row& before,
               const catalog::Row& after) override;

 private:
  std::string delta_table_;
  CaptureSeq seq_;  // the delta table's `delta_seq` column
};

/// Trigger sink writing images into a delta table in a *different*
/// database instance — a staging area on the same machine or across the
/// LAN. Pays the network simulator's per-write round trip and runs a
/// separate transaction per captured image on the remote side, reproducing
/// the "ten to hundred times more expensive" observation of §3.1.3.
class RemoteDeltaTableSink : public engine::TriggerSink {
 public:
  RemoteDeltaTableSink(engine::Database* remote_db, std::string delta_table,
                       transport::NetworkSimulator* net)
      : remote_db_(remote_db),
        delta_table_(std::move(delta_table)),
        net_(net),
        connected_(false) {}

  Status Write(engine::Database* db, txn::Transaction* txn,
               engine::TriggerEvents event, const catalog::Row& before,
               const catalog::Row& after) override;

 private:
  engine::Database* remote_db_;
  std::string delta_table_;
  transport::NetworkSimulator* net_;
  std::atomic<bool> connected_;
  std::atomic<uint64_t> seq_{0};
};

/// Trigger-based delta extraction (paper §3 method 3): installs row-level
/// triggers that capture value deltas into a delta table, then drains /
/// exports that table.
class TriggerExtractor {
 public:
  struct InstallOptions {
    uint8_t events = engine::kOnAll;
    /// When set, capture remotely through this sink instead of locally.
    std::shared_ptr<engine::TriggerSink> custom_sink;
  };

  /// Creates `<source>_delta` (if absent) and registers the trigger.
  /// Returns the delta table name.
  static Result<std::string> Install(engine::Database* db,
                                     const std::string& source_table,
                                     const InstallOptions& options);
  static Result<std::string> Install(engine::Database* db,
                                     const std::string& source_table) {
    return Install(db, source_table, InstallOptions());
  }

  static Status Uninstall(engine::Database* db,
                          const std::string& source_table);

  /// Reads the delta table into a DeltaBatch (capture order) and clears it.
  static Result<DeltaBatch> Drain(engine::Database* db,
                                  const std::string& source_table);

  static std::string DeltaTableName(const std::string& source_table) {
    return source_table + "_delta";
  }
  static std::string TriggerName(const std::string& source_table) {
    return source_table + "_capture_trigger";
  }
};

}  // namespace opdelta::extract

#endif  // OPDELTA_EXTRACT_TRIGGER_EXTRACTOR_H_
