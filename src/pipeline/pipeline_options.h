#ifndef OPDELTA_PIPELINE_PIPELINE_OPTIONS_H_
#define OPDELTA_PIPELINE_PIPELINE_OPTIONS_H_

#include <string>

namespace opdelta::pipeline {

/// Which extraction method drives the pipeline (paper §3 + §4).
enum class Method {
  // §3.1.1 — misses deletes; net-change (upsert) integration. Note the
  // method's inherent boundary hazard: a row stamped in the same
  // microsecond as the watermark row but committed after extraction is
  // missed (strict `>` watermark). Log and trigger methods are exact;
  // this imprecision is part of why the paper calls timestamps suitable
  // only for sources "that natively support time stamps and have little
  // change activity".
  kTimestamp,
  kLog,        // §3.1.4 — archive-log decode; net-change integration
  kTrigger,    // §3.1.3 — delta-table drain; net-change integration
  kOpDelta,    // §4    — DB-sink drain; per-transaction integration
};

const char* MethodName(Method method);

/// Parses a method name as printed by MethodName ("timestamp", "log",
/// "trigger", "op-delta"); false on unknown names.
bool ParseMethod(const std::string& name, Method* out);

struct PipelineOptions {
  Method method = Method::kOpDelta;
  std::string source_table;
  std::string warehouse_table;  // must have the exact source schema

  /// Stable identity stamped into every shipped batch (extract::BatchId);
  /// the warehouse ApplyLedger dedupes redeliveries per source_id, so it
  /// must be unique among sources feeding one warehouse and stable across
  /// restarts. Empty: defaults to source_table.
  std::string source_id;

  /// kOpDelta: the DB-sink log table (created by Setup).
  std::string op_log_table = "op_log";

  /// Directory for the leg's state: the shipping queue's log,
  /// `<work_dir>/queue/queue-*.log`, whose frames also carry the extraction
  /// position.
  std::string work_dir;
};

}  // namespace opdelta::pipeline

#endif  // OPDELTA_PIPELINE_PIPELINE_OPTIONS_H_
