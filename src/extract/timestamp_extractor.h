#ifndef OPDELTA_EXTRACT_TIMESTAMP_EXTRACTOR_H_
#define OPDELTA_EXTRACT_TIMESTAMP_EXTRACTOR_H_

#include <string>

#include "common/status.h"
#include "engine/database.h"
#include "extract/delta.h"

namespace opdelta::extract {

/// Time-stamp based delta extraction (paper §3 method 1, §3.1.1):
/// `SELECT * FROM parts WHERE last_modified_date > <watermark>`.
///
/// Characteristics this implementation reproduces:
///  - requires a table scan unless an index exists on the timestamp column:
///    the predicate `column > watermark` then takes the B+tree range (the
///    engine's access-path choice, Database::Scan);
///  - captures only the *final* state of a row before extraction — it
///    "cannot capture state changes" and never observes deletes;
///  - output goes to an OS file (CSV) or to a local delta table, the two
///    variants of Table 2.
class TimestampExtractor {
 public:
  /// `column` must be a kTimestamp column of `table`.
  TimestampExtractor(engine::Database* db, std::string table,
                     std::string column)
      : db_(db), table_(std::move(table)), column_(std::move(column)) {}

  /// Extracts rows modified strictly after `watermark` into memory.
  /// Records carry op kUpsert (the method cannot distinguish insert from
  /// update, and deletes are invisible).
  Result<DeltaBatch> ExtractSince(Micros watermark);

  /// Table 2 "File output": writes matching rows as CSV to `path`.
  Status ExtractToFile(Micros watermark, const std::string& path,
                       uint64_t* rows_out);

  /// Table 2 "Table output": inserts matching rows into the local delta
  /// table `delta_table` (created by the caller with the source schema),
  /// transactionally.
  Status ExtractToTable(Micros watermark, const std::string& delta_table,
                        uint64_t* rows_out);

 private:
  Status ForEachMatch(
      Micros watermark,
      const std::function<bool(const catalog::Row&)>& fn);

  engine::Database* db_;
  std::string table_;
  std::string column_;
};

}  // namespace opdelta::extract

#endif  // OPDELTA_EXTRACT_TIMESTAMP_EXTRACTOR_H_
