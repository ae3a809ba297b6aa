#ifndef OPDELTA_EXTRACT_SNAPSHOT_DIFFERENTIAL_H_
#define OPDELTA_EXTRACT_SNAPSHOT_DIFFERENTIAL_H_

#include <string>

#include "common/status.h"
#include "extract/delta.h"

namespace opdelta::extract {

/// Differential-snapshot extraction (paper §3 method 2, §3.1.2): "deltas
/// can be computed by obtaining a dump of the current state and comparing
/// it with a previously stored snapshot". The dumps are the DBMS Export
/// utility's files (dbutils::ExportUtil::Export), the dump Table 1 measures.
/// Two algorithms after Labio & Garcia-Molina [18]:
///
///  - kSortMerge: load both snapshots, sort by key, merge — exact, but
///    memory- and CPU-hungry ("prohibitively resource intensive").
///  - kWindow:    stream both files keeping bounded windows of unmatched
///    rows; rows that pair up inside the window are matched immediately,
///    window overflow spills to a final sort-merge of the (small)
///    leftovers. Far less memory when the snapshots are similarly ordered,
///    which dumps of the same heap file naturally are.
///
/// Like the timestamp method, only *final* states are observable: a row
/// updated five times between snapshots yields one update delta.
class SnapshotDifferential {
 public:
  enum class Algorithm { kSortMerge, kWindow };

  struct Options {
    Algorithm algorithm = Algorithm::kSortMerge;
    /// Max rows held per side by the window algorithm before spilling.
    size_t window_rows = 8192;
  };

  struct Stats {
    uint64_t old_rows = 0;
    uint64_t new_rows = 0;
    uint64_t matched_in_window = 0;
    uint64_t spilled_rows = 0;
    uint64_t peak_resident_rows = 0;
  };

  /// Computes the delta turning the export file at `old_path` into the one
  /// at `new_path`. Both must share a schema; rows are keyed by the schema's
  /// key column. Emits kInsert / kDelete / kUpdateBefore+kUpdateAfter, which
  /// warehouse::ApplyNetChanges applies.
  static Result<DeltaBatch> Diff(const std::string& old_path,
                                 const std::string& new_path,
                                 const Options& options, Stats* stats);

  static Result<DeltaBatch> Diff(const std::string& old_path,
                                 const std::string& new_path) {
    return Diff(old_path, new_path, Options(), nullptr);
  }
};

}  // namespace opdelta::extract

#endif  // OPDELTA_EXTRACT_SNAPSHOT_DIFFERENTIAL_H_
