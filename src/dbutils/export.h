#ifndef OPDELTA_DBUTILS_EXPORT_H_
#define OPDELTA_DBUTILS_EXPORT_H_

#include <functional>
#include <string>

#include "common/status.h"
#include "engine/database.h"

namespace opdelta::dbutils {

/// The DBMS "Export" utility (paper §3, Table 1): dumps a table to a
/// proprietary binary file that only the matching Import utility can read —
/// modeling the real-world constraint that "the same database product
/// [must] exist in the source and in the data warehouse". It is also the
/// snapshot method's dump (§3.1.2): extract::SnapshotDifferential diffs two
/// export files.
///
/// File format: magic, schema, length-prefixed RowCodec rows, fixed64 row
/// count, and a CRC32C of everything before the count.
class ExportUtil {
 public:
  /// Dumps `table` of `db` to `path`. The dump is written to `<path>.tmp`,
  /// synced, and renamed over `path`, so `path` holds either its previous
  /// content or the whole new dump.
  static Status Export(engine::Database* db, const std::string& table,
                       const std::string& path);

  /// Reads an export file, streaming rows. Fails on format or CRC errors.
  static Status ReadExportFile(
      const std::string& path, catalog::Schema* schema_out,
      const std::function<bool(const catalog::Row&)>& fn);
};

/// The matching "Import" utility. Deliberately reproduces the behaviour the
/// paper measured: "The Import utility fills its own internal pages and
/// when the pages overflow they write the data into the database. The extra
/// I/O is evident" — each filled staging page is spilled to a scratch file,
/// read back, and its rows inserted through the full transactional path
/// (WAL + buffer pool), giving Import roughly double the physical I/O of
/// the Loader's direct block writes.
class ImportUtil {
 public:
  struct Options {
    /// Rows per commit batch.
    size_t batch_rows = 1024;
    /// Scratch file for staging-page spills (defaults next to target db).
    std::string scratch_path;
  };

  struct Stats {
    uint64_t rows_imported = 0;
    /// Staging pages spilled to scratch and read back — Import's extra
    /// physical I/O relative to the Loader.
    uint64_t staging_spills = 0;
  };

  /// Loads the export file at `path` into `table` of `db`. The export
  /// schema must equal the table schema exactly.
  static Status Import(engine::Database* db, const std::string& table,
                       const std::string& path, const Options& options,
                       Stats* stats = nullptr);
  static Status Import(engine::Database* db, const std::string& table,
                       const std::string& path) {
    return Import(db, table, path, Options(), nullptr);
  }
};

}  // namespace opdelta::dbutils

#endif  // OPDELTA_DBUTILS_EXPORT_H_
