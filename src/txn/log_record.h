#ifndef OPDELTA_TXN_LOG_RECORD_H_
#define OPDELTA_TXN_LOG_RECORD_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "catalog/catalog.h"
#include "storage/page.h"

namespace opdelta::txn {

using TxnId = uint64_t;
using Lsn = uint64_t;
inline constexpr Lsn kInvalidLsn = 0;

/// Redo log record kinds. The engine logs physiological records: a DML
/// record carries the rid plus encoded before/after row images, which is
/// what makes archive-log ("value log") extraction possible — and is also
/// why such extraction is tied to the exact source schema (paper §3.1.4).
enum class LogRecordType : uint8_t {
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,
  kInsert = 4,
  kUpdate = 5,
  kDelete = 6,
  kCheckpoint = 7,
};

struct LogRecord {
  LogRecordType type = LogRecordType::kBegin;
  TxnId txn_id = 0;
  Lsn lsn = kInvalidLsn;  // assigned by the Wal on append
  catalog::TableId table_id = catalog::kInvalidTableId;
  storage::Rid rid;
  /// For kUpdate only: the row's rid *after* the update. Differs from
  /// `rid` when the update grew the row and the heap relocated it. The
  /// engine's undo entry and UpdateAt take the new rid from here; the log's
  /// reader (extract::LogExtractor) decodes images, not rids.
  storage::Rid rid2;
  std::string before;  // RowCodec-encoded (update/delete)
  std::string after;   // RowCodec-encoded (insert/update)

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice* input, LogRecord* out);
};

}  // namespace opdelta::txn

#endif  // OPDELTA_TXN_LOG_RECORD_H_
