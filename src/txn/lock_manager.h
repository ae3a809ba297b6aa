#ifndef OPDELTA_TXN_LOCK_MANAGER_H_
#define OPDELTA_TXN_LOCK_MANAGER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>

#include "common/status.h"
#include "common/sync.h"
#include "txn/log_record.h"

namespace opdelta::txn {

/// Hierarchical lock modes on tables. Row locks are plain S/X underneath an
/// intention mode. This is what lets the paper's §4.1 claim show up as a
/// measurable effect: a value-delta batch takes table X (an outage for
/// readers holding/wanting IS or S), while Op-Delta transactions take IX +
/// row X and interleave with OLAP readers.
enum class LockMode : uint8_t { kIS = 0, kIX, kS, kX };

const char* LockModeName(LockMode mode);

/// True when a requested table mode is compatible with a held one.
bool LockModesCompatible(LockMode held, LockMode requested);

/// Blocking lock manager with timeout-based deadlock resolution. A request
/// that cannot be granted within the timeout returns kConflict and the
/// caller is expected to abort.
class LockManager {
 public:
  using Duration = std::chrono::milliseconds;

  explicit LockManager(Duration default_timeout = Duration(10000))
      : default_timeout_(default_timeout) {}

  /// Acquires (or upgrades) a table lock for the transaction.
  Status LockTable(TxnId txn, catalog::TableId table, LockMode mode);
  Status LockTable(TxnId txn, catalog::TableId table, LockMode mode,
                   Duration timeout);

  /// Acquires a row lock (shared or exclusive). The caller must already
  /// hold a suitable intention lock on the table. A request the
  /// transaction's table lock already covers (table X covers every row
  /// request, table S covers shared ones: the multigranularity rule)
  /// returns OK at once and records nothing, so a table-X transaction such
  /// as a value-delta apply leaves the row map empty. Row entries taken
  /// before a table upgrade stay until ReleaseAll.
  Status LockRow(TxnId txn, catalog::TableId table, const storage::Rid& rid,
                 bool exclusive);
  Status LockRow(TxnId txn, catalog::TableId table, const storage::Rid& rid,
                 bool exclusive, Duration timeout);

  /// Releases every lock held by the transaction (commit/abort). Walks each
  /// table's recorded row entries only; covered requests left none.
  void ReleaseAll(TxnId txn);

  /// Diagnostics: number of transactions currently holding any lock on the
  /// table.
  size_t HoldersOnTable(catalog::TableId table);

  /// Diagnostics: number of requests blocked right now on the table's lock
  /// or one of its row locks. Tests wait on it to know that a request is
  /// queued behind a holder, instead of sleeping.
  size_t WaitersOnTable(catalog::TableId table);

 private:
  struct RowLock {
    std::set<TxnId> sharers;
    TxnId exclusive_owner = 0;  // 0 = none
  };

  struct TableEntry {
    std::map<TxnId, LockMode> holders;
    std::map<storage::Rid, RowLock> rows;
    size_t waiters = 0;
  };

  bool TableGrantable(const TableEntry& entry, TxnId txn, LockMode mode) const;
  bool RowGrantable(const RowLock& lock, TxnId txn, bool exclusive) const;

  common::OrderedMutex mutex_{
      OPDELTA_LOCK_RANK(lock_manager, common::lockrank::kTxnLockManager)};
  // _any: waits on OrderedMutex, so held-rank tracking stays correct
  // across the unlock/relock inside wait.
  std::condition_variable_any cv_;
  std::unordered_map<catalog::TableId, TableEntry> tables_;
  Duration default_timeout_;
};

}  // namespace opdelta::txn

#endif  // OPDELTA_TXN_LOCK_MANAGER_H_
