#include "txn/lock_manager.h"

namespace opdelta::txn {

const char* LockModeName(LockMode mode) {
  switch (mode) {
    case LockMode::kIS:
      return "IS";
    case LockMode::kIX:
      return "IX";
    case LockMode::kS:
      return "S";
    case LockMode::kX:
      return "X";
  }
  return "?";
}

bool LockModesCompatible(LockMode held, LockMode requested) {
  // Standard multigranularity compatibility matrix.
  static constexpr bool kCompat[4][4] = {
      //            IS     IX     S      X      (requested)
      /* IS */ {true, true, true, false},
      /* IX */ {true, true, false, false},
      /* S  */ {true, false, true, false},
      /* X  */ {false, false, false, false},
  };
  return kCompat[static_cast<int>(held)][static_cast<int>(requested)];
}

namespace {

/// Returns the stronger of two modes for upgrade bookkeeping. The lattice
/// IS < {IX, S} < X is flattened by treating IX+S as X (standard SIX would
/// be more precise; unnecessary here).
LockMode CombineModes(LockMode a, LockMode b) {
  if (a == b) return a;
  if (a == LockMode::kX || b == LockMode::kX) return LockMode::kX;
  if ((a == LockMode::kIX && b == LockMode::kS) ||
      (a == LockMode::kS && b == LockMode::kIX)) {
    return LockMode::kX;
  }
  if (a == LockMode::kIS) return b;
  if (b == LockMode::kIS) return a;
  return LockMode::kX;
}

}  // namespace

bool LockManager::TableGrantable(const TableEntry& entry, TxnId txn,
                                 LockMode mode) const {
  for (const auto& [holder, held] : entry.holders) {
    if (holder == txn) continue;
    if (!LockModesCompatible(held, mode)) return false;
  }
  return true;
}

bool LockManager::RowGrantable(const RowLock& lock, TxnId txn,
                               bool exclusive) const {
  if (lock.exclusive_owner != 0 && lock.exclusive_owner != txn) return false;
  if (exclusive) {
    for (TxnId sharer : lock.sharers) {
      if (sharer != txn) return false;
    }
  }
  return true;
}

Status LockManager::LockTable(TxnId txn, catalog::TableId table,
                              LockMode mode) {
  return LockTable(txn, table, mode, default_timeout_);
}

Status LockManager::LockTable(TxnId txn, catalog::TableId table,
                              LockMode mode, Duration timeout) {
  std::unique_lock<common::OrderedMutex> lock(mutex_);
  TableEntry& entry = tables_[table];

  auto held_it = entry.holders.find(txn);
  if (held_it != entry.holders.end() &&
      CombineModes(held_it->second, mode) == held_it->second) {
    return Status::OK();  // already strong enough
  }

  const auto deadline = std::chrono::steady_clock::now() + timeout;
  ++entry.waiters;
  const bool granted = cv_.wait_until(
      lock, deadline, [&] { return TableGrantable(entry, txn, mode); });
  --entry.waiters;
  if (!granted) {
    return Status::Conflict("table lock timeout (" +
                            std::string(LockModeName(mode)) + " on table " +
                            std::to_string(table) + ")");
  }
  LockMode prev = held_it != entry.holders.end() ? held_it->second : mode;
  entry.holders[txn] =
      held_it != entry.holders.end() ? CombineModes(prev, mode) : mode;
  return Status::OK();
}

Status LockManager::LockRow(TxnId txn, catalog::TableId table,
                            const storage::Rid& rid, bool exclusive) {
  return LockRow(txn, table, rid, exclusive, default_timeout_);
}

Status LockManager::LockRow(TxnId txn, catalog::TableId table,
                            const storage::Rid& rid, bool exclusive,
                            Duration timeout) {
  std::unique_lock<common::OrderedMutex> lock(mutex_);
  TableEntry& entry = tables_[table];
  // Multigranularity cover: table X implies X on every row, table S implies
  // S on every row, so such a request is granted without a row entry.
  auto held = entry.holders.find(txn);
  if (held != entry.holders.end() &&
      (held->second == LockMode::kX ||
       (held->second == LockMode::kS && !exclusive))) {
    return Status::OK();
  }

  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    // Re-resolve the row entry on every pass: while this thread waited on
    // the condition variable, a concurrent ReleaseAll may have erased the
    // map node a reference from before the wait would point into.
    RowLock& row = entry.rows[rid];
    if (!exclusive && row.sharers.count(txn)) return Status::OK();
    if (row.exclusive_owner == txn) return Status::OK();
    if (RowGrantable(row, txn, exclusive)) {
      if (exclusive) {
        row.sharers.erase(txn);
        row.exclusive_owner = txn;
      } else {
        row.sharers.insert(txn);
      }
      return Status::OK();
    }
    // The predicate re-resolves the row on every wakeup for the same reason
    // the loop does; when it turns true the outer loop takes the matching
    // grant branch.
    ++entry.waiters;
    const bool ready = cv_.wait_until(lock, deadline, [&] {
      RowLock& r = entry.rows[rid];
      return r.exclusive_owner == txn || (!exclusive && r.sharers.count(txn)) ||
             RowGrantable(r, txn, exclusive);
    });
    --entry.waiters;
    if (!ready) return Status::Conflict("row lock timeout");
  }
}

void LockManager::ReleaseAll(TxnId txn) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  for (auto& [table_id, entry] : tables_) {
    entry.holders.erase(txn);
    for (auto it = entry.rows.begin(); it != entry.rows.end();) {
      RowLock& row = it->second;
      row.sharers.erase(txn);
      if (row.exclusive_owner == txn) row.exclusive_owner = 0;
      if (row.sharers.empty() && row.exclusive_owner == 0) {
        it = entry.rows.erase(it);
      } else {
        ++it;
      }
    }
  }
  cv_.notify_all();
}

size_t LockManager::HoldersOnTable(catalog::TableId table) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second.holders.size();
}

size_t LockManager::WaitersOnTable(catalog::TableId table) {
  std::lock_guard<common::OrderedMutex> lock(mutex_);
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second.waiters;
}

}  // namespace opdelta::txn
