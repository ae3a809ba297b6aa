#ifndef OPDELTA_WAREHOUSE_APPLY_SCHEDULER_H_
#define OPDELTA_WAREHOUSE_APPLY_SCHEDULER_H_

// Conflict planning for op-delta apply: which transactions of a batch may
// run concurrently (warehouse::OpDeltaIntegrator runs them).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/database.h"
#include "sql/statement.h"

namespace opdelta::warehouse {

/// The slice of one warehouse table a source transaction writes: either a
/// whole-table claim or a set of key-column values (encoded to canonical
/// SQL-literal text after the executor's coercions).
struct TableFootprint {
  bool whole_table = false;
  std::vector<std::string> keys;  // meaningful only when !whole_table
};

/// A transaction's footprint: every table it touches, with the slice per
/// table. Conservative by construction — when a statement's row set cannot
/// be bounded by key equality, the claim widens to the whole table.
using TxnFootprint = std::map<std::string, TableFootprint>;

/// Folds one parsed statement into `footprint`. Returns false when the
/// statement cannot be given a safe footprint at all (non-DML, unknown
/// table, trigger-bearing table whose trigger bodies write elsewhere) —
/// its transaction then applies as a full barrier.
///
/// Footprint rules (DESIGN.md §15):
///   INSERT               -> the key cell of each inserted row
///   UPDATE/DELETE with a `key = literal` conjunct
///                        -> that key (plus, for UPDATE, any key value
///                           assigned in SET — the row's new identity)
///   any other WHERE      -> whole table
///   keyless table        -> whole table
///   table with triggers  -> no footprint (trigger bodies are opaque)
bool StatementFootprint(engine::Database* db, const sql::Statement& stmt,
                        TxnFootprint* footprint);

/// Barrier for each transaction: the index of the newest earlier
/// transaction whose footprint overlaps it, or -1. Because the op-delta
/// applier commits strictly in index order, "all my conflicting
/// predecessors have committed" reduces to "the commit cursor has passed
/// my barrier" — the full conflict DAG collapses to one index per node.
std::vector<int64_t> ComputeConflictBarriers(
    const std::vector<TxnFootprint>& footprints);

}  // namespace opdelta::warehouse

#endif  // OPDELTA_WAREHOUSE_APPLY_SCHEDULER_H_
