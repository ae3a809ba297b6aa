#ifndef OPDELTA_HUB_DEAD_LETTER_H_
#define OPDELTA_HUB_DEAD_LETTER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "extract/delta.h"
#include "warehouse/apply_ledger.h"

namespace opdelta::hub {

/// One diverted batch in a per-table dead-letter log: the full framed
/// message as the hub tried to apply it (identity included), plus the
/// integration error that diverted it. A table's log is the
/// common::RecordLog named after it in `<hub work_dir>/dead_letters`
/// (`<table>-000001.log`, ...), one record per entry with payload
///   [varint message_len][message][cause]
struct DeadLetterEntry {
  extract::BatchId id;  // invalid when the message carried no identity
  std::string message;
  std::string cause;
};

/// `<hub work_dir>/dead_letters`, which holds every table's log.
std::string DeadLetterDir(const std::string& work_dir);

/// Warehouse tables whose dead-letter log holds an entry, sorted.
Status ListDeadLetterTables(const std::string& work_dir,
                            std::vector<std::string>* tables);

/// Appends one entry durably. A failed append or sync is cut back before
/// the call returns, or by the next append when that cut fails too.
Status AppendDeadLetter(const std::string& work_dir, const std::string& table,
                        const std::string& message, const Status& cause);

/// Reads every entry of `table`'s log. Missing log = empty result. A torn
/// final entry ends the log.
Status ReadDeadLetters(const std::string& work_dir, const std::string& table,
                       std::vector<DeadLetterEntry>* out);

struct ReplayStats {
  uint64_t replayed = 0;            // applied to the warehouse
  uint64_t duplicates_dropped = 0;  // ledger recognized them as applied
  uint64_t failed = 0;              // still undeliverable, kept in the log
};

/// Re-injects every entry of `table`'s dead-letter log into the warehouse
/// through the ledger's duplicate check — the hub records a ledger hole
/// when it diverts a batch, so a legitimate replay is admitted (resuming
/// past any partially-applied prefix) while an already-applied batch is
/// dropped; operator replay can never double-apply. Entries that apply or
/// drop leave the log; failing entries are rewritten into a fresh segment,
/// synced before the older ones are deleted, so a crash never drops one.
/// `ledger` may be nullptr (no dedup: entries apply as-is).
Status ReplayDeadLetters(engine::Database* warehouse,
                         warehouse::ApplyLedger* ledger,
                         const std::string& work_dir,
                         const std::string& table, ReplayStats* stats);

}  // namespace opdelta::hub

#endif  // OPDELTA_HUB_DEAD_LETTER_H_
