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
/// integration error that diverted it. On-disk frame:
///   [u32 message_len][message][u32 cause_len][cause]
struct DeadLetterEntry {
  extract::BatchId id;  // invalid when the message carried no identity
  std::string message;
  std::string cause;
};

/// `<hub work_dir>/dead_letters` and `<...>/dead_letters/<table>.log`.
std::string DeadLetterDir(const std::string& work_dir);
std::string DeadLetterPath(const std::string& work_dir,
                           const std::string& table);

/// Warehouse tables with a (non-empty) dead-letter log, sorted.
Status ListDeadLetterTables(const std::string& work_dir,
                            std::vector<std::string>* tables);

/// Appends one entry durably (create-if-missing, fsync). A failed append
/// or sync truncates the log back to its size before the append.
Status AppendDeadLetter(const std::string& work_dir, const std::string& table,
                        const std::string& message, const Status& cause);

/// Reads every entry of `table`'s log. Missing log = empty result. An
/// incomplete final entry (a torn append) ends the log, with a warning.
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
/// drop are removed from the log; failing entries are kept (the log is
/// rewritten). `ledger` may be nullptr (no dedup: entries apply as-is).
Status ReplayDeadLetters(engine::Database* warehouse,
                         warehouse::ApplyLedger* ledger,
                         const std::string& work_dir,
                         const std::string& table, ReplayStats* stats);

}  // namespace opdelta::hub

#endif  // OPDELTA_HUB_DEAD_LETTER_H_
