#include "hub/dead_letter.h"

#include <set>

#include "common/coding.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/record_log.h"
#include "pipeline/source_leg.h"

namespace opdelta::hub {

namespace {

std::string EncodeEntry(const std::string& message, const std::string& cause) {
  std::string payload;
  PutLengthPrefixed(&payload, Slice(message));
  return payload + cause;
}

}  // namespace

std::string DeadLetterDir(const std::string& work_dir) {
  return work_dir + "/dead_letters";
}

Status ListDeadLetterTables(const std::string& work_dir,
                            std::vector<std::string>* tables) {
  tables->clear();
  Env* env = Env::Default();
  const std::string dir = DeadLetterDir(work_dir);
  if (!env->DirExists(dir)) return Status::OK();
  std::vector<std::string> children;
  OPDELTA_RETURN_IF_ERROR(env->ListDir(dir, &children));
  std::set<std::string> found;
  for (const std::string& child : children) {
    std::string table;
    uint64_t index = 0, size = 0;
    if (common::RecordLog::ParseSegmentName(child, &table, &index) &&
        env->GetFileSize(dir + "/" + child, &size).ok() && size > 0) {
      found.insert(table);
    }
  }
  tables->assign(found.begin(), found.end());
  return Status::OK();
}

Status AppendDeadLetter(const std::string& work_dir, const std::string& table,
                        const std::string& message, const Status& cause) {
  common::RecordLog log;
  OPDELTA_RETURN_IF_ERROR(log.Open(DeadLetterDir(work_dir), table));
  // A failed entry is not logged: Close cuts the segment back to its last
  // whole entry, and if that cut fails too, the next Open does.
  Status st = log.Write(Slice(EncodeEntry(message, cause.ToString())),
                        /*sync=*/true);
  Status closed = log.Close();
  return st.ok() ? closed : st;
}

Status ReadDeadLetters(const std::string& work_dir, const std::string& table,
                       std::vector<DeadLetterEntry>* out) {
  out->clear();
  Status decoded;
  OPDELTA_RETURN_IF_ERROR(common::RecordLog::Read(
      DeadLetterDir(work_dir), table, common::RecordPosition{},
      [&](Slice payload, const common::RecordPosition&) {
        DeadLetterEntry entry;
        Slice message;
        if (!GetLengthPrefixed(&payload, &message)) {
          decoded = Status::Corruption("dead-letter entry of table " + table);
          return false;
        }
        entry.message = message.ToString();
        entry.cause = payload.ToString();
        // Identity is best effort: a poison message may not decode at all.
        (void)pipeline::DecodeBatchHeader(Slice(entry.message), &entry.id);
        out->push_back(std::move(entry));
        return true;
      },
      nullptr));
  return decoded;
}

namespace {

/// Applies one dead-lettered message to the warehouse through the ledger.
Status ApplyEntry(engine::Database* warehouse, warehouse::ApplyLedger* ledger,
                  const std::string& table, const DeadLetterEntry& entry,
                  warehouse::IntegrationStats* istats) {
  // Hub invariant: op-delta sources use matching source/warehouse table
  // names, so the statements decode against the warehouse's current
  // schemas (the source need not be reachable from here).
  pipeline::ShippedBatch batch;
  OPDELTA_RETURN_IF_ERROR(pipeline::DecodeShipped(
      entry.message,
      [warehouse](uint64_t) {
        return Result<std::shared_ptr<const catalog::SchemaMap>>(
            warehouse->CurrentSchemaMap());
      },
      &batch));
  return pipeline::ApplyShipped(warehouse, table, batch, ledger,
                                /*cache=*/nullptr, istats);
}

}  // namespace

Status ReplayDeadLetters(engine::Database* warehouse,
                         warehouse::ApplyLedger* ledger,
                         const std::string& work_dir,
                         const std::string& table, ReplayStats* stats) {
  ReplayStats local;
  std::vector<DeadLetterEntry> entries;
  OPDELTA_RETURN_IF_ERROR(ReadDeadLetters(work_dir, table, &entries));

  std::vector<std::string> kept;  // payloads of entries that still fail
  for (const DeadLetterEntry& entry : entries) {
    warehouse::IntegrationStats istats;
    Status st = ApplyEntry(warehouse, ledger, table, entry, &istats);
    if (!st.ok()) {
      ++local.failed;
      kept.push_back(EncodeEntry(entry.message, entry.cause));
      OPDELTA_LOG(kWarn) << "dead-letter replay for table " << table
                         << " still failing (" << entry.id.ToString()
                         << "): " << st.ToString();
      continue;
    }
    if (istats.duplicate_batches > 0 && istats.transactions == 0) {
      ++local.duplicates_dropped;
    } else {
      ++local.replayed;
    }
  }

  // Rewrite the log to exactly the still-failing entries: they reach a
  // fresh segment, synced, before the segments holding the old entries
  // are deleted, so a crash never drops an unreplayed batch (one in
  // between leaves the old entries too, for the next replay).
  if (!entries.empty()) {
    common::RecordLog log;
    OPDELTA_RETURN_IF_ERROR(log.Open(DeadLetterDir(work_dir), table));
    OPDELTA_RETURN_IF_ERROR(log.Roll(/*sync=*/false));
    for (const std::string& payload : kept) log.Append(Slice(payload));
    OPDELTA_RETURN_IF_ERROR(log.Flush(/*sync=*/true));
    OPDELTA_RETURN_IF_ERROR(log.DeleteBefore(log.end().segment));
    OPDELTA_RETURN_IF_ERROR(log.Close());
  }
  if (stats != nullptr) *stats = local;
  if (local.failed > 0) {
    return Status::Aborted(std::to_string(local.failed) +
                           " dead-letter batch(es) still failing for table " +
                           table);
  }
  return Status::OK();
}

}  // namespace opdelta::hub
