#include "hub/dead_letter.h"

#include <algorithm>

#include "common/coding.h"
#include "common/env.h"
#include "common/logging.h"
#include "pipeline/source_leg.h"

namespace opdelta::hub {

namespace {

constexpr char kLogSuffix[] = ".log";

void EncodeEntry(const std::string& message, const std::string& cause,
                 std::string* frame) {
  PutFixed32(frame, static_cast<uint32_t>(message.size()));
  frame->append(message);
  PutFixed32(frame, static_cast<uint32_t>(cause.size()));
  frame->append(cause);
}

}  // namespace

std::string DeadLetterDir(const std::string& work_dir) {
  return work_dir + "/dead_letters";
}

std::string DeadLetterPath(const std::string& work_dir,
                           const std::string& table) {
  return DeadLetterDir(work_dir) + "/" + table + kLogSuffix;
}

Status ListDeadLetterTables(const std::string& work_dir,
                            std::vector<std::string>* tables) {
  tables->clear();
  Env* env = Env::Default();
  const std::string dir = DeadLetterDir(work_dir);
  if (!env->FileExists(dir)) return Status::OK();
  std::vector<std::string> children;
  OPDELTA_RETURN_IF_ERROR(env->ListDir(dir, &children));
  const size_t suffix_len = sizeof(kLogSuffix) - 1;
  for (const std::string& child : children) {
    if (child.size() <= suffix_len ||
        child.compare(child.size() - suffix_len, suffix_len, kLogSuffix) !=
            0) {
      continue;
    }
    uint64_t size = 0;
    if (env->GetFileSize(dir + "/" + child, &size).ok() && size > 0) {
      tables->push_back(child.substr(0, child.size() - suffix_len));
    }
  }
  std::sort(tables->begin(), tables->end());
  return Status::OK();
}

Status AppendDeadLetter(const std::string& work_dir, const std::string& table,
                        const std::string& message, const Status& cause) {
  Env* env = Env::Default();
  OPDELTA_RETURN_IF_ERROR(env->CreateDir(DeadLetterDir(work_dir)));
  const std::string path = DeadLetterPath(work_dir, table);
  std::unique_ptr<WritableFile> file;
  OPDELTA_RETURN_IF_ERROR(env->NewAppendableFile(path, &file));
  const uint64_t start = file->Size();
  std::string frame;
  EncodeEntry(message, cause.ToString(), &frame);
  Status st = file->Append(Slice(frame));
  if (st.ok()) st = file->Sync();
  if (!st.ok()) {
    // Cut the torn or unsynced entry off, so the next append starts at a
    // whole entry. Best effort: if the cut fails too, the incomplete entry
    // stays at the end, where ReadDeadLetters reads it as the log's end.
    (void)file->Close();
    (void)env->Truncate(path, start);
    return st;
  }
  return file->Close();
}

Status ReadDeadLetters(const std::string& work_dir, const std::string& table,
                       std::vector<DeadLetterEntry>* out) {
  out->clear();
  Env* env = Env::Default();
  const std::string path = DeadLetterPath(work_dir, table);
  if (!env->FileExists(path)) return Status::OK();
  std::string data;
  OPDELTA_RETURN_IF_ERROR(env->ReadFileToString(path, &data));
  Slice input(data);
  auto take = [&input](std::string* field) {
    uint32_t len = 0;
    if (!GetFixed32(&input, &len) || input.size() < len) return false;
    field->assign(input.data(), len);
    input.remove_prefix(len);
    return true;
  };
  while (!input.empty()) {
    const size_t left = input.size();
    DeadLetterEntry entry;
    if (!take(&entry.message) || !take(&entry.cause)) {
      // A crash mid-append, or a failed append whose cut failed too, leaves
      // an incomplete final entry: the log ends before it.
      OPDELTA_LOG(kWarn) << "dead-letter log " << path
                         << " ends in an incomplete entry (" << left
                         << " bytes); reading the entries before it";
      break;
    }
    // Identity is best effort: a poison message may not decode at all.
    (void)pipeline::DecodeBatchHeader(Slice(entry.message), &entry.id);
    out->push_back(std::move(entry));
  }
  return Status::OK();
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

  std::string kept;  // frames of entries that still fail
  for (const DeadLetterEntry& entry : entries) {
    warehouse::IntegrationStats istats;
    Status st = ApplyEntry(warehouse, ledger, table, entry, &istats);
    if (!st.ok()) {
      ++local.failed;
      EncodeEntry(entry.message, entry.cause, &kept);
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

  // Rewrite the log to exactly the still-failing entries (atomically, so a
  // crash never drops an unreplayed batch).
  Env* env = Env::Default();
  const std::string path = DeadLetterPath(work_dir, table);
  if (env->FileExists(path)) {
    if (kept.empty()) {
      OPDELTA_RETURN_IF_ERROR(env->DeleteFile(path));
    } else {
      OPDELTA_RETURN_IF_ERROR(WriteFileAtomic(env, path, Slice(kept)));
    }
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
