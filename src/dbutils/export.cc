#include "dbutils/export.h"

#include "common/coding.h"
#include "common/crc32.h"
#include "common/env.h"
#include "catalog/row_codec.h"
#include "storage/page.h"

namespace opdelta::dbutils {

namespace {
constexpr uint32_t kExportMagic = 0x4F504558;  // "OPEX"
}

Status ExportUtil::Export(engine::Database* db, const std::string& table,
                          const std::string& path) {
  engine::Table* t = db->GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);

  // Written under a temporary name, synced, then renamed over `path` (as
  // WriteFileAtomic does): a failed or crashed export never replaces a good
  // dump with a torn one.
  Env* env = Env::Default();
  const std::string tmp = path + ".tmp";
  std::unique_ptr<WritableFile> file;
  OPDELTA_RETURN_IF_ERROR(env->NewWritableFile(tmp, &file));

  std::string header;
  PutFixed32(&header, kExportMagic);
  t->schema().EncodeTo(&header);
  uint32_t crc = Crc32c(header.data(), header.size());
  OPDELTA_RETURN_IF_ERROR(file->Append(Slice(header)));

  // Stream rows in chunks so huge tables never materialize in memory.
  std::string buf;
  uint64_t rows = 0;
  Status write_status;
  Status scan_status = db->Scan(
      nullptr, table, engine::Predicate::True(),
      [&](const storage::Rid&, const catalog::Row& row) {
        std::string enc = catalog::RowCodec::Encode(t->schema(), row);
        PutLengthPrefixed(&buf, Slice(enc));
        ++rows;
        if (buf.size() >= 1 << 20) {
          crc = Crc32cExtend(crc, buf.data(), buf.size());
          write_status = file->Append(Slice(buf));
          buf.clear();
        }
        return write_status.ok();
      });
  OPDELTA_RETURN_IF_ERROR(scan_status);
  OPDELTA_RETURN_IF_ERROR(write_status);
  if (!buf.empty()) {
    crc = Crc32cExtend(crc, buf.data(), buf.size());
    OPDELTA_RETURN_IF_ERROR(file->Append(Slice(buf)));
  }

  std::string footer;
  PutFixed64(&footer, rows);
  PutFixed32(&footer, crc);
  OPDELTA_RETURN_IF_ERROR(file->Append(Slice(footer)));
  OPDELTA_RETURN_IF_ERROR(file->Sync());
  OPDELTA_RETURN_IF_ERROR(file->Close());
  return env->RenameFile(tmp, path);
}

Status ExportUtil::ReadExportFile(
    const std::string& path, catalog::Schema* schema_out,
    const std::function<bool(const catalog::Row&)>& fn) {
  std::string data;
  OPDELTA_RETURN_IF_ERROR(Env::Default()->ReadFileToString(path, &data));
  if (data.size() < 16) return Status::Corruption("export file too small");
  // The magic first: a file of another format is not a corrupt dump.
  if (DecodeFixed32(data.data()) != kExportMagic) {
    return Status::Corruption("not an export file (bad magic): " + path);
  }

  const uint64_t rows = DecodeFixed64(data.data() + data.size() - 12);
  const uint32_t expected_crc = DecodeFixed32(data.data() + data.size() - 4);
  if (Crc32c(data.data(), data.size() - 12) != expected_crc) {
    return Status::Corruption("export crc mismatch: " + path);
  }

  Slice input(data.data() + 4, data.size() - 16);
  catalog::Schema schema;
  OPDELTA_RETURN_IF_ERROR(catalog::Schema::DecodeFrom(&input, &schema));
  if (schema_out != nullptr) *schema_out = schema;

  for (uint64_t i = 0; i < rows; ++i) {
    Slice enc;
    if (!GetLengthPrefixed(&input, &enc)) {
      return Status::Corruption("export row " + std::to_string(i));
    }
    catalog::Row row;
    OPDELTA_RETURN_IF_ERROR(catalog::RowCodec::Decode(schema, enc, &row));
    if (!fn(row)) return Status::OK();
  }
  return Status::OK();
}

Status ImportUtil::Import(engine::Database* db, const std::string& table,
                          const std::string& path, const Options& options,
                          Stats* stats) {
  Stats local;
  engine::Table* t = db->GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);

  catalog::Schema export_schema;
  // First pass just validates schema compatibility cheaply.
  OPDELTA_RETURN_IF_ERROR(ExportUtil::ReadExportFile(
      path, &export_schema, [](const catalog::Row&) { return false; }));
  if (!(export_schema == t->schema())) {
    return Status::InvalidArgument(
        "import schema mismatch: file has (" + export_schema.ToString() +
        "), table has (" + t->schema().ToString() + ")");
  }

  const std::string scratch = options.scratch_path.empty()
                                  ? db->dir() + "/import.scratch"
                                  : options.scratch_path;
  Env* env = Env::Default();

  // Staging page: Import fills private page images first.
  alignas(8) char page_buf[storage::kPageSize];
  storage::SlottedPage staging(page_buf);
  staging.Init();
  std::vector<catalog::Row> staged;

  // Spills the staging page to scratch (I/O #1), reads it back, and pushes
  // its rows through the transactional insert path (I/O #2 + WAL).
  auto flush_staging = [&]() -> Status {
    if (staged.empty()) return Status::OK();
    local.staging_spills++;
    OPDELTA_RETURN_IF_ERROR(env->WriteStringToFile(
        scratch, Slice(page_buf, storage::kPageSize)));
    std::string readback;
    OPDELTA_RETURN_IF_ERROR(env->ReadFileToString(scratch, &readback));
    // Decode records back off the staged page image, then insert.
    storage::SlottedPage reread(readback.data());
    std::unique_ptr<txn::Transaction> txn = db->Begin();
    for (uint16_t s = 0; s < reread.slot_count(); ++s) {
      Slice rec;
      if (!reread.Read(s, &rec).ok()) continue;
      catalog::Row row;
      Status st = catalog::RowCodec::Decode(t->schema(), rec, &row);
      if (st.ok()) st = db->InsertRaw(txn.get(), table, std::move(row));
      if (!st.ok()) {
        (void)db->Abort(txn.get());  // surface the decode/insert error
        return st;
      }
    }
    Status commit = db->Commit(txn.get());
    if (!commit.ok()) {
      // A failed commit leaves the transaction active; abort to release
      // its locks instead of leaking them until timeout.
      (void)db->Abort(txn.get());
      return commit;
    }
    staging.Init();
    staged.clear();
    return Status::OK();
  };

  Status inner;
  Status read_status = ExportUtil::ReadExportFile(
      path, nullptr, [&](const catalog::Row& row) {
        if (staged.size() >= options.batch_rows) {
          inner = flush_staging();
          if (!inner.ok()) return false;
        }
        std::string enc = catalog::RowCodec::Encode(t->schema(), row);
        uint16_t slot;
        Status st = staging.Insert(Slice(enc), &slot);
        if (st.code() == StatusCode::kOutOfRange) {
          inner = flush_staging();
          if (!inner.ok()) return false;
          st = staging.Insert(Slice(enc), &slot);
        }
        if (!st.ok()) {
          inner = st;
          return false;
        }
        staged.push_back(row);
        local.rows_imported++;
        return true;
      });
  OPDELTA_RETURN_IF_ERROR(read_status);
  OPDELTA_RETURN_IF_ERROR(inner);
  OPDELTA_RETURN_IF_ERROR(flush_staging());
  (void)env->DeleteFile(scratch);  // best effort
  if (stats != nullptr) *stats = local;
  return db->FlushAll();
}

}  // namespace opdelta::dbutils
