#include "dbutils/ascii_dump.h"

#include "common/env.h"
#include "catalog/row_codec.h"

namespace opdelta::dbutils {

Status AsciiDump::DumpTable(engine::Database* db, const std::string& table,
                            const engine::Predicate& pred,
                            const std::string& path) {
  std::unique_ptr<WritableFile> file;
  OPDELTA_RETURN_IF_ERROR(Env::Default()->NewWritableFile(path, &file));
  std::string buf;
  Status write_status;
  Status st = db->Scan(nullptr, table, pred,
                       [&](const storage::Rid&, const catalog::Row& row) {
                         catalog::CsvCodec::EncodeLine(row, &buf);
                         if (buf.size() >= 1 << 20) {
                           write_status = file->Append(Slice(buf));
                           buf.clear();
                         }
                         return write_status.ok();
                       });
  OPDELTA_RETURN_IF_ERROR(st);
  OPDELTA_RETURN_IF_ERROR(write_status);
  if (!buf.empty()) OPDELTA_RETURN_IF_ERROR(file->Append(Slice(buf)));
  OPDELTA_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

Status AsciiDump::DumpRows(const std::vector<catalog::Row>& rows,
                           const std::string& path) {
  std::unique_ptr<WritableFile> file;
  OPDELTA_RETURN_IF_ERROR(Env::Default()->NewWritableFile(path, &file));
  std::string buf;
  for (const catalog::Row& row : rows) {
    catalog::CsvCodec::EncodeLine(row, &buf);
    if (buf.size() >= 1 << 20) {
      OPDELTA_RETURN_IF_ERROR(file->Append(Slice(buf)));
      buf.clear();
    }
  }
  if (!buf.empty()) OPDELTA_RETURN_IF_ERROR(file->Append(Slice(buf)));
  OPDELTA_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

Status AsciiDump::ReadCsv(const std::string& path,
                          const catalog::Schema& schema,
                          std::vector<catalog::Row>* out) {
  std::string data;
  OPDELTA_RETURN_IF_ERROR(Env::Default()->ReadFileToString(path, &data));
  out->clear();
  size_t start = 0;
  while (start < data.size()) {
    size_t end = data.find('\n', start);
    if (end == std::string::npos) end = data.size();
    if (end > start) {
      catalog::Row row;
      OPDELTA_RETURN_IF_ERROR(catalog::CsvCodec::DecodeLine(
          schema, Slice(data.data() + start, end - start), &row));
      out->push_back(std::move(row));
    }
    start = end + 1;
  }
  return Status::OK();
}

}  // namespace opdelta::dbutils
