// opdelta_cli — command-line front end for poking at opdelta databases,
// logs, and extraction machinery.
//
//   opdelta_cli create-parts <dbdir> <rows>     create + populate PARTS
//   opdelta_cli tables <dbdir>                  list tables and row counts
//   opdelta_cli dump <dbdir> <table>            print a table as CSV
//   opdelta_cli sql <dbdir> "<statement>"       run DML or SELECT
//   opdelta_cli snapshot <dbdir> <table> <out>  export a table (snapshot dump)
//   opdelta_cli diff <old.snap> <new.snap>      summarize a snapshot diff
//   opdelta_cli extract-log <dbdir> <table>     decode the archive log
//   opdelta_cli oplog <file>                    pretty-print an op-delta log
//   opdelta_cli hub <whdir> <spec> <rounds> [--json]
//                                               run a DeltaHub over N sources
//   opdelta_cli backfill <whdir> <srcdir> <table> [chunk_rows]
//                                               online-bootstrap a warehouse
//                                               table from a live source
//   opdelta_cli scrub <whdir> <srcdir> <table> [chunk_rows] [--once]
//               [--repair] [--json]             verify (and optionally
//                                               repair) a mirrored table
//   opdelta_cli dead-letters <whdir> [workdir] [--replay] [--json]
//                                               list / replay diverted batches
// printf goes to the terminal; all database I/O routes through common::Env.
#include <cstdio>  // NOLINT(opdelta-R5: terminal output, no file I/O)
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "dbutils/ascii_dump.h"
#include "dbutils/export.h"
#include "engine/database.h"
#include "extract/log_extractor.h"
#include "extract/op_delta.h"
#include "extract/snapshot_differential.h"
#include "hub/dead_letter.h"
#include "hub/delta_hub.h"
#include "warehouse/apply_ledger.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "workload/workload.h"

namespace opdelta {
namespace {

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

#define CLI_OK(expr)                          \
  do {                                        \
    ::opdelta::Status _st = (expr);           \
    if (!_st.ok()) return Fail(_st);          \
  } while (0)

/// Escapes a string for inclusion in a JSON double-quoted literal.
std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Result<std::unique_ptr<engine::Database>> OpenExisting(
    const std::string& dir) {
  if (!Env::Default()->FileExists(dir + "/catalog.meta")) {
    return Status::NotFound("no opdelta database at " + dir);
  }
  std::unique_ptr<engine::Database> db;
  OPDELTA_RETURN_IF_ERROR(
      engine::Database::Open(dir, engine::DatabaseOptions(), &db));
  return db;
}

void PrintRow(const catalog::Row& row) {
  std::string line;
  catalog::CsvCodec::EncodeLine(row, &line);
  std::fputs(line.c_str(), stdout);
}

int CmdCreateParts(const std::string& dir, int64_t rows) {
  std::unique_ptr<engine::Database> db;
  CLI_OK(engine::Database::Open(dir, engine::DatabaseOptions(), &db));
  workload::PartsWorkload wl;
  CLI_OK(wl.CreateTable(db.get(), "parts"));
  CLI_OK(wl.Populate(db.get(), "parts", rows));
  CLI_OK(db->FlushAll());
  std::printf("created %s with parts(%lld rows)\n", dir.c_str(),
              static_cast<long long>(rows));
  return 0;
}

int CmdTables(const std::string& dir) {
  Result<std::unique_ptr<engine::Database>> db = OpenExisting(dir);
  if (!db.ok()) return Fail(db.status());
  for (const std::string& name : (*db)->catalog().TableNames()) {
    Result<uint64_t> count = (*db)->CountRows(name);
    if (!count.ok()) return Fail(count.status());
    const engine::Table* t = (*db)->GetTable(name);
    std::printf("%-24s %10llu rows   (%s)\n", name.c_str(),
                static_cast<unsigned long long>(*count),
                t->schema().ToString().c_str());
  }
  return 0;
}

int CmdDump(const std::string& dir, const std::string& table) {
  Result<std::unique_ptr<engine::Database>> db = OpenExisting(dir);
  if (!db.ok()) return Fail(db.status());
  Status st = (*db)->Scan(nullptr, table, engine::Predicate::True(),
                          [&](const storage::Rid&, const catalog::Row& row) {
                            PrintRow(row);
                            return true;
                          });
  CLI_OK(st);
  return 0;
}

int CmdSql(const std::string& dir, const std::string& text) {
  Result<std::unique_ptr<engine::Database>> db = OpenExisting(dir);
  if (!db.ok()) return Fail(db.status());
  sql::Executor exec(db->get());

  Result<sql::Statement> stmt = sql::Parser::Parse(text);
  if (!stmt.ok()) return Fail(stmt.status());
  if (stmt->is_select()) {
    Result<std::vector<catalog::Row>> rows = exec.ExecuteSqlQuery(text);
    if (!rows.ok()) return Fail(rows.status());
    for (const catalog::Row& row : *rows) PrintRow(row);
    std::fprintf(stderr, "%zu rows\n", rows->size());
    return 0;
  }
  Result<size_t> affected = exec.ExecuteSql(text);
  if (!affected.ok()) return Fail(affected.status());
  CLI_OK((*db)->FlushAll());
  std::printf("%zu rows affected\n", *affected);
  return 0;
}

int CmdSnapshot(const std::string& dir, const std::string& table,
                const std::string& out) {
  Result<std::unique_ptr<engine::Database>> db = OpenExisting(dir);
  if (!db.ok()) return Fail(db.status());
  CLI_OK(dbutils::ExportUtil::Export(db->get(), table, out));
  uint64_t size = 0;
  CLI_OK(Env::Default()->GetFileSize(out, &size));
  std::printf("wrote %s (%llu bytes)\n", out.c_str(),
              static_cast<unsigned long long>(size));
  return 0;
}

int CmdDiff(const std::string& old_path, const std::string& new_path) {
  extract::SnapshotDifferential::Stats stats;
  Result<extract::DeltaBatch> diff = extract::SnapshotDifferential::Diff(
      old_path, new_path, extract::SnapshotDifferential::Options(), &stats);
  if (!diff.ok()) return Fail(diff.status());
  size_t ins = 0, del = 0, upd = 0;
  for (const extract::DeltaRecord& r : diff->records) {
    switch (r.op) {
      case extract::DeltaOp::kInsert:
        ++ins;
        break;
      case extract::DeltaOp::kDelete:
        ++del;
        break;
      case extract::DeltaOp::kUpdateAfter:
        ++upd;
        break;
      default:
        break;
    }
  }
  std::printf("old: %llu rows, new: %llu rows\n",
              static_cast<unsigned long long>(stats.old_rows),
              static_cast<unsigned long long>(stats.new_rows));
  std::printf("delta: %zu inserts, %zu deletes, %zu updates\n", ins, del,
              upd);
  return 0;
}

int CmdExtractLog(const std::string& dir, const std::string& table) {
  Result<std::unique_ptr<engine::Database>> db = OpenExisting(dir);
  if (!db.ok()) return Fail(db.status());
  engine::Table* t = (*db)->GetTable(table);
  if (t == nullptr) return Fail(Status::NotFound("table " + table));
  extract::LogExtractor extractor((*db)->wal()->dir());
  txn::Lsn wm = 0;
  Result<extract::DeltaBatch> batch =
      extractor.ExtractSince(0, t->id(), table, t->schema(), &wm);
  if (!batch.ok()) return Fail(batch.status());
  for (const extract::DeltaRecord& r : batch->records) {
    std::printf("txn=%llu %-14s ",
                static_cast<unsigned long long>(r.source_txn),
                extract::DeltaOpName(r.op));
    PrintRow(r.image);
  }
  std::fprintf(stderr, "%zu delta records, watermark lsn=%llu\n",
               batch->records.size(), static_cast<unsigned long long>(wm));
  return 0;
}

int CmdOplog(const std::string& path) {
  std::string data;
  CLI_OK(Env::Default()->ReadFileToString(path, &data));
  // Schema-less pretty print: show structure, statements and image lines.
  size_t start = 0, txns = 0, stmts = 0;
  while (start < data.size()) {
    size_t end = data.find('\n', start);
    if (end == std::string::npos) end = data.size();
    const std::string line = data.substr(start, end - start);
    if (!line.empty()) {
      switch (line[0]) {
        case 'B':
          std::printf("BEGIN  %s\n", line.c_str() + 2);
          break;
        case 'C':
          std::printf("COMMIT %s\n", line.c_str() + 2);
          ++txns;
          break;
        case 'A':
          std::printf("ABORT  %s\n", line.c_str() + 2);
          break;
        case 'S':
        case 'T': {
          const size_t sql_pos = line.find(' ', line.find(' ', 2) + 1);
          std::printf("  %s%s\n",
                      line[0] == 'T' ? "[hybrid] " : "",
                      sql_pos == std::string::npos
                          ? line.c_str()
                          : line.c_str() + sql_pos + 1);
          ++stmts;
          break;
        }
        case 'V':
          std::printf("    before-image: %s\n",
                      line.substr(line.find(' ', line.find(' ', 2) + 1) + 1)
                          .c_str());
          break;
        default:
          std::printf("  ? %s\n", line.c_str());
      }
    }
    start = end + 1;
  }
  std::fprintf(stderr, "%zu committed txns, %zu statements\n", txns, stmts);
  return 0;
}

void PrintHubStatsJson(const hub::HubStats& stats) {
  std::printf("{\n");
  std::printf("  \"rounds\": %llu,\n",
              static_cast<unsigned long long>(stats.rounds));
  std::printf("  \"batches_reconciled\": %llu,\n",
              static_cast<unsigned long long>(stats.batches_reconciled));
  std::printf("  \"duplicates_dropped\": %llu,\n",
              static_cast<unsigned long long>(stats.duplicates_dropped));
  std::printf("  \"conflicts\": %llu,\n",
              static_cast<unsigned long long>(stats.conflicts));
  std::printf("  \"batches_applied\": %llu,\n",
              static_cast<unsigned long long>(stats.batches_applied));
  std::printf("  \"transactions_applied\": %llu,\n",
              static_cast<unsigned long long>(stats.transactions_applied));
  std::printf("  \"apply_micros_total\": %lld,\n",
              static_cast<long long>(stats.apply_micros_total));
  std::printf("  \"apply_micros_max\": %lld,\n",
              static_cast<long long>(stats.apply_micros_max));
  std::printf("  \"dead_letters\": %llu,\n",
              static_cast<unsigned long long>(stats.dead_letters));
  std::printf("  \"sources\": [");
  for (size_t i = 0; i < stats.sources.size(); ++i) {
    const hub::SourceStats& s = stats.sources[i];
    std::printf("%s\n    {\"name\": \"%s\", \"warehouse_table\": \"%s\", ",
                i == 0 ? "" : ",", JsonEscape(s.name).c_str(),
                JsonEscape(s.warehouse_table).c_str());
    std::printf("\"rounds\": %llu, \"records_extracted\": %llu, "
                "\"batches_shipped\": %llu, \"bytes_shipped\": %llu, "
                "\"batches_applied\": %llu, ",
                static_cast<unsigned long long>(s.rounds),
                static_cast<unsigned long long>(s.records_extracted),
                static_cast<unsigned long long>(s.batches_shipped),
                static_cast<unsigned long long>(s.bytes_shipped),
                static_cast<unsigned long long>(s.batches_applied));
    std::printf("\"duplicates_dropped\": %llu, \"applied_epoch\": %llu, "
                "\"applied_seq\": %llu, ",
                static_cast<unsigned long long>(s.duplicates_dropped),
                static_cast<unsigned long long>(s.applied_epoch),
                static_cast<unsigned long long>(s.applied_seq));
    std::printf("\"source_schema_epoch\": %llu, "
                "\"applied_schema_epoch\": %llu, ",
                static_cast<unsigned long long>(s.source_schema_epoch),
                static_cast<unsigned long long>(s.applied_schema_epoch));
    std::printf("\"errors\": %llu, \"retries\": %llu, "
                "\"dead_letters\": %llu, \"quarantined\": %s, "
                "\"last_error\": \"%s\", ",
                static_cast<unsigned long long>(s.errors),
                static_cast<unsigned long long>(s.retries),
                static_cast<unsigned long long>(s.dead_letters),
                s.quarantined ? "true" : "false",
                JsonEscape(s.last_error).c_str());
    std::printf("\"chunks_done\": %llu, \"chunks_total\": %llu, "
                "\"rows_backfilled\": %llu, \"rows_deduped\": %llu, "
                "\"backfill_done\": %s, ",
                static_cast<unsigned long long>(s.chunks_done),
                static_cast<unsigned long long>(s.chunks_total),
                static_cast<unsigned long long>(s.rows_backfilled),
                static_cast<unsigned long long>(s.rows_deduped),
                s.backfill_done ? "true" : "false");
    std::printf("\"chunks_scrubbed\": %llu, \"chunks_mismatched\": %llu, "
                "\"chunks_repaired\": %llu, \"chunks_inconclusive\": %llu, "
                "\"last_scrub_pass\": %llu}",
                static_cast<unsigned long long>(s.chunks_scrubbed),
                static_cast<unsigned long long>(s.chunks_mismatched),
                static_cast<unsigned long long>(s.chunks_repaired),
                static_cast<unsigned long long>(s.chunks_inconclusive),
                static_cast<unsigned long long>(s.last_scrub_pass));
  }
  std::printf("%s]\n}\n", stats.sources.empty() ? "" : "\n  ");
}

void PrintHubStatsText(const hub::HubStats& stats) {
  std::printf("rounds                %10llu\n",
              static_cast<unsigned long long>(stats.rounds));
  std::printf("batches reconciled    %10llu  (%llu duplicates dropped, "
              "%llu conflicts)\n",
              static_cast<unsigned long long>(stats.batches_reconciled),
              static_cast<unsigned long long>(stats.duplicates_dropped),
              static_cast<unsigned long long>(stats.conflicts));
  std::printf("batches applied       %10llu  (%llu txns, %lld us total, "
              "%lld us max)\n",
              static_cast<unsigned long long>(stats.batches_applied),
              static_cast<unsigned long long>(stats.transactions_applied),
              static_cast<long long>(stats.apply_micros_total),
              static_cast<long long>(stats.apply_micros_max));
  if (stats.dead_letters > 0) {
    std::printf("batches dead-lettered %10llu\n",
                static_cast<unsigned long long>(stats.dead_letters));
  }
  for (const hub::SourceStats& s : stats.sources) {
    std::printf("  %-16s -> %-16s %8llu extracted, %llu shipped, "
                "%llu applied\n",
                s.name.c_str(), s.warehouse_table.c_str(),
                static_cast<unsigned long long>(s.records_extracted),
                static_cast<unsigned long long>(s.batches_shipped),
                static_cast<unsigned long long>(s.batches_applied));
    if (s.source_schema_epoch > 1 || s.applied_schema_epoch > 1) {
      std::printf("  %-16s    schema epoch %llu at source, %llu applied\n",
                  "", static_cast<unsigned long long>(s.source_schema_epoch),
                  static_cast<unsigned long long>(s.applied_schema_epoch));
    }
    if (s.chunks_total > 0 || s.backfill_done) {
      std::printf("  %-16s    backfill %llu/%llu chunks, %llu rows, "
                  "%llu deduped%s\n",
                  "", static_cast<unsigned long long>(s.chunks_done),
                  static_cast<unsigned long long>(s.chunks_total),
                  static_cast<unsigned long long>(s.rows_backfilled),
                  static_cast<unsigned long long>(s.rows_deduped),
                  s.backfill_done ? " (done)" : "");
    }
    if (s.chunks_scrubbed + s.chunks_mismatched + s.chunks_repaired +
            s.chunks_inconclusive + s.last_scrub_pass >
        0) {
      std::printf("  %-16s    scrub pass %llu: %llu clean, %llu mismatched, "
                  "%llu repaired, %llu inconclusive\n",
                  "", static_cast<unsigned long long>(s.last_scrub_pass),
                  static_cast<unsigned long long>(s.chunks_scrubbed),
                  static_cast<unsigned long long>(s.chunks_mismatched),
                  static_cast<unsigned long long>(s.chunks_repaired),
                  static_cast<unsigned long long>(s.chunks_inconclusive));
    }
    if (s.errors > 0 || s.retries > 0 || s.dead_letters > 0 ||
        s.quarantined) {
      std::string last_error;
      if (!s.last_error.empty()) {
        last_error = "; last error: " + s.last_error;
      }
      std::printf("  %-16s    %s%llu errors, %llu retries, %llu "
                  "dead-lettered%s\n",
                  "", s.quarantined ? "QUARANTINED, " : "",
                  static_cast<unsigned long long>(s.errors),
                  static_cast<unsigned long long>(s.retries),
                  static_cast<unsigned long long>(s.dead_letters),
                  last_error.c_str());
    }
  }
}

// Spec file: one source per line,
//   <name> <dbdir> <method> <source_table> <warehouse_table> [replica_group]
// '#' starts a comment. Missing warehouse tables are created from the
// source table's schema. The hub's state lives under <whdir>/hub.
int CmdHub(const std::string& wh_dir, const std::string& spec_path,
           int64_t rounds, bool json) {
  Result<std::unique_ptr<engine::Database>> wh = OpenExisting(wh_dir);
  if (!wh.ok()) return Fail(wh.status());

  std::string spec_text;
  CLI_OK(Env::Default()->ReadFileToString(spec_path, &spec_text));

  hub::HubOptions options;
  options.work_dir = wh_dir + "/hub";
  Result<std::unique_ptr<hub::DeltaHub>> hub =
      hub::DeltaHub::Create(wh->get(), options);
  if (!hub.ok()) return Fail(hub.status());

  // Source databases must outlive the hub's Stop(); declared first.
  std::vector<std::unique_ptr<engine::Database>> sources;
  std::istringstream lines(spec_text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    hub::SourceSpec spec;
    std::string db_dir, method;
    if (!(fields >> spec.name >> db_dir >> method >> spec.source_table >>
          spec.warehouse_table)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      return Fail(Status::InvalidArgument(
          spec_path + ":" + std::to_string(line_no) +
          ": want <name> <dbdir> <method> <src_table> <wh_table> [group]"));
    }
    fields >> spec.replica_group;
    if (!pipeline::ParseMethod(method, &spec.method)) {
      return Fail(Status::InvalidArgument(
          spec_path + ":" + std::to_string(line_no) + ": bad method '" +
          method + "'"));
    }
    Result<std::unique_ptr<engine::Database>> src = OpenExisting(db_dir);
    if (!src.ok()) return Fail(src.status());
    spec.source = src->get();
    sources.push_back(std::move(*src));

    if ((*wh)->GetTable(spec.warehouse_table) == nullptr) {
      const engine::Table* t = spec.source->GetTable(spec.source_table);
      if (t == nullptr) {
        return Fail(Status::NotFound("table " + spec.source_table + " in " +
                                     db_dir));
      }
      CLI_OK((*wh)->CreateTable(spec.warehouse_table, t->schema()));
      if (!json) {
        std::printf("created warehouse table %s\n",
                    spec.warehouse_table.c_str());
      }
    }
    CLI_OK((*hub)->AddSource(spec));
  }

  CLI_OK((*hub)->Setup());
  for (int64_t i = 0; i < rounds; ++i) CLI_OK((*hub)->RunRound());
  Status stop = (*hub)->Stop();
  CLI_OK((*wh)->FlushAll());

  const hub::HubStats stats = (*hub)->Stats();
  if (json) {
    PrintHubStatsJson(stats);
  } else {
    PrintHubStatsText(stats);
  }
  CLI_OK(stop);
  // A source that ends quarantined or with diverted batches means the
  // warehouse is NOT a faithful mirror; surface that to scripts/CI.
  for (const hub::SourceStats& s : stats.sources) {
    if (s.quarantined || s.dead_letters > 0) {
      std::fprintf(stderr, "error: source %s ended %s%llu dead-letter(s)\n",
                   s.name.c_str(), s.quarantined ? "quarantined with " : "with ",
                   static_cast<unsigned long long>(s.dead_letters));
      return 1;
    }
  }
  return 0;
}

// Online-bootstraps warehouse table <table> from the live source at
// <src_dir>: a single-source op-delta hub with backfill enabled, driven
// until every chunk has shipped and applied. Resumes from the chunk
// ledger's durable cursor if interrupted. The warehouse table is created
// from the source schema when missing; hub state lives under <whdir>/hub.
int CmdBackfill(const std::string& wh_dir, const std::string& src_dir,
                const std::string& table, uint64_t chunk_rows) {
  // Bootstrap command: a missing warehouse is the expected starting
  // point, so create it instead of failing like the inspection commands.
  std::unique_ptr<engine::Database> wh_db;
  CLI_OK(engine::Database::Open(wh_dir, engine::DatabaseOptions(), &wh_db));
  Result<std::unique_ptr<engine::Database>> wh(std::move(wh_db));
  Result<std::unique_ptr<engine::Database>> src = OpenExisting(src_dir);
  if (!src.ok()) return Fail(src.status());

  const engine::Table* t = (*src)->GetTable(table);
  if (t == nullptr) {
    return Fail(Status::NotFound("table " + table + " in " + src_dir));
  }
  if ((*wh)->GetTable(table) == nullptr) {
    CLI_OK((*wh)->CreateTable(table, t->schema()));
    std::printf("created warehouse table %s\n", table.c_str());
  }

  hub::HubOptions options;
  options.work_dir = wh_dir + "/hub";
  Result<std::unique_ptr<hub::DeltaHub>> hub =
      hub::DeltaHub::Create(wh->get(), options);
  if (!hub.ok()) return Fail(hub.status());

  hub::SourceSpec spec;
  spec.name = table;  // stable across restarts => resumable
  spec.source = src->get();
  spec.method = pipeline::Method::kOpDelta;
  spec.source_table = table;
  spec.warehouse_table = table;
  spec.backfill = true;
  spec.backfill_chunk_rows = chunk_rows;
  CLI_OK((*hub)->AddSource(spec));
  CLI_OK((*hub)->Setup());

  // One chunk per round; drive until the backfiller reports done.
  while (true) {
    CLI_OK((*hub)->RunRound());
    const hub::HubStats stats = (*hub)->Stats();
    const hub::SourceStats& s = stats.sources.front();
    std::printf("chunk %llu/%llu: %llu rows backfilled, %llu deduped\n",
                static_cast<unsigned long long>(s.chunks_done),
                static_cast<unsigned long long>(s.chunks_total),
                static_cast<unsigned long long>(s.rows_backfilled),
                static_cast<unsigned long long>(s.rows_deduped));
    if (s.backfill_done) break;
  }
  Status stop = (*hub)->Stop();
  CLI_OK((*wh)->FlushAll());

  Result<uint64_t> wh_rows = (*wh)->CountRows(table);
  if (!wh_rows.ok()) return Fail(wh_rows.status());
  std::printf("backfill complete: %s has %llu rows\n", table.c_str(),
              static_cast<unsigned long long>(*wh_rows));
  CLI_OK(stop);
  return 0;
}

// Anti-entropy scrub of warehouse table <table> against the live source
// at <src_dir>: a single-source op-delta hub with scrubbing enabled,
// driven until one full PK-ordered pass over the table completes (or one
// chunk with --once). Report-only by default; --repair re-ships divergent
// chunks as snapshot frames and re-verifies with a second pass. Exits
// nonzero when the final pass still saw mismatched chunks.
int CmdScrub(const std::string& wh_dir, const std::string& src_dir,
             const std::string& table, uint64_t chunk_rows, bool once,
             bool repair, bool json) {
  Result<std::unique_ptr<engine::Database>> wh = OpenExisting(wh_dir);
  if (!wh.ok()) return Fail(wh.status());
  Result<std::unique_ptr<engine::Database>> src = OpenExisting(src_dir);
  if (!src.ok()) return Fail(src.status());

  if ((*wh)->GetTable(table) == nullptr) {
    return Fail(Status::NotFound("table " + table + " in " + wh_dir));
  }

  hub::HubOptions options;
  options.work_dir = wh_dir + "/hub";
  Result<std::unique_ptr<hub::DeltaHub>> hub =
      hub::DeltaHub::Create(wh->get(), options);
  if (!hub.ok()) return Fail(hub.status());

  hub::SourceSpec spec;
  spec.name = table;  // stable across restarts => resumable
  spec.source = src->get();
  spec.method = pipeline::Method::kOpDelta;
  spec.source_table = table;
  spec.warehouse_table = table;
  spec.scrub = true;
  spec.scrub_chunk_rows = chunk_rows;
  spec.scrub_repair = repair;
  CLI_OK((*hub)->AddSource(spec));
  CLI_OK((*hub)->Setup());

  const uint64_t start_pass = (*hub)->Stats().sources.front().last_scrub_pass;
  // One chunk per round. Repair mode runs a second pass after any pass
  // that repaired chunks, so convergence is re-verified end to end.
  const uint64_t max_passes = repair ? 3 : 1;
  uint64_t prev_pass = start_pass;
  uint64_t prev_mismatched = 0;
  uint64_t pass_mismatched = 0;
  while (true) {
    CLI_OK((*hub)->RunRound());
    const hub::HubStats stats = (*hub)->Stats();
    const hub::SourceStats& s = stats.sources.front();
    if (once) break;
    if (s.last_scrub_pass > prev_pass) {
      prev_pass = s.last_scrub_pass;
      pass_mismatched = s.chunks_mismatched - prev_mismatched;
      const uint64_t passes = s.last_scrub_pass - start_pass;
      if (!json) {
        std::printf("pass %llu: %llu clean, %llu mismatched, %llu repaired, "
                    "%llu inconclusive\n",
                    static_cast<unsigned long long>(s.last_scrub_pass),
                    static_cast<unsigned long long>(s.chunks_scrubbed),
                    static_cast<unsigned long long>(pass_mismatched),
                    static_cast<unsigned long long>(s.chunks_repaired),
                    static_cast<unsigned long long>(s.chunks_inconclusive));
      }
      if (pass_mismatched == 0 || passes >= max_passes) break;
      prev_mismatched = s.chunks_mismatched;
    }
  }
  Status stop = (*hub)->Stop();
  CLI_OK((*wh)->FlushAll());

  const hub::HubStats stats = (*hub)->Stats();
  const hub::SourceStats& s = stats.sources.front();
  if (json) {
    PrintHubStatsJson(stats);
  } else {
    PrintHubStatsText(stats);
  }
  CLI_OK(stop);
  const uint64_t unresolved = once ? s.chunks_mismatched : pass_mismatched;
  if (unresolved > 0) {
    std::fprintf(stderr, "error: %llu chunk(s) still mismatched%s\n",
                 static_cast<unsigned long long>(unresolved),
                 repair ? " after repair" : " (re-run with --repair)");
    return 1;
  }
  return 0;
}

// Lists the hub's dead-letter logs under <workdir>/dead_letters (default
// workdir: <whdir>/hub, matching CmdHub). With --replay, re-injects every
// entry into the warehouse through the apply ledger's duplicate check, so
// already-applied batches are dropped instead of double-applied.
int CmdDeadLetters(const std::string& wh_dir, const std::string& work_dir,
                   bool replay, bool json) {
  std::vector<std::string> tables;
  CLI_OK(hub::ListDeadLetterTables(work_dir, &tables));
  if (tables.empty() && !json) {
    std::printf("no dead letters under %s\n",
                hub::DeadLetterDir(work_dir).c_str());
    return 0;
  }

  if (json) std::printf("{\n  \"tables\": [");
  for (size_t ti = 0; ti < tables.size(); ++ti) {
    const std::string& table = tables[ti];
    std::vector<hub::DeadLetterEntry> entries;
    CLI_OK(hub::ReadDeadLetters(work_dir, table, &entries));
    if (json) {
      std::printf("%s\n    {\"table\": \"%s\", \"entries\": [",
                  ti == 0 ? "" : ",", JsonEscape(table).c_str());
      for (size_t i = 0; i < entries.size(); ++i) {
        const hub::DeadLetterEntry& e = entries[i];
        std::printf("%s\n      {\"id\": \"%s\", \"bytes\": %zu, "
                    "\"cause\": \"%s\"}",
                    i == 0 ? "" : ",", JsonEscape(e.id.ToString()).c_str(),
                    e.message.size(), JsonEscape(e.cause).c_str());
      }
      std::printf("%s]}", entries.empty() ? "" : "\n    ");
      continue;
    }
    std::printf("%s: %zu entr%s\n", table.c_str(), entries.size(),
                entries.size() == 1 ? "y" : "ies");
    for (size_t i = 0; i < entries.size(); ++i) {
      const hub::DeadLetterEntry& e = entries[i];
      std::printf("  [%zu] %-28s %8zu bytes   %s\n", i,
                  e.id.ToString().c_str(), e.message.size(),
                  e.cause.c_str());
    }
  }
  if (json && !replay) {
    std::printf("%s]\n}\n", tables.empty() ? "" : "\n  ");
    return 0;
  }
  if (!replay) return 0;

  Result<std::unique_ptr<engine::Database>> wh = OpenExisting(wh_dir);
  if (!wh.ok()) return Fail(wh.status());
  warehouse::ApplyLedger ledger(wh->get());
  CLI_OK(ledger.Setup());
  hub::ReplayStats total;
  Status worst = Status::OK();
  for (const std::string& table : tables) {
    hub::ReplayStats stats;
    Status st = hub::ReplayDeadLetters(wh->get(), &ledger, work_dir, table,
                                       &stats);
    if (!st.ok() && worst.ok()) worst = st;
    total.replayed += stats.replayed;
    total.duplicates_dropped += stats.duplicates_dropped;
    total.failed += stats.failed;
  }
  CLI_OK((*wh)->FlushAll());
  if (json) {
    std::printf("%s],\n  \"replayed\": %llu,\n  \"duplicates_dropped\": "
                "%llu,\n  \"failed\": %llu\n}\n",
                tables.empty() ? "" : "\n  ",
                static_cast<unsigned long long>(total.replayed),
                static_cast<unsigned long long>(total.duplicates_dropped),
                static_cast<unsigned long long>(total.failed));
  } else {
    std::printf(
        "replayed %llu, dropped %llu duplicates, %llu still failing\n",
        static_cast<unsigned long long>(total.replayed),
        static_cast<unsigned long long>(total.duplicates_dropped),
        static_cast<unsigned long long>(total.failed));
  }
  CLI_OK(worst);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  opdelta_cli create-parts <dbdir> <rows>\n"
               "  opdelta_cli tables <dbdir>\n"
               "  opdelta_cli dump <dbdir> <table>\n"
               "  opdelta_cli sql <dbdir> \"<statement>\"\n"
               "  opdelta_cli snapshot <dbdir> <table> <out>\n"
               "  opdelta_cli diff <old.snap> <new.snap>\n"
               "  opdelta_cli extract-log <dbdir> <table>\n"
               "  opdelta_cli oplog <file>\n"
               "  opdelta_cli hub <whdir> <spec_file> <rounds> [--json]\n"
               "  opdelta_cli backfill <whdir> <srcdir> <table> "
               "[chunk_rows]\n"
               "  opdelta_cli scrub <whdir> <srcdir> <table> [chunk_rows] "
               "[--once] [--repair] [--json]\n"
               "  opdelta_cli dead-letters <whdir> [workdir] [--replay] "
               "[--json]\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "create-parts" && argc == 4) {
    return CmdCreateParts(argv[2], std::strtoll(argv[3], nullptr, 10));
  }
  if (cmd == "tables" && argc == 3) return CmdTables(argv[2]);
  if (cmd == "dump" && argc == 4) return CmdDump(argv[2], argv[3]);
  if (cmd == "sql" && argc == 4) return CmdSql(argv[2], argv[3]);
  if (cmd == "snapshot" && argc == 5) {
    return CmdSnapshot(argv[2], argv[3], argv[4]);
  }
  if (cmd == "diff" && argc == 4) return CmdDiff(argv[2], argv[3]);
  if (cmd == "extract-log" && argc == 4) {
    return CmdExtractLog(argv[2], argv[3]);
  }
  if (cmd == "oplog" && argc == 3) return CmdOplog(argv[2]);
  if (cmd == "hub" && (argc == 5 || argc == 6)) {
    bool json = false;
    if (argc == 6) {
      if (std::strcmp(argv[5], "--json") != 0) return Usage();
      json = true;
    }
    char* end = nullptr;
    int64_t rounds = std::strtoll(argv[4], &end, 10);
    if (end == argv[4] || *end != '\0' || rounds < 1) {
      std::fprintf(stderr, "error: rounds must be a positive integer, got '%s'\n",
                   argv[4]);
      return 1;
    }
    return CmdHub(argv[2], argv[3], rounds, json);
  }
  if (cmd == "backfill" && (argc == 5 || argc == 6)) {
    uint64_t chunk_rows = 256;
    if (argc == 6) {
      char* end = nullptr;
      const long long parsed = std::strtoll(argv[5], &end, 10);
      if (end == argv[5] || *end != '\0' || parsed < 1) {
        std::fprintf(stderr,
                     "error: chunk_rows must be a positive integer, got "
                     "'%s'\n",
                     argv[5]);
        return 1;
      }
      chunk_rows = static_cast<uint64_t>(parsed);
    }
    return CmdBackfill(argv[2], argv[3], argv[4], chunk_rows);
  }
  if (cmd == "scrub" && argc >= 5 && argc <= 9) {
    uint64_t chunk_rows = 256;
    bool once = false;
    bool repair = false;
    bool json = false;
    for (int i = 5; i < argc; ++i) {
      if (std::strcmp(argv[i], "--once") == 0) {
        once = true;
      } else if (std::strcmp(argv[i], "--repair") == 0) {
        repair = true;
      } else if (std::strcmp(argv[i], "--json") == 0) {
        json = true;
      } else {
        char* end = nullptr;
        const long long parsed = std::strtoll(argv[i], &end, 10);
        if (end == argv[i] || *end != '\0' || parsed < 1) {
          std::fprintf(stderr,
                       "error: chunk_rows must be a positive integer, got "
                       "'%s'\n",
                       argv[i]);
          return 1;
        }
        chunk_rows = static_cast<uint64_t>(parsed);
      }
    }
    return CmdScrub(argv[2], argv[3], argv[4], chunk_rows, once, repair,
                    json);
  }
  if (cmd == "dead-letters" && argc >= 3 && argc <= 6) {
    std::string work_dir;
    bool replay = false;
    bool json = false;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--replay") == 0) {
        replay = true;
      } else if (std::strcmp(argv[i], "--json") == 0) {
        json = true;
      } else if (work_dir.empty()) {
        work_dir = argv[i];
      } else {
        return Usage();
      }
    }
    if (work_dir.empty()) work_dir = std::string(argv[2]) + "/hub";
    return CmdDeadLetters(argv[2], work_dir, replay, json);
  }
  return Usage();
}

}  // namespace
}  // namespace opdelta

int main(int argc, char** argv) { return opdelta::Main(argc, argv); }
