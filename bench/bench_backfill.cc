// Online backfill vs offline dump/load: wall time to bootstrap a warehouse
// copy of a live table, and — the point of the DBLog-style design — how
// long the capture path is unavailable to writers while it happens. The
// offline baseline (Export on a quiesced source, Import at the warehouse)
// blocks writers for its whole run; the watermark backfill ships
// PK-ordered chunks interleaved with the live op-delta stream, so writers
// commit throughout and the measured outage is zero.
//
// Expected shape: offline wins modestly on raw wall time (sequential dump
// beats chunked transactional reads) but its writer outage grows linearly
// with table size, while online backfill's outage stays flat at zero and
// live transactions keep committing during the copy.
#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "dbutils/export.h"
#include "hub/delta_hub.h"
#include "workload/workload.h"

namespace opdelta {
namespace {

using bench::FormatMicros;
using bench::ScratchDir;
using bench::TablePrinter;

struct Point {
  const char* label;
  int64_t rows;
};

struct OnlineResult {
  Micros wall = 0;
  uint64_t live_txns = 0;  // writer transactions committed mid-backfill
  uint64_t rows_backfilled = 0;
  uint64_t rows_deduped = 0;
};

/// Offline baseline: writers are locked out for the full Export + Import.
Micros RunOffline(const ScratchDir& dir, const std::string& tag,
                  int64_t rows) {
  workload::PartsWorkload wl;
  engine::DatabaseOptions options;
  std::unique_ptr<engine::Database> src;
  BENCH_OK(engine::Database::Open(dir.Sub("off_src_" + tag), options, &src));
  BENCH_OK(wl.CreateTable(src.get(), "parts"));
  BENCH_OK(wl.Populate(src.get(), "parts", rows));
  BENCH_OK(src->FlushAll());

  std::unique_ptr<engine::Database> wh;
  BENCH_OK(engine::Database::Open(dir.Sub("off_wh_" + tag), options, &wh));
  BENCH_OK(wl.CreateTable(wh.get(), "parts"));

  Stopwatch sw;
  const std::string dump = dir.Sub("off_dump_" + tag);
  BENCH_OK(dbutils::ExportUtil::Export(src.get(), "parts", dump));
  BENCH_OK(dbutils::ImportUtil::Import(wh.get(), "parts", dump));
  return sw.ElapsedMicros();
}

/// Online backfill: one chunk per hub round, a live writer transaction
/// squeezed between every round to prove the capture path stays open.
OnlineResult RunOnline(const ScratchDir& dir, const std::string& tag,
                       int64_t rows) {
  workload::PartsWorkload wl;
  engine::DatabaseOptions options;
  std::unique_ptr<engine::Database> src;
  BENCH_OK(engine::Database::Open(dir.Sub("on_src_" + tag), options, &src));
  BENCH_OK(wl.CreateTable(src.get(), "parts"));
  BENCH_OK(wl.Populate(src.get(), "parts", rows));

  std::unique_ptr<engine::Database> wh;
  BENCH_OK(engine::Database::Open(dir.Sub("on_wh_" + tag), options, &wh));
  BENCH_OK(wl.CreateTable(wh.get(), "parts"));

  hub::HubOptions hub_options;
  hub_options.work_dir = dir.Sub("on_hub_" + tag);
  hub_options.extract_threads = 1;
  hub::SourceSpec spec;
  spec.name = "bf";
  spec.source = src.get();
  spec.method = pipeline::Method::kOpDelta;
  spec.source_table = "parts";
  spec.warehouse_table = "parts";
  spec.backfill = true;
  spec.backfill_chunk_rows = 512;
  std::unique_ptr<hub::DeltaHub> hub;
  {
    Result<std::unique_ptr<hub::DeltaHub>> made =
        hub::DeltaHub::Create(wh.get(), hub_options);
    BENCH_OK(made.status());
    hub = std::move(*made);
  }
  BENCH_OK(hub->AddSource(spec));
  BENCH_OK(hub->Setup());
  extract::OpDeltaCapture* capture = hub->capture("bf");

  OnlineResult result;
  Stopwatch sw;
  int64_t key = rows + 1000;
  while (!hub->Stats().sources[0].backfill_done) {
    // The live writer the offline baseline would have locked out.
    BENCH_OK(capture
                 ->RunTransaction({wl.MakeInsert("parts", key, 1),
                                   wl.MakeUpdate("parts", key % rows,
                                                 key % rows + 8, "live")})
                 .status());
    key++;
    result.live_txns++;
    BENCH_OK(hub->RunRound());
  }
  BENCH_OK(hub->RunRound());  // drain the tail of the live stream
  result.wall = sw.ElapsedMicros();
  const hub::SourceStats stats = hub->Stats().sources[0];
  result.rows_backfilled = stats.rows_backfilled;
  result.rows_deduped = stats.rows_deduped;
  BENCH_OK(hub->Stop());
  return result;
}

void Run() {
  bench::PrintHeader(
      "Online backfill vs offline dump/load bootstrap",
      "Ram & Do ICDE 2000 §3 dump/load vs DBLog-style watermark backfill",
      "offline outage grows with size; online outage stays zero with live "
      "txns committing mid-copy");

  const Point points[] = {
      {"5k", bench::Scaled(5000)},
      {"10k", bench::Scaled(10000)},
      {"20k", bench::Scaled(20000)},
  };

  TablePrinter table({"rows", "offline dump+load", "offline writer outage",
                      "online backfill", "online writer outage",
                      "live txns mid-copy", "rows deduped"});
  for (const Point& p : points) {
    ScratchDir dir("backfill");
    const Micros offline = RunOffline(dir, p.label, p.rows);
    const OnlineResult online = RunOnline(dir, p.label, p.rows);
    table.AddRow({p.label, FormatMicros(offline), FormatMicros(offline),
                  FormatMicros(online.wall), "0us",
                  std::to_string(online.live_txns),
                  std::to_string(online.rows_deduped)});
    bench::CheckThat(online.rows_backfilled >= static_cast<uint64_t>(p.rows),
                     std::string(p.label) + ": only " +
                         std::to_string(online.rows_backfilled) + " of " +
                         std::to_string(p.rows) + " rows backfilled");
  }
  table.Print();
}

}  // namespace
}  // namespace opdelta

int main() {
  opdelta::Run();
  return 0;
}
