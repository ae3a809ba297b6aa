// bench_hub_scaling — DeltaHub apply throughput as the number of
// concurrent sources grows.
//
// Each configuration registers N log-method sources (one warehouse table
// per source) on an N-thread extract pool, so every source's
// extract-ship-apply round task runs on its own worker. Every source gets
// the same transaction mix, and hub rounds are timed until all deltas are
// integrated. The single-source row (one extract-ship-apply loop, nothing
// concurrent) is the sequential baseline; speedup is relative to it at the
// same per-source volume.
#include <string>
#include <vector>

#include "bench/harness.h"
#include "hub/delta_hub.h"
#include "sql/executor.h"
#include "workload/workload.h"

namespace opdelta::bench {
namespace {

constexpr int64_t kRowsPerSource = 2000;
constexpr int kRounds = 4;

struct RunResult {
  Micros wall = 0;
  uint64_t records = 0;
};

RunResult RunConfig(size_t num_sources) {
  ScratchDir dir("hub_scaling");
  workload::PartsWorkload wl;
  engine::DatabaseOptions db_options;
  db_options.auto_timestamp = false;

  std::unique_ptr<engine::Database> wh;
  BENCH_OK(engine::Database::Open(dir.Sub("wh"), db_options, &wh));

  std::vector<std::unique_ptr<engine::Database>> sources(num_sources);
  for (size_t i = 0; i < num_sources; ++i) {
    BENCH_OK(engine::Database::Open(dir.Sub("src" + std::to_string(i)),
                                    db_options, &sources[i]));
    BENCH_OK(wl.CreateTable(sources[i].get(), "parts"));
    BENCH_OK(wh->CreateTable("parts" + std::to_string(i),
                             workload::PartsWorkload::Schema()));
  }

  hub::HubOptions options;
  options.work_dir = dir.Sub("hub");
  options.extract_threads = num_sources;
  Result<std::unique_ptr<hub::DeltaHub>> created =
      hub::DeltaHub::Create(wh.get(), options);
  BENCH_OK(created.status());
  std::unique_ptr<hub::DeltaHub> hub = std::move(created.value());
  for (size_t i = 0; i < num_sources; ++i) {
    hub::SourceSpec spec;
    spec.name = "s" + std::to_string(i);
    spec.source = sources[i].get();
    spec.method = pipeline::Method::kLog;
    spec.source_table = "parts";
    spec.warehouse_table = "parts" + std::to_string(i);
    BENCH_OK(hub->AddSource(spec));
  }
  BENCH_OK(hub->Setup());

  const int64_t rows = Scaled(kRowsPerSource);
  const int64_t chunk = rows / kRounds;
  RunResult result;
  for (int round = 0; round < kRounds; ++round) {
    // Identical traffic on every source: a bulk insert plus an
    // overlapping status update, like one OLTP window per source.
    // Workload generation runs outside the timer — only the hub's
    // extract→ship→apply round is measured.
    for (auto& src : sources) {
      sql::Executor exec(src.get());
      BENCH_OK(exec.ExecuteSql(
                       wl.MakeInsert("parts", round * chunk, chunk).ToSql())
                   .status());
      BENCH_OK(exec.ExecuteSql(wl.MakeUpdate("parts", round * chunk,
                                             round * chunk + chunk / 2,
                                             "r" + std::to_string(round))
                                   .ToSql())
                   .status());
    }
    Stopwatch round_timer;
    BENCH_OK(hub->RunRound());
    result.wall += round_timer.ElapsedMicros();
  }
  for (const hub::SourceStats& s : hub->Stats().sources) {
    result.records += s.records_extracted;
  }
  BENCH_OK(hub->Stop());
  return result;
}

void Run(JsonReport* report) {
  PrintHeader("DeltaHub scaling: apply throughput vs sources",
              "no paper experiment — ablation of the src/hub orchestration "
              "layer over N concurrent sources",
              "wall time grows sub-linearly in sources while distinct "
              "warehouse tables apply concurrently");

  TablePrinter table(
      {"sources", "records", "wall", "records/s", "speedup/source"});
  double baseline_rate_per_source = 0;
  for (size_t sources : {1, 2, 4, 8}) {
    RunResult r = RunConfig(sources);
    const double rate = r.wall > 0 ? r.records / (r.wall / 1e6) : 0;
    if (baseline_rate_per_source == 0) baseline_rate_per_source = rate;
    char rate_buf[32], speed_buf[32];
    std::snprintf(rate_buf, sizeof(rate_buf), "%.0f", rate);
    std::snprintf(speed_buf, sizeof(speed_buf), "%.2fx",
                  rate / (baseline_rate_per_source * sources));
    table.AddRow({std::to_string(sources), std::to_string(r.records),
                  FormatMicros(r.wall), rate_buf, speed_buf});
    report->Add("records_per_sec_s" + std::to_string(sources), rate);
  }
  table.Print();
  std::printf("\nspeedup/source = per-source efficiency vs the 1-source "
              "sequential baseline (1.00x = perfect scaling).\n");
}

}  // namespace
}  // namespace opdelta::bench

int main(int argc, char** argv) {
  opdelta::bench::JsonReport report("hub_scaling", argc, argv);
  opdelta::bench::Run(&report);
}
