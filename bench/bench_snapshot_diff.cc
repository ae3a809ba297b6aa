// Ablation A (§3.1.2): differential-snapshot algorithms. The paper calls
// the method "prohibitively resource intensive" and defers algorithmics to
// Labio & Garcia-Molina [18]; this bench quantifies the trade-off between
// the exact sort-merge diff and the bounded-memory window algorithm over
// growing snapshot sizes and change ratios.
//
// Expected shape: both produce identical deltas; the window algorithm's
// peak resident row count stays near its window bound (snapshots of the
// same heap are similarly ordered) while sort-merge holds both snapshots;
// window wall time is at or below sort-merge (no global sort).
#include <cstdio>

#include "bench/harness.h"
#include "dbutils/export.h"
#include "extract/snapshot_differential.h"
#include "sql/executor.h"
#include "workload/workload.h"

namespace opdelta {
namespace {

using bench::FormatMicros;
using bench::ScratchDir;
using bench::TablePrinter;
using extract::SnapshotDifferential;

void Run() {
  bench::PrintHeader(
      "Snapshot differential: sort-merge vs window algorithm",
      "Ram & Do ICDE 2000, section 3.1.2 + Labio & Garcia-Molina [18]",
      "identical deltas; window algorithm uses bounded memory and no "
      "global sort");

  const int64_t rows_points[] = {bench::Scaled(20000), bench::Scaled(50000),
                                 bench::Scaled(100000)};
  TablePrinter table({"snapshot rows", "changed", "algorithm", "time",
                      "delta records", "peak resident rows",
                      "spilled rows"});

  for (int64_t rows : rows_points) {
    ScratchDir dir("snapdiff");
    workload::PartsWorkload wl;
    std::unique_ptr<engine::Database> db;
    BENCH_OK(engine::Database::Open(dir.Sub("src"),
                                    engine::DatabaseOptions(), &db));
    BENCH_OK(wl.CreateTable(db.get(), "parts"));
    BENCH_OK(wl.Populate(db.get(), "parts", rows));
    BENCH_OK(dbutils::ExportUtil::Export(db.get(), "parts", dir.Sub("s1")));

    // Mutate ~10% of rows (update), delete 2%, insert 2%.
    sql::Executor exec(db.get());
    BENCH_OK(exec.ExecuteSql(
                    wl.MakeUpdate("parts", 0, rows / 10, "mod").ToSql())
                 .status());
    BENCH_OK(exec.ExecuteSql(
                    wl.MakeDelete("parts", rows / 2, rows / 2 + rows / 50)
                        .ToSql())
                 .status());
    BENCH_OK(
        exec.ExecuteSql(wl.MakeInsert("parts", rows, rows / 50).ToSql())
            .status());
    BENCH_OK(dbutils::ExportUtil::Export(db.get(), "parts", dir.Sub("s2")));

    uint64_t merge_records = 0, window_records = 0;
    for (auto algo : {SnapshotDifferential::Algorithm::kSortMerge,
                      SnapshotDifferential::Algorithm::kWindow}) {
      SnapshotDifferential::Options options;
      options.algorithm = algo;
      options.window_rows = 4096;
      SnapshotDifferential::Stats stats;
      Stopwatch sw;
      Result<extract::DeltaBatch> diff =
          SnapshotDifferential::Diff(dir.Sub("s1"), dir.Sub("s2"), options,
                                     &stats);
      BENCH_OK(diff.status());
      const Micros t = sw.ElapsedMicros();
      if (algo == SnapshotDifferential::Algorithm::kSortMerge) {
        merge_records = diff->records.size();
      } else {
        window_records = diff->records.size();
      }
      table.AddRow(
          {std::to_string(rows), std::to_string(rows / 10 + rows / 25),
           algo == SnapshotDifferential::Algorithm::kSortMerge ? "sort-merge"
                                                               : "window",
           FormatMicros(t), std::to_string(diff->records.size()),
           std::to_string(stats.peak_resident_rows),
           std::to_string(stats.spilled_rows)});
    }
    if (merge_records != window_records) {
      std::printf("WARNING: algorithms disagree (%llu vs %llu records)\n",
                  static_cast<unsigned long long>(merge_records),
                  static_cast<unsigned long long>(window_records));
    }
  }
  table.Print();
  std::printf("shape check: window peak resident rows bounded near the "
              "window size; sort-merge holds old+new rows entirely\n");
}

}  // namespace
}  // namespace opdelta

int main() {
  opdelta::Run();
  return 0;
}
