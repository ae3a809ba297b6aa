// Ablation B (§3.1.1): "The time stamp based methods require table scans
// unless an index is defined on the time stamp attribute. Additionally,
// indices may not be used by the query optimizer if the deltas form a
// significant portion of the table."
//
// This bench sweeps the delta fraction and extracts via (a) a full table
// scan and (b) a B+tree index on last_modified, reporting the crossover.
//
// Expected shape: the index wins decisively for small delta fractions; its
// advantage shrinks as the fraction grows (per-row point reads vs one
// sequential pass), which is exactly why optimizers skip it for large
// deltas.
#include <cstdio>

#include "bench/harness.h"
#include "extract/timestamp_extractor.h"
#include "sql/executor.h"
#include "workload/workload.h"

namespace opdelta {
namespace {

using bench::FormatMicros;
using bench::ScratchDir;
using bench::TablePrinter;

void Run() {
  bench::PrintHeader(
      "Timestamp extraction: full scan vs timestamp index",
      "Ram & Do ICDE 2000, section 3.1.1 (index discussion)",
      "index wins at small delta fractions; advantage shrinks as the "
      "fraction grows");

  const int64_t rows = bench::Scaled(200000);
  const double fractions[] = {0.001, 0.01, 0.05, 0.2, 0.5, 1.0};

  TablePrinter table({"delta fraction", "delta rows", "full scan",
                      "index scan", "index speedup"});
  double first_speedup = 0, last_speedup = 0;

  for (double fraction : fractions) {
    ScratchDir dir("tsindex");
    workload::PartsWorkload wl;
    std::unique_ptr<engine::Database> db;
    BENCH_OK(engine::Database::Open(dir.Sub("src"),
                                    engine::DatabaseOptions(), &db));
    BENCH_OK(wl.CreateTable(db.get(), "parts"));
    BENCH_OK(wl.Populate(db.get(), "parts", rows));
    BENCH_OK(db->CreateIndex("parts", "last_modified"));

    const int64_t delta_rows =
        std::max<int64_t>(1, static_cast<int64_t>(rows * fraction));
    const Micros watermark = db->clock()->NowMicros();
    BENCH_OK(db->WithTransaction([&](txn::Transaction* txn) {
      return db
          ->UpdateWhere(
              txn, "parts",
              engine::Predicate::Where("id", engine::CompareOp::kLt,
                                       catalog::Value::Int64(delta_rows)),
              {engine::Assignment{"status", catalog::Value::String("d")}})
          .status();
    }));

    // NOTE: with the index present, the engine's access-path selection
    // would use it even for the "scan" variant; force the comparison by
    // scanning all rows and filtering manually.
    uint64_t scan_rows = 0;
    Stopwatch sw_scan;
    BENCH_OK(db->Scan(nullptr, "parts", engine::Predicate::True(),
                      [&](const storage::Rid&, const catalog::Row& row) {
                        if (!row[3].is_null() &&
                            row[3].AsTimestamp() > watermark) {
                          ++scan_rows;
                        }
                        return true;
                      }));
    const Micros t_scan = sw_scan.ElapsedMicros();

    // The extractor's `last_modified > watermark` takes the index range.
    extract::TimestampExtractor index_extractor(db.get(), "parts",
                                                "last_modified");
    Stopwatch sw_index;
    Result<extract::DeltaBatch> batch =
        index_extractor.ExtractSince(watermark);
    BENCH_OK(batch.status());
    const Micros t_index = sw_index.ElapsedMicros();

    bench::CheckThat(batch->records.size() == scan_rows &&
                         scan_rows == static_cast<uint64_t>(delta_rows),
                     "extraction mismatch (" +
                         std::to_string(batch->records.size()) + " vs " +
                         std::to_string(scan_rows) + " vs " +
                         std::to_string(delta_rows) + ")");

    const double speedup =
        static_cast<double>(t_scan) / static_cast<double>(t_index);
    if (fraction == fractions[0]) first_speedup = speedup;
    last_speedup = speedup;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", speedup);
    char frac[16];
    std::snprintf(frac, sizeof(frac), "%.1f%%", fraction * 100);
    table.AddRow({frac, std::to_string(delta_rows), FormatMicros(t_scan),
                  FormatMicros(t_index), buf});
  }
  table.Print();
  std::printf("shape check: index speedup %.1fx at 0.1%% deltas shrinking "
              "to %.1fx at 100%% (optimizers skip the index up there)\n",
              first_speedup, last_speedup);
}

}  // namespace
}  // namespace opdelta

int main() {
  opdelta::Run();
  return 0;
}
