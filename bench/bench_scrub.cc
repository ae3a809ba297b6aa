// Anti-entropy scrub cost: wall time for one full watermark-consistent
// verification pass over a converged mirror (the steady-state background
// cost of the scrubber), and the latency to detect + repair a damaged
// chunk, as table size grows.
//
// Expected shape: clean-pass time grows linearly with table size (every
// row is read and digested on both sides once per pass) with per-chunk
// window overhead amortized by chunk_rows; repair latency stays roughly
// flat — a mismatch re-ships one chunk, independent of table size.
#include <cstdio>
#include <string>

#include "backfill/chunk_window.h"
#include "bench/harness.h"
#include "pipeline/source_leg.h"
#include "scrub/scrubber.h"
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

struct ScrubResult {
  Micros clean_pass = 0;    // full verification pass, zero mismatches
  uint64_t chunks = 0;      // chunks that pass covered
  Micros repair = 0;        // detect + re-ship + re-verify one bad chunk
  uint64_t rows_repaired = 0;
};

ScrubResult RunScrub(const ScratchDir& dir, const std::string& tag,
                     int64_t rows, uint64_t chunk_rows) {
  engine::DatabaseOptions options;
  options.auto_timestamp = false;
  std::unique_ptr<engine::Database> src;
  BENCH_OK(engine::Database::Open(dir.Sub("src_" + tag), options, &src));
  std::unique_ptr<engine::Database> wh;
  BENCH_OK(engine::Database::Open(dir.Sub("wh_" + tag), options, &wh));
  // Identically seeded workloads produce an already-converged mirror, so
  // the first pass measures pure verification.
  workload::PartsWorkload src_wl, wh_wl;
  BENCH_OK(src_wl.CreateTable(src.get(), "parts"));
  BENCH_OK(wh_wl.CreateTable(wh.get(), "parts"));
  BENCH_OK(src_wl.Populate(src.get(), "parts", rows));
  BENCH_OK(wh_wl.Populate(wh.get(), "parts", rows));
  // Op-delta windows ship their watermark rows down the stream; the
  // warehouse needs the signal table to apply them.
  BENCH_OK(backfill::ChunkWindow::EnsureSignalTable(wh.get()));

  pipeline::PipelineOptions po;
  po.method = pipeline::Method::kOpDelta;
  po.source_table = "parts";
  po.warehouse_table = "parts";
  po.source_id = "bench";
  po.work_dir = dir.Sub("leg_" + tag);
  std::unique_ptr<pipeline::SourceLeg> leg;
  {
    Result<std::unique_ptr<pipeline::SourceLeg>> made =
        pipeline::SourceLeg::Create(src.get(), std::move(po));
    BENCH_OK(made.status());
    leg = std::move(*made);
  }
  BENCH_OK(leg->Setup());

  auto drain = [&]() -> Status {
    while (true) {
      std::string message;
      Status st = leg->PeekShipped(&message);
      if (st.IsNotFound()) return Status::OK();
      OPDELTA_RETURN_IF_ERROR(st);
      OPDELTA_RETURN_IF_ERROR(
          leg->Integrate(wh.get(), nullptr, message, nullptr, nullptr));
      OPDELTA_RETURN_IF_ERROR(leg->AckShipped());
    }
  };

  scrub::ScrubOptions sc_options;
  sc_options.chunk_rows = chunk_rows;
  std::unique_ptr<scrub::Scrubber> scrubber;
  {
    Result<std::unique_ptr<scrub::Scrubber>> made =
        scrub::Scrubber::Create(leg.get(), wh.get(), drain, sc_options);
    BENCH_OK(made.status());
    scrubber = std::move(*made);
  }
  BENCH_OK(scrubber->Setup());

  ScrubResult result;
  Stopwatch clean;
  while (scrubber->stats().passes < 1) BENCH_OK(scrubber->Step());
  result.clean_pass = clean.ElapsedMicros();
  result.chunks = scrubber->stats().chunks_scrubbed;
  if (scrubber->stats().chunks_mismatched != 0) {
    std::printf("WARN %s: clean pass saw mismatches\n", tag.c_str());
  }

  // Damage one mid-table chunk and measure detect + repair + re-verify.
  const int64_t lo = rows / 2;
  BENCH_OK(wh->WithTransaction([&](txn::Transaction* txn) {
    return wh->UpdateWhere(
                 txn, "parts",
                 engine::Predicate::Where("id", engine::CompareOp::kGe,
                                          catalog::Value::Int64(lo))
                     .And("id", engine::CompareOp::kLt,
                          catalog::Value::Int64(
                              lo + static_cast<int64_t>(chunk_rows) / 2)),
                 {{"status", catalog::Value::String("rot")}})
        .status();
  }));
  Stopwatch repair;
  while (scrubber->stats().passes < 2) BENCH_OK(scrubber->Step());
  result.repair = repair.ElapsedMicros();
  result.rows_repaired = scrubber->stats().rows_repaired;
  if (scrubber->stats().chunks_repaired == 0) {
    std::printf("WARN %s: damage was not repaired\n", tag.c_str());
  }
  return result;
}

void Run() {
  bench::PrintHeader(
      "Online anti-entropy scrub: verify pass cost and chunk repair latency",
      "watermark-consistent checksums over the Ram & Do delta pipeline",
      "clean-pass cost linear in table size; repairing one chunk costs one "
      "chunk, not one table");

  const Point points[] = {
      {"5k", bench::Scaled(5000)},
      {"10k", bench::Scaled(10000)},
      {"20k", bench::Scaled(20000)},
  };

  TablePrinter table({"rows", "clean pass", "rows/s", "chunks",
                      "damage->repaired pass", "rows repaired"});
  for (const Point& p : points) {
    ScratchDir dir("scrub");
    const ScrubResult r = RunScrub(dir, p.label, p.rows, /*chunk_rows=*/512);
    const double secs = static_cast<double>(r.clean_pass) / 1e6;
    const uint64_t rate =
        secs > 0 ? static_cast<uint64_t>(static_cast<double>(p.rows) / secs)
                 : 0;
    table.AddRow({p.label, FormatMicros(r.clean_pass), std::to_string(rate),
                  std::to_string(r.chunks), FormatMicros(r.repair),
                  std::to_string(r.rows_repaired)});
  }
  table.Print();
}

}  // namespace
}  // namespace opdelta

int main() {
  opdelta::Run();
  return 0;
}
