// bench_apply_parallel — conflict-aware parallel warehouse apply vs
// inline apply, plus the prepared-statement cache's effect.
//
// Two op-delta workloads replay through warehouse::OpDeltaIntegrator at
// 1/2/4/8 apply threads:
//   disjoint    — every transaction writes its own key range; the conflict
//                 DAG is empty, so apply should scale with threads (on
//                 hardware that has them — on a single core the pool
//                 only proves it adds no overhead).
//   conflicting — every transaction updates one hot row; the barrier chain
//                 forces source order, so all thread counts should match
//                 the inline baseline.
// Threads=1 applies every transaction inline and is the speedup baseline.
// The statement cache is on for all rows; its hit rate is reported
// (steady-state shapes repeat, so it should exceed 99%).
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/thread_pool.h"
#include "sql/statement_cache.h"
#include "warehouse/apply_ledger.h"
#include "warehouse/integrator.h"
#include "workload/workload.h"

namespace opdelta::bench {
namespace {

constexpr int64_t kTxns = 512;      // scaled
constexpr int kKeysPerTxn = 4;      // rows inserted + updated per txn
constexpr uint64_t kBatchTxns = 64; // txns per ledger batch

// One captured source transaction owning keys [base, base + kKeysPerTxn):
// a multi-row INSERT then one key-equality UPDATE per row — the §4.1
// replay shape, all statements sharing two cacheable shapes.
extract::OpDeltaTxn MakeTxn(int64_t txn_id, int64_t base, bool conflicting) {
  extract::OpDeltaTxn txn;
  txn.id = static_cast<txn::TxnId>(txn_id + 1);
  std::string insert = "INSERT INTO parts VALUES ";
  for (int k = 0; k < kKeysPerTxn; ++k) {
    if (k > 0) insert += ", ";
    insert += "(" + std::to_string(base + k) + ", 'new', 'payload-" +
              std::to_string(base + k) + "', TS:" + std::to_string(txn_id) +
              ")";
  }
  txn.ops.push_back(extract::OpDeltaRecord{0, 1, insert, false, {}, nullptr});
  uint64_t seq = 2;
  for (int k = 0; k < kKeysPerTxn; ++k) {
    // The conflicting variant aims every transaction's first update at the
    // hot row (key 0), chaining the barriers end to end.
    const int64_t key = (conflicting && k == 0) ? 0 : base + k;
    txn.ops.push_back(extract::OpDeltaRecord{
        0, seq++,
        "UPDATE parts SET status = 'upd" + std::to_string(txn_id) +
            "' WHERE id = " + std::to_string(key),
        false,
        {},
        nullptr});
  }
  return txn;
}

std::vector<extract::OpDeltaTxn> MakeWorkload(int64_t txn_count,
                                              bool conflicting) {
  std::vector<extract::OpDeltaTxn> txns;
  txns.reserve(txn_count);
  for (int64_t t = 0; t < txn_count; ++t) {
    // Key 0 belongs to txn 0; the conflicting variant re-updates it.
    txns.push_back(MakeTxn(t, t * kKeysPerTxn, conflicting));
  }
  return txns;
}

struct RunResult {
  Micros wall = 0;
  uint64_t txns_applied = 0;
  uint64_t txns_parallel = 0;
  double cache_hit_rate = 0;
};

RunResult RunConfig(const std::vector<extract::OpDeltaTxn>& txns,
                    size_t threads, const char* tag) {
  ScratchDir dir(std::string("apply_parallel_") + tag + "_" +
                 std::to_string(threads));
  engine::DatabaseOptions db_options;
  db_options.auto_timestamp = false;
  std::unique_ptr<engine::Database> wh;
  BENCH_OK(engine::Database::Open(dir.Sub("wh"), db_options, &wh));
  BENCH_OK(wh->CreateTable("parts", workload::PartsWorkload::Schema()));
  BENCH_OK(wh->CreateIndex("parts", "id"));
  warehouse::ApplyLedger ledger(wh.get());
  BENCH_OK(ledger.Setup());

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  sql::StatementCache cache;
  warehouse::OpDeltaIntegrator::Options options;
  options.pool = pool.get();
  options.max_inflight = threads;
  options.cache = &cache;
  warehouse::OpDeltaIntegrator integrator(wh.get(), options);

  RunResult result;
  Stopwatch wall;
  uint64_t seq = 1;
  for (size_t off = 0; off < txns.size(); off += kBatchTxns) {
    const size_t n = std::min<size_t>(kBatchTxns, txns.size() - off);
    std::vector<extract::OpDeltaTxn> batch(txns.begin() + off,
                                           txns.begin() + off + n);
    extract::BatchId id;
    id.source_id = "bench";
    id.epoch = 1;
    id.seq = seq++;
    warehouse::IntegrationStats stats;
    BENCH_OK(integrator.Apply(batch, id, &ledger, &stats));
    result.txns_applied += stats.transactions;
    result.txns_parallel += stats.txns_parallel;
  }
  result.wall = wall.ElapsedMicros();
  result.cache_hit_rate = cache.stats().HitRate();
  return result;
}

void Run(JsonReport* report) {
  PrintHeader(
      "Parallel warehouse apply: conflict-aware scheduling + statement cache",
      "no paper experiment — perf ablation of the §4.1 op-delta replay path",
      "disjoint keys scale with apply threads (given cores); conflicting "
      "keys hold the serial baseline; cache hit rate > 99%");

  TablePrinter table({"workload", "threads", "txns", "parallel txns", "wall",
                      "txns/s", "speedup", "cache hits"});
  const int64_t txn_count = Scaled(kTxns);
  for (const bool conflicting : {false, true}) {
    const char* tag = conflicting ? "conflicting" : "disjoint";
    const std::vector<extract::OpDeltaTxn> txns =
        MakeWorkload(txn_count, conflicting);
    double baseline_rate = 0;
    for (size_t threads : {1, 2, 4, 8}) {
      RunResult r = RunConfig(txns, threads, tag);
      const double rate =
          r.wall > 0 ? r.txns_applied / (r.wall / 1e6) : 0;
      if (threads == 1) baseline_rate = rate;
      char rate_buf[32], speed_buf[32], hit_buf[32];
      std::snprintf(rate_buf, sizeof(rate_buf), "%.0f", rate);
      std::snprintf(speed_buf, sizeof(speed_buf), "%.2fx",
                    baseline_rate > 0 ? rate / baseline_rate : 0);
      std::snprintf(hit_buf, sizeof(hit_buf), "%.1f%%",
                    r.cache_hit_rate * 100);
      table.AddRow({tag, std::to_string(threads),
                    std::to_string(r.txns_applied),
                    std::to_string(r.txns_parallel), FormatMicros(r.wall),
                    rate_buf, speed_buf, hit_buf});
      report->Add(std::string(tag) + "_txns_per_sec_t" +
                      std::to_string(threads),
                  rate);
      report->Add(std::string(tag) + "_cache_hit_rate_t" +
                      std::to_string(threads),
                  r.cache_hit_rate);
    }
  }
  table.Print();
  std::printf(
      "\nspeedup is vs threads=1 (inline apply) on the same "
      "workload. Disjoint scaling needs real cores: on a single-CPU host "
      "expect ~1.0x, the pool's no-overhead floor. The conflicting "
      "rows *should* read ~1.0x at every width — that is the barrier "
      "chain preserving source order.\n");
}

}  // namespace
}  // namespace opdelta::bench

int main(int argc, char** argv) {
  opdelta::bench::JsonReport report("apply_parallel", argc, argv);
  opdelta::bench::Run(&report);
}
