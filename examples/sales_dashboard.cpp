// A miniature "dashboard" deployment: the source system takes sales
// transactions; a one-source CDC hub keeps a warehouse replica current;
// aggregate and join views maintained directly from the Op-Delta stream
// power the dashboard queries — all without ever re-extracting the base
// tables.
#include <cstdio>

#include "engine/database.h"
#include "extract/op_delta.h"
#include "hub/delta_hub.h"
#include "sql/executor.h"
#include "warehouse/aggregate_view.h"
#include "workload/workload.h"

using namespace opdelta;

#define DIE_ON_ERROR(expr)                                          \
  do {                                                              \
    ::opdelta::Status _st = (expr);                                 \
    if (!_st.ok()) {                                                \
      std::fprintf(stderr, "error: %s\n", _st.ToString().c_str()); \
      return 1;                                                     \
    }                                                               \
  } while (0)

namespace {

catalog::Schema SalesSchema() {
  using catalog::Column;
  using catalog::ValueType;
  return catalog::Schema({Column{"sale_id", ValueType::kInt64},
                          Column{"region", ValueType::kString},
                          Column{"amount", ValueType::kInt64},
                          Column{"status", ValueType::kString}});
}

sql::Statement Sale(int64_t id, const char* region, int64_t amount) {
  sql::InsertStmt s;
  s.table = "sales";
  s.rows.push_back({catalog::Value::Int64(id), catalog::Value::String(region),
                    catalog::Value::Int64(amount),
                    catalog::Value::String("final")});
  return sql::Statement(std::move(s));
}

}  // namespace

int main() {
  const std::string root = "/tmp/opdelta_dashboard";
  (void)Env::Default()->RemoveDirAll(root);  // fresh demo dir; best effort

  engine::DatabaseOptions options;
  options.auto_timestamp = false;
  std::unique_ptr<engine::Database> source, warehouse;
  DIE_ON_ERROR(engine::Database::Open(root + "/src", options, &source));
  DIE_ON_ERROR(engine::Database::Open(root + "/wh", options, &warehouse));
  DIE_ON_ERROR(source->CreateTable("sales", SalesSchema()));
  DIE_ON_ERROR(warehouse->CreateTable("sales", SalesSchema()));

  // Replica hub: the archive-log method reads the WAL the engine
  // writes anyway, so it needs no capture hooks of its own — the business
  // statements run exactly once, through the dashboard's Op-Delta capture
  // below.
  hub::HubOptions hopts;
  hopts.work_dir = root + "/hub";
  Result<std::unique_ptr<hub::DeltaHub>> h =
      hub::DeltaHub::Create(warehouse.get(), hopts);
  DIE_ON_ERROR(h.status());
  hub::DeltaHub* replica = h->get();
  hub::SourceSpec spec;
  spec.name = "sales";
  spec.source = source.get();
  spec.method = pipeline::Method::kLog;
  spec.source_table = "sales";
  spec.warehouse_table = "sales";
  DIE_ON_ERROR(replica->AddSource(spec));
  DIE_ON_ERROR(replica->Setup());

  // Dashboard aggregate: revenue by region, maintained from the SAME
  // op-delta stream the replica consumes. A second file-sink capture feeds
  // it (hybrid mode so updates/deletes stay maintainable).
  warehouse::AggViewDef agg;
  agg.view_table = "revenue_by_region";
  agg.source_table = "sales";
  agg.group_by_column = "region";
  agg.agg_column = "amount";
  agg.selection = engine::Predicate::Where("status", engine::CompareOp::kEq,
                                           catalog::Value::String("final"));
  Result<std::unique_ptr<warehouse::AggViewMaintainer>> am =
      warehouse::AggViewMaintainer::CreateTable(warehouse.get(), agg,
                                                SalesSchema());
  DIE_ON_ERROR(am.status());

  sql::Executor agg_exec(source.get());
  Result<std::unique_ptr<extract::OpDeltaFileSink>> agg_sink =
      extract::OpDeltaFileSink::Create(root + "/agg_ops.log");
  DIE_ON_ERROR(agg_sink.status());
  extract::OpDeltaCapture::Options hybrid;
  hybrid.hybrid_before_images = true;
  extract::OpDeltaCapture agg_capture(
      &agg_exec,
      std::shared_ptr<extract::OpDeltaSink>(std::move(*agg_sink)), hybrid);

  // ---- Business day 1 ---------------------------------------------------
  // Every business transaction runs once, through the Op-Delta capture;
  // the replica hub picks the same changes up from the archive log.
  auto run = [&](const sql::Statement& stmt) -> Status {
    return agg_capture.RunTransaction({stmt}).status();
  };
  DIE_ON_ERROR(run(Sale(1, "west", 120)));
  DIE_ON_ERROR(run(Sale(2, "west", 80)));
  DIE_ON_ERROR(run(Sale(3, "east", 200)));

  DIE_ON_ERROR(replica->RunRound());
  std::vector<extract::OpDeltaTxn> txns;
  DIE_ON_ERROR(extract::OpDeltaLogReader::ReadFile(root + "/agg_ops.log",
                                                   SalesSchema(), &txns));
  for (const auto& t : txns) DIE_ON_ERROR((*am)->ApplyTxn(t));

  auto print_dashboard = [&](const char* title) -> Status {
    std::printf("\n== %s ==\n", title);
    OPDELTA_ASSIGN_OR_RETURN(std::vector<catalog::Row> rows,
                             (*am)->Materialized());
    for (const catalog::Row& r : rows) {
      std::printf("  %-6s  %3lld sales  revenue %5lld\n",
                  r[0].AsString().c_str(),
                  static_cast<long long>(r[1].AsInt64()),
                  static_cast<long long>(r[2].AsInt64()));
    }
    Result<uint64_t> replica_rows = warehouse->CountRows("sales");
    OPDELTA_RETURN_IF_ERROR(replica_rows.status());
    std::printf("  (replica: %llu rows, hub round %llu)\n",
                static_cast<unsigned long long>(*replica_rows),
                static_cast<unsigned long long>(replica->Stats().rounds));
    return Status::OK();
  };
  DIE_ON_ERROR(print_dashboard("dashboard after day 1"));

  // ---- Day 2: a correction and a refund ---------------------------------
  sql::UpdateStmt correct;
  correct.table = "sales";
  correct.sets = {engine::Assignment{"amount", catalog::Value::Int64(150)}};
  correct.where = engine::Predicate::Where("sale_id", engine::CompareOp::kEq,
                                           catalog::Value::Int64(1));
  sql::DeleteStmt refund;
  refund.table = "sales";
  refund.where = engine::Predicate::Where("sale_id", engine::CompareOp::kEq,
                                          catalog::Value::Int64(3));
  DIE_ON_ERROR(run(sql::Statement(correct)));
  DIE_ON_ERROR(run(sql::Statement(refund)));

  DIE_ON_ERROR(replica->RunRound());
  txns.clear();
  DIE_ON_ERROR(extract::OpDeltaLogReader::ReadFile(root + "/agg_ops.log",
                                                   SalesSchema(), &txns));
  // The file accumulates; re-apply only the two newest transactions.
  for (size_t i = txns.size() - 2; i < txns.size(); ++i) {
    DIE_ON_ERROR((*am)->ApplyTxn(txns[i]));
  }
  DIE_ON_ERROR(print_dashboard("dashboard after day 2"));

  std::printf("\nexpected: west 2 sales / 230 revenue, east gone; replica 2 "
              "rows\n");
  DIE_ON_ERROR(replica->Stop());
  return 0;
}
