// Randomized model checking for the engine: a reference std::map mirrors
// every committed change, aborted transactions must leave no trace, and
// the table must equal the model after every step — with and without a
// secondary index (exercising both access paths). Steps insert, update a
// key range, delete a key range, or upsert keys by key (in place, relocated
// by a longer image, or inserted when absent).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "common/random.h"
#include "engine/database.h"
#include "workload/workload.h"
#include "tests/test_util.h"

namespace opdelta::engine {
namespace {

using catalog::Row;
using catalog::Value;
using opdelta::testing::OpenDb;
using opdelta::testing::TempDir;

struct ModelParams {
  uint64_t seed;
  bool with_index;
  int steps;
};

class EngineModelTest : public ::testing::TestWithParam<ModelParams> {};

TEST_P(EngineModelTest, MatchesReferenceModel) {
  const ModelParams params = GetParam();
  TempDir dir;
  engine::DatabaseOptions options;
  options.auto_timestamp = false;  // keep rows deterministic
  auto db = OpenDb(dir, "db", options);
  workload::PartsWorkload wl(
      workload::PartsWorkload::Options{100, params.seed});
  OPDELTA_ASSERT_OK(wl.CreateTable(db.get(), "parts"));
  if (params.with_index) {
    OPDELTA_ASSERT_OK(db->CreateIndex("parts", "id"));
  }

  Rng rng(params.seed);
  std::map<int64_t, Row> model;
  int64_t next_id = 0;

  auto check = [&]() {
    auto contents = opdelta::testing::TableContents(db.get(), "parts");
    ASSERT_EQ(contents.size(), model.size());
    for (const auto& [id, row] : model) {
      auto it = contents.find(Value::Int64(id));
      ASSERT_NE(it, contents.end()) << "missing id " << id;
      ASSERT_EQ(catalog::CompareRows(row, it->second), 0) << "id " << id;
    }
  };

  for (int step = 0; step < params.steps; ++step) {
    const bool abort = rng.OneIn(5);
    auto txn = db->Begin();
    // Stage model mutations; only merge them on commit.
    std::map<int64_t, Row> staged = model;
    Status st;

    switch (rng.Uniform(4)) {
      case 0: {  // insert a few fresh rows
        const size_t n = 1 + rng.Uniform(8);
        for (size_t i = 0; i < n && st.ok(); ++i) {
          Row row = wl.MakeRow(next_id);
          st = db->Insert(txn.get(), "parts", row);
          staged[next_id] = row;
          ++next_id;
        }
        break;
      }
      case 1: {  // ranged update of status
        const int64_t lo = rng.Uniform(std::max<int64_t>(next_id, 1));
        const int64_t hi = lo + 1 + rng.Uniform(12);
        const std::string status = "s" + std::to_string(step);
        st = db->UpdateWhere(
                   txn.get(), "parts",
                   Predicate::Where("id", CompareOp::kGe, Value::Int64(lo))
                       .And("id", CompareOp::kLt, Value::Int64(hi)),
                   {Assignment{"status", Value::String(status)}})
                 .status();
        for (auto& [id, row] : staged) {
          if (id >= lo && id < hi) row[1] = Value::String(status);
        }
        break;
      }
      case 2: {  // keyed upserts of present and absent keys
        const size_t n = 1 + rng.Uniform(4);
        for (size_t i = 0; i < n && st.ok(); ++i) {
          const int64_t id = rng.Uniform(next_id + 2);
          next_id = std::max(next_id, id + 1);
          Row row = wl.MakeRow(id);
          row[1] = Value::String("u" + std::to_string(step));
          if (rng.OneIn(3)) {
            // A longer image: the row relocates when its page is full.
            row[2] = Value::String(std::string(400 + rng.Uniform(400), 'L'));
          }
          Result<bool> replaced = db->UpsertByKey(txn.get(), "parts", row);
          st = replaced.status();
          if (st.ok()) {
            EXPECT_EQ(replaced.value(), staged.count(id) == 1) << "id " << id;
          }
          staged[id] = row;
        }
        break;
      }
      default: {  // ranged delete
        const int64_t lo = rng.Uniform(std::max<int64_t>(next_id, 1));
        const int64_t hi = lo + 1 + rng.Uniform(6);
        st = db->DeleteWhere(
                   txn.get(), "parts",
                   Predicate::Where("id", CompareOp::kGe, Value::Int64(lo))
                       .And("id", CompareOp::kLt, Value::Int64(hi)))
                 .status();
        for (auto it = staged.lower_bound(lo);
             it != staged.end() && it->first < hi;) {
          it = staged.erase(it);
        }
        break;
      }
    }
    ASSERT_TRUE(st.ok()) << st.ToString();

    if (abort) {
      OPDELTA_ASSERT_OK(db->Abort(txn.get()));
      // Model unchanged; the engine must have rolled everything back.
    } else {
      OPDELTA_ASSERT_OK(db->Commit(txn.get()));
      model = std::move(staged);
    }
    ASSERT_NO_FATAL_FAILURE(check()) << "step " << step
                                     << (abort ? " (aborted)" : "");
  }

  // Closing + reopening must preserve the final state exactly.
  OPDELTA_ASSERT_OK(db->Close());
  auto reopened = OpenDb(dir, "db", options);
  auto contents = opdelta::testing::TableContents(reopened.get(), "parts");
  EXPECT_EQ(contents.size(), model.size());
}

INSTANTIATE_TEST_SUITE_P(
    Runs, EngineModelTest,
    ::testing::Values(ModelParams{101, false, 120},
                      ModelParams{102, true, 120},
                      ModelParams{103, false, 300},
                      ModelParams{104, true, 300}),
    [](const ::testing::TestParamInfo<ModelParams>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) +
             (param_info.param.with_index ? "_indexed" : "_scan") + "_" +
             std::to_string(param_info.param.steps) + "steps";
    });

}  // namespace
}  // namespace opdelta::engine
