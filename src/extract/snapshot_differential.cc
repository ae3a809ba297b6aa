#include "extract/snapshot_differential.h"

#include <algorithm>
#include <deque>
#include <map>

#include "dbutils/export.h"

namespace opdelta::extract {

using catalog::CompareRows;
using catalog::Row;
using catalog::Value;

namespace {

struct KeyedRow {
  Value key;
  Row row;
};

Status LoadSnapshot(const std::string& path, catalog::Schema* schema,
                    std::vector<KeyedRow>* out) {
  out->clear();
  OPDELTA_RETURN_IF_ERROR(
      dbutils::ExportUtil::ReadExportFile(path, schema, [&](const Row& row) {
        out->push_back(KeyedRow{row[0], row});
        return true;
      }));
  const int key_col = schema->KeyColumnIndex();
  if (key_col != 0) return Status::InvalidArgument("no key column");
  return Status::OK();
}

void EmitUpdateOrMatch(const Row& old_row, const Row& new_row,
                       uint64_t* seq, DeltaBatch* batch) {
  if (CompareRows(old_row, new_row) == 0) return;
  batch->records.push_back(
      DeltaRecord{DeltaOp::kUpdateBefore, 0, (*seq)++, old_row});
  batch->records.push_back(
      DeltaRecord{DeltaOp::kUpdateAfter, 0, (*seq)++, new_row});
}

/// Exact merge of two key-sorted runs.
void MergeRuns(std::vector<KeyedRow>& olds, std::vector<KeyedRow>& news,
               uint64_t* seq, DeltaBatch* batch) {
  auto by_key = [](const KeyedRow& a, const KeyedRow& b) {
    return a.key < b.key;
  };
  std::stable_sort(olds.begin(), olds.end(), by_key);
  std::stable_sort(news.begin(), news.end(), by_key);
  size_t i = 0, j = 0;
  while (i < olds.size() || j < news.size()) {
    if (i >= olds.size()) {
      batch->records.push_back(
          DeltaRecord{DeltaOp::kInsert, 0, (*seq)++, news[j++].row});
    } else if (j >= news.size()) {
      batch->records.push_back(
          DeltaRecord{DeltaOp::kDelete, 0, (*seq)++, olds[i++].row});
    } else {
      const int c = olds[i].key.Compare(news[j].key);
      if (c < 0) {
        batch->records.push_back(
            DeltaRecord{DeltaOp::kDelete, 0, (*seq)++, olds[i++].row});
      } else if (c > 0) {
        batch->records.push_back(
            DeltaRecord{DeltaOp::kInsert, 0, (*seq)++, news[j++].row});
      } else {
        EmitUpdateOrMatch(olds[i].row, news[j].row, seq, batch);
        ++i;
        ++j;
      }
    }
  }
}

}  // namespace

Result<DeltaBatch> SnapshotDifferential::Diff(const std::string& old_path,
                                              const std::string& new_path,
                                              const Options& options,
                                              Stats* stats) {
  catalog::Schema old_schema, new_schema;
  std::vector<KeyedRow> olds, news;
  OPDELTA_RETURN_IF_ERROR(LoadSnapshot(old_path, &old_schema, &olds));
  OPDELTA_RETURN_IF_ERROR(LoadSnapshot(new_path, &new_schema, &news));
  if (!(old_schema == new_schema)) {
    return Status::InvalidArgument("snapshot schemas differ");
  }

  Stats local;
  local.old_rows = olds.size();
  local.new_rows = news.size();

  DeltaBatch batch;
  batch.schema = old_schema;
  uint64_t seq = 0;

  if (options.algorithm == Algorithm::kSortMerge) {
    // The whole of both snapshots is resident.
    local.peak_resident_rows = olds.size() + news.size();
    MergeRuns(olds, news, &seq, &batch);
  } else {
    // Window algorithm: stream both runs, matching within bounded windows.
    std::map<Value, Row> old_window, new_window;
    std::deque<Value> old_fifo, new_fifo;
    std::vector<KeyedRow> old_spill, new_spill;

    size_t i = 0, j = 0;
    auto track_peak = [&]() {
      const size_t resident = old_window.size() + new_window.size();
      if (resident > local.peak_resident_rows) {
        local.peak_resident_rows = resident;
      }
    };

    while (i < olds.size() || j < news.size()) {
      if (i < olds.size()) {
        KeyedRow& o = olds[i++];
        auto it = new_window.find(o.key);
        if (it != new_window.end()) {
          EmitUpdateOrMatch(o.row, it->second, &seq, &batch);
          local.matched_in_window++;
          new_window.erase(it);
        } else {
          old_window.emplace(o.key, std::move(o.row));
          old_fifo.push_back(o.key);
          if (old_window.size() > options.window_rows) {
            // Evict the oldest unmatched row to the spill.
            while (!old_fifo.empty()) {
              auto evict = old_window.find(old_fifo.front());
              old_fifo.pop_front();
              if (evict != old_window.end()) {
                old_spill.push_back(
                    KeyedRow{evict->first, std::move(evict->second)});
                old_window.erase(evict);
                local.spilled_rows++;
                break;
              }
            }
          }
        }
      }
      if (j < news.size()) {
        KeyedRow& n = news[j++];
        auto it = old_window.find(n.key);
        if (it != old_window.end()) {
          EmitUpdateOrMatch(it->second, n.row, &seq, &batch);
          local.matched_in_window++;
          old_window.erase(it);
        } else {
          new_window.emplace(n.key, std::move(n.row));
          new_fifo.push_back(n.key);
          if (new_window.size() > options.window_rows) {
            while (!new_fifo.empty()) {
              auto evict = new_window.find(new_fifo.front());
              new_fifo.pop_front();
              if (evict != new_window.end()) {
                new_spill.push_back(
                    KeyedRow{evict->first, std::move(evict->second)});
                new_window.erase(evict);
                local.spilled_rows++;
                break;
              }
            }
          }
        }
      }
      track_peak();
    }

    // Leftovers (window remnants + spills) get an exact merge.
    for (auto& [key, row] : old_window) {
      old_spill.push_back(KeyedRow{key, std::move(row)});
    }
    for (auto& [key, row] : new_window) {
      new_spill.push_back(KeyedRow{key, std::move(row)});
    }
    MergeRuns(old_spill, new_spill, &seq, &batch);
  }

  if (stats != nullptr) *stats = local;
  return batch;
}

}  // namespace opdelta::extract
