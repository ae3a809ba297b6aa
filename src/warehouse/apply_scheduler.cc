#include "warehouse/apply_scheduler.h"

#include <algorithm>

#include "engine/predicate.h"
#include "engine/table.h"

namespace opdelta::warehouse {

using catalog::Value;
using sql::Statement;
using sql::StatementType;

namespace {

/// Key-literal encoding must agree with the executor's literal coercion
/// (sql/executor.cc CoerceValue), or "7" inserted into a timestamp column
/// and "TS:7" deleting it would claim different keys. False = the executor
/// would reject the coercion; the caller widens to a whole-table claim and
/// lets the (now serialized) statement fail with the executor's own error.
bool EncodeKey(catalog::ValueType want, Value v, std::string* out) {
  if (!v.is_null() && v.type() != want) {
    if (v.type() == catalog::ValueType::kInt64 &&
        want == catalog::ValueType::kTimestamp) {
      v = Value::Timestamp(v.AsInt64());
    } else if (v.type() == catalog::ValueType::kInt64 &&
               want == catalog::ValueType::kDouble) {
      v = Value::Double(static_cast<double>(v.AsInt64()));
    } else if (v.type() == catalog::ValueType::kTimestamp &&
               want == catalog::ValueType::kInt64) {
      v = Value::Int64(v.AsTimestamp());
    } else {
      return false;
    }
  }
  *out = v.ToSqlLiteral();
  return true;
}

void ClaimWholeTable(TableFootprint* tf) {
  tf->whole_table = true;
  tf->keys.clear();
}

/// The key-equality conjunct of a WHERE clause, if any. Any additional
/// conjuncts only narrow the matched set further, so the key claim stays
/// sound.
const engine::Condition* FindKeyEquality(const engine::Predicate& where,
                                         const std::string& key_name) {
  for (const engine::Condition& c : where.conjuncts()) {
    if (c.op == engine::CompareOp::kEq && c.column == key_name) return &c;
  }
  return nullptr;
}

}  // namespace

bool StatementFootprint(engine::Database* db, const Statement& stmt,
                        TxnFootprint* footprint) {
  if (!stmt.is_insert() && !stmt.is_update() && !stmt.is_delete()) {
    return false;  // DDL/SELECT never runs on this path; a barrier
  }
  engine::Table* table = db->GetTable(stmt.table());
  if (table == nullptr) {
    // Unknown table: the statement will fail, as a barrier, so its error
    // and committed prefix are those of inline apply.
    return false;
  }
  if (!table->triggers().empty()) {
    // Trigger bodies write rows the statement text does not mention.
    return false;
  }
  const catalog::Schema& schema = table->schema();
  TableFootprint& tf = (*footprint)[stmt.table()];
  if (tf.whole_table) return true;
  const int key_col = schema.KeyColumnIndex();
  if (key_col < 0) {
    ClaimWholeTable(&tf);
    return true;
  }
  const catalog::ValueType key_type = schema.column(key_col).type;
  const std::string& key_name = schema.column(key_col).name;

  auto claim_key = [&](const Value& v) {
    std::string encoded;
    if (EncodeKey(key_type, v, &encoded)) {
      tf.keys.push_back(std::move(encoded));
    } else {
      ClaimWholeTable(&tf);
    }
  };

  switch (stmt.type()) {
    case StatementType::kInsert:
      for (const catalog::Row& row : stmt.insert().rows) {
        if (static_cast<int>(row.size()) <= key_col) {
          ClaimWholeTable(&tf);  // malformed row; serialize, let it fail
          return true;
        }
        claim_key(row[key_col]);
        if (tf.whole_table) return true;
      }
      return true;
    case StatementType::kUpdate: {
      const engine::Condition* eq =
          FindKeyEquality(stmt.update().where, key_name);
      if (eq == nullptr) {
        ClaimWholeTable(&tf);
        return true;
      }
      claim_key(eq->literal);
      // A SET on the key column gives the row a new identity; claim the
      // new key too so a later statement on it orders after this one.
      for (const engine::Assignment& a : stmt.update().sets) {
        if (tf.whole_table) return true;
        if (a.column == key_name) claim_key(a.value);
      }
      return true;
    }
    case StatementType::kDelete: {
      const engine::Condition* eq =
          FindKeyEquality(stmt.delete_stmt().where, key_name);
      if (eq == nullptr) {
        ClaimWholeTable(&tf);
        return true;
      }
      claim_key(eq->literal);
      return true;
    }
    default:
      return false;
  }
}

std::vector<int64_t> ComputeConflictBarriers(
    const std::vector<TxnFootprint>& footprints) {
  struct TableState {
    int64_t last_whole = -1;                 // newest whole-table writer
    std::map<std::string, int64_t> by_key;   // newest writer per key
  };
  std::map<std::string, TableState> state;
  std::vector<int64_t> barriers(footprints.size(), -1);
  for (size_t i = 0; i < footprints.size(); ++i) {
    // Pass 1: barrier against *earlier* transactions only. A transaction
    // never conflicts with itself, so its own claims must not enter the
    // state until the barrier is computed (a repeated key within one
    // transaction would otherwise yield barrier == i, never dispatchable).
    int64_t barrier = -1;
    for (const auto& [table, tf] : footprints[i]) {
      auto it = state.find(table);
      if (it == state.end()) continue;
      const TableState& ts = it->second;
      barrier = std::max(barrier, ts.last_whole);
      if (tf.whole_table) {
        for (const auto& [key, writer] : ts.by_key) {
          barrier = std::max(barrier, writer);
        }
      } else {
        for (const std::string& key : tf.keys) {
          auto kit = ts.by_key.find(key);
          if (kit != ts.by_key.end()) barrier = std::max(barrier, kit->second);
        }
      }
    }
    barriers[i] = barrier;
    // Pass 2: record this transaction's claims.
    for (const auto& [table, tf] : footprints[i]) {
      TableState& ts = state[table];
      if (tf.whole_table) {
        ts.last_whole = static_cast<int64_t>(i);
        ts.by_key.clear();  // dominated by last_whole
      } else {
        for (const std::string& key : tf.keys) {
          ts.by_key[key] = static_cast<int64_t>(i);
        }
      }
    }
  }
  return barriers;
}

}  // namespace opdelta::warehouse
