#ifndef OPDELTA_TESTS_TEST_UTIL_H_
#define OPDELTA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "catalog/value.h"
#include "engine/database.h"

namespace opdelta::testing {

/// Asserts an opdelta::Status is OK with a useful message.
#define OPDELTA_ASSERT_OK(expr)                                     \
  do {                                                              \
    ::opdelta::Status _st = (expr);                                 \
    ASSERT_TRUE(_st.ok()) << "status: " << _st.ToString();          \
  } while (0)

#define OPDELTA_EXPECT_OK(expr)                                     \
  do {                                                              \
    ::opdelta::Status _st = (expr);                                 \
    EXPECT_TRUE(_st.ok()) << "status: " << _st.ToString();          \
  } while (0)

/// Installs `env` as the process default for the enclosing scope.
class ScopedEnvOverride {
 public:
  explicit ScopedEnvOverride(Env* env) : prev_(Env::SetDefault(env)) {}
  ~ScopedEnvOverride() { Env::SetDefault(prev_); }

  ScopedEnvOverride(const ScopedEnvOverride&) = delete;
  ScopedEnvOverride& operator=(const ScopedEnvOverride&) = delete;

 private:
  Env* prev_;
};

/// Unique scratch directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    static std::atomic<uint64_t> counter{0};
    path_ = ::testing::TempDir() + "opdelta_test_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1));
    (void)Env::Default()->CreateDir(path_);  // asserted by first use
  }
  ~TempDir() { (void)Env::Default()->RemoveDirAll(path_); }

  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Opens a database under the temp dir with sane test options.
inline std::unique_ptr<engine::Database> OpenDb(
    const TempDir& dir, const std::string& name,
    engine::DatabaseOptions options = engine::DatabaseOptions()) {
  std::unique_ptr<engine::Database> db;
  Status st = engine::Database::Open(dir.Sub(name), options, &db);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return db;
}

/// All rows of a table keyed by first column, for equality comparisons.
inline std::map<catalog::Value, catalog::Row> TableContents(
    engine::Database* db, const std::string& table) {
  std::map<catalog::Value, catalog::Row> out;
  Status st = db->Scan(nullptr, table, engine::Predicate::True(),
                       [&](const storage::Rid&, const catalog::Row& row) {
                         out[row[0]] = row;
                         return true;
                       });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

/// Row count helper.
inline uint64_t CountRows(engine::Database* db, const std::string& table) {
  Result<uint64_t> r = db->CountRows(table);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.value() : 0;
}

/// Compares two tables (possibly in different databases) for exact
/// equality of contents, ignoring physical placement.
inline ::testing::AssertionResult TablesEqual(engine::Database* a,
                                              const std::string& ta,
                                              engine::Database* b,
                                              const std::string& tb) {
  auto ca = TableContents(a, ta);
  auto cb = TableContents(b, tb);
  if (ca.size() != cb.size()) {
    return ::testing::AssertionFailure()
           << ta << " has " << ca.size() << " rows, " << tb << " has "
           << cb.size();
  }
  for (const auto& [key, row] : ca) {
    auto it = cb.find(key);
    if (it == cb.end()) {
      return ::testing::AssertionFailure()
             << "key " << key.ToSqlLiteral() << " missing from " << tb;
    }
    if (catalog::CompareRows(row, it->second) != 0) {
      return ::testing::AssertionFailure()
             << "rows differ at key " << key.ToSqlLiteral();
    }
  }
  return ::testing::AssertionSuccess();
}

/// Succeeds when no two rows of `table` share a key; `key` renders a row's
/// key (for a progress ledger: its key column and row kind).
inline ::testing::AssertionResult OneRowPerKey(
    engine::Database* db, const std::string& table,
    const std::function<std::string(const catalog::Row&)>& key) {
  std::map<std::string, uint64_t> rows;
  Status st = db->Scan(nullptr, table, engine::Predicate::True(),
                       [&](const storage::Rid&, const catalog::Row& row) {
                         ++rows[key(row)];
                         return true;
                       });
  if (!st.ok()) return ::testing::AssertionFailure() << st.ToString();
  for (const auto& [k, n] : rows) {
    if (n != 1) {
      return ::testing::AssertionFailure() << n << " rows for key " << k;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace opdelta::testing

#endif  // OPDELTA_TESTS_TEST_UTIL_H_
