#ifndef OPDELTA_CATALOG_SCHEMA_H_
#define OPDELTA_CATALOG_SCHEMA_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "catalog/value.h"

namespace opdelta::catalog {

/// A column definition. `default_value` (kNull = none) is what ALTER TABLE
/// ADD COLUMN backfills into existing rows; it is persisted by the v2
/// schema encoding only — the legacy encoding predates defaults.
struct Column {
  std::string name;
  ValueType type = ValueType::kNull;
  Value default_value = Value::Null();  // kNull means "no default"

  bool has_default() const { return !default_value.is_null(); }

  /// Identity is name + type: two schemas that differ only in defaults
  /// describe the same physical rows, and every schema-equality check in
  /// the pipeline (source vs warehouse, scrub) wants that notion.
  bool operator==(const Column& o) const {
    return name == o.name && type == o.type;
  }
};

/// An ordered list of columns. The engine treats the column at
/// `TimestampColumnIndex()` (if any, by convention "last_modified", type
/// kTimestamp) as auto-maintained: every insert/update stamps it.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns)
      : columns_(std::move(columns)) {}

  const std::vector<Column>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Index of the named column, or -1.
  int ColumnIndex(const std::string& name) const;

  /// Index of the first kTimestamp column, or -1. Used for auto-stamping
  /// and timestamp-based extraction.
  int TimestampColumnIndex() const;

  /// Index of the primary-key column. By convention the first column is the
  /// key (the PARTS workloads use an int64 `id`).
  int KeyColumnIndex() const { return columns_.empty() ? -1 : 0; }

  bool operator==(const Schema& o) const { return columns_ == o.columns_; }

  /// Binary (de)serialization for export files and the catalog file.
  /// The legacy encoding (EncodeTo) has no room for per-column defaults;
  /// it stays byte-identical so every pre-existing file keeps decoding.
  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice* input, Schema* out);

  /// V2 encoding: a per-column flags byte follows the type byte, carrying
  /// the column default when present. Used by the versioned catalog file
  /// and schema events; unknown future flag bits fail loud.
  void EncodeToV2(std::string* dst) const;
  static Status DecodeFromV2(Slice* input, Schema* out);

  /// "name TYPE, name TYPE, ..." — for error messages and docs.
  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

/// All table schemas of a database, keyed by table name — the unit the
/// op-delta parser decodes against and the unit SchemaHistory snapshots
/// per DDL epoch.
using SchemaMap = std::map<std::string, Schema>;

/// One ALTER TABLE change. `column` carries the full definition for
/// kAddColumn (including any default), just the name for kDropColumn, and
/// the name plus the *new* type for kAlterType.
struct AlterTableSpec {
  enum class Kind : uint8_t {
    kAddColumn = 0,
    kDropColumn = 1,
    kAlterType = 2,  // incompatible downstream: warehouses quarantine it
  };

  Kind kind = Kind::kAddColumn;
  Column column;

  /// "ADD COLUMN name TYPE [DEFAULT lit]" / "DROP COLUMN name" /
  /// "ALTER COLUMN name TYPE" — the tail of the canonical ALTER statement.
  std::string ToString() const;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice* input, AlterTableSpec* out);
};

/// Applies `spec` to `schema`, producing the post-DDL schema. Rejects
/// duplicate adds, drops of missing columns, and drops of the key column
/// (first column, by convention) — a key change is a rebuild, not an ALTER.
Status ApplyAlter(const Schema& schema, const AlterTableSpec& spec,
                  Schema* out);

/// Validates that a row structurally matches a schema (arity + cell types;
/// nulls allowed anywhere).
Status ValidateRow(const Schema& schema, const Row& row);

}  // namespace opdelta::catalog

#endif  // OPDELTA_CATALOG_SCHEMA_H_
