#ifndef OPDELTA_COMMON_STATUS_H_
#define OPDELTA_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace opdelta {

/// Error codes used across the library. The library never throws; every
/// fallible operation returns a Status (or a Result<T>, see below).
enum class StatusCode {
  kOk = 0,
  kNotFound,
  kInvalidArgument,
  kIOError,
  kCorruption,
  kConflict,       // lock conflict / write-write conflict
  kBusy,           // resource temporarily unavailable
  kNotSupported,
  kAborted,        // transaction aborted
  kAlreadyExists,
  kOutOfRange,
  kInternal,
  kSchemaMismatch,  // schema-epoch drift: decoder has no schema for the data
};

/// Arrow/RocksDB-style status object: cheap to copy when OK (no allocation),
/// carries a code + message otherwise. [[nodiscard]] on the class makes a
/// silently dropped error a compile error under -Werror in every caller —
/// opdelta-lint R4 checks the attribute stays, R1 catches what the compiler
/// can't (e.g. discards via dependent expressions).
class [[nodiscard]] Status {
 public:
  Status() = default;

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Conflict(std::string msg) {
    return Status(StatusCode::kConflict, std::move(msg));
  }
  static Status Busy(std::string msg) {
    return Status(StatusCode::kBusy, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status SchemaMismatch(std::string msg) {
    return Status(StatusCode::kSchemaMismatch, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsConflict() const { return code_ == StatusCode::kConflict; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsSchemaMismatch() const {
    return code_ == StatusCode::kSchemaMismatch;
  }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" string for logs and test failures.
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Result<T> holds either a value or an error Status. [[nodiscard]] for the
/// same reason as Status: dropping one drops an error.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {}     // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() { return value_; }
  const T& value() const { return value_; }
  T& operator*() { return value_; }
  const T& operator*() const { return value_; }
  T* operator->() { return &value_; }
  const T* operator->() const { return &value_; }

  /// Moves the value out; only valid when ok().
  T TakeValue() { return std::move(value_); }

 private:
  Status status_;
  T value_{};
};

/// Propagates a non-OK Status from an expression to the caller. The bound
/// name is line-unique so nested/stacked uses survive -Wshadow.
#define OPDELTA_RETURN_IF_ERROR(expr)                          \
  do {                                                         \
    ::opdelta::Status OPDELTA_CONCAT_(_st_, __LINE__) = (expr); \
    if (!OPDELTA_CONCAT_(_st_, __LINE__).ok())                 \
      return OPDELTA_CONCAT_(_st_, __LINE__);                  \
  } while (0)

/// Evaluates a Result<T> expression, propagating errors, else binds `lhs`.
#define OPDELTA_ASSIGN_OR_RETURN(lhs, expr)      \
  auto OPDELTA_CONCAT_(_res_, __LINE__) = (expr);                \
  if (!OPDELTA_CONCAT_(_res_, __LINE__).ok())                    \
    return OPDELTA_CONCAT_(_res_, __LINE__).status();            \
  lhs = OPDELTA_CONCAT_(_res_, __LINE__).TakeValue()

#define OPDELTA_CONCAT_IMPL_(a, b) a##b
#define OPDELTA_CONCAT_(a, b) OPDELTA_CONCAT_IMPL_(a, b)

}  // namespace opdelta

#endif  // OPDELTA_COMMON_STATUS_H_
