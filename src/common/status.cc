#include "common/status.h"

namespace opdelta {

namespace {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kConflict:
      return "Conflict";
    case StatusCode::kBusy:
      return "Busy";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kAborted:
      return "Aborted";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kSchemaMismatch:
      return "SchemaMismatch";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

}  // namespace opdelta
