#include "util/status.h"

namespace rankties {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kUndefined:
      return "UNDEFINED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kDataLoss:
      return "DATA_LOSS";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

Status FirstFailure(const std::vector<Status>& statuses) {
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace rankties
