#ifndef RANKTIES_UTIL_STATUS_H_
#define RANKTIES_UTIL_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/contracts.h"

namespace rankties {

/// Error categories used across the library. Modeled after the RocksDB /
/// Abseil status idiom: total algorithms never produce a Status, fallible
/// operations (parsing, undefined statistics, malformed inputs) do.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kFailedPrecondition = 4,
  kUndefined = 5,  ///< A mathematically undefined result (e.g. gamma with no
                   ///< untied pairs, Goodman & Kruskal [13]).
  kInternal = 6,
  kDataLoss = 7,  ///< On-disk bytes failed validation (truncation, CRC
                  ///< mismatch): the data is unrecoverable, not merely
                  ///< malformed input.
};

/// Returns a stable human-readable name for `code` ("OK",
/// "INVALID_ARGUMENT"...).
const char* StatusCodeName(StatusCode code);

/// A cheap value-type carrying success or an error code plus message.
///
/// The library never throws; every fallible public entry point returns
/// `Status` or `StatusOr<T>`. Both carriers are [[nodiscard]]: silently
/// dropping an error defeats the whole idiom, so ignoring one is a
/// compile-time warning (an error under -Werror).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  /// Constructs a status with the given code and diagnostic message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Named constructors, one per error category.
  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Undefined(std::string msg) {
    return Status(StatusCode::kUndefined, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// The first error of `statuses` in index order, or OK. A parallel loop
/// that records one Status per slot returns this to report the failure the
/// serial order would have stopped at, whatever the lane count.
Status FirstFailure(const std::vector<Status>& statuses);

/// Holds either a value of type `T` or an error `Status`.
///
/// Accessing `value()` on an error StatusOr is a programming error and
/// asserts in debug builds.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit construction from a value (success).
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from an error status.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    RANKTIES_DCHECK(!status_.ok() && "StatusOr(Status) requires a non-OK status");
  }

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    RANKTIES_DCHECK(ok() && "value() called on error StatusOr");
    return *value_;
  }
  T& value() & {
    RANKTIES_DCHECK(ok() && "value() called on error StatusOr");
    return *value_;
  }
  T&& value() && {
    RANKTIES_DCHECK(ok() && "value() called on error StatusOr");
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value, or `fallback` when in error state.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace rankties

#endif  // RANKTIES_UTIL_STATUS_H_
