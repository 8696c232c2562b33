// Status / Result<T> error handling for the DUST library.
//
// The library does not throw exceptions across API boundaries (RocksDB-style
// convention). Fallible operations return a Status, or a Result<T> when they
// also produce a value. Internal invariant violations abort via DUST_CHECK.
#ifndef DUST_UTIL_STATUS_H_
#define DUST_UTIL_STATUS_H_

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

namespace dust {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kIoError,
  kUnimplemented,
};

/// Human-readable name of a StatusCode ("Ok", "InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// Lightweight success/error carrier. Cheap to copy when ok.
class Status {
 public:
  /// Constructs an ok status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "Ok" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Value-or-error carrier. Access value() only when ok().
template <typename T>
class Result {
 public:
  Result(T value) : status_(Status::Ok()), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {}                 // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return std::move(*value_); }

  /// Returns the value or aborts with the status message (tests/benches only).
  T ValueOrDie() && {
    if (!ok()) {
      std::cerr << "Result::ValueOrDie on error: " << status_.ToString() << "\n";
      std::abort();
    }
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace dust

/// Aborts the process with a diagnostic when `cond` is false. Used for
/// internal invariants that indicate programming errors, not user errors.
#define DUST_CHECK(cond)                                                     \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::cerr << "DUST_CHECK failed at " << __FILE__ << ":" << __LINE__    \
                << ": " #cond << std::endl;                                  \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

/// Propagates a non-ok Status from the current function.
#define DUST_RETURN_IF_ERROR(expr)             \
  do {                                         \
    ::dust::Status _st = (expr);               \
    if (!_st.ok()) return _st;                 \
  } while (0)

#endif  // DUST_UTIL_STATUS_H_
