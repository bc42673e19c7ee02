#ifndef ADARTS_COMMON_STATUS_H_
#define ADARTS_COMMON_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace adarts {

/// Error categories used across the library. Mirrors the Arrow/RocksDB idiom:
/// library code never throws; fallible operations return Status or Result<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kNumericalError,
  kNotImplemented,
  kInternal,
  kCancelled,
  kDeadlineExceeded,
  kUnavailable,
};

/// Returns a human-readable name for a status code ("OK", "Invalid argument"...).
const char* StatusCodeToString(StatusCode code);

/// A success-or-error outcome carrying a code and a message.
///
/// Status is cheap to copy in the OK case (no allocation) and is
/// [[nodiscard]] so that ignored failures are compile-time visible.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
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
  static Status NumericalError(std::string msg) {
    return Status(StatusCode::kNumericalError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  /// The resource cannot take the work right now but may later: a full
  /// admission queue shedding load, a draining server, a closed connection.
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// A value-or-error union: holds T on success, a non-OK Status on failure.
///
/// Usage:
///   Result<Matrix> r = ComputeSvd(m);
///   if (!r.ok()) return r.status();
///   Matrix u = std::move(r).value();
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value: allows `return some_t;` in Result-returning code.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status: allows `return Status::Invalid(...);`.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    // A Result constructed from a Status must carry an error; an OK status
    // without a value would be unusable.
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

  /// Returns the value or `fallback` when in the error state.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  std::optional<T> value_;
  Status status_ = Status::OK();
};

/// Propagates a non-OK Status out of the current function.
#define ADARTS_RETURN_NOT_OK(expr)                \
  do {                                            \
    ::adarts::Status _st = (expr);                \
    if (!_st.ok()) return _st;                    \
  } while (false)

/// Assigns the value of a Result expression to `lhs`, propagating errors.
#define ADARTS_ASSIGN_OR_RETURN(lhs, expr)            \
  ADARTS_ASSIGN_OR_RETURN_IMPL(                       \
      ADARTS_CONCAT_(_adarts_result_, __LINE__), lhs, expr)
#define ADARTS_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr)  \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value()
#define ADARTS_CONCAT_(a, b) ADARTS_CONCAT_IMPL_(a, b)
#define ADARTS_CONCAT_IMPL_(a, b) a##b

}  // namespace adarts

#endif  // ADARTS_COMMON_STATUS_H_
