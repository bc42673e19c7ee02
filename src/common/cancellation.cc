#include "common/cancellation.h"

namespace adarts {

CancellationToken CancellationToken::WithDeadline(double seconds) {
  CancellationToken token;
  token.state_->has_deadline = true;
  token.state_->deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds > 0.0 ? seconds : 0.0));
  return token;
}

bool CancellationToken::expired() const {
  if (cancel_requested()) return true;
  return state_->has_deadline &&
         std::chrono::steady_clock::now() >= state_->deadline;
}

Status CancellationToken::Check(std::string_view what) const {
  if (cancel_requested()) {
    return Status::Cancelled(std::string(what) + " cancelled");
  }
  if (state_->has_deadline &&
      std::chrono::steady_clock::now() >= state_->deadline) {
    return Status::DeadlineExceeded(std::string(what) + " deadline exceeded");
  }
  return Status::OK();
}

}  // namespace adarts
