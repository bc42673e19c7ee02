#include "net/engine_registry.h"

#include <utility>

namespace adarts::net {

EngineRegistry::EngineRegistry(std::shared_ptr<const Adarts> initial,
                               std::string path) {
  SwapRecord seed;
  seed.engine_version = initial->engine_version();
  seed.path = std::move(path);
  seed.success = true;
  active_.store(std::move(initial), std::memory_order_release);
  Append(std::move(seed));
}

Status EngineRegistry::Swap(std::shared_ptr<const Adarts> candidate,
                            const std::string& path) {
  const std::uint64_t version = candidate->engine_version();
  // Serialize writers against each other so the version check and the
  // publish are one step; readers never touch this mutex.
  std::unique_lock<std::mutex> lock(log_mu_);
  const std::uint64_t active_version =
      active_.load(std::memory_order_acquire)->engine_version();
  if (version < active_version) {
    SwapRecord record;
    record.engine_version = version;
    record.path = path;
    record.success = false;
    record.detail = "version regression: candidate " + std::to_string(version) +
                    " < active " + std::to_string(active_version);
    Status status = Status::InvalidArgument("engine swap refused: " +
                                            record.detail + " (" + path + ")");
    log_.push_back(std::move(record));
    if (log_.size() > kMaxSwapLog) log_.erase(log_.begin());
    return status;
  }
  // The release store publishes the fully-constructed engine; a reader's
  // acquire load in Active() therefore sees every byte of it.
  active_.store(std::move(candidate), std::memory_order_release);
  SwapRecord record;
  record.engine_version = version;
  record.path = path;
  record.success = true;
  log_.push_back(std::move(record));
  if (log_.size() > kMaxSwapLog) log_.erase(log_.begin());
  return Status::OK();
}

void EngineRegistry::RecordRejected(std::uint64_t version,
                                    const std::string& path,
                                    const std::string& detail) {
  SwapRecord record;
  record.engine_version = version;
  record.path = path;
  record.success = false;
  record.detail = detail;
  Append(std::move(record));
}

std::vector<SwapRecord> EngineRegistry::SwapLog() const {
  std::unique_lock<std::mutex> lock(log_mu_);
  return log_;
}

void EngineRegistry::Append(SwapRecord record) {
  std::unique_lock<std::mutex> lock(log_mu_);
  log_.push_back(std::move(record));
  if (log_.size() > kMaxSwapLog) log_.erase(log_.begin());
}

}  // namespace adarts::net
