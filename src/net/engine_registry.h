// EngineRegistry — the single owner of "which engine is live" for the
// serving daemon. Workers grab a shared_ptr reference per request; a reload
// publishes a fully-validated replacement with one atomic pointer store.
// Old engines stay alive exactly as long as in-flight requests hold
// references and are destroyed on the last release — no locks on the read
// path, no pauses on swap, no torn reads (DESIGN.md §12).

#ifndef ADARTS_NET_ENGINE_REGISTRY_H_
#define ADARTS_NET_ENGINE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adarts/adarts.h"
#include "common/status.h"

namespace adarts::net {

// One attempted engine swap, recorded whether it succeeded or not. The log
// is the serving daemon's flight recorder: after an incident, the sequence
// of {version, path, outcome} entries reconstructs exactly which snapshot
// was serving when.
struct SwapRecord {
  std::uint64_t engine_version = 0;  // version of the candidate engine
  std::string path;                  // snapshot path it was loaded from
  bool success = false;
  std::string detail;  // error text on failure, empty on success
};

class EngineRegistry {
 public:
  // Seeds the registry with the engine serving at startup. `path` is
  // recorded in the swap log as the origin of version 0's deployment.
  EngineRegistry(std::shared_ptr<const Adarts> initial, std::string path);

  EngineRegistry(const EngineRegistry&) = delete;
  EngineRegistry& operator=(const EngineRegistry&) = delete;

  // Lock-free snapshot of the live engine. The returned reference keeps the
  // engine alive for the caller's whole request even if a swap lands
  // mid-flight, so a single request can never observe two engine versions.
  std::shared_ptr<const Adarts> Active() const {
    return active_.load(std::memory_order_acquire);
  }

  // Version of the engine a request grabbed right now would observe.
  std::uint64_t ActiveVersion() const {
    return Active()->engine_version();
  }

  // Publishes `candidate` as the live engine iff its engine_version is not
  // older than the active one (equal is allowed: re-reloading the current
  // snapshot is an idempotent no-op deployment, useful after a config-only
  // restart of the publisher). Returns InvalidArgument on a version
  // regression and leaves the active engine untouched. Every call — success
  // or refusal — appends to the swap log.
  Status Swap(std::shared_ptr<const Adarts> candidate, const std::string& path);

  // Records a swap that was rejected before reaching Swap() (load/verify/
  // canary failure), so the flight recorder shows refused deployments too.
  void RecordRejected(std::uint64_t version, const std::string& path,
                      const std::string& detail);

  // Copy of the full swap history, oldest first (bounded: the log keeps the
  // most recent kMaxSwapLog entries).
  std::vector<SwapRecord> SwapLog() const;

 private:
  static constexpr std::size_t kMaxSwapLog = 256;

  void Append(SwapRecord record);

  std::atomic<std::shared_ptr<const Adarts>> active_;

  mutable std::mutex log_mu_;       // guards log_ only, never the read path
  std::vector<SwapRecord> log_;     // ring of the last kMaxSwapLog records
};

}  // namespace adarts::net

#endif  // ADARTS_NET_ENGINE_REGISTRY_H_
