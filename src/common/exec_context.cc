#include "common/exec_context.h"

namespace adarts {

ThreadPool& ExecContext::pool() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
  return *pool_;
}

bool ExecContext::pool_created() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return pool_ != nullptr;
}

std::vector<Rng> ExecContext::ForkRngs(Rng* parent, std::size_t count) {
  std::vector<Rng> children;
  children.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    children.push_back(parent->Fork());
  }
  return children;
}

void ParallelFor(ExecContext& ctx, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // A serial context (or a single iteration) never needs the pool; avoiding
  // the lazy construction keeps serial paths thread-free end to end.
  ThreadPool* pool = nullptr;
  if (n > 1 && ThreadPool::ResolveThreadCount(ctx.num_threads()) > 1) {
    pool = &ctx.pool();
  }
  ParallelFor(pool, n, fn, ctx.cancel());
}

}  // namespace adarts
