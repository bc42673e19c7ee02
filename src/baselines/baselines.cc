#include "baselines/baselines.h"

#include <algorithm>

namespace adarts::baselines {

int ModelSelector::Recommend(const la::Vector& x) const {
  const la::Vector p = PredictProba(x);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

}  // namespace adarts::baselines
