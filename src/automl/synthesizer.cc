#include "automl/synthesizer.h"

#include <algorithm>
#include <cmath>

namespace adarts::automl {

namespace {

double RandomParamValue(const ml::ParamSpec& spec, Rng* rng) {
  if (spec.integer) {
    return static_cast<double>(rng->UniformInt(
        static_cast<int>(spec.min_value), static_cast<int>(spec.max_value)));
  }
  if (spec.log_scale && spec.min_value > 0.0) {
    const double lo = std::log(spec.min_value);
    const double hi = std::log(spec.max_value);
    return std::exp(rng->Uniform(lo, hi));
  }
  return rng->Uniform(spec.min_value, spec.max_value);
}

double PerturbParamValue(const ml::ParamSpec& spec, double current, Rng* rng) {
  double v;
  if (spec.integer) {
    // Step by a small signed integer amount.
    const int span = static_cast<int>(spec.max_value - spec.min_value);
    const int step = std::max(1, span / 8);
    v = current + static_cast<double>(rng->UniformInt(-step, step));
    if (v == current) v = current + 1.0;
  } else if (spec.log_scale && current > 0.0) {
    v = current * std::exp(rng->Uniform(-0.7, 0.7));
  } else {
    const double span = spec.max_value - spec.min_value;
    v = current + rng->Uniform(-0.25 * span, 0.25 * span);
  }
  return std::clamp(v, spec.min_value, spec.max_value);
}

}  // namespace

std::vector<Pipeline> Synthesizer::SeedPipelines(std::size_t count) {
  std::vector<Pipeline> seeds;
  const std::vector<ml::ClassifierKind> kinds = ml::AllClassifierKinds();
  // One default pipeline per classifier family first (ModelRace requires
  // every family to be represented in the seed).
  for (ml::ClassifierKind kind : kinds) {
    if (seeds.size() >= count && seeds.size() >= kinds.size()) break;
    Pipeline p;
    p.classifier = kind;
    p.params = ml::ResolveParams(kind, {});
    p.params["seed"] = static_cast<double>(rng_.NextU64() % 10000);
    p.scaler = ml::ScalerKind::kStandard;
    p.id = NextId();
    seeds.push_back(std::move(p));
  }
  while (seeds.size() < count) {
    seeds.push_back(RandomPipeline());
  }
  if (seeds.size() > count && count >= kinds.size()) {
    seeds.resize(count);
  }
  return seeds;
}

Pipeline Synthesizer::RandomPipeline() {
  Pipeline p;
  p.classifier = static_cast<ml::ClassifierKind>(
      rng_.UniformInt(static_cast<std::uint64_t>(ml::kNumClassifierKinds)));
  for (const ml::ParamSpec& spec : ml::ParamSpecsFor(p.classifier)) {
    p.params[spec.name] = RandomParamValue(spec, &rng_);
  }
  p.params["seed"] = static_cast<double>(rng_.NextU64() % 10000);
  p.scaler = static_cast<ml::ScalerKind>(
      rng_.UniformInt(static_cast<std::uint64_t>(ml::kNumScalerKinds)));
  p.scaler_param = rng_.Uniform(0.2, 0.9);
  p.id = NextId();
  return p;
}

Pipeline Synthesizer::Mutate(const Pipeline& parent) {
  Pipeline child = parent;
  child.id = NextId();
  const std::vector<ml::ParamSpec>& specs = ml::ParamSpecsFor(parent.classifier);
  // Mutable aspects: each hyperparameter, the scaler kind, and the scaler
  // parameter. Exactly one is changed; retries guarantee the child really
  // differs (clamping at a range boundary can otherwise undo a mutation).
  const std::size_t num_aspects = specs.size() + 2;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::size_t aspect =
        static_cast<std::size_t>(rng_.UniformInt(num_aspects));
    if (aspect < specs.size()) {
      const ml::ParamSpec& spec = specs[aspect];
      double v = PerturbParamValue(spec, parent.params.at(spec.name), &rng_);
      if (spec.integer) v = std::round(v);
      if (v == parent.params.at(spec.name)) {
        // Boundary clamp swallowed the perturbation: step the other way.
        const double step = spec.integer
                                ? 1.0
                                : 0.1 * (spec.max_value - spec.min_value);
        v = std::clamp(parent.params.at(spec.name) - step, spec.min_value,
                       spec.max_value);
        if (spec.integer) v = std::round(v);
      }
      if (v == parent.params.at(spec.name)) continue;  // degenerate range
      child.params[spec.name] = v;
    } else if (aspect == specs.size()) {
      // Change the scaler kind (to a different one).
      ml::ScalerKind next = child.scaler;
      while (next == child.scaler) {
        next = static_cast<ml::ScalerKind>(
            rng_.UniformInt(static_cast<std::uint64_t>(ml::kNumScalerKinds)));
      }
      child.scaler = next;
    } else {
      const double delta =
          rng_.Bernoulli(0.5) ? rng_.Uniform(0.05, 0.2) : -rng_.Uniform(0.05, 0.2);
      const double next =
          std::clamp(parent.scaler_param + delta, 0.1, 1.0);
      if (next == parent.scaler_param) continue;
      child.scaler_param = next;
    }
    child.params = ml::ResolveParams(child.classifier, child.params);
    return child;
  }
  // Fallback: flipping the scaler kind always produces a distinct child.
  ml::ScalerKind next = child.scaler;
  while (next == child.scaler) {
    next = static_cast<ml::ScalerKind>(
        rng_.UniformInt(static_cast<std::uint64_t>(ml::kNumScalerKinds)));
  }
  child.scaler = next;
  child.params = ml::ResolveParams(child.classifier, child.params);
  return child;
}

std::vector<Pipeline> Synthesizer::Synthesize(
    const std::vector<Pipeline>& elites, std::size_t per_parent) {
  std::vector<Pipeline> out;
  out.reserve(elites.size() * per_parent);
  for (const Pipeline& parent : elites) {
    for (std::size_t c = 0; c < per_parent; ++c) {
      out.push_back(Mutate(parent));
    }
  }
  return out;
}

}  // namespace adarts::automl
