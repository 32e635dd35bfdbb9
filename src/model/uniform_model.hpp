// Baseline: uniform-traffic analytical model for the deterministically-routed
// 2-D unidirectional torus (the h = 0 special case, in the lineage of the
// classic wormhole models [4, 6, 18] the paper builds on).
//
// This is an *independent* three-class implementation (x-only, x-then-y,
// y-only), not a wrapper over HotspotModel: the hot-spot model with h = 0
// must reproduce it to solver tolerance, which the integration tests use as
// a strong structural cross-check of both implementations.
#pragma once

#include <vector>

#include "model/analytical_model.hpp"  // ModelConfig, ModelResult

namespace kncube::model {

/// Solves the uniform torus. Results use the shared ModelResult: all traffic
/// is regular, so regular_latency = latency (+inf when saturated) and
/// hot_latency = 0; the y-channel multiplexing degree fills both y slots;
/// every channel has the same utilisation.
class UniformTorusModel {
 public:
  /// Throws std::invalid_argument unless `cfg` is a 2-D torus (n == 2) with
  /// h == 0 and the default blocking form and service bases (the uniform
  /// model has no ablation variants).
  explicit UniformTorusModel(const ModelConfig& cfg);

  ModelResult solve() const { return solve(nullptr, nullptr); }
  /// Continuation solve: `warm_start` seeds the iteration with a nearby
  /// converged state (cold fallback on failure, bit-identical on success);
  /// `converged_state` receives the converged iterate for chaining. Either
  /// may be null. See HotspotModel::solve for the contract.
  ModelResult solve(const std::vector<double>* warm_start,
                    std::vector<double>* converged_state) const;
  double zero_load_latency() const;
  /// Closed-form capacity bound of the x channel: per-channel rate
  /// lambda (k-1)/2 at holding time Lm + k/2 - 1 + (k-1)/2 cycles.
  double estimated_saturation_rate() const;
  /// Per-channel message rate lambda * (k-1)/2.
  double channel_rate() const noexcept;

 private:
  ModelConfig cfg_;
};

}  // namespace kncube::model
