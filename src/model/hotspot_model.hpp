// The paper's contribution: an analytical model of mean message latency in a
// deterministically-routed, wormhole-switched 2-D unidirectional torus under
// Pfister–Norton hot-spot traffic (eqs (1)-(37)).
//
// See DESIGN.md §3 for the full equation inventory and the reconstruction
// notes for the handful of OCR-ambiguous prefactors. This file declares the
// paper's state as a channel-class system and assembles eqs (10)-(15),
// (21)-(24) and (31)-(37) from its fixed point; engine::solve_point solves
// it like every other family. Operating points whose iteration diverges,
// fails a utilisation bound, or does not converge are reported as
// *saturated* — the network has no steady state there, exactly the regime
// the paper's figures leave blank past the latency asymptote.
#pragma once

#include <vector>

#include "model/analytical_model.hpp"  // ModelConfig, ModelResult
#include "model/traffic_rates.hpp"

namespace kncube::model {

class HotspotModel {
 public:
  /// Throws std::invalid_argument unless `cfg` is a 2-D torus (n == 2).
  explicit HotspotModel(const ModelConfig& cfg);

  ModelResult solve() const { return solve(nullptr, nullptr); }

  /// Solve with continuation support, through engine::solve_point with the
  /// stubborn-point retry: `warm_start` (optional) seeds the iteration,
  /// `converged_state` (optional) receives the converged iterate, empty
  /// when saturated. A saturated point leaves regular_latency at 0.
  ModelResult solve(const std::vector<double>* warm_start,
                    std::vector<double>* converged_state) const;

  const ModelConfig& config() const noexcept { return cfg_; }
  const TrafficRates& rates() const noexcept { return rates_; }

  /// Exact zero-load latency (mean hops + Lm - 1, averaged over the hot/
  /// regular mix) — the lambda -> 0 limit of solve().latency, used by tests.
  double zero_load_latency() const;

  /// Coarse closed-form estimate of the saturation injection rate from the
  /// bottleneck (hot-y, j=1) channel: lambda_sat ~ 1 / (S0 * (lambda_1/lambda))
  /// with S0 the zero-load hot-path service time. Benches use it to place
  /// sweep ranges; it is intentionally simple, not part of the paper.
  double estimated_saturation_rate() const;

 private:
  ModelConfig cfg_;
  TrafficRates rates_;
};

}  // namespace kncube::model
