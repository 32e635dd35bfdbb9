// Hot-spot analytical model for the deterministically-routed k-ary n-mesh,
// built on the shared channel-class engine.
//
// The hot node sits at the centre coordinate c = k/2 of every dimension (the
// simulator's resolved default). Under dimension-order routing a hot-spot
// message corrects dimension 0 first, so on dimension d it travels only on
// the "hot lines" whose coordinates in dimensions < d already equal the hot
// node's — a fraction q_d = k^-d of that dimension's lines (every dimension-0
// line is hot; by dimension n-1 only the single funnel line into the hot node
// remains, carrying k^{n-1} sources per position). Removing the torus wrap
// also breaks the mirror fold at the centre: the + links below c and the -
// links above c carry different hot loads, so the hot classes split into a
// +chain (positions 0..c-1) and a -chain (positions c+1..k-1) per dimension,
// while the regular classes keep the uniform-mesh fold and see the hot
// streams through a (1-q_d, q_d/2, q_d/2) blocking mixture over the plain /
// +hot / -hot line cases. DESIGN.md §13 derives the rates and recursions.
#pragma once

#include <vector>

#include "model/analytical_model.hpp"  // ModelConfig, ModelResult

namespace kncube::model {

/// Solves the centre-hot-spot mesh. Results use the shared ModelResult:
/// regular_latency / hot_latency carry the two path classes, vc_mux_x the
/// dimension-0 entrance-weighted multiplexing degree, vc_mux_hot_y the
/// funnel (last-dimension hot-line) degree, vc_mux_nonhot_y the last
/// dimension's regular degree.
class MeshHotspotModel {
 public:
  /// Throws std::invalid_argument unless n <= topo::kMaxDims and arrivals
  /// are Bernoulli (arrival_idc == 1).
  explicit MeshHotspotModel(const ModelConfig& cfg);

  ModelResult solve() const { return solve(nullptr, nullptr); }
  /// Continuation solve: `warm_start` seeds the iteration with a nearby
  /// converged state (cold fallback on failure, bit-identical on success);
  /// `converged_state` receives the converged iterate for chaining. Either
  /// may be null. See HotspotModel::solve for the contract.
  ModelResult solve(const std::vector<double>* warm_start,
                    std::vector<double>* converged_state) const;

  const ModelConfig& config() const noexcept { return cfg_; }

  /// Exact zero-load latency: the h-weighted mix of the uniform mean
  /// Manhattan distance and the mean distance to the centre, plus Lm - 1.
  double zero_load_latency() const;

  /// Coarse closed-form saturation estimate: the tighter of the regular
  /// bisection-link pole and the hot funnel-link pole, used to seed
  /// bisection searches.
  double estimated_saturation_rate() const;

 private:
  ModelConfig cfg_;
};

}  // namespace kncube::model
