// Uniform-traffic analytical model for the deterministically-routed k-ary
// n-mesh, built on the shared channel-class engine.
//
// Removing the torus's wrap-around links breaks vertex-transitivity: under
// dimension-order routing the load of a line's + link at position i is
// proportional to (i+1)(k-1-i) — peaking at the line's centre (the bisection
// links) — so the paper's "all channels of a dimension alike" classes no
// longer exist. The mesh model instead declares one channel class per
// (dimension, position): n(k-1) classes (the - direction folds onto the +
// classes by mirror symmetry, and the per-position rates are the same in
// every dimension), each with its own blocking group fed by the exact
// path-counting rates of src/topology/mesh_geometry.hpp, coupled through the
// same S = B + 1 + continuation recursion as the paper's eqs (16)-(25) and
// closed by the same damped warm-started fixed point (engine::solve_point).
// The regular classes are shared with the hot-spot mesh (mesh_common.hpp).
// DESIGN.md §8 derives the per-class rate and continuation equations and
// maps each to its paper counterpart.
#pragma once

#include <vector>

#include "model/analytical_model.hpp"  // ModelConfig, ModelResult

namespace kncube::model {

/// Solves the uniform mesh. Results use the shared ModelResult: all traffic
/// is regular, so regular_latency = latency (+inf when saturated) and
/// hot_latency = 0; vc_mux_x carries dimension 0's entrance-weighted
/// multiplexing degree (the longest continuations) and both y slots the
/// last dimension's (it drains into the destination);
/// max_channel_utilization is a centre (bisection) link of dimension 0 in
/// all non-degenerate cases.
class MeshUniformModel {
 public:
  /// Throws std::invalid_argument unless n <= topo::kMaxDims, h == 0 and
  /// arrivals are Bernoulli (arrival_idc == 1).
  explicit MeshUniformModel(const ModelConfig& cfg);

  ModelResult solve() const { return solve(nullptr, nullptr); }
  /// Continuation solve through engine::solve_point with the
  /// stubborn-point retry: `warm_start` seeds the iteration,
  /// `converged_state` receives the converged iterate (empty when
  /// saturated). Either may be null.
  ModelResult solve(const std::vector<double>* warm_start,
                    std::vector<double>* converged_state) const;

  const ModelConfig& config() const noexcept { return cfg_; }

  /// Exact zero-load latency: E[Manhattan distance | dst != src] + Lm - 1,
  /// the lambda -> 0 limit of solve().latency.
  double zero_load_latency() const;

  /// Message rate crossing the + link at position i of any dimension
  /// (topology/mesh_geometry.hpp path counting).
  double channel_rate(int i) const noexcept;

  /// Coarse closed-form saturation estimate from the bandwidth pole of the
  /// dimension-0 centre (bisection) link: lambda_sat ~ 1/(coef * tx), used
  /// to seed bisection searches.
  double estimated_saturation_rate() const;

 private:
  ModelConfig cfg_;
};

}  // namespace kncube::model
