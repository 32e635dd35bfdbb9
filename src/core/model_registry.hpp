// Model registry: ScenarioSpec -> AnalyticalModel dispatch.
//
// Maps each (topology, traffic, arrivals) combination to the analytical
// model family that covers it, or reports "sim-only" with a reason when no
// analytical counterpart exists. This is the single place that knows which
// corner of the scenario space each model family covers:
//
//   torus n=2 uni  × hotspot  × bernoulli  -> hotspot-torus   (the paper)
//   torus n=2 uni  × uniform  × bernoulli  -> uniform-torus   (baseline)
//   torus n=2 uni  × hotspot  × mmpp       -> mmpp-hotspot-torus
//   torus n=2 uni  × uniform  × mmpp       -> mmpp-uniform-torus
//   hypercube      × hotspot  × bernoulli  -> hotspot-hypercube (ref. [12])
//   hypercube      × uniform  × bernoulli  -> hotspot-hypercube with h = 0
//   mesh (any n)   × uniform  × bernoulli  -> uniform-mesh    (per-position
//                                             channel classes, DESIGN.md §8)
//   mesh (any n)   × hotspot  × bernoulli  -> hotspot-mesh    (centre hot
//                                             node only, DESIGN.md §13)
//   anything else (permutation patterns, off-centre mesh hot nodes, MMPP
//   arrivals off the torus, bidirectional links, n ≠ 2 tori, faulty
//   networks)                              -> sim-only
//
// The spec reaches its family as one model::ModelConfig (to_model_config).
// A family that cannot represent a config value — e.g. a model-ablation
// knob the uniform torus or the hypercube has no variant for — refuses it,
// and the registry reports sim-only with the family's reason rather than
// silently running the default approximation under an ablation's name.
//
// SweepEngine holds the dispatched model and solves every operating point
// through it, so memoization, warm-started continuation and saturation
// bisection work identically for all families.
#pragma once

#include <memory>
#include <string>

#include "core/scenario_spec.hpp"
#include "model/analytical_model.hpp"

namespace kncube::core {

struct ModelDispatch {
  /// The matching analytical model, or nullptr when the spec is sim-only.
  std::unique_ptr<model::AnalyticalModel> model;
  /// Why no analytical model applies (empty when `model` is set).
  std::string sim_only_reason;

  bool has_model() const noexcept { return model != nullptr; }
};

/// Dispatches a validated spec to its analytical model family. Throws
/// std::invalid_argument when the spec itself is invalid.
ModelDispatch make_analytical_model(const ScenarioSpec& spec);

/// The model configuration for `spec`: topology (the hypercube as k = 2,
/// n = dims), V, Lm, h (0 unless hot-spot traffic) and the ablation knobs.
/// `injection_rate` and `arrival_idc` keep their defaults: solve_at
/// substitutes the operating point's rate and, for MMPP arrivals, its IDC.
model::ModelConfig to_model_config(const ScenarioSpec& spec);

}  // namespace kncube::core
