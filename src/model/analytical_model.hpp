// The analytical model layer's shared types: one configuration, one result
// and one adapter over the five model families (hot-spot torus, uniform
// torus, hot-spot hypercube, uniform mesh, hot-spot mesh).
//
// Every family is a builder over the shared channel-class engine
// (engine/channel_class.hpp, DESIGN.md §4) that takes a ModelConfig and
// returns a ModelResult. A family's constructor throws std::invalid_argument
// on any config value it cannot represent (a hot fraction on a uniform
// model, a blocking-form ablation on the hypercube, bursty arrivals on a
// mesh) rather than silently solving a different model.
//
// Every family's solve() is one call into engine::solve_point
// (engine/solve_point.hpp), which owns the warm-start/continuation
// contract: warm solves are bit-identical to cold ones, a warm failure
// falls back to the cold path, and `converged_state` receives the converged
// iterate for chaining (empty when saturated). A family supplies only its
// system builder, its state -> ModelResult assembler, whether its stalled
// points take the stubborn-point retry, and its zero-load and saturation
// closed forms.
//
// AnalyticalModel fixes a family and a base configuration and exposes
// solve_at(lambda): substitute lambda (and, for bursty MMPP arrivals, the
// arrival IDC at that lambda), build the family and solve.
//
// Saturation semantics are uniform: `saturated == true` means the operating
// point has no steady state (the blank region past the latency asymptote),
// and `estimated_saturation_rate()` gives the coarse closed-form bottleneck
// estimate used to seed bisection searches. core/model_registry.hpp
// dispatches a core::ScenarioSpec to its family.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "model/engine/channel_class.hpp"  // BlockingVariant, ServiceBasis

namespace kncube::model {

struct ModelConfig {
  int k = 16;                    ///< radix (2 for the hypercube)
  int n = 2;                     ///< dimensions (the hypercube's dims)
  int vcs = 2;                   ///< V virtual channels per physical channel
  int message_length = 32;       ///< Lm flits
  double injection_rate = 1e-4;  ///< lambda, messages/node/cycle
  double hot_fraction = 0.2;     ///< h (0 for the uniform families)
  BlockingVariant blocking = BlockingVariant::kPaper;
  /// Basis for the busy probability Pb of eq (27).
  ServiceBasis busy_basis = ServiceBasis::kTransmission;
  /// Basis for the occupancy rho of the VC-multiplexing chain (eq 33).
  ServiceBasis vcmux_basis = ServiceBasis::kTransmission;
  /// Arrival-process index of dispersion (engine/bursty.hpp): 1 = Bernoulli
  /// (the paper's arrivals, bitwise-unchanged results), > 1 = bursty MMPP.
  double arrival_idc = 1.0;

  /// Throws std::invalid_argument when a value is out of range for every
  /// family; each family adds the checks for what it cannot represent.
  void validate() const;
};

struct ModelResult {
  /// Mean message latency in cycles (eq 10); +inf when saturated.
  double latency = std::numeric_limits<double>::infinity();
  bool saturated = true;
  bool converged = false;
  int iterations = 0;

  // Decomposition (finite only when !saturated):
  double regular_latency = 0.0;      ///< S_r of eq (11), scaled
  double hot_latency = 0.0;          ///< S_h of eq (21), scaled
  double regular_network_latency = 0.0;  ///< S_r^net of eq (31), unscaled
  double source_wait_regular = 0.0;      ///< Ws_r of eq (32)

  // Virtual-channel multiplexing degrees (eqs 35-37):
  double vc_mux_x = 1.0;         ///< average over all x channels
  double vc_mux_hot_y = 1.0;     ///< average over hot-y-ring channels
  double vc_mux_nonhot_y = 1.0;  ///< non-hot y channels

  /// Maximum channel utilisation Pb over all channel classes; the hot-y-ring
  /// channel adjacent to the hot node in all non-degenerate cases.
  double max_channel_utilization = 0.0;
};

enum class ModelFamily {
  kHotspotTorus,      ///< the paper's model (hotspot_model.hpp)
  kUniformTorus,      ///< the h = 0 baseline (uniform_model.hpp)
  kHotspotHypercube,  ///< paper ref. [12] (hypercube_model.hpp)
  kUniformMesh,       ///< per-position classes (mesh_model.hpp)
  kHotspotMesh,       ///< centre hot node (mesh_hotspot_model.hpp)
};

/// Shape of the two-state MMPP arrival chain (core::MmppArrivals mirrored
/// into the model layer, which cannot depend on core/). The arrival IDC fed
/// to the engine depends on the operating point's mean rate, so it is
/// recomputed inside every solve_at instead of frozen at construction.
struct MmppArrivalShape {
  double burst_multiplier = 4.0;
  double p_enter_burst = 0.0005;
  double p_leave_burst = 0.002;
};

class AnalyticalModel {
 public:
  /// `base.injection_rate` is ignored: solve_at substitutes its lambda. With
  /// `mmpp`, so is `base.arrival_idc`: each solve uses the MMPP chain's IDC
  /// at its lambda (burst_multiplier == 1 gives exactly 1, i.e. the
  /// Bernoulli model bit for bit; only the torus families take `mmpp`).
  /// Throws std::invalid_argument when the family cannot represent `base`.
  AnalyticalModel(ModelFamily family, ModelConfig base,
                  std::optional<MmppArrivalShape> mmpp = std::nullopt);

  /// Registry family name ("hotspot-torus", "uniform-torus",
  /// "hotspot-hypercube", "uniform-mesh", "hotspot-mesh",
  /// "mmpp-hotspot-torus", "mmpp-uniform-torus").
  const char* name() const noexcept;

  /// Solves the model at injection rate `lambda`. `warm_start` (optional)
  /// seeds the fixed-point iteration with a nearby converged state;
  /// `converged_state` (optional) receives the converged iterate (empty when
  /// saturated). See engine::solve_point for the full contract.
  ModelResult solve_at(double lambda, const std::vector<double>* warm_start,
                       std::vector<double>* converged_state) const;

  ModelResult solve_at(double lambda) const { return solve_at(lambda, nullptr, nullptr); }

  /// Exact zero-load latency (the lambda -> 0 limit of solve_at().latency).
  /// Burstiness does not shift it.
  double zero_load_latency() const;

  /// Coarse closed-form bottleneck estimate of the saturation rate, used to
  /// seed bisection searches. Independent of any particular lambda, and of
  /// burstiness: the stability pole is a bandwidth property (R8).
  double estimated_saturation_rate() const;

 private:
  ModelFamily family_;
  ModelConfig base_;
  std::optional<MmppArrivalShape> mmpp_;
};

}  // namespace kncube::model
