// Hot-spot latency model for the deterministically-routed binary hypercube —
// the paper's direct predecessor (its ref. [12]: Loucif & Ould-Khaoua,
// "Modelling latency in deterministic wormhole-routed hypercubes under
// hot-spot traffic", J. Supercomputing 27(3), 2004), rebuilt here with the
// same queueing machinery as the torus model so the two lineage models can
// be compared on equal footing.
//
// Topology: N = 2^n nodes; node v's dimension-d channel links it to
// v XOR (1<<d). E-cube (dimension-order) routing corrects differing bits in
// increasing dimension order — exactly the k = 2 instance of this
// repository's k-ary n-cube simulator, which is what the tests validate
// against.
//
// Structure (mirrors DESIGN.md §3 with hypercube geometry):
//  * regular per-channel rate: lambda (1-h) 2^{n-1}/(2^n - 1)  (~lambda/2);
//  * hot-spot traffic funnels: the dim-d channel pointing at the hot node
//    from a node whose bits below d already match carries lambda h 2^d
//    (2^{n-d-1} such channels exist; conservation: sum_d 2^d 2^{n-d-1}
//    = n 2^{n-1} = total hot hop flux);
//  * a message at its dim-d channel next visits dim d' > d with probability
//    2^{-(d'-d)} and is delivered with probability 2^{-(n-1-d)} (source
//    address bits above d are i.i.d. fair coins);
//  * per-dimension service times S^r_d, S^h_d close through the same
//    blocking/waiting primitives (mg1.hpp) and Dally VC chain (vcmux.hpp),
//    solved by the shared fixed-point driver.
#pragma once

#include <vector>

#include "model/analytical_model.hpp"  // ModelConfig, ModelResult

namespace kncube::model {

/// Solves the hot-spot hypercube. Results use the shared ModelResult:
/// vc_mux_hot_y carries the multiplexing degree on the final funnel channel
/// (dim n-1 into the hot node, the hypercube's bottleneck and hot-y
/// analogue); the latency is not decomposed into a network part
/// (regular_network_latency stays 0) and vc_mux_x / vc_mux_nonhot_y stay 1.
class HypercubeHotspotModel {
 public:
  /// The hypercube is the k = 2 n-cube: `cfg.n` is the dimension count.
  /// Throws std::invalid_argument unless k == 2 and n <= 24, with the
  /// default blocking form and Bernoulli arrivals (arrival_idc == 1).
  explicit HypercubeHotspotModel(const ModelConfig& cfg);

  ModelResult solve() const { return solve(nullptr, nullptr); }
  /// Continuation solve: `warm_start` seeds the iteration with a nearby
  /// converged state (cold fallback on failure, bit-identical on success);
  /// `converged_state` receives the converged iterate for chaining. Either
  /// may be null. See HotspotModel::solve for the contract.
  ModelResult solve(const std::vector<double>* warm_start,
                    std::vector<double>* converged_state) const;

  const ModelConfig& config() const noexcept { return cfg_; }

  /// Exact zero-load latency: mean e-cube hops + Lm - 1 over the hot/regular
  /// mix (hot and regular coincide — both are uniform over the other nodes'
  /// bit patterns).
  double zero_load_latency() const;

  /// Per-channel regular rate lambda (1-h) 2^{n-1}/(2^n - 1).
  double regular_channel_rate() const;
  /// Hot rate on a dim-d funnel channel: lambda h 2^d.
  double hot_funnel_rate(int d) const;
  /// P(lowest differing dimension == d) for a uniform non-equal pair.
  double first_dim_probability(int d) const;

  /// Coarse bottleneck estimate seeding saturation searches: the dim n-1
  /// funnel channel carries lambda h 2^{n-1} (+ background) at ~Lm cycles
  /// per message.
  double estimated_saturation_rate() const;

 private:
  ModelConfig cfg_;
};

}  // namespace kncube::model
