// What the two mesh families (mesh_model.*, mesh_hotspot_model.*) share:
// the folded regular-traffic channel classes of DESIGN.md §8 — their slot
// layout, holding times, recursion and first-correcting-dimension assembly
// — and the linear-expression accumulator their continuations are built
// with. The uniform mesh is these classes alone; the hot-spot mesh adds
// the hot chains of DESIGN.md §13.4 and a hot-line blocking mixture.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "model/analytical_model.hpp"  // ModelConfig
#include "model/engine/channel_class.hpp"

namespace kncube::model::mesh {

/// Linear-expression accumulator (constant + weighted slots) feeding
/// engine::StateExpr::weighted.
struct Lin {
  double c = 0.0;
  std::vector<std::pair<int, double>> terms;
};

/// out += scale * in.
void add_scaled(Lin& out, const Lin& in, double scale);

/// Slots of the regular classes: one per (dimension d, + link position i),
/// i = 0..k-2, from `base` on. The - direction link from i+1 to i mirrors
/// the + link at position k-2-i and shares its class. Dimensions are laid
/// out high-to-low and positions end-of-line-first, so every continuation
/// (the next link of the same line, and the entrances of all later
/// dimensions) references an *earlier* slot — the engine's within-sweep
/// Gauss-Seidel chaining, exactly as the torus models lay y before x.
struct RegularSlots {
  int base, n, ns;  ///< ns = k-1 links per line
  RegularSlots(int base_, int k, int n_) : base(base_), n(n_), ns(k - 1) {}
  int operator()(int d, int i) const { return base + (n - 1 - d) * ns + (ns - 1 - i); }
  int count() const { return n * ns; }
};

/// Contention-free holding time of a regular class-(d, i) channel: Lm plus
/// the mean hops still ahead once the link is crossed — (m-1)/2 within the
/// line (destinations are uniform over the m = k-1-i coordinates beyond
/// the link) plus the iid mean line distance for each uncorrected
/// dimension.
double regular_holding_time(const ModelConfig& cfg, int d, int i);

/// Adds the n(k-1) regular classes to `sys` at `slots`. Each class owns
/// the blocking group `blocking(d, i)` (per-position rates make blocking
/// position-dependent); continuations chain along the line and fall
/// through G_{d+1}, the expected service from the remaining dimensions:
///
///   S_d(i)   = B_d(i) + 1 + (m-1)/m * S_d(i+1) + 1/m * G_{d+1}   (m = k-1-i)
///   S_d(k-2) = B_d(k-2) + 1 + G_{d+1}
///   G_j      = 1/k * G_{j+1} + (k-1)/k * E_enter(j),  G_n = Lm - 1
///   E_enter(j) = sum_i w_i S_j(i),  w_i = mesh_entrance_weight(k, i)
void add_regular_classes(
    engine::ChannelClassSystem& sys, const ModelConfig& cfg,
    const RegularSlots& slots,
    const std::function<engine::BlockingSpec(int d, int i)>& blocking);

/// The regular path's network latency on a converged state. The
/// first-correcting-dimension probabilities are exact: dimensions 0..j-1
/// match with probability k^-j, dimension j differs with (k-1)/k,
/// renormalised by the dst != src conditioning.
struct RegularPaths {
  std::vector<double> entrance;  ///< E_enter(j), per first dimension j
  std::vector<double> p_first;   ///< P(first corrected dimension == j)
  double s_net = 0.0;            ///< sum_j p_first[j] * entrance[j]
};
RegularPaths regular_paths(const ModelConfig& cfg, const RegularSlots& slots,
                           const std::vector<double>& state);

}  // namespace kncube::model::mesh
