#include "model/mesh_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "model/engine/mg1.hpp"
#include "model/engine/vcmux.hpp"
#include "topology/mesh_geometry.hpp"
#include "topology/torus.hpp"  // topo::kMaxDims
#include "util/assert.hpp"

namespace kncube::model {

namespace {

using engine::ChannelClass;
using engine::ChannelClassSystem;
using engine::StateExpr;

// State: one slot per (dimension d, + link position i), i = 0..k-2; the -
// direction link from i+1 to i mirrors the + link at position k-2-i and
// shares its class. Dimensions are laid out high-to-low and positions
// end-of-line-first, so every continuation (the next link of the same line,
// and the entrances of all later dimensions) references an *earlier* slot —
// the engine's within-sweep Gauss-Seidel chaining, exactly as the torus
// models lay y before x.
struct Lay {
  int k, n, ns;
  Lay(int k_, int n_) : k(k_), n(n_), ns(k_ - 1) {}
  int slot(int d, int i) const { return (n - 1 - d) * ns + (ns - 1 - i); }
  int total() const { return n * ns; }
};

/// Linear-expression accumulator (constant + weighted slots) feeding
/// StateExpr::weighted.
struct Lin {
  double c = 0.0;
  std::vector<std::pair<int, double>> terms;
};

void add_scaled(Lin& out, const Lin& in, double scale) {
  out.c += scale * in.c;
  for (const auto& [slot, weight] : in.terms) {
    out.terms.emplace_back(slot, scale * weight);
  }
}

/// Contention-free holding time of a class-(d, i) channel: Lm plus the mean
/// hops still ahead once the link is crossed — (m-1)/2 within the line
/// (destinations are uniform over the m = k-1-i coordinates beyond the
/// link) plus the iid mean line distance for each uncorrected dimension.
double holding_time(const ModelConfig& cfg, int d, int i) {
  const double lm = static_cast<double>(cfg.message_length);
  return lm + static_cast<double>(cfg.k - 2 - i) / 2.0 +
         static_cast<double>(cfg.n - 1 - d) * topo::mesh_mean_line_hops(cfg.k);
}

/// Builds the n(k-1)-class mesh system (DESIGN.md §8). Each class owns one
/// blocking group (per-position rates make blocking position-dependent);
/// continuations chain along the line and fall through G_{d+1}, the expected
/// service from the remaining dimensions:
///
///   S_d(i)   = B_d(i) + 1 + (m-1)/m * S_d(i+1) + 1/m * G_{d+1}   (m = k-1-i)
///   S_d(k-2) = B_d(k-2) + 1 + G_{d+1}
///   G_j      = 1/k * G_{j+1} + (k-1)/k * E_enter(j),  G_n = Lm - 1
///   E_enter(j) = sum_i w_i S_j(i),  w_i = mesh_entrance_weight(k, i)
ChannelClassSystem build_system(const ModelConfig& cfg) {
  const int k = cfg.k;
  const int n = cfg.n;
  const double lm = static_cast<double>(cfg.message_length);
  const Lay lay(k, n);

  engine::EngineOptions opts;
  opts.service_floor = lm;
  opts.blocking = cfg.blocking;
  opts.busy_basis = cfg.busy_basis;
  ChannelClassSystem sys(lay.total(), opts);

  // G_{j} continuation expressions, built from the last dimension backward
  // (index n holds the destination drain), alongside their zero-load values
  // for the classes' iteration starting points.
  std::vector<Lin> g(static_cast<std::size_t>(n) + 1);
  std::vector<double> g0(static_cast<std::size_t>(n) + 1, lm - 1.0);
  g[static_cast<std::size_t>(n)].c = lm - 1.0;
  std::vector<double> s0(static_cast<std::size_t>(lay.total()), 0.0);

  for (int d = n - 1; d >= 0; --d) {
    const Lin& cont_g = g[static_cast<std::size_t>(d + 1)];
    const double cont_g0 = g0[static_cast<std::size_t>(d + 1)];
    for (int i = k - 2; i >= 0; --i) {
      const double m = static_cast<double>(k - 1 - i);
      Lin cont;
      if (i == k - 2) {
        add_scaled(cont, cont_g, 1.0);
      } else {
        add_scaled(cont, cont_g, 1.0 / m);
        cont.terms.emplace_back(lay.slot(d, i + 1), (m - 1.0) / m);
      }

      ChannelClass cls;
      cls.name = "mesh";
      cls.blocking = sys.add_blocking(
          {{{1.0,
             {topo::mesh_channel_rate(cfg.injection_rate, k, n, i),
              StateExpr::slot(lay.slot(d, i)), holding_time(cfg, d, i)},
             {}}},
           1.0});
      // Zero-load value of the recursion above with B = 0 (exact: the
      // branching probabilities are exact path counts).
      double init = 1.0 + cont_g0;
      if (i < k - 2) {
        init = 1.0 + (m - 1.0) / m * s0[static_cast<std::size_t>(lay.slot(d, i + 1))] +
               cont_g0 / m;
      }
      s0[static_cast<std::size_t>(lay.slot(d, i))] = init;
      cls.initial = init;
      cls.output_continuation = StateExpr::weighted(cont.c, 1.0, std::move(cont.terms));
      sys.set_class(lay.slot(d, i), std::move(cls));
    }
    // Close this dimension's entrance average into G_d for the dimensions
    // below it.
    Lin& gd = g[static_cast<std::size_t>(d)];
    add_scaled(gd, g[static_cast<std::size_t>(d + 1)], 1.0 / static_cast<double>(k));
    double enter0 = 0.0;
    for (int i = 0; i < k - 1; ++i) {
      const double w = topo::mesh_entrance_weight(k, i) *
                       (static_cast<double>(k - 1) / static_cast<double>(k));
      gd.terms.emplace_back(lay.slot(d, i), w);
      enter0 += topo::mesh_entrance_weight(k, i) *
                s0[static_cast<std::size_t>(lay.slot(d, i))];
    }
    g0[static_cast<std::size_t>(d)] =
        g0[static_cast<std::size_t>(d + 1)] / static_cast<double>(k) +
        enter0 * (static_cast<double>(k - 1) / static_cast<double>(k));
  }
  return sys;
}

}  // namespace

MeshUniformModel::MeshUniformModel(const ModelConfig& cfg) : cfg_(cfg) {
  cfg.validate();
  auto fail = [](const char* m) { throw std::invalid_argument(m); };
  if (cfg.n > topo::kMaxDims) fail("uniform-mesh model: n out of range");
  if (cfg.hot_fraction != 0.0) fail("uniform-mesh model has no hot-spot traffic (h == 0)");
  if (cfg.arrival_idc != 1.0) fail("uniform-mesh model assumes Bernoulli arrivals");
}

double MeshUniformModel::channel_rate(int i) const noexcept {
  return topo::mesh_channel_rate(cfg_.injection_rate, cfg_.k, cfg_.n, i);
}

ModelResult MeshUniformModel::solve(
    const std::vector<double>* warm_start,
    std::vector<double>* converged_state) const {
  const int k = cfg_.k;
  const int n = cfg_.n;
  const double lm = static_cast<double>(cfg_.message_length);
  const Lay lay(k, n);

  ModelResult res;
  res.regular_latency = res.latency;  // all traffic is regular
  if (converged_state != nullptr) converged_state->clear();

  const ChannelClassSystem sys = build_system(cfg_);
  engine::SolvePolicy policy;
  policy.options = cfg_.solver;
  std::vector<double> state;
  const FixedPointResult fp = sys.solve(state, policy, warm_start);
  res.iterations = fp.iterations;
  res.converged = fp.converged;
  if (!fp.converged) return res;  // saturated (diverged or no steady state)

  // First-correcting-dimension path probabilities are exact: dimensions
  // 0..j-1 match with probability k^-j, dimension j differs with (k-1)/k,
  // renormalised by the dst != src conditioning.
  const double p_self = std::pow(static_cast<double>(k), -n);
  std::vector<double> entrance(static_cast<std::size_t>(n), 0.0);
  std::vector<double> p_first(static_cast<std::size_t>(n), 0.0);
  double s_net = 0.0;
  for (int j = 0; j < n; ++j) {
    double e = 0.0;
    for (int i = 0; i < k - 1; ++i) {
      e += topo::mesh_entrance_weight(k, i) *
           state[static_cast<std::size_t>(lay.slot(j, i))];
    }
    entrance[static_cast<std::size_t>(j)] = e;
    p_first[static_cast<std::size_t>(j)] =
        std::pow(1.0 / static_cast<double>(k), j) *
        (static_cast<double>(k - 1) / static_cast<double>(k)) / (1.0 - p_self);
    s_net += p_first[static_cast<std::size_t>(j)] * e;
  }
  res.regular_network_latency = s_net;

  const double arr = cfg_.injection_rate / static_cast<double>(cfg_.vcs);
  const QueueDelay ws = mg1_wait(arr, s_net, lm);
  if (ws.saturated) return res;
  res.source_wait_regular = ws.value;

  // Entrance-weighted VC multiplexing per first dimension (eqs 33-35 per
  // class), on the configured occupancy basis.
  double latency = 0.0;
  for (int j = 0; j < n; ++j) {
    double vbar = 0.0;
    for (int i = 0; i < k - 1; ++i) {
      const double service =
          cfg_.vcmux_basis == ServiceBasis::kTransmission
              ? holding_time(cfg_, j, i)
              : state[static_cast<std::size_t>(lay.slot(j, i))];
      vbar += topo::mesh_entrance_weight(k, i) *
              vc_multiplexing_degree(channel_rate(i), service, cfg_.vcs);
    }
    if (j == 0) res.vc_mux_x = vbar;
    if (j == n - 1) res.vc_mux_hot_y = res.vc_mux_nonhot_y = vbar;
    latency += p_first[static_cast<std::size_t>(j)] *
               (entrance[static_cast<std::size_t>(j)] + ws.value) * vbar;
  }
  res.latency = latency;
  res.regular_latency = latency;

  double util = 0.0;
  for (int d = 0; d < n; ++d) {
    for (int i = 0; i < k - 1; ++i) {
      util = std::max(util, channel_rate(i) *
                                state[static_cast<std::size_t>(lay.slot(d, i))]);
    }
  }
  res.max_channel_utilization = std::min(1.0, util);
  res.saturated = false;
  if (converged_state != nullptr) *converged_state = std::move(state);
  return res;
}

double MeshUniformModel::zero_load_latency() const {
  return topo::mesh_mean_hops_uniform(cfg_.k, cfg_.n) +
         static_cast<double>(cfg_.message_length) - 1.0;
}

double MeshUniformModel::estimated_saturation_rate() const {
  // Bandwidth pole of the most loaded class: the dimension-0 centre link,
  // whose M/G/1 wait diverges when rate * tx -> 1.
  const double coef = topo::mesh_bottleneck_rate(1.0, cfg_.k, cfg_.n);
  return 1.0 / (coef * holding_time(cfg_, 0, (cfg_.k - 2) / 2));
}

}  // namespace kncube::model
