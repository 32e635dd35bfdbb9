#include "model/mesh_hotspot_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "model/engine/mg1.hpp"
#include "model/engine/solve_point.hpp"
#include "model/engine/vcmux.hpp"
#include "model/mesh_common.hpp"
#include "topology/mesh_geometry.hpp"
#include "topology/torus.hpp"  // topo::kMaxDims

namespace kncube::model {

namespace {

using engine::ChannelClass;
using engine::ChannelClassSystem;
using engine::StateExpr;
using engine::StreamSpec;
using mesh::add_scaled;
using mesh::Lin;

/// Mean line distance to the centre coordinate c = k/2 from a uniform
/// source coordinate — the hot analogue of mesh_mean_line_hops.
double mean_hot_line_hops(int k) {
  const int c = k / 2;
  int sum = 0;
  for (int x = 0; x < k; ++x) sum += std::abs(x - c);
  return static_cast<double>(sum) / static_cast<double>(k);
}

// Slot layout. Hot chains first, dimensions high-to-low (the funnel before
// the lines feeding it), +chain positions descending and -chain positions
// ascending, so every hot continuation — the next link toward the centre,
// or E_h(d+1) over the next dimension's chains — references an earlier
// slot. The regular classes follow in the uniform-mesh layout, offset past
// the hot block; they reference only regular slots, so the engine's default
// slot-order evaluation is a valid Gauss-Seidel order for the whole system.
struct Lay {
  int k, n, c, ns, np, nm;
  Lay(int k_, int n_)
      : k(k_), n(n_), c(k_ / 2), ns(k_ - 1), np(k_ / 2), nm(k_ - 1 - k_ / 2) {}
  int hot_base(int d) const { return (n - 1 - d) * (np + nm); }
  /// + link p -> p+1, p = 0..c-1 (hot flows up toward c).
  int sp(int d, int p) const { return hot_base(d) + (c - 1 - p); }
  /// - link x -> x-1, x = c+1..k-1 (hot flows down toward c).
  int sm(int d, int x) const { return hot_base(d) + np + (x - (c + 1)); }
  int reg_base() const { return n * (np + nm); }
  mesh::RegularSlots reg_slots() const { return {reg_base(), k, n}; }
  int reg(int d, int i) const { return reg_slots()(d, i); }
  int total() const { return reg_base() + n * ns; }
};

/// Builder: shared geometry, rates and holding times for build + assembly.
struct Geo {
  const ModelConfig& cfg;
  Lay lay;
  double lm, h, md_hot;

  explicit Geo(const ModelConfig& c)
      : cfg(c),
        lay(c.k, c.n),
        lm(static_cast<double>(c.message_length)),
        h(c.hot_fraction),
        md_hot(mean_hot_line_hops(c.k)) {}

  /// Fraction of dimension-d lines that are hot lines: k^-d.
  double q(int d) const {
    return std::pow(1.0 / static_cast<double>(lay.k), d);
  }
  /// Sources funnelled per hot-line position of dimension d: k^d (every
  /// combination of the already-corrected coordinates), each offering
  /// h*lambda toward the centre.
  double funnel(int d) const {
    return std::pow(static_cast<double>(lay.k), d) * h * cfg.injection_rate;
  }
  double sp_rate(int d, int p) const {
    return static_cast<double>(p + 1) * funnel(d);
  }
  double sm_rate(int d, int x) const {
    return static_cast<double>(lay.k - x) * funnel(d);
  }
  double reg_rate(int i) const {
    return topo::mesh_channel_rate((1.0 - h) * cfg.injection_rate, lay.k,
                                   lay.n, i);
  }

  /// Contention-free holding times: Lm plus the mean hops remaining after
  /// the link is crossed. Hot messages have c - (p+1) (or x-1 - c) hops left
  /// in the line and the mean centre distance in every later dimension.
  double tx_sp(int d, int p) const {
    return lm + static_cast<double>(lay.c - 1 - p) +
           static_cast<double>(lay.n - 1 - d) * md_hot;
  }
  double tx_sm(int d, int x) const {
    return lm + static_cast<double>(x - 1 - lay.c) +
           static_cast<double>(lay.n - 1 - d) * md_hot;
  }
  double tx_reg(int d, int i) const { return mesh::regular_holding_time(cfg, d, i); }

  StreamSpec reg_stream(int d, int i) const {
    return {reg_rate(i), StateExpr::slot(lay.reg(d, i)), tx_reg(d, i)};
  }
  StreamSpec sp_stream(int d, int p) const {
    return {sp_rate(d, p), StateExpr::slot(lay.sp(d, p)), tx_sp(d, p)};
  }
  StreamSpec sm_stream(int d, int x) const {
    return {sm_rate(d, x), StateExpr::slot(lay.sm(d, x)), tx_sm(d, x)};
  }
  /// Hot stream on the + instance of folded regular position i (empty when
  /// the link is past the centre and carries no +chain traffic).
  StreamSpec hot_on_plus(int d, int i) const {
    if (i >= lay.c) return {};
    return sp_stream(d, i);
  }
  /// Hot stream on the - instance: the fold maps + position i onto the
  /// - link from k-1-i down to k-2-i, in the -chain when k-1-i > c.
  StreamSpec hot_on_minus(int d, int i) const {
    const int x = lay.k - 1 - i;
    if (x <= lay.c) return {};
    return sm_stream(d, x);
  }
};

/// Builds the 2n(k-1)-class system (DESIGN.md §13): hot chains
///
///   Sp_d(p) = Bh + 1 + (p = c-1 ? E_h(d+1) : Sp_d(p+1))
///   Sm_d(x) = Bh + 1 + (x = c+1 ? E_h(d+1) : Sm_d(x-1))
///   E_h(d)  = 1/k [ E_h(d+1) + sum_p Sp_d(p) + sum_x Sm_d(x) ],
///   E_h(n)  = Lm - 1
///
/// plus the uniform-mesh regular recursion with the hot-line blocking
/// mixture. `eh_out` receives the E_h(0) expression for the assembly.
ChannelClassSystem build_system(const Geo& geo, Lin& eh_out) {
  const ModelConfig& cfg = geo.cfg;
  const Lay& lay = geo.lay;
  const int k = lay.k;
  const int n = lay.n;
  const int c = lay.c;
  const double lm = geo.lm;

  engine::EngineOptions opts;
  opts.service_floor = lm;
  opts.blocking = cfg.blocking;
  opts.busy_basis = cfg.busy_basis;
  ChannelClassSystem sys(lay.total(), opts);

  // --- hot chains, funnel dimension first -------------------------------
  std::vector<Lin> eh(static_cast<std::size_t>(n) + 1);
  std::vector<double> eh0(static_cast<std::size_t>(n) + 1, lm - 1.0);
  eh[static_cast<std::size_t>(n)].c = lm - 1.0;
  std::vector<double> hot0(static_cast<std::size_t>(lay.reg_base()), 0.0);

  for (int d = n - 1; d >= 0; --d) {
    const Lin& cont = eh[static_cast<std::size_t>(d + 1)];
    const double cont0 = eh0[static_cast<std::size_t>(d + 1)];
    for (int p = c - 1; p >= 0; --p) {
      ChannelClass cls;
      cls.name = "hot+";
      cls.blocking =
          sys.add_blocking({{{1.0, geo.reg_stream(d, p), geo.sp_stream(d, p)}},
                            1.0});
      double init;
      if (p == c - 1) {
        cls.output_continuation =
            StateExpr::weighted(cont.c, 1.0, {cont.terms});
        init = 1.0 + cont0;
      } else {
        cls.output_continuation = StateExpr::slot(lay.sp(d, p + 1));
        init = 1.0 + hot0[static_cast<std::size_t>(lay.sp(d, p + 1))];
      }
      hot0[static_cast<std::size_t>(lay.sp(d, p))] = init;
      cls.initial = init;
      sys.set_class(lay.sp(d, p), std::move(cls));
    }
    for (int x = c + 1; x < k; ++x) {
      const int i = k - 1 - x;  // folded regular position of the - link
      ChannelClass cls;
      cls.name = "hot-";
      cls.blocking =
          sys.add_blocking({{{1.0, geo.reg_stream(d, i), geo.sm_stream(d, x)}},
                            1.0});
      double init;
      if (x == c + 1) {
        cls.output_continuation =
            StateExpr::weighted(cont.c, 1.0, {cont.terms});
        init = 1.0 + cont0;
      } else {
        cls.output_continuation = StateExpr::slot(lay.sm(d, x - 1));
        init = 1.0 + hot0[static_cast<std::size_t>(lay.sm(d, x - 1))];
      }
      hot0[static_cast<std::size_t>(lay.sm(d, x))] = init;
      cls.initial = init;
      sys.set_class(lay.sm(d, x), std::move(cls));
    }
    // Close E_h(d): a hot message enters dimension d at a uniform source
    // coordinate — already centred with probability 1/k, else it starts the
    // chain at its entry link.
    Lin& ed = eh[static_cast<std::size_t>(d)];
    const double inv_k = 1.0 / static_cast<double>(k);
    add_scaled(ed, cont, inv_k);
    double acc0 = cont0;
    for (int p = 0; p < c; ++p) {
      ed.terms.emplace_back(lay.sp(d, p), inv_k);
      acc0 += hot0[static_cast<std::size_t>(lay.sp(d, p))];
    }
    for (int x = c + 1; x < k; ++x) {
      ed.terms.emplace_back(lay.sm(d, x), inv_k);
      acc0 += hot0[static_cast<std::size_t>(lay.sm(d, x))];
    }
    eh0[static_cast<std::size_t>(d)] = acc0 * inv_k;
  }

  // --- regular classes: uniform-mesh recursion, hot-line blocking mix ----
  mesh::add_regular_classes(sys, cfg, lay.reg_slots(), [&](int d, int i) {
    // Blocking mixture over the folded link pair's line type: plain with
    // probability 1-q_d, else the + or - instance of a hot line (equally
    // likely under the fold).
    const double qd = geo.q(d);
    engine::BlockingSpec spec;
    spec.divisor = 1.0;
    if (qd < 1.0) {
      spec.terms.push_back({1.0 - qd, geo.reg_stream(d, i), {}});
    }
    spec.terms.push_back({qd / 2.0, geo.reg_stream(d, i), geo.hot_on_plus(d, i)});
    spec.terms.push_back({qd / 2.0, geo.reg_stream(d, i), geo.hot_on_minus(d, i)});
    return spec;
  });

  eh_out = std::move(eh[0]);
  return sys;
}

/// Final assembly from the converged state: the regular path as in the
/// uniform mesh, the hot path through E_h(0) (`eh`), a shared per-VC source
/// queue and per-path multiplexing.
bool assemble(const Geo& geo, const Lin& eh, const std::vector<double>& state,
              ModelResult& res) {
  const ModelConfig& cfg = geo.cfg;
  const Lay& lay = geo.lay;
  const int k = lay.k;
  const int n = lay.n;
  const double lm = geo.lm;
  const double h = geo.h;

  // --- regular network latency: the uniform-mesh assembly over the
  // regular slots.
  const mesh::RegularPaths paths = mesh::regular_paths(cfg, lay.reg_slots(), state);
  res.regular_network_latency = paths.s_net;

  // Hot network latency: E_h(0) evaluated on the converged state.
  double eh_net = eh.c;
  for (const auto& [slot, weight] : eh.terms) {
    eh_net += weight * state[static_cast<std::size_t>(slot)];
  }

  // --- source wait: per-VC M/G/1 over the h-mixed network service.
  const double arr = cfg.injection_rate / static_cast<double>(cfg.vcs);
  const double s_mix = (1.0 - h) * paths.s_net + h * eh_net;
  const QueueDelay ws = mg1_wait(arr, s_mix, lm);
  if (ws.saturated) return false;
  res.source_wait_regular = ws.value;

  // --- VC multiplexing: entrance-weighted per dimension for the regular
  // path (folded-pair mean rate includes the hot share of the line mix) and
  // entry-weighted over the funnel dimension's chains for the hot path.
  const auto mux_service_reg = [&](int d, int i) {
    return cfg.vcmux_basis == ServiceBasis::kTransmission
               ? geo.tx_reg(d, i)
               : state[static_cast<std::size_t>(lay.reg(d, i))];
  };
  double latency_reg = 0.0;
  double vbar_first = 1.0;
  double vbar_last = 1.0;
  for (int j = 0; j < n; ++j) {
    const double qd = geo.q(j);
    double vbar = 0.0;
    for (int i = 0; i < k - 1; ++i) {
      const double hot_pair =
          qd * 0.5 * (geo.hot_on_plus(j, i).rate + geo.hot_on_minus(j, i).rate);
      vbar += topo::mesh_entrance_weight(k, i) *
              vc_multiplexing_degree(geo.reg_rate(i) + hot_pair,
                                     mux_service_reg(j, i), cfg.vcs);
    }
    if (j == 0) vbar_first = vbar;
    if (j == n - 1) vbar_last = vbar;
    latency_reg += paths.p_first[static_cast<std::size_t>(j)] *
                   (paths.entrance[static_cast<std::size_t>(j)] + ws.value) * vbar;
  }
  res.vc_mux_x = vbar_first;
  res.vc_mux_nonhot_y = vbar_last;

  // Funnel-dimension hot multiplexing, entry-coordinate weighted.
  const int fd = n - 1;
  double vbar_hot = 0.0;
  for (int x = 0; x < k; ++x) {
    double rate = 0.0;
    double service = lm;
    if (x < lay.c) {
      rate = geo.sp_rate(fd, x) + geo.reg_rate(x);
      service = cfg.vcmux_basis == ServiceBasis::kTransmission
                    ? geo.tx_sp(fd, x)
                    : state[static_cast<std::size_t>(lay.sp(fd, x))];
    } else if (x > lay.c) {
      rate = geo.sm_rate(fd, x) + geo.reg_rate(k - 1 - x);
      service = cfg.vcmux_basis == ServiceBasis::kTransmission
                    ? geo.tx_sm(fd, x)
                    : state[static_cast<std::size_t>(lay.sm(fd, x))];
    }
    vbar_hot += vc_multiplexing_degree(rate, service, cfg.vcs) /
                static_cast<double>(k);
  }
  res.vc_mux_hot_y = vbar_hot;

  const double latency_hot = (eh_net + ws.value) * vbar_hot;
  res.regular_latency = latency_reg;
  res.hot_latency = latency_hot;
  res.latency = (1.0 - h) * latency_reg + h * latency_hot;

  // --- utilisation: regular classes at the regular rate, hot chains at the
  // full (regular + hot) link rate.
  double util = 0.0;
  for (int d = 0; d < n; ++d) {
    for (int i = 0; i < k - 1; ++i) {
      util = std::max(util, geo.reg_rate(i) *
                                state[static_cast<std::size_t>(lay.reg(d, i))]);
    }
    for (int p = 0; p < lay.c; ++p) {
      util = std::max(util, (geo.sp_rate(d, p) + geo.reg_rate(p)) *
                                state[static_cast<std::size_t>(lay.sp(d, p))]);
    }
    for (int x = lay.c + 1; x < k; ++x) {
      util = std::max(util,
                      (geo.sm_rate(d, x) + geo.reg_rate(k - 1 - x)) *
                          state[static_cast<std::size_t>(lay.sm(d, x))]);
    }
  }
  res.max_channel_utilization = std::min(1.0, util);
  return true;
}

}  // namespace

MeshHotspotModel::MeshHotspotModel(const ModelConfig& cfg)
    : cfg_(cfg) {
  cfg.validate();
  auto fail = [](const char* m) { throw std::invalid_argument(m); };
  if (cfg.n > topo::kMaxDims) fail("hotspot-mesh model: n out of range");
  if (cfg.arrival_idc != 1.0) fail("hotspot-mesh model assumes Bernoulli arrivals");
}

ModelResult MeshHotspotModel::solve(
    const std::vector<double>* warm_start,
    std::vector<double>* converged_state) const {
  const Geo geo(cfg_);
  Lin eh;
  const ChannelClassSystem sys = build_system(geo, eh);
  return engine::solve_point(
      sys, /*retry_stubborn=*/true,
      [&](const std::vector<double>& s, ModelResult& res) {
        return assemble(geo, eh, s, res);
      },
      warm_start, converged_state);
}

double MeshHotspotModel::zero_load_latency() const {
  const double reg = topo::mesh_mean_hops_uniform(cfg_.k, cfg_.n) +
                     static_cast<double>(cfg_.message_length) - 1.0;
  const double hot = static_cast<double>(cfg_.n) * mean_hot_line_hops(cfg_.k) +
                     static_cast<double>(cfg_.message_length) - 1.0;
  return (1.0 - cfg_.hot_fraction) * reg + cfg_.hot_fraction * hot;
}

double MeshHotspotModel::estimated_saturation_rate() const {
  const Geo geo(cfg_);
  const Lay& lay = geo.lay;
  // Regular pole: the dimension-0 bisection link at the uniform component.
  const double coef_reg =
      topo::mesh_bottleneck_rate(1.0, cfg_.k, cfg_.n) * (1.0 - cfg_.hot_fraction);
  const double sat_reg =
      1.0 / (coef_reg * geo.tx_reg(0, (cfg_.k - 2) / 2));
  if (cfg_.hot_fraction <= 0.0) return sat_reg;
  // Funnel pole: the last + link into the centre of the funnel dimension
  // carries c * k^{n-1} hot sources plus the line's regular share.
  const int fd = cfg_.n - 1;
  const double coef_funnel =
      static_cast<double>(lay.c) *
          std::pow(static_cast<double>(cfg_.k), fd) * cfg_.hot_fraction +
      topo::mesh_channel_rate(1.0 - cfg_.hot_fraction, cfg_.k, cfg_.n,
                              lay.c - 1);
  const double sat_funnel = 1.0 / (coef_funnel * geo.tx_sp(fd, lay.c - 1));
  return std::min(sat_reg, sat_funnel);
}

}  // namespace kncube::model
