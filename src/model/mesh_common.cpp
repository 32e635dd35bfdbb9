#include "model/mesh_common.hpp"

#include <cmath>

#include "topology/mesh_geometry.hpp"

namespace kncube::model::mesh {

using engine::ChannelClass;
using engine::StateExpr;

void add_scaled(Lin& out, const Lin& in, double scale) {
  out.c += scale * in.c;
  for (const auto& [slot, weight] : in.terms) {
    out.terms.emplace_back(slot, scale * weight);
  }
}

double regular_holding_time(const ModelConfig& cfg, int d, int i) {
  const double lm = static_cast<double>(cfg.message_length);
  return lm + static_cast<double>(cfg.k - 2 - i) / 2.0 +
         static_cast<double>(cfg.n - 1 - d) * topo::mesh_mean_line_hops(cfg.k);
}

void add_regular_classes(
    engine::ChannelClassSystem& sys, const ModelConfig& cfg,
    const RegularSlots& slots,
    const std::function<engine::BlockingSpec(int d, int i)>& blocking) {
  const int k = cfg.k;
  const int n = cfg.n;
  const double lm = static_cast<double>(cfg.message_length);

  // G_{j} continuation expressions, built from the last dimension backward
  // (index n holds the destination drain), alongside their zero-load values
  // for the classes' iteration starting points.
  std::vector<Lin> g(static_cast<std::size_t>(n) + 1);
  std::vector<double> g0(static_cast<std::size_t>(n) + 1, lm - 1.0);
  g[static_cast<std::size_t>(n)].c = lm - 1.0;
  std::vector<double> s0(static_cast<std::size_t>(slots.base + slots.count()), 0.0);

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
        cont.terms.emplace_back(slots(d, i + 1), (m - 1.0) / m);
      }

      ChannelClass cls;
      cls.name = "mesh";
      cls.blocking = sys.add_blocking(blocking(d, i));
      // Zero-load value of the recursion above with B = 0 (exact: the
      // branching probabilities are exact path counts).
      double init = 1.0 + cont_g0;
      if (i < k - 2) {
        init = 1.0 + (m - 1.0) / m * s0[static_cast<std::size_t>(slots(d, i + 1))] +
               cont_g0 / m;
      }
      s0[static_cast<std::size_t>(slots(d, i))] = init;
      cls.initial = init;
      cls.output_continuation = StateExpr::weighted(cont.c, 1.0, std::move(cont.terms));
      sys.set_class(slots(d, i), std::move(cls));
    }
    // Close this dimension's entrance average into G_d for the dimensions
    // below it.
    Lin& gd = g[static_cast<std::size_t>(d)];
    add_scaled(gd, g[static_cast<std::size_t>(d + 1)], 1.0 / static_cast<double>(k));
    double enter0 = 0.0;
    for (int i = 0; i < k - 1; ++i) {
      const double w = topo::mesh_entrance_weight(k, i) *
                       (static_cast<double>(k - 1) / static_cast<double>(k));
      gd.terms.emplace_back(slots(d, i), w);
      enter0 += topo::mesh_entrance_weight(k, i) *
                s0[static_cast<std::size_t>(slots(d, i))];
    }
    g0[static_cast<std::size_t>(d)] =
        g0[static_cast<std::size_t>(d + 1)] / static_cast<double>(k) +
        enter0 * (static_cast<double>(k - 1) / static_cast<double>(k));
  }
}

RegularPaths regular_paths(const ModelConfig& cfg, const RegularSlots& slots,
                           const std::vector<double>& state) {
  const int k = cfg.k;
  const int n = cfg.n;
  const double p_self = std::pow(static_cast<double>(k), -n);
  RegularPaths out;
  out.entrance.assign(static_cast<std::size_t>(n), 0.0);
  out.p_first.assign(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j) {
    double e = 0.0;
    for (int i = 0; i < k - 1; ++i) {
      e += topo::mesh_entrance_weight(k, i) *
           state[static_cast<std::size_t>(slots(j, i))];
    }
    out.entrance[static_cast<std::size_t>(j)] = e;
    out.p_first[static_cast<std::size_t>(j)] =
        std::pow(1.0 / static_cast<double>(k), j) *
        (static_cast<double>(k - 1) / static_cast<double>(k)) / (1.0 - p_self);
    out.s_net += out.p_first[static_cast<std::size_t>(j)] * e;
  }
  return out;
}

}  // namespace kncube::model::mesh
