#include "model/hotspot_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "model/engine/channel_class.hpp"
#include "model/engine/mg1.hpp"
#include "model/engine/solve_point.hpp"
#include "model/engine/vcmux.hpp"
#include "model/path_probabilities.hpp"

namespace kncube::model {

namespace {

using engine::BlockingSpec;
using engine::ChannelClass;
using engine::ChannelClassSystem;
using engine::StateExpr;
using engine::StreamSpec;

/// State-vector layout. Positions j run 1..k-1 (a message has at most k-1
/// hops left inside a ring); array slot j-1 holds position j. The five
/// regular classes and S^h_y are (k-1)-vectors; S^h_x is (k-1) x k
/// (j = hops to the hot column, t = x-ring's distance from the hot node,
/// t == k being the hot node's own row).
struct Layout {
  int k;
  int ns;  ///< k-1
  int ybar, yhot, x, xhy, xyb, shy, shx, total;

  explicit Layout(int radix) : k(radix), ns(radix - 1) {
    ybar = 0;
    yhot = ns;
    x = 2 * ns;
    xhy = 3 * ns;
    xyb = 4 * ns;
    shy = 5 * ns;
    shx = 6 * ns;
    total = 6 * ns + ns * k;
  }
  int at(int base, int j) const {  // j in [1, k-1]
    return base + j - 1;
  }
  int at_shx(int j, int t) const {  // j in [1, k-1], t in [1, k]
    return shx + (t - 1) * ns + (j - 1);
  }
};

/// Entrance service times: the class averages over the uniform remaining
/// distance 1..k-1 — used both as "network latency at the entrance" and as
/// the (inclusive) service time of competing traffic of that class.
struct Entrances {
  double ybar, yhot, x, xhy, xyb;
};

/// Declarative description of the hot-spot torus over the shared engine:
/// holds the geometry (layout, holding times), builds the channel-class
/// system whose fixed point is eqs (16)-(30), and assembles the final
/// latencies (eqs 10-15, 21-24, 31-37) from the converged state.
class Builder {
 public:
  Builder(const ModelConfig& cfg, const TrafficRates& rates)
      : cfg_(cfg),
        rates_(rates),
        probs_(path_probabilities(cfg.k)),
        lay_(cfg.k),
        lm_(static_cast<double>(cfg.message_length)),
        // Entrance averages are shared by O(k^2) stream specifications;
        // constructed once here, copied by refcount thereafter.
        ent_ybar_(StateExpr::average(lay_.ybar, lay_.ns)),
        ent_yhot_(StateExpr::average(lay_.yhot, lay_.ns)),
        ent_x_(StateExpr::average(lay_.x, lay_.ns)) {}

  // --- contention-free (transmission) holding times, R8 ---
  // A hot message acquiring the hot-y channel j hops from the hot node keeps
  // it for the header's remaining j-1 hops plus the Lm-flit drain.
  double tx_hot_y(int j) const { return lm_ + static_cast<double>(j - 1); }
  double tx_hot_x(int j, int t) const {
    const double y_leg = t == lay_.k ? 0.0 : static_cast<double>(t);
    return lm_ + static_cast<double>(j - 1) + y_leg;
  }
  // Regular traffic, entrance-averaged per channel dimension: mean in-ring
  // distance k/2 past the channel, plus for x channels the expected y leg
  // ((k-1)/k chance of a y excursion of mean k/2).
  double tx_reg_y() const { return lm_ + static_cast<double>(lay_.k) / 2.0 - 1.0; }
  double tx_reg_x() const {
    return tx_reg_y() + static_cast<double>(lay_.k - 1) / 2.0;
  }

  // --- competing streams, inclusive service read at the class entrance ---
  StreamSpec reg_ybar() const {
    return {rates_.regular_rate, ent_ybar_, tx_reg_y()};
  }
  StreamSpec reg_y() const {
    return {rates_.regular_rate, ent_yhot_, tx_reg_y()};
  }
  StreamSpec reg_x() const {
    return {rates_.regular_rate, ent_x_, tx_reg_x()};
  }
  // Hot streams at position l; the channel leaving the hot node / hot column
  // (l == k) carries no hot-spot traffic (rate 0).
  StreamSpec hot_y_stream(int l) const {
    StreamSpec s;
    s.rate = rates_.hot_y[static_cast<std::size_t>(l)];
    if (l < lay_.k) {
      s.inclusive = StateExpr::slot(lay_.at(lay_.shy, l));
      s.tx = tx_hot_y(l);
    }
    return s;
  }
  StreamSpec hot_x_stream(int l, int t) const {
    StreamSpec s;
    s.rate = rates_.hot_x[static_cast<std::size_t>(l)];
    if (l < lay_.k) {
      s.inclusive = StateExpr::slot(lay_.at_shx(l, t));
      s.tx = tx_hot_x(l, t);
    }
    return s;
  }

  /// The channel-class system of eqs (16)-(20), (23), (25).
  ChannelClassSystem build() const {
    const int k = cfg_.k;

    engine::EngineOptions opts;
    opts.service_floor = lm_;
    opts.blocking = cfg_.blocking;
    opts.busy_basis = cfg_.busy_basis;
    opts.arrival_idc = cfg_.arrival_idc;
    ChannelClassSystem sys(lay_.total, opts);

    // --- averaged blocking groups ---
    const int b_ybar = sys.add_blocking({{{1.0, reg_ybar(), {}}}, 1.0});

    BlockingSpec yhot_spec;  // eq (17): average over the k hot-y-ring channels
    for (int l = 1; l <= k; ++l) {
      yhot_spec.terms.push_back({1.0, reg_y(), hot_y_stream(l)});
    }
    yhot_spec.divisor = static_cast<double>(k);
    const int b_yhot = sys.add_blocking(std::move(yhot_spec));

    BlockingSpec x_spec;  // eqs (18-20): average over the k^2 x-channel slots
    for (int t = 1; t <= k; ++t) {
      for (int l = 1; l <= k; ++l) {
        x_spec.terms.push_back({1.0, reg_x(), hot_x_stream(l, t)});
      }
    }
    x_spec.divisor = static_cast<double>(k) * static_cast<double>(k);
    const int b_x = sys.add_blocking(std::move(x_spec));

    // --- regular-class recursions (Gauss-Seidel within each array) ---
    const double last = lm_ - 1.0;
    const double y_ent0 = static_cast<double>(k) / 2.0 + lm_ - 1.0;
    for (int j = 1; j < k; ++j) {
      const double base0 = static_cast<double>(j) + lm_ - 1.0;

      auto chain = [&](const char* name, int base, int blocking, double initial,
                       StateExpr first_hop) {
        ChannelClass c;
        c.name = name;
        c.blocking = blocking;
        c.initial = initial;
        if (j == 1) {
          c.input_continuation = std::move(first_hop);
        } else {
          c.output_continuation = StateExpr::slot(lay_.at(base, j - 1));
        }
        sys.set_class(lay_.at(base, j), std::move(c));
      };
      chain("ybar", lay_.ybar, b_ybar, base0, StateExpr::constant_of(last));
      chain("yhot", lay_.yhot, b_yhot, base0, StateExpr::constant_of(last));
      chain("x", lay_.x, b_x, base0, StateExpr::constant_of(last));
      // x-then-y classes enter the y dimension at its entrance average.
      chain("xhy", lay_.xhy, b_x, static_cast<double>(j) + y_ent0, ent_yhot_);
      chain("xyb", lay_.xyb, b_x, static_cast<double>(j) + y_ent0, ent_ybar_);
    }

    // --- hot-spot messages in the hot y-ring (eq 23) ---
    for (int j = 1; j < k; ++j) {
      ChannelClass c;
      c.name = "shy";
      c.blocking = sys.add_blocking({{{1.0, reg_y(), hot_y_stream(j)}}, 1.0});
      c.initial = static_cast<double>(j) + lm_ - 1.0;
      if (j == 1) {
        c.input_continuation = StateExpr::constant_of(lm_ - 1.0);
      } else {
        c.output_continuation = StateExpr::slot(lay_.at(lay_.shy, j - 1));
      }
      sys.set_class(lay_.at(lay_.shy, j), std::move(c));
    }

    // --- hot-spot messages on x rings (eq 25) ---
    for (int t = 1; t <= k; ++t) {
      const double cont0 = t == k ? lm_ - 1.0 : static_cast<double>(t) + lm_ - 1.0;
      for (int j = 1; j < k; ++j) {
        ChannelClass c;
        c.name = "shx";
        c.blocking = sys.add_blocking({{{1.0, reg_x(), hot_x_stream(j, t)}}, 1.0});
        c.initial = static_cast<double>(j) + cont0;
        if (j > 1) {
          c.output_continuation = StateExpr::slot(lay_.at_shx(j - 1, t));
        } else if (t == k) {
          // The hot node's own row: x ends at the hot node.
          c.input_continuation = StateExpr::constant_of(lm_ - 1.0);
        } else {
          // Enter the hot y-ring, t hops out (shy slots precede shx slots).
          c.output_continuation = StateExpr::slot(lay_.at(lay_.shy, t));
        }
        sys.set_class(lay_.at_shx(j, t), std::move(c));
      }
    }
    return sys;
  }

  Entrances entrances(const std::vector<double>& s) const {
    return Entrances{ent_ybar_.eval(s), ent_yhot_.eval(s), ent_x_.eval(s),
                     StateExpr::average(lay_.xhy, lay_.ns).eval(s),
                     StateExpr::average(lay_.xyb, lay_.ns).eval(s)};
  }

  /// Final assembly (eqs 10-15, 21-24, 31-37) from the converged state.
  bool assemble(const std::vector<double>& s, ModelResult& res) const {
    const int k = cfg_.k;
    const double n_nodes = static_cast<double>(k) * static_cast<double>(k);
    const double lr = rates_.regular_rate;
    const double h = cfg_.hot_fraction;
    const int vcs = cfg_.vcs;
    const Entrances e = entrances(s);

    // Mean regular network latency, eq (31) with exact class probabilities.
    const double sr_net = probs_.x_only * e.x + probs_.x_then_hot_y * e.xhy +
                          probs_.x_then_nonhot_y * e.xyb + probs_.y_only_hot * e.yhot +
                          probs_.y_only_nonhot * e.ybar;
    res.regular_network_latency = sr_net;

    // --- source waits: per-VC M/G/1 queues with arrival lambda/V (eq 32) ---
    const double arr = rates_.lambda / static_cast<double>(vcs);
    const auto source_wait = [&](double service, double& w) {
      const QueueDelay q = mg1_wait(arr, service, lm_, cfg_.arrival_idc);
      if (q.saturated) return false;
      w = q.value;
      return true;
    };

    double ws_sum = 0.0;
    double w_hot_node = 0.0;
    if (!source_wait(sr_net, w_hot_node)) return false;  // the hot node itself
    ws_sum += w_hot_node;

    std::vector<double> ws_shy(static_cast<std::size_t>(k), 0.0);  // j = 1..k-1
    for (int j = 1; j < k; ++j) {
      const double mixed =
          (1.0 - h) * sr_net + h * s[static_cast<std::size_t>(lay_.at(lay_.shy, j))];
      if (!source_wait(mixed, ws_shy[static_cast<std::size_t>(j)])) return false;
      ws_sum += ws_shy[static_cast<std::size_t>(j)];
    }
    std::vector<double> ws_shx(static_cast<std::size_t>(k) * static_cast<std::size_t>(k),
                               0.0);  // (j, t), j = 1..k-1
    for (int t = 1; t <= k; ++t) {
      for (int j = 1; j < k; ++j) {
        const double mixed =
            (1.0 - h) * sr_net + h * s[static_cast<std::size_t>(lay_.at_shx(j, t))];
        double w = 0.0;
        if (!source_wait(mixed, w)) return false;
        ws_shx[static_cast<std::size_t>((t - 1) * k + j)] = w;
        ws_sum += w;
      }
    }
    const double ws_r = ws_sum / n_nodes;
    res.source_wait_regular = ws_r;

    // --- virtual-channel multiplexing degrees (eqs 33-37) ---
    // The occupancy rho uses the configured service basis: inclusive times
    // count a VC as occupying the channel for its whole (blocked) residency;
    // transmission times count only the cycles it actually consumes
    // bandwidth. The latter matches the simulator's observed slowdown and is
    // the default (see R8 / ablation bench).
    const bool mux_incl = cfg_.vcmux_basis == ServiceBasis::kInclusive;
    res.vc_mux_nonhot_y =
        vc_multiplexing_degree(lr, mux_incl ? e.ybar : tx_reg_y(), vcs);

    std::vector<double> v_hy(static_cast<std::size_t>(k) + 1, 1.0);  // j = 1..k
    double v_hy_avg = 0.0;
    for (int j = 1; j <= k; ++j) {
      const double rate_h = rates_.hot_y[static_cast<std::size_t>(j)];
      const double s_h_incl =
          j < k ? s[static_cast<std::size_t>(lay_.at(lay_.shy, j))] : 0.0;
      const double s_h = mux_incl ? s_h_incl : (j < k ? tx_hot_y(j) : 0.0);
      const double s_r = mux_incl ? e.yhot : tx_reg_y();
      const double rate = lr + rate_h;
      const double sbar = rate > 0.0 ? (lr * s_r + rate_h * s_h) / rate : 0.0;
      v_hy[static_cast<std::size_t>(j)] = vc_multiplexing_degree(rate, sbar, vcs);
      v_hy_avg += v_hy[static_cast<std::size_t>(j)];
    }
    v_hy_avg /= static_cast<double>(k);
    res.vc_mux_hot_y = v_hy_avg;

    std::vector<double> v_x(static_cast<std::size_t>(k + 1) * static_cast<std::size_t>(k + 1),
                            1.0);  // (j, t), j,t = 1..k
    double v_x_avg = 0.0;
    for (int t = 1; t <= k; ++t) {
      for (int j = 1; j <= k; ++j) {
        const double rate_h = rates_.hot_x[static_cast<std::size_t>(j)];
        const double s_h_incl =
            j < k ? s[static_cast<std::size_t>(lay_.at_shx(j, t))] : 0.0;
        const double s_h = mux_incl ? s_h_incl : (j < k ? tx_hot_x(j, t) : 0.0);
        const double s_r = mux_incl ? e.x : tx_reg_x();
        const double rate = lr + rate_h;
        const double sbar = rate > 0.0 ? (lr * s_r + rate_h * s_h) / rate : 0.0;
        const double v = vc_multiplexing_degree(rate, sbar, vcs);
        v_x[static_cast<std::size_t>(t * (k + 1) + j)] = v;
        v_x_avg += v;
      }
    }
    v_x_avg /= static_cast<double>(k) * static_cast<double>(k);
    res.vc_mux_x = v_x_avg;

    // --- regular latency, eqs (11)-(15) ---
    const double sr =
        probs_.x_only * (e.x + ws_r) * v_x_avg +
        probs_.x_then_hot_y * (e.xhy + ws_r) * v_x_avg +
        probs_.x_then_nonhot_y * (e.xyb + ws_r) * v_x_avg +
        probs_.y_only_hot * (e.yhot + ws_r) * v_hy_avg +
        probs_.y_only_nonhot * (e.ybar + ws_r) * res.vc_mux_nonhot_y;
    res.regular_latency = sr;

    // --- hot-spot latency, eqs (21)-(24) ---
    double sh = 0.0;
    for (int j = 1; j < k; ++j) {  // hot-column sources (eq 22)
      sh += (s[static_cast<std::size_t>(lay_.at(lay_.shy, j))] +
             ws_shy[static_cast<std::size_t>(j)]) *
            v_hy[static_cast<std::size_t>(j)];
    }
    for (int t = 1; t <= k; ++t) {  // all other sources (eq 24)
      for (int j = 1; j < k; ++j) {
        sh += (s[static_cast<std::size_t>(lay_.at_shx(j, t))] +
               ws_shx[static_cast<std::size_t>((t - 1) * k + j)]) *
              v_x[static_cast<std::size_t>(t * (k + 1) + j)];
      }
    }
    sh /= n_nodes - 1.0;
    res.hot_latency = sh;

    res.latency = (1.0 - h) * sr + h * sh;  // eq (10)

    // --- diagnostic: peak busy probability over channel classes ---
    const bool busy_incl = cfg_.busy_basis == ServiceBasis::kInclusive;
    double max_util = std::min(1.0, lr * (busy_incl ? e.ybar : tx_reg_y()));
    for (int j = 1; j < k; ++j) {
      max_util = std::max(
          max_util,
          busy_probability(
              Stream{lr, e.yhot, tx_reg_y()},
              Stream{rates_.hot_y[static_cast<std::size_t>(j)],
                     s[static_cast<std::size_t>(lay_.at(lay_.shy, j))], tx_hot_y(j)},
              busy_incl));
      for (int t = 1; t <= k; ++t) {
        max_util = std::max(
            max_util,
            busy_probability(
                Stream{lr, e.x, tx_reg_x()},
                Stream{rates_.hot_x[static_cast<std::size_t>(j)],
                       s[static_cast<std::size_t>(lay_.at_shx(j, t))], tx_hot_x(j, t)},
                busy_incl));
      }
    }
    res.max_channel_utilization = max_util;
    return true;
  }

 private:
  const ModelConfig& cfg_;
  const TrafficRates& rates_;
  PathProbabilities probs_;
  Layout lay_;
  double lm_;
  StateExpr ent_ybar_, ent_yhot_, ent_x_;
};

}  // namespace

HotspotModel::HotspotModel(const ModelConfig& cfg) : cfg_(cfg) {
  cfg.validate();  // throws before any derived computation on bad input
  if (cfg.n != 2) throw std::invalid_argument("hot-spot torus model is 2-D (n == 2)");
  rates_ = traffic_rates(cfg.k, cfg.injection_rate, cfg.hot_fraction);
}

ModelResult HotspotModel::solve(const std::vector<double>* warm_start,
                                std::vector<double>* converged_state) const {
  const Builder builder(cfg_, rates_);
  return engine::solve_point(
      builder.build(), /*retry_stubborn=*/true,
      [&](const std::vector<double>& s, ModelResult& res) {
        return builder.assemble(s, res);
      },
      warm_start, converged_state);
}

double HotspotModel::zero_load_latency() const {
  const int k = cfg_.k;
  const double lm = static_cast<double>(cfg_.message_length);
  const double kd = static_cast<double>(k);
  const PathProbabilities p = path_probabilities(k);

  const double one_dim = kd / 2.0 + lm - 1.0;  // mean over 1..k-1 hops
  const double two_dim = kd + lm - 1.0;
  const double sr0 = p.x_only * one_dim + (p.x_then_hot_y + p.x_then_nonhot_y) * two_dim +
                     (p.y_only_hot + p.y_only_nonhot) * one_dim;

  double sh0 = 0.0;
  for (int j = 1; j < k; ++j) sh0 += static_cast<double>(j) + lm - 1.0;
  for (int t = 1; t <= k; ++t) {
    const double cont = t == k ? lm - 1.0 : static_cast<double>(t) + lm - 1.0;
    for (int j = 1; j < k; ++j) sh0 += static_cast<double>(j) + cont;
  }
  sh0 /= kd * kd - 1.0;

  return (1.0 - cfg_.hot_fraction) * sr0 + cfg_.hot_fraction * sh0;
}

double HotspotModel::estimated_saturation_rate() const {
  const double kd = static_cast<double>(cfg_.k);
  const double h = cfg_.hot_fraction;
  const double lm = static_cast<double>(cfg_.message_length);
  // Bottleneck: the hot-y channel adjacent to the hot node carries
  // lambda * ((1-h)(k-1)/2 + h k (k-1)) messages/cycle, each holding the
  // channel for at least ~Lm cycles.
  const double coeff = (1.0 - h) * (kd - 1.0) / 2.0 + h * kd * (kd - 1.0);
  const double service = lm + kd / 2.0;
  return 1.0 / (coeff * service);
}

}  // namespace kncube::model
