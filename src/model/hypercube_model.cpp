#include "model/hypercube_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "model/engine/channel_class.hpp"
#include "model/engine/mg1.hpp"
#include "model/engine/solve_point.hpp"
#include "model/engine/vcmux.hpp"
#include "util/assert.hpp"

namespace kncube::model {

namespace {

using engine::BlockingSpec;
using engine::ChannelClass;
using engine::ChannelClassSystem;
using engine::StateExpr;
using engine::StreamSpec;

double pow2(int e) { return std::ldexp(1.0, e); }

/// State layout: S^r_d at [d], S^h_d at [n + d], d = 0..n-1.
struct Lay {
  int n;
  int total() const { return 2 * n; }
  int r(int d) const { return d; }
  int h(int d) const { return n + d; }
};

/// Declarative description of the hot-spot hypercube over the shared
/// engine: per-dimension regular/hot channel classes whose continuations are
/// the e-cube next-dimension mixture, with funnel/plain blocking mixtures.
class Builder {
 public:
  explicit Builder(const ModelConfig& cfg)
      : cfg_(cfg), lay_{cfg.n}, lm_(static_cast<double>(cfg.message_length)) {
    const int n = cfg_.n;
    lambda_r_ = cfg.injection_rate * (1.0 - cfg.hot_fraction) * pow2(n - 1) /
                (pow2(n) - 1.0);
    hot_rate_.resize(static_cast<std::size_t>(n));
    funnel_fraction_.resize(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      hot_rate_[static_cast<std::size_t>(d)] =
          cfg.injection_rate * cfg.hot_fraction * pow2(d);
      // Funnel channels at dim d: 2^{n-d-1} of the 2^n dim-d channels.
      funnel_fraction_[static_cast<std::size_t>(d)] = pow2(-(d + 1));
    }
  }

  double hot_rate(int d) const { return hot_rate_[static_cast<std::size_t>(d)]; }

  /// Contention-free holding time of a dim-d channel: Lm flits plus the
  /// header's expected remaining hops (each higher dimension differs with
  /// probability 1/2) — identical for hot and regular streams.
  double tx(int d) const {
    return lm_ + static_cast<double>(cfg_.n - 1 - d) / 2.0;
  }

  /// P(next corrected dimension is d' | currently at dim d); delivery
  /// otherwise.
  double next_dim_probability(int d, int dp) const {
    KNC_DEBUG_ASSERT(dp > d);
    return pow2(-(dp - d));
  }
  double delivery_probability(int d) const { return pow2(-(cfg_.n - 1 - d)); }

  StreamSpec reg_stream(int d) const {
    return {lambda_r_, StateExpr::slot(lay_.r(d)), tx(d)};
  }
  StreamSpec hot_stream(int d) const {
    return {hot_rate(d), StateExpr::slot(lay_.h(d)), tx(d)};
  }

  ChannelClassSystem build() const {
    const int n = cfg_.n;

    engine::EngineOptions opts;
    opts.service_floor = lm_;
    opts.blocking = BlockingVariant::kPaper;
    opts.busy_basis = cfg_.busy_basis;
    ChannelClassSystem sys(lay_.total(), opts);

    // Zero-load service times S_d = 1 + sum P S_d' + P0 (Lm-1), solved
    // backwards; hot and regular share the geometry at zero load.
    std::vector<double> s0(static_cast<std::size_t>(n));
    for (int d = n - 1; d >= 0; --d) {
      double acc = 1.0 + delivery_probability(d) * (lm_ - 1.0);
      for (int dp = d + 1; dp < n; ++dp) {
        acc += next_dim_probability(d, dp) * s0[static_cast<std::size_t>(dp)];
      }
      s0[static_cast<std::size_t>(d)] = acc;
    }

    // Dimensions close from the top down (the e-cube continuation reads
    // higher dimensions), so the sweep evaluates d = n-1 .. 0.
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(lay_.total()));

    for (int d = n - 1; d >= 0; --d) {
      const double f = funnel_fraction_[static_cast<std::size_t>(d)];
      // Blocking seen by a regular message at a random dim-d channel: the
      // funnel fraction of them also carries the hot stream.
      const int b_reg = sys.add_blocking(
          {{{f, reg_stream(d), hot_stream(d)}, {1.0 - f, reg_stream(d), {}}}, 1.0});
      // Hot messages always ride funnel channels.
      const int b_hot = sys.add_blocking({{{1.0, reg_stream(d), hot_stream(d)}}, 1.0});

      const double cont0 = delivery_probability(d) * (lm_ - 1.0);
      std::vector<std::pair<int, double>> terms_r;
      std::vector<std::pair<int, double>> terms_h;
      terms_r.reserve(static_cast<std::size_t>(n - 1 - d));
      terms_h.reserve(static_cast<std::size_t>(n - 1 - d));
      for (int dp = d + 1; dp < n; ++dp) {
        const double p = next_dim_probability(d, dp);
        terms_r.emplace_back(lay_.r(dp), p);
        terms_h.emplace_back(lay_.h(dp), p);
      }
      StateExpr cont_r = StateExpr::weighted(cont0, 1.0, std::move(terms_r));
      StateExpr cont_h = StateExpr::weighted(cont0, 1.0, std::move(terms_h));

      ChannelClass reg;
      reg.name = "r";
      reg.blocking = b_reg;
      reg.initial = s0[static_cast<std::size_t>(d)];
      reg.output_continuation = std::move(cont_r);
      sys.set_class(lay_.r(d), std::move(reg));
      order.push_back(lay_.r(d));

      ChannelClass hot;
      hot.name = "h";
      hot.blocking = b_hot;
      hot.initial = s0[static_cast<std::size_t>(d)];
      hot.output_continuation = std::move(cont_h);
      sys.set_class(lay_.h(d), std::move(hot));
      order.push_back(lay_.h(d));
    }
    sys.set_eval_order(std::move(order));
    return sys;
  }

  bool assemble(const std::vector<double>& s, ModelResult& res) const {
    const int n = cfg_.n;
    const double h = cfg_.hot_fraction;
    const int vcs = cfg_.vcs;
    const double n_nodes = pow2(n);

    // Entry distribution over the first corrected dimension.
    std::vector<double> p_first(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      p_first[static_cast<std::size_t>(d)] = pow2(n - 1 - d) / (n_nodes - 1.0);
    }

    double sr_net = 0.0;
    double sh_net = 0.0;
    for (int d = 0; d < n; ++d) {
      sr_net +=
          p_first[static_cast<std::size_t>(d)] * s[static_cast<std::size_t>(lay_.r(d))];
      sh_net +=
          p_first[static_cast<std::size_t>(d)] * s[static_cast<std::size_t>(lay_.h(d))];
    }

    // Source queue: per-VC M/G/1 with the node-averaged network latency.
    const double arr = cfg_.injection_rate / static_cast<double>(vcs);
    const QueueDelay ws = mg1_wait(arr, (1.0 - h) * sr_net + h * sh_net, lm_);
    if (ws.saturated) return false;
    res.source_wait_regular = ws.value;

    // VC multiplexing per dimension, funnel and plain channel classes.
    const bool mux_incl = cfg_.vcmux_basis == ServiceBasis::kInclusive;
    double sr_total = 0.0;
    double sh_total = 0.0;
    double max_util = 0.0;
    const bool busy_incl = cfg_.busy_basis == ServiceBasis::kInclusive;
    for (int d = 0; d < n; ++d) {
      const double rate_h = hot_rate(d);
      const Stream reg{lambda_r_, s[static_cast<std::size_t>(lay_.r(d))], tx(d)};
      const Stream hot{rate_h, s[static_cast<std::size_t>(lay_.h(d))], tx(d)};
      const double s_r = mux_incl ? s[static_cast<std::size_t>(lay_.r(d))] : tx(d);
      const double s_h = mux_incl ? s[static_cast<std::size_t>(lay_.h(d))] : tx(d);

      const double rate_f = lambda_r_ + rate_h;
      const double sbar_f = (lambda_r_ * s_r + rate_h * s_h) / rate_f;
      const double v_funnel = vc_multiplexing_degree(rate_f, sbar_f, vcs);
      const double v_plain = vc_multiplexing_degree(lambda_r_, s_r, vcs);
      const double f = funnel_fraction_[static_cast<std::size_t>(d)];
      const double v_reg = f * v_funnel + (1.0 - f) * v_plain;

      sr_total += p_first[static_cast<std::size_t>(d)] *
                  (s[static_cast<std::size_t>(lay_.r(d))] + ws.value) * v_reg;
      sh_total += p_first[static_cast<std::size_t>(d)] *
                  (s[static_cast<std::size_t>(lay_.h(d))] + ws.value) * v_funnel;
      max_util = std::max(max_util, busy_probability(reg, hot, busy_incl));
      if (d == n - 1) res.vc_mux_hot_y = v_funnel;
    }
    res.regular_latency = sr_total;
    res.hot_latency = sh_total;
    res.latency = (1.0 - h) * sr_total + h * sh_total;
    res.max_channel_utilization = max_util;
    return true;
  }

 private:
  const ModelConfig& cfg_;
  Lay lay_;
  double lm_;
  double lambda_r_ = 0.0;
  std::vector<double> hot_rate_;
  std::vector<double> funnel_fraction_;
};

}  // namespace

HypercubeHotspotModel::HypercubeHotspotModel(const ModelConfig& cfg)
    : cfg_(cfg) {
  cfg.validate();
  auto fail = [](const char* m) { throw std::invalid_argument(m); };
  if (cfg.k != 2) fail("hypercube model is the k = 2 n-cube");
  if (cfg.n > 24) fail("hypercube model: dims out of range");
  if (cfg.blocking != BlockingVariant::kPaper) {
    fail("hypercube model has no blocking-form ablation variant");
  }
  if (cfg.arrival_idc != 1.0) fail("hypercube model assumes Bernoulli arrivals");
}

double HypercubeHotspotModel::regular_channel_rate() const {
  const int n = cfg_.n;
  return cfg_.injection_rate * (1.0 - cfg_.hot_fraction) * pow2(n - 1) /
         (pow2(n) - 1.0);
}

double HypercubeHotspotModel::hot_funnel_rate(int d) const {
  KNC_ASSERT(d >= 0 && d < cfg_.n);
  return cfg_.injection_rate * cfg_.hot_fraction * pow2(d);
}

double HypercubeHotspotModel::first_dim_probability(int d) const {
  KNC_ASSERT(d >= 0 && d < cfg_.n);
  return pow2(cfg_.n - 1 - d) / (pow2(cfg_.n) - 1.0);
}

ModelResult HypercubeHotspotModel::solve(
    const std::vector<double>* warm_start,
    std::vector<double>* converged_state) const {
  const Builder builder(cfg_);
  return engine::solve_point(
      builder.build(), /*retry_stubborn=*/true,
      [&](const std::vector<double>& s, ModelResult& res) {
        return builder.assemble(s, res);
      },
      warm_start, converged_state);
}

double HypercubeHotspotModel::zero_load_latency() const {
  // Mean e-cube hops over a uniform non-equal pair: n 2^{n-1} / (2^n - 1).
  const int n = cfg_.n;
  const double hops = static_cast<double>(n) * pow2(n - 1) / (pow2(n) - 1.0);
  return hops + static_cast<double>(cfg_.message_length) - 1.0;
}

double HypercubeHotspotModel::estimated_saturation_rate() const {
  const int n = cfg_.n;
  const double coeff = cfg_.hot_fraction * pow2(n - 1) +
                       (1.0 - cfg_.hot_fraction) * 0.5;
  return 1.0 / (coeff * (static_cast<double>(cfg_.message_length) + 1.0));
}

}  // namespace kncube::model
