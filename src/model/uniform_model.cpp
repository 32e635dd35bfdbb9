#include "model/uniform_model.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "model/engine/channel_class.hpp"
#include "model/engine/mg1.hpp"
#include "model/engine/solve_point.hpp"
#include "model/engine/vcmux.hpp"

namespace kncube::model {

namespace {

using engine::ChannelClass;
using engine::ChannelClassSystem;
using engine::StateExpr;

// State: Sy[j], Sx[j], Sxy[j] for j = 1..k-1, packed in that order.
struct Lay {
  int ns;
  int y, x, xy, total;
  explicit Lay(int k) : ns(k - 1), y(0), x(ns), xy(2 * ns), total(3 * ns) {}
  int at(int base, int j) const { return base + j - 1; }
};

// Contention-free holding times (R8): same formulas as the hot-spot model's
// regular streams, so the h = 0 cross-check is structural. One definition
// feeds both the blocking model and the VC-mux occupancy.
struct HoldingTimes {
  double y, x;
};
HoldingTimes holding_times(int k, double lm) {
  const double tx_y = lm + static_cast<double>(k) / 2.0 - 1.0;
  return {tx_y, tx_y + static_cast<double>(k - 1) / 2.0};
}

/// Declares the three uniform path classes (y-only, x-only, x-then-y) over
/// the shared engine: one blocking group per dimension, chained per-hop
/// recursions, x-then-y entering the y dimension at its entrance average.
ChannelClassSystem build_system(const ModelConfig& cfg, double lc) {
  const int k = cfg.k;
  const double lm = static_cast<double>(cfg.message_length);
  const Lay lay(k);

  const auto [tx_y, tx_x] = holding_times(k, lm);

  engine::EngineOptions opts;
  opts.service_floor = lm;
  opts.blocking = BlockingVariant::kPaper;
  opts.busy_basis = ServiceBasis::kTransmission;
  opts.arrival_idc = cfg.arrival_idc;
  ChannelClassSystem sys(lay.total, opts);

  const int b_y = sys.add_blocking(
      {{{1.0, {lc, StateExpr::average(lay.y, lay.ns), tx_y}, {}}}, 1.0});
  const int b_x = sys.add_blocking(
      {{{1.0, {lc, StateExpr::average(lay.x, lay.ns), tx_x}, {}}}, 1.0});

  const double y_ent0 = static_cast<double>(k) / 2.0 + lm - 1.0;
  for (int j = 1; j < k; ++j) {
    const double base0 = static_cast<double>(j) + lm - 1.0;
    ChannelClass y;
    y.name = "y";
    y.blocking = b_y;
    y.initial = base0;
    if (j == 1) {
      y.input_continuation = StateExpr::constant_of(lm - 1.0);
    } else {
      y.output_continuation = StateExpr::slot(lay.at(lay.y, j - 1));
    }
    sys.set_class(lay.at(lay.y, j), std::move(y));

    ChannelClass x;
    x.name = "x";
    x.blocking = b_x;
    x.initial = base0;
    if (j == 1) {
      x.input_continuation = StateExpr::constant_of(lm - 1.0);
    } else {
      x.output_continuation = StateExpr::slot(lay.at(lay.x, j - 1));
    }
    sys.set_class(lay.at(lay.x, j), std::move(x));

    ChannelClass xy;
    xy.name = "xy";
    xy.blocking = b_x;
    xy.initial = static_cast<double>(j) + y_ent0;
    if (j == 1) {
      xy.input_continuation = StateExpr::average(lay.y, lay.ns);  // y entrance
    } else {
      xy.output_continuation = StateExpr::slot(lay.at(lay.xy, j - 1));
    }
    sys.set_class(lay.at(lay.xy, j), std::move(xy));
  }
  return sys;
}

/// Final assembly from the converged state: exact path-class
/// probabilities under uniform destinations, the per-VC source queue and
/// transmission-basis multiplexing, matching the hot-spot model's default.
bool assemble(const ModelConfig& cfg, double lc, const std::vector<double>& state,
              ModelResult& res) {
  const int k = cfg.k;
  const double lm = static_cast<double>(cfg.message_length);
  const Lay lay(k);
  const double ey = StateExpr::average(lay.y, lay.ns).eval(state);
  const double ex = StateExpr::average(lay.x, lay.ns).eval(state);
  const double exy = StateExpr::average(lay.xy, lay.ns).eval(state);

  const double n = static_cast<double>(k) * static_cast<double>(k);
  const double p_xonly = (static_cast<double>(k) - 1.0) / (n - 1.0);
  const double p_yonly = p_xonly;
  const double p_xy = (static_cast<double>(k) - 1.0) * (static_cast<double>(k) - 1.0) /
                      (n - 1.0);

  const double s_net = p_xonly * ex + p_xy * exy + p_yonly * ey;
  res.regular_network_latency = s_net;

  const double arr = cfg.injection_rate / static_cast<double>(cfg.vcs);
  const QueueDelay ws = mg1_wait(arr, s_net, lm, cfg.arrival_idc);
  if (ws.saturated) return false;
  res.source_wait_regular = ws.value;

  const auto [tx_y, tx_x] = holding_times(k, lm);
  res.vc_mux_x = vc_multiplexing_degree(lc, tx_x, cfg.vcs);
  res.vc_mux_hot_y = vc_multiplexing_degree(lc, tx_y, cfg.vcs);
  res.vc_mux_nonhot_y = res.vc_mux_hot_y;

  res.latency = p_xonly * (ex + ws.value) * res.vc_mux_x +
                p_xy * (exy + ws.value) * res.vc_mux_x +
                p_yonly * (ey + ws.value) * res.vc_mux_hot_y;
  res.max_channel_utilization = std::min(1.0, lc * ex);
  return true;
}

}  // namespace

UniformTorusModel::UniformTorusModel(const ModelConfig& cfg) : cfg_(cfg) {
  cfg.validate();
  auto fail = [](const char* m) { throw std::invalid_argument(m); };
  if (cfg.n != 2) fail("uniform-torus model is 2-D (n == 2)");
  if (cfg.hot_fraction != 0.0) fail("uniform-torus model has no hot-spot traffic (h == 0)");
  if (cfg.blocking != BlockingVariant::kPaper ||
      cfg.busy_basis != ServiceBasis::kTransmission ||
      cfg.vcmux_basis != ServiceBasis::kTransmission) {
    fail("uniform-torus model has no blocking/basis ablation variants");
  }
}

double UniformTorusModel::channel_rate() const noexcept {
  return cfg_.injection_rate * static_cast<double>(cfg_.k - 1) / 2.0;
}

ModelResult UniformTorusModel::solve(
    const std::vector<double>* warm_start,
    std::vector<double>* converged_state) const {
  const double lc = channel_rate();
  // The only family without the stubborn-point retry: it keeps the solve of
  // the pre-engine uniform model, which engine_parity_test pins it against.
  ModelResult res = engine::solve_point(
      build_system(cfg_, lc), /*retry_stubborn=*/false,
      [&](const std::vector<double>& s, ModelResult& r) {
        return assemble(cfg_, lc, s, r);
      },
      warm_start, converged_state);
  res.regular_latency = res.latency;  // all traffic is regular (+inf if saturated)
  return res;
}

double UniformTorusModel::zero_load_latency() const {
  const int k = cfg_.k;
  const double lm = static_cast<double>(cfg_.message_length);
  const double kd = static_cast<double>(k);
  const double n = kd * kd;
  const double p_xonly = (kd - 1.0) / (n - 1.0);
  const double p_yonly = p_xonly;
  const double p_xy = (kd - 1.0) * (kd - 1.0) / (n - 1.0);
  const double one_dim = kd / 2.0 + lm - 1.0;
  const double two_dim = kd + lm - 1.0;
  return (p_xonly + p_yonly) * one_dim + p_xy * two_dim;
}

double UniformTorusModel::estimated_saturation_rate() const {
  const double k = static_cast<double>(cfg_.k);
  const double tx_x = holding_times(cfg_.k, static_cast<double>(cfg_.message_length)).x;
  return 2.0 / ((k - 1.0) * tx_x);
}

}  // namespace kncube::model
