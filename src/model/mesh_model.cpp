#include "model/mesh_model.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "model/engine/mg1.hpp"
#include "model/engine/solve_point.hpp"
#include "model/engine/vcmux.hpp"
#include "model/mesh_common.hpp"
#include "topology/mesh_geometry.hpp"
#include "topology/torus.hpp"  // topo::kMaxDims

namespace kncube::model {

namespace {

using engine::ChannelClassSystem;
using engine::StateExpr;

/// Builds the n(k-1)-class mesh system (DESIGN.md §8): the shared regular
/// recursion (mesh_common.hpp), each class blocked by its own link's
/// uniform traffic.
ChannelClassSystem build_system(const ModelConfig& cfg, const mesh::RegularSlots& slots) {
  engine::EngineOptions opts;
  opts.service_floor = static_cast<double>(cfg.message_length);
  opts.blocking = cfg.blocking;
  opts.busy_basis = cfg.busy_basis;
  ChannelClassSystem sys(slots.count(), opts);
  mesh::add_regular_classes(sys, cfg, slots, [&](int d, int i) {
    return engine::BlockingSpec{
        {{1.0,
          {topo::mesh_channel_rate(cfg.injection_rate, cfg.k, cfg.n, i),
           StateExpr::slot(slots(d, i)), mesh::regular_holding_time(cfg, d, i)},
          {}}},
        1.0};
  });
  return sys;
}

/// Final assembly from the converged state: first-correcting-dimension
/// paths, the per-VC source queue and entrance-weighted multiplexing.
bool assemble(const ModelConfig& cfg, const mesh::RegularSlots& slots,
              const std::vector<double>& state, ModelResult& res) {
  const int k = cfg.k;
  const int n = cfg.n;
  const auto channel_rate = [&](int i) {
    return topo::mesh_channel_rate(cfg.injection_rate, k, n, i);
  };
  const mesh::RegularPaths paths = mesh::regular_paths(cfg, slots, state);
  res.regular_network_latency = paths.s_net;

  const double arr = cfg.injection_rate / static_cast<double>(cfg.vcs);
  const QueueDelay ws =
      mg1_wait(arr, paths.s_net, static_cast<double>(cfg.message_length));
  if (ws.saturated) return false;
  res.source_wait_regular = ws.value;

  // Entrance-weighted VC multiplexing per first dimension (eqs 33-35 per
  // class), on the configured occupancy basis.
  double latency = 0.0;
  for (int j = 0; j < n; ++j) {
    double vbar = 0.0;
    for (int i = 0; i < k - 1; ++i) {
      const double service =
          cfg.vcmux_basis == ServiceBasis::kTransmission
              ? mesh::regular_holding_time(cfg, j, i)
              : state[static_cast<std::size_t>(slots(j, i))];
      vbar += topo::mesh_entrance_weight(k, i) *
              vc_multiplexing_degree(channel_rate(i), service, cfg.vcs);
    }
    if (j == 0) res.vc_mux_x = vbar;
    if (j == n - 1) res.vc_mux_hot_y = res.vc_mux_nonhot_y = vbar;
    latency += paths.p_first[static_cast<std::size_t>(j)] *
               (paths.entrance[static_cast<std::size_t>(j)] + ws.value) * vbar;
  }
  res.latency = latency;

  double util = 0.0;
  for (int d = 0; d < n; ++d) {
    for (int i = 0; i < k - 1; ++i) {
      util = std::max(util, channel_rate(i) *
                                state[static_cast<std::size_t>(slots(d, i))]);
    }
  }
  res.max_channel_utilization = std::min(1.0, util);
  return true;
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
  const mesh::RegularSlots slots(0, cfg_.k, cfg_.n);
  ModelResult res = engine::solve_point(
      build_system(cfg_, slots), /*retry_stubborn=*/true,
      [&](const std::vector<double>& s, ModelResult& r) {
        return assemble(cfg_, slots, s, r);
      },
      warm_start, converged_state);
  res.regular_latency = res.latency;  // all traffic is regular (+inf if saturated)
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
  return 1.0 / (coef * mesh::regular_holding_time(cfg_, 0, (cfg_.k - 2) / 2));
}

}  // namespace kncube::model
