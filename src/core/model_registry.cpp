#include "core/model_registry.hpp"

#include <optional>
#include <stdexcept>

namespace kncube::core {

namespace {

ModelDispatch sim_only(std::string reason) {
  ModelDispatch d;
  d.sim_only_reason = std::move(reason);
  return d;
}

ModelDispatch dispatch(model::ModelFamily family, const ScenarioSpec& spec) {
  std::optional<model::MmppArrivalShape> mmpp;
  if (spec.is_mmpp()) {
    const MmppArrivals& m = spec.mmpp();
    mmpp = model::MmppArrivalShape{m.burst_multiplier, m.p_enter_burst, m.p_leave_burst};
  }
  ModelDispatch d;
  try {
    d.model = std::make_unique<model::AnalyticalModel>(family, to_model_config(spec), mmpp);
  } catch (const std::invalid_argument& e) {
    // The spec itself is valid, so the family refused a value it cannot
    // represent (an ablation knob it has no variant for, or bursty arrivals
    // off the torus).
    return sim_only(e.what());
  }
  return d;
}

ModelDispatch torus_dispatch(const ScenarioSpec& spec) {
  if (spec.torus().bidirectional) {
    return sim_only("analytical models assume unidirectional links");
  }
  if (spec.is_hotspot()) return dispatch(model::ModelFamily::kHotspotTorus, spec);
  if (std::holds_alternative<UniformTraffic>(spec.traffic)) {
    return dispatch(model::ModelFamily::kUniformTorus, spec);
  }
  return sim_only("no analytical counterpart for this traffic pattern");
}

ModelDispatch mesh_dispatch(const ScenarioSpec& spec) {
  if (std::holds_alternative<UniformTraffic>(spec.traffic)) {
    return dispatch(model::ModelFamily::kUniformMesh, spec);
  }
  if (spec.is_hotspot()) {
    // The hot-spot mesh model exploits the centre node's mirror symmetry
    // (mesh_hotspot_model.hpp): the hot load on a dimension-d line depends
    // only on the distance to the centre and on whether the line is hot
    // (earlier coordinates already corrected), giving O(n k) classes. An
    // off-centre hot node breaks that symmetry — every channel gets its own
    // load — so the simulator carries that variant.
    const MeshTopology& m = spec.mesh();
    std::int64_t centre = 0;
    for (int d = 0, stride = 1; d < m.n; ++d, stride *= m.k) {
      centre += static_cast<std::int64_t>(m.k / 2) * stride;
    }
    const std::int64_t hot = spec.hotspot().hot_node;
    if (hot != -1 && hot != centre) {
      return sim_only(
          "mesh hot-spot model covers the centre hot node only (off-centre "
          "load is per-channel with no class symmetry)");
    }
    return dispatch(model::ModelFamily::kHotspotMesh, spec);
  }
  return sim_only("no analytical counterpart for this traffic pattern");
}

ModelDispatch hypercube_dispatch(const ScenarioSpec& spec) {
  // Uniform traffic is the h = 0 degeneration of the hot-spot model (the
  // hot streams vanish and every channel carries the regular background).
  if (spec.is_hotspot() || std::holds_alternative<UniformTraffic>(spec.traffic)) {
    return dispatch(model::ModelFamily::kHotspotHypercube, spec);
  }
  return sim_only("no analytical counterpart for this traffic pattern");
}

}  // namespace

model::ModelConfig to_model_config(const ScenarioSpec& spec) {
  model::ModelConfig cfg;
  if (spec.is_torus()) {
    cfg.k = spec.torus().k;
    cfg.n = spec.torus().n;
  } else if (spec.is_mesh()) {
    cfg.k = spec.mesh().k;
    cfg.n = spec.mesh().n;
  } else {
    cfg.k = 2;
    cfg.n = spec.hypercube().dims;
  }
  cfg.vcs = spec.vcs;
  cfg.message_length = spec.message_length;
  cfg.hot_fraction = spec.is_hotspot() ? spec.hotspot().fraction : 0.0;
  cfg.blocking = spec.blocking;
  cfg.busy_basis = spec.busy_basis;
  cfg.vcmux_basis = spec.vcmux_basis;
  return cfg;
}

ModelDispatch make_analytical_model(const ScenarioSpec& spec) {
  spec.validate();
  if (!spec.failures.empty()) {
    // Every analytical family assumes the pristine network: silently solving
    // the pristine model for a degraded scenario would report latencies for
    // a network that does not exist. Checked before any family dispatch so
    // no faulty spec can slip through a family-specific branch.
    return sim_only("fault-aware analytical model not yet implemented");
  }
  if (spec.is_torus()) return torus_dispatch(spec);
  if (spec.is_mesh()) return mesh_dispatch(spec);
  return hypercube_dispatch(spec);
}

}  // namespace kncube::core
