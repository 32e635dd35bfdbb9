#include "model/analytical_model.hpp"

#include <stdexcept>
#include <utility>

#include "model/engine/bursty.hpp"
#include "model/hotspot_model.hpp"
#include "model/hypercube_model.hpp"
#include "model/mesh_hotspot_model.hpp"
#include "model/mesh_model.hpp"
#include "model/uniform_model.hpp"

namespace kncube::model {

namespace {

/// Probe rate for lambda-independent queries (zero-load latency, saturation
/// estimates): small enough to be deep in the stable region, positive so
/// rate ratios stay well-defined.
constexpr double kProbeRate = 1e-9;

/// Builds `family` over `cfg` and hands it to `fn`.
template <class Fn>
auto with_family(ModelFamily family, const ModelConfig& cfg, Fn&& fn) {
  switch (family) {
    case ModelFamily::kHotspotTorus: return fn(HotspotModel(cfg));
    case ModelFamily::kUniformTorus: return fn(UniformTorusModel(cfg));
    case ModelFamily::kHotspotHypercube: return fn(HypercubeHotspotModel(cfg));
    case ModelFamily::kUniformMesh: return fn(MeshUniformModel(cfg));
    case ModelFamily::kHotspotMesh: return fn(MeshHotspotModel(cfg));
  }
  throw std::logic_error("AnalyticalModel: unknown model family");
}

}  // namespace

void ModelConfig::validate() const {
  auto fail = [](const char* msg) { throw std::invalid_argument(msg); };
  if (k < 2) fail("ModelConfig: radix k must be >= 2");
  if (n < 1) fail("ModelConfig: need at least one dimension");
  if (vcs < 1) fail("ModelConfig: need at least one virtual channel");
  if (message_length < 1) fail("ModelConfig: message length must be >= 1");
  if (injection_rate < 0.0 || injection_rate > 1.0) {
    fail("ModelConfig: injection rate must be in [0,1]");
  }
  if (hot_fraction < 0.0 || hot_fraction > 1.0) {
    fail("ModelConfig: hot fraction must be in [0,1]");
  }
  if (!(arrival_idc >= 0.0)) {
    fail("ModelConfig: arrival dispersion must be >= 0");
  }
}

AnalyticalModel::AnalyticalModel(ModelFamily family, ModelConfig base,
                                 std::optional<MmppArrivalShape> mmpp)
    : family_(family), base_(std::move(base)), mmpp_(mmpp) {
  if (mmpp_ && family_ != ModelFamily::kHotspotTorus &&
      family_ != ModelFamily::kUniformTorus) {
    // The bursty service stage (engine/bursty.hpp) is wired into the torus
    // builders only.
    throw std::invalid_argument(
        "bursty-arrival model covers the torus families only (mesh and "
        "hypercube models assume Bernoulli arrivals)");
  }
  base_.injection_rate = kProbeRate;
  if (mmpp_) base_.arrival_idc = 1.0;  // per-lambda value substituted in solve_at
  // Building the family validates `base`: refuse it here, not at solve_at.
  with_family(family_, base_, [](const auto&) { return 0; });
}

const char* AnalyticalModel::name() const noexcept {
  switch (family_) {
    case ModelFamily::kHotspotTorus: return mmpp_ ? "mmpp-hotspot-torus" : "hotspot-torus";
    case ModelFamily::kUniformTorus: return mmpp_ ? "mmpp-uniform-torus" : "uniform-torus";
    case ModelFamily::kHotspotHypercube: return "hotspot-hypercube";
    case ModelFamily::kUniformMesh: return "uniform-mesh";
    case ModelFamily::kHotspotMesh: return "hotspot-mesh";
  }
  return "unknown";
}

ModelResult AnalyticalModel::solve_at(double lambda,
                                      const std::vector<double>* warm_start,
                                      std::vector<double>* converged_state) const {
  ModelConfig cfg = base_;
  cfg.injection_rate = lambda;
  if (mmpp_) {
    cfg.arrival_idc = mmpp_arrival_idc(lambda, mmpp_->burst_multiplier,
                                       mmpp_->p_enter_burst, mmpp_->p_leave_burst);
  }
  return with_family(family_, cfg, [&](const auto& model) {
    return model.solve(warm_start, converged_state);
  });
}

double AnalyticalModel::zero_load_latency() const {
  return with_family(family_, base_,
                     [](const auto& model) { return model.zero_load_latency(); });
}

double AnalyticalModel::estimated_saturation_rate() const {
  return with_family(family_, base_, [](const auto& model) {
    return model.estimated_saturation_rate();
  });
}

}  // namespace kncube::model
