// One spec text per registry family, shared by the model-result goldens
// (model_result_golden_test.cpp) and the warm-start contract test
// (warm_start_test.cpp). Each text also switches on an ablation knob the
// family accepts, so the pins cover more than the defaults.
#pragma once

#include <string>
#include <vector>

namespace kncube::model::test_specs {

struct FamilySpec {
  const char* family;  ///< registry name, AnalyticalModel::name()
  std::string text;    ///< ScenarioSpec text
};

inline const std::vector<FamilySpec>& registry_family_specs() {
  static const std::string kTorus8 =
      "topology.kind=torus\ntopology.k=8\ntopology.n=2\ntopology.bidirectional=false\n";
  static const std::string kMesh8 = "topology.kind=mesh\ntopology.k=8\ntopology.n=2\n";
  static const std::string kHot = "traffic.kind=hotspot\ntraffic.hot_fraction=0.2\n";
  static const std::string kUniform = "traffic.kind=uniform\n";
  static const std::string kMmpp =
      "arrivals.kind=mmpp\narrivals.burst_multiplier=4\n"
      "arrivals.p_enter_burst=0.02\narrivals.p_leave_burst=0.08\n";
  static const std::vector<FamilySpec> specs = {
      {"hotspot-torus",
       kTorus8 + kHot +
           "router.vcs=3\nworkload.message_length=16\nmodel.vcmux_basis=inclusive\n"},
      {"uniform-torus", kTorus8 + kUniform},
      {"hotspot-hypercube",
       "topology.kind=hypercube\ntopology.dims=6\n" + kHot + "model.busy_basis=inclusive\n"},
      {"uniform-mesh",
       kMesh8 + kUniform +
           "router.vcs=3\nworkload.message_length=16\nmodel.blocking=pure_wait\n"},
      {"hotspot-mesh",
       kMesh8 + kHot + "workload.message_length=16\nmodel.busy_basis=inclusive\n"},
      {"mmpp-hotspot-torus", kTorus8 + kHot + kMmpp + "workload.message_length=16\n"},
      {"mmpp-uniform-torus", kTorus8 + kUniform + kMmpp + "workload.message_length=16\n"},
  };
  return specs;
}

/// The spec text of registry family `family`; empty when there is none.
inline std::string registry_family_spec(const std::string& family) {
  for (const FamilySpec& f : registry_family_specs()) {
    if (family == f.family) return f.text;
  }
  return {};
}

}  // namespace kncube::model::test_specs
