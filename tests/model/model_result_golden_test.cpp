// Golden pins for every registry family's ModelResult.
//
// For each of the seven families the registry dispatches, a cold solve_at
// at four operating points — light load, the knee, just past the knee (the
// fixed point converges but the source queue has no steady state) and far
// past it (the iteration diverges) — must reproduce all twelve ModelResult
// fields bit for bit, together with the family's zero-load latency and
// saturation estimate. The pins hold the mapping from each family's solve
// onto the shared result type: which fields a family fills, which keep
// their defaults, and what a saturated point leaves behind.
//
// To regenerate after an *intentional* model change:
//   KNCUBE_PRINT_GOLDEN=1 ./model_tests --gtest_filter='ModelResultGolden.*'
// and paste the printed blocks (doubles print as hexfloat, so the round
// trip is exact).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "core/model_registry.hpp"
#include "core/scenario_spec.hpp"
#include "registry_family_specs.hpp"

namespace kncube::model {
namespace {

struct Pin {
  double lambda;
  double latency;
  bool saturated;
  bool converged;
  int iterations;
  double regular_latency;
  double hot_latency;
  double regular_network_latency;
  double source_wait_regular;
  double vc_mux_x;
  double vc_mux_hot_y;
  double vc_mux_nonhot_y;
  double max_channel_utilization;
};

struct FamilyPins {
  double zero_load_latency;
  double estimated_saturation_rate;
  Pin points[4];
};

bool print_mode() { return std::getenv("KNCUBE_PRINT_GOLDEN") != nullptr; }

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void check_family(const char* family, const FamilyPins& want) {
  const std::string spec_text = test_specs::registry_family_spec(family);
  ASSERT_FALSE(spec_text.empty()) << family;
  const core::ModelDispatch d =
      core::make_analytical_model(core::parse_scenario(spec_text));
  ASSERT_TRUE(d.has_model()) << family << ": " << d.sim_only_reason;
  ASSERT_STREQ(d.model->name(), family);
  const AnalyticalModel& m = *d.model;

  if (print_mode()) {
    std::cout << std::hexfloat << "  // " << family << "\n  {" << m.zero_load_latency()
              << ", " << m.estimated_saturation_rate() << ",\n   {";
    for (const Pin& p : want.points) {
      const ModelResult r = m.solve_at(p.lambda);
      std::cout << "{" << p.lambda << ", " << r.latency << ", "
                << (r.saturated ? "true" : "false") << ", "
                << (r.converged ? "true" : "false") << ", " << std::dec << r.iterations
                << ", " << std::hexfloat << r.regular_latency << ", " << r.hot_latency
                << ", " << r.regular_network_latency << ", " << r.source_wait_regular
                << ", " << r.vc_mux_x << ", " << r.vc_mux_hot_y << ", "
                << r.vc_mux_nonhot_y << ", " << r.max_channel_utilization << "},\n    ";
    }
    std::cout << "}},\n" << std::defaultfloat;
    return;
  }

  EXPECT_EQ(bits(m.zero_load_latency()), bits(want.zero_load_latency)) << family;
  EXPECT_EQ(bits(m.estimated_saturation_rate()), bits(want.estimated_saturation_rate))
      << family;
  for (const Pin& p : want.points) {
    const ModelResult r = m.solve_at(p.lambda);
    const std::string ctx = std::string(family) + " lambda=" + std::to_string(p.lambda);
    EXPECT_EQ(bits(r.latency), bits(p.latency)) << ctx;
    EXPECT_EQ(r.saturated, p.saturated) << ctx;
    EXPECT_EQ(r.converged, p.converged) << ctx;
    EXPECT_EQ(r.iterations, p.iterations) << ctx;
    EXPECT_EQ(bits(r.regular_latency), bits(p.regular_latency)) << ctx;
    EXPECT_EQ(bits(r.hot_latency), bits(p.hot_latency)) << ctx;
    EXPECT_EQ(bits(r.regular_network_latency), bits(p.regular_network_latency)) << ctx;
    EXPECT_EQ(bits(r.source_wait_regular), bits(p.source_wait_regular)) << ctx;
    EXPECT_EQ(bits(r.vc_mux_x), bits(p.vc_mux_x)) << ctx;
    EXPECT_EQ(bits(r.vc_mux_hot_y), bits(p.vc_mux_hot_y)) << ctx;
    EXPECT_EQ(bits(r.vc_mux_nonhot_y), bits(p.vc_mux_nonhot_y)) << ctx;
    EXPECT_EQ(bits(r.max_channel_utilization), bits(p.max_channel_utilization)) << ctx;
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ModelResultGolden, HotspotTorus) {
  check_family("hotspot-torus",
               {0x1.61c71c71c71c8p+4, 0x1.d41d41d41d41cp-9,
                {{0x1.c1bbf7927334bp-12, 0x1.7abfedcc184fbp+4, false, true, 32,
                  0x1.7948a60391c43p+4, 0x1.809d0cee327d8p+4, 0x1.6332e6126e16cp+4,
                  0x1.3a0447edb55e4p-5, 0x1.0f7df1357baabp+0, 0x1.246dc34a68fdep+0,
                  0x1.0bf34d20b3318p+0, 0x1.98463d26262f7p-4},
                 {0x1.10a137f38c543p-8, 0x1.58ee762eef9aap+8, false, true, 39,
                  0x1.66b035cffd24p+7, 0x1.f7a3f1a559de7p+9, 0x1.9ed95f5e1cd53p+5,
                  0x1.11d5e72b9f87bp+4, 0x1.523828314e146p+1, 0x1.7ffffffd22fe1p+1,
                  0x1.92311cbebf8acp+0, 0x1.eefe4ffc9795ap-1},
                 {0x1.199bb2788db05p-8, kInf, true, true, 39,
                  0x0p+0, 0x0p+0, 0x1.78c5530ead4afp+8,
                  0x0p+0, 0x1p+0, 0x1p+0,
                  0x1p+0, 0x0p+0},
                 {0x1.6d5cfaacd9e84p-8, kInf, true, false, 1,
                  0x0p+0, 0x0p+0, 0x0p+0,
                  0x0p+0, 0x1p+0, 0x1p+0,
                  0x1p+0, 0x0p+0}}});
}

TEST(ModelResultGolden, UniformTorus) {
  check_family("uniform-torus",
               {0x1.30e38e38e38e3p+5, 0x1.e65a3dbe74d6bp-8,
                {{0x1.3023b43a2ecffp-11, 0x1.66341e4c93c07p+5, false, true, 32,
                  0x1.66341e4c93c07p+5, 0x0p+0, 0x1.37590035006f5p+5,
                  0x1.d561c46e0e7acp-3, 0x1.251edf8d0414p+0, 0x1.21f84b073bfcfp+0,
                  0x1.21f84b073bfcfp+0, 0x1.276fc05f030aep-4},
                 {0x1.70c564f97edc8p-8, 0x1.a4ee77838ec85p+11, false, true, 38,
                  0x1.a4ee77838ec85p+11, 0x0p+0, 0x1.2d5f3e801af24p+8,
                  0x1.79cf3edb6f4a4p+10, 0x1.dccca6b8a17f8p+0, 0x1.d0eacf72e4066p+0,
                  0x1.d0eacf72e4066p+0, 0x1p+0},
                 {0x1.7cf5f4e4430b1p-8, kInf, true, true, 38,
                  kInf, 0x0p+0, 0x1.5bd2b36addd21p+8,
                  0x0p+0, 0x1p+0, 0x1p+0,
                  0x1p+0, 0x0p+0},
                 {0x1.ee45c358afc48p-8, kInf, true, false, 1,
                  kInf, 0x0p+0, 0x0p+0,
                  0x0p+0, 0x1p+0, 0x1p+0,
                  0x1p+0, 0x0p+0}}});
}

TEST(ModelResultGolden, HotspotHypercube) {
  check_family("hotspot-hypercube",
               {0x1.1061861861862p+5, 0x1.240cc6f58124p-8,
                {{0x1.df4dd8d0e70dcp-12, 0x1.16c1e92d1fa8fp+5, false, true, 26,
                  0x1.15c53f3a8c82cp+5, 0x1.1ab490f76c419p+5, 0x0p+0,
                  0x1.12eeaf1928fcep-3, 0x1p+0, 0x1.2e5bb838a57abp+0,
                  0x1p+0, 0x1.99e9ad9a7a175p-4},
                 {0x1.22962cfd8f0c7p-8, 0x1.e8533764e7d66p+6, false, true, 34,
                  0x1.e64cf89f5c5b5p+5, 0x1.6f4188ee739e4p+8, 0x0p+0,
                  0x1.ce317f448f989p+3, 0x1p+0, 0x1.fb89c72612737p+0,
                  0x1p+0, 0x1p+0},
                 {0x1.2c386d2ed783ep-8, kInf, true, true, 34,
                  0x0p+0, 0x0p+0, 0x0p+0,
                  0x0p+0, 0x1p+0, 0x1p+0,
                  0x1p+0, 0x0p+0},
                 {0x1.857afea3df6dcp-8, kInf, true, false, 1,
                  0x0p+0, 0x0p+0, 0x0p+0,
                  0x0p+0, 0x1p+0, 0x1p+0,
                  0x1p+0, 0x0p+0}}});
}

TEST(ModelResultGolden, UniformMesh) {
  check_family("uniform-mesh",
               {0x1.4555555555555p+4, 0x1.90b21642c8591p-6,
                {{0x1.0e66cb10342abp-9, 0x1.b62012d76b15cp+4, false, true, 31,
                  0x1.b62012d76b15cp+4, 0x0p+0, 0x1.7e808bdad62ddp+4,
                  0x1.c5ecc6f2a8c1ep-3, 0x1.22f62e6747d56p+0, 0x1.1e4b4bb4eaf12p+0,
                  0x1.1e4b4bb4eaf12p+0, 0x1.953663c4e0547p-4},
                 {0x1.47d805e5f30e8p-6, 0x1.102544581c0e4p+11, false, true, 34,
                  0x1.102544581c0e4p+11, 0x0p+0, 0x1.05a798dd25d94p+7,
                  0x1.8ca8bf1b0b747p+9, 0x1.2f8bf6bcdb677p+1, 0x1.1c1a2adc629f3p+1,
                  0x1.1c1a2adc629f3p+1, 0x1p+0},
                 {0x1.52a843808850ap-6, kInf, true, true, 34,
                  kInf, 0x0p+0, 0x1.25159cd028066p+7,
                  0x0p+0, 0x1p+0, 0x1p+0,
                  0x1p+0, 0x0p+0},
                 {0x1.b76b3bb83cf2dp-6, kInf, true, false, 1,
                  kInf, 0x0p+0, 0x0p+0,
                  0x0p+0, 0x1p+0, 0x1p+0,
                  0x1p+0, 0x0p+0}}});
}

TEST(ModelResultGolden, HotspotMesh) {
  check_family("hotspot-mesh",
               {0x1.4111111111111p+4, 0x1.fe613716aefccp-8,
                {{0x1.8ee0d8f34bbc9p-11, 0x1.557d310a1a132p+4, false, true, 27,
                  0x1.56230602051cbp+4, 0x1.52e5dd2a6deccp+4, 0x1.45ded6212ed63p+4,
                  0x1.4b1d9986e9688p-4, 0x1.0bdc94e47aca3p+0, 0x1.1a40ec16e6876p+0,
                  0x1.0a619bf22bf6dp+0, 0x1.9266348f439b9p-4},
                 {0x1.e39713ad5bee4p-8, 0x1.e054778304b52p+6, false, true, 37,
                  0x1.2414c5aeb941ap+6, 0x1.3454cfb50ca0dp+8, 0x1.2d5eb3c1f9094p+5,
                  0x1.f9c4bbe39e802p+3, 0x1.5e8417a8c696p+0, 0x1.a3ff0ce417de3p+0,
                  0x1.5495a746d3c76p+0, 0x1p+0},
                 {0x1.f394b7b28954ap-8, kInf, true, true, 34,
                  0x0p+0, 0x0p+0, 0x1.0fdc2cc4ea5d8p+7,
                  0x0p+0, 0x1p+0, 0x1p+0,
                  0x1p+0, 0x0p+0},
                 {0x1.441355475a31ap-7, kInf, true, false, 1,
                  0x0p+0, 0x0p+0, 0x0p+0,
                  0x0p+0, 0x1p+0, 0x1p+0,
                  0x1p+0, 0x0p+0}}});
}

TEST(ModelResultGolden, MmppHotspotTorus) {
  check_family("mmpp-hotspot-torus",
               {0x1.61c71c71c71c8p+4, 0x1.d41d41d41d41cp-9,
                {{0x1.c05f0040979fcp-12, 0x1.7c247da138b41p+4, false, true, 32,
                  0x1.7acb138c6134ep+4, 0x1.818a25f496b08p+4, 0x1.633696dd799eap+4,
                  0x1.ddf4f60f5b309p-5, 0x1.10874f41ce496p+0, 0x1.1f5c220356de4p+0,
                  0x1.0b6359387a705p+0, 0x1.9709716dd6725p-4},
                 {0x1.0fd7e45803cd1p-8, 0x1.cfe65af9ca48ap+7, false, true, 39,
                  0x1.1406f54b9119p+7, 0x1.2fd8fc6cabc1bp+9, 0x1.b99221e5c22b7p+5,
                  0x1.2b42d2b3a71a7p+5, 0x1.7ce5f46873c5ap+0, 0x1.bfe86a229994ap+0,
                  0x1.5c8f3872146c3p+0, 0x1.ed90c76300806p-1},
                 {0x1.18d25edd05293p-8, kInf, true, true, 39,
                  0x0p+0, 0x0p+0, 0x1.5cab0014c8239p+7,
                  0x0p+0, 0x1p+0, 0x1p+0,
                  0x1p+0, 0x0p+0},
                 {0x1.6c508b32ce896p-8, kInf, true, false, 1,
                  0x0p+0, 0x0p+0, 0x0p+0,
                  0x0p+0, 0x1p+0, 0x1p+0,
                  0x1p+0, 0x0p+0}}});
}

TEST(ModelResultGolden, MmppUniformTorus) {
  check_family("mmpp-uniform-torus",
               {0x1.61c71c71c71c7p+4, 0x1.a01a01a01a01ap-7,
                {{0x1.f4da32101d847p-11, 0x1.9ced288df7a8fp+4, false, true, 32,
                  0x1.9ced288df7a8fp+4, 0x0p+0, 0x1.68a67238d574dp+4,
                  0x1.1a15c405270adp-3, 0x1.23d2a00c68818p+0, 0x1.1e954b778c4c2p+0,
                  0x1.1e954b778c4c2p+0, 0x1.0870d430ea142p-4},
                 {0x1.2fa93af74cd31p-7, 0x1.36e7e18263f23p+11, false, true, 38,
                  0x1.36e7e18263f23p+11, 0x0p+0, 0x1.6fd6f1b737669p+7,
                  0x1.24c9e40edb6f2p+10, 0x1.d80209b42795cp+0, 0x1.c337e9323788dp+0,
                  0x1.c337e9323788dp+0, 0x1p+0},
                 {0x1.39a7c17a89332p-7, kInf, true, true, 38,
                  kInf, 0x0p+0, 0x1.a637562fb633p+7,
                  0x0p+0, 0x1p+0, 0x1p+0,
                  0x1p+0, 0x0p+0},
                 {0x1.96fa82e87d2c8p-7, kInf, true, true, 37,
                  kInf, 0x0p+0, 0x1.76262a818763dp+11,
                  0x0p+0, 0x1p+0, 0x1p+0,
                  0x1p+0, 0x0p+0}}});
}

}  // namespace
}  // namespace kncube::model
