#include "model/hypercube_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "topology/torus.hpp"

namespace kncube::model {
namespace {

ModelConfig base_config() {
  ModelConfig cfg;
  cfg.k = 2;
  cfg.n = 6;  // N = 64
  cfg.vcs = 2;
  cfg.message_length = 32;
  cfg.injection_rate = 1e-4;
  cfg.hot_fraction = 0.2;
  return cfg;
}

TEST(HypercubeModel, ZeroLoadMatchesBruteForceHops) {
  // Mean e-cube distance enumerated over every ordered pair of a k=2 cube.
  const int n = 5;
  const topo::KAryNCube net(2, n);
  double hops = 0.0;
  std::uint64_t pairs = 0;
  for (topo::NodeId s = 0; s < net.size(); ++s) {
    for (topo::NodeId d = 0; d < net.size(); ++d) {
      if (s == d) continue;
      hops += net.hops(s, d);
      ++pairs;
    }
  }
  ModelConfig cfg = base_config();
  cfg.n = n;
  const double expected = hops / static_cast<double>(pairs) + 32 - 1;
  EXPECT_NEAR(HypercubeHotspotModel(cfg).zero_load_latency(), expected, 1e-9);
}

TEST(HypercubeModel, SolveApproachesZeroLoadAtTinyRates) {
  ModelConfig cfg = base_config();
  cfg.injection_rate = 1e-10;
  const HypercubeHotspotModel model(cfg);
  const auto r = model.solve();
  ASSERT_FALSE(r.saturated);
  EXPECT_NEAR(r.latency, model.zero_load_latency(), 0.01);
}

TEST(HypercubeModel, FunnelRatesConserveHotFlux) {
  // sum_d rate_d * channels_d == lambda*h * total hot hop flux.
  ModelConfig cfg = base_config();
  const HypercubeHotspotModel model(cfg);
  const int n = cfg.n;
  double flux = 0.0;
  for (int d = 0; d < n; ++d) {
    flux += model.hot_funnel_rate(d) * std::ldexp(1.0, n - d - 1);
  }
  const double expected =
      cfg.injection_rate * cfg.hot_fraction * n * std::ldexp(1.0, n - 1);
  EXPECT_NEAR(flux, expected, 1e-15);
}

TEST(HypercubeModel, FirstDimProbabilitiesSumToOne) {
  const HypercubeHotspotModel model(base_config());
  double sum = 0.0;
  for (int d = 0; d < base_config().n; ++d) sum += model.first_dim_probability(d);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Lowest dimensions are corrected most often.
  EXPECT_GT(model.first_dim_probability(0), model.first_dim_probability(5));
}

TEST(HypercubeModel, LatencyIncreasesWithLoad) {
  double prev = 0.0;
  const double sat = HypercubeHotspotModel(base_config()).estimated_saturation_rate();
  for (double frac : {0.05, 0.2, 0.4, 0.6}) {
    ModelConfig cfg = base_config();
    cfg.injection_rate = frac * sat;
    const auto r = HypercubeHotspotModel(cfg).solve();
    ASSERT_FALSE(r.saturated) << frac;
    EXPECT_GT(r.latency, prev);
    prev = r.latency;
  }
}

TEST(HypercubeModel, SaturatesUnderOverload) {
  ModelConfig cfg = base_config();
  cfg.injection_rate = 10.0 * HypercubeHotspotModel(cfg).estimated_saturation_rate();
  const auto r = HypercubeHotspotModel(cfg).solve();
  EXPECT_TRUE(r.saturated);
}

TEST(HypercubeModel, HotLatencyExceedsRegularUnderLoad) {
  ModelConfig cfg = base_config();
  cfg.injection_rate = 0.5 * HypercubeHotspotModel(cfg).estimated_saturation_rate();
  const auto r = HypercubeHotspotModel(cfg).solve();
  ASSERT_FALSE(r.saturated);
  EXPECT_GT(r.hot_latency, r.regular_latency);
  EXPECT_NEAR(r.latency,
              0.8 * r.regular_latency + 0.2 * r.hot_latency, 1e-9);
}

TEST(HypercubeModel, BottleneckMultiplexingGrowsWithLoad) {
  ModelConfig lo = base_config();
  ModelConfig hi = base_config();
  const double sat = HypercubeHotspotModel(lo).estimated_saturation_rate();
  lo.injection_rate = 0.1 * sat;
  hi.injection_rate = 0.7 * sat;
  const auto rl = HypercubeHotspotModel(lo).solve();
  const auto rh = HypercubeHotspotModel(hi).solve();
  ASSERT_FALSE(rl.saturated);
  ASSERT_FALSE(rh.saturated);
  EXPECT_GT(rh.vc_mux_hot_y, rl.vc_mux_hot_y);
  EXPECT_LE(rh.vc_mux_hot_y, 2.0);
}

TEST(HypercubeModel, HigherDimensionalityLowersHotCapacity) {
  // The last funnel channel carries lambda*h*2^{n-1}: capacity halves per
  // added dimension.
  ModelConfig small = base_config();
  ModelConfig large = base_config();
  small.n = 5;
  large.n = 7;
  const double s_sat = HypercubeHotspotModel(small).estimated_saturation_rate();
  const double l_sat = HypercubeHotspotModel(large).estimated_saturation_rate();
  EXPECT_NEAR(s_sat / l_sat, 4.0, 0.5);
}

TEST(HypercubeModel, ValidatesConfig) {
  ModelConfig cfg = base_config();
  cfg.n = 0;
  EXPECT_THROW(HypercubeHotspotModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.hot_fraction = -0.1;
  EXPECT_THROW(HypercubeHotspotModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.vcs = 0;
  EXPECT_THROW(HypercubeHotspotModel{cfg}, std::invalid_argument);
  // Values the hypercube model cannot represent are refused, not ignored.
  cfg = base_config();
  cfg.k = 4;
  EXPECT_THROW(HypercubeHotspotModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.blocking = BlockingVariant::kPureWait;
  EXPECT_THROW(HypercubeHotspotModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.arrival_idc = 2.0;
  EXPECT_THROW(HypercubeHotspotModel{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace kncube::model
