#include "model/uniform_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace kncube::model {
namespace {

ModelConfig base_config() {
  ModelConfig cfg;
  cfg.k = 16;
  cfg.vcs = 2;
  cfg.message_length = 32;
  cfg.injection_rate = 1e-4;
  cfg.hot_fraction = 0.0;
  return cfg;
}

TEST(UniformModel, ZeroLoadLimitMatchesClosedForm) {
  ModelConfig cfg = base_config();
  cfg.injection_rate = 1e-9;
  const UniformTorusModel model(cfg);
  const ModelResult r = model.solve();
  ASSERT_FALSE(r.saturated);
  EXPECT_NEAR(r.latency, model.zero_load_latency(), 0.01);
}

TEST(UniformModel, ZeroLoadClosedFormValue) {
  // k=16, Lm=32: (p_x + p_y)(k/2 + Lm - 1) + p_xy (k + Lm - 1).
  ModelConfig cfg = base_config();
  const double p_x = 15.0 / 255.0;
  const double p_xy = 225.0 / 255.0;
  const double expected = 2 * p_x * (8 + 31) + p_xy * (16 + 31);
  EXPECT_NEAR(UniformTorusModel(cfg).zero_load_latency(), expected, 1e-12);
}

TEST(UniformModel, LatencyIncreasesWithLoad) {
  double prev = 0.0;
  for (double lam : {1e-5, 1e-4, 3e-4, 6e-4, 1e-3}) {
    ModelConfig cfg = base_config();
    cfg.injection_rate = lam;
    const ModelResult r = UniformTorusModel(cfg).solve();
    ASSERT_FALSE(r.saturated) << lam;
    EXPECT_GT(r.latency, prev);
    prev = r.latency;
  }
}

TEST(UniformModel, SaturatesAtHighLoad) {
  ModelConfig cfg = base_config();
  // Channel rate lambda*(k-1)/2 with tx service ~Lm+k/2-1: capacity ~3.4e-3.
  cfg.injection_rate = 5e-3;
  const ModelResult r = UniformTorusModel(cfg).solve();
  EXPECT_TRUE(r.saturated);
  EXPECT_TRUE(std::isinf(r.latency));
}

TEST(UniformModel, SaturationBoundaryIsSharp) {
  // Bracket the boundary: stable slightly below, saturated slightly above.
  ModelConfig lo = base_config();
  ModelConfig hi = base_config();
  double lo_rate = 1e-5;
  double hi_rate = 5e-3;
  for (int i = 0; i < 30; ++i) {
    const double mid = 0.5 * (lo_rate + hi_rate);
    ModelConfig cfg = base_config();
    cfg.injection_rate = mid;
    (UniformTorusModel(cfg).solve().saturated ? hi_rate : lo_rate) = mid;
  }
  lo.injection_rate = lo_rate;
  hi.injection_rate = hi_rate;
  EXPECT_FALSE(UniformTorusModel(lo).solve().saturated);
  EXPECT_TRUE(UniformTorusModel(hi).solve().saturated);
  EXPECT_NEAR(hi_rate / lo_rate, 1.0, 1e-4);
  // The boundary sits below the naive single-channel bound 1/(lc_coeff*Lm).
  EXPECT_LT(lo_rate, 1.0 / (7.5 * 32.0));
}

TEST(UniformModel, LongerMessagesAreSlower) {
  ModelConfig short_cfg = base_config();
  ModelConfig long_cfg = base_config();
  short_cfg.message_length = 16;
  long_cfg.message_length = 64;
  const auto rs = UniformTorusModel(short_cfg).solve();
  const auto rl = UniformTorusModel(long_cfg).solve();
  ASSERT_FALSE(rs.saturated);
  ASSERT_FALSE(rl.saturated);
  EXPECT_GT(rl.latency, rs.latency + 40.0);
}

TEST(UniformModel, VcMuxWithinBounds) {
  ModelConfig cfg = base_config();
  cfg.injection_rate = 1e-3;
  const auto r = UniformTorusModel(cfg).solve();
  ASSERT_FALSE(r.saturated);
  EXPECT_GE(r.vc_mux_x, 1.0);
  EXPECT_LE(r.vc_mux_x, 2.0);
  EXPECT_GE(r.vc_mux_hot_y, 1.0);
  EXPECT_LE(r.vc_mux_hot_y, 2.0);
}

TEST(UniformModel, ChannelRateFollowsEq3) {
  ModelConfig cfg = base_config();
  cfg.injection_rate = 4e-4;
  EXPECT_DOUBLE_EQ(UniformTorusModel(cfg).channel_rate(), 4e-4 * 7.5);
}

TEST(UniformModel, NetworkLatencyExcludesSourceWait) {
  ModelConfig cfg = base_config();
  cfg.injection_rate = 1e-3;
  const auto r = UniformTorusModel(cfg).solve();
  ASSERT_FALSE(r.saturated);
  EXPECT_GT(r.source_wait_regular, 0.0);
  EXPECT_GT(r.latency, r.regular_network_latency);
}

TEST(UniformModel, ValidatesConfig) {
  ModelConfig cfg = base_config();
  cfg.k = 1;
  EXPECT_THROW(UniformTorusModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.injection_rate = -1.0;
  EXPECT_THROW(UniformTorusModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.message_length = 0;
  EXPECT_THROW(UniformTorusModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.vcs = 0;
  EXPECT_THROW(UniformTorusModel{cfg}, std::invalid_argument);
  // Values the uniform model cannot represent are refused, not ignored.
  cfg = base_config();
  cfg.hot_fraction = 0.2;
  EXPECT_THROW(UniformTorusModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.n = 3;
  EXPECT_THROW(UniformTorusModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.blocking = BlockingVariant::kPureWait;
  EXPECT_THROW(UniformTorusModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.vcmux_basis = ServiceBasis::kInclusive;
  EXPECT_THROW(UniformTorusModel{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace kncube::model
