// Warm-start (continuation) correctness: seeding a solve with the converged
// state of a nearby operating point must be a pure accelerator. Because the
// solver polishes every converged iterate to the map's exactly stationary
// point (model/solver.hpp), a warm-started solve that converges returns
// *bit-identical* results to the cold solve — and any warm failure falls
// back to the cold path, so the solve/no-solve classification can never
// drift. These tests pin both properties across lambda sweeps that include
// the saturation knee, where the fixed point is hardest.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/model_registry.hpp"
#include "core/saturation.hpp"
#include "core/scenario_spec.hpp"
#include "core/sweep_engine.hpp"
#include "model/hotspot_model.hpp"
#include "model/hypercube_model.hpp"
#include "model/mesh_model.hpp"
#include "model/uniform_model.hpp"

namespace kncube::model {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(WarmStart, HotspotChainIsBitIdenticalIncludingKnee) {
  for (int k : {8, 16}) {
    core::ScenarioSpec s;
    s.torus().k = k;
    s.vcs = 2;
    s.message_length = 32;
    s.hotspot().fraction = 0.2;
    // The true model knee: the bisected saturation boundary, then fractions
    // hugging it from below plus one saturated point above.
    const double sat = core::model_saturation_rate(s, 1e-4).rate;
    ModelConfig cfg = core::to_model_config(s);

    std::vector<double> chain;  // converged state of the previous point
    for (double f : {0.1, 0.3, 0.5, 0.7, 0.85, 0.95, 0.99, 0.999, 1.02}) {
      cfg.injection_rate = f * sat;
      const HotspotModel model(cfg);
      const ModelResult cold = model.solve();
      std::vector<double> state;
      const ModelResult warm =
          model.solve(chain.empty() ? nullptr : &chain, &state);
      ASSERT_EQ(cold.saturated, warm.saturated) << "k=" << k << " f=" << f;
      EXPECT_EQ(bits(cold.latency), bits(warm.latency)) << "k=" << k << " f=" << f;
      EXPECT_EQ(bits(cold.regular_latency), bits(warm.regular_latency))
          << "k=" << k << " f=" << f;
      EXPECT_EQ(bits(cold.hot_latency), bits(warm.hot_latency))
          << "k=" << k << " f=" << f;
      EXPECT_EQ(cold.saturated, state.empty()) << "k=" << k << " f=" << f;
      if (!state.empty()) chain = std::move(state);
    }
  }
}

TEST(WarmStart, MismatchedOrStaleSeedsFallBackToColdResults) {
  ModelConfig cfg;
  cfg.k = 8;
  cfg.vcs = 2;
  cfg.message_length = 32;
  cfg.hot_fraction = 0.2;
  cfg.injection_rate = 0.6 * HotspotModel(cfg).estimated_saturation_rate();
  const HotspotModel model(cfg);
  const ModelResult cold = model.solve();
  ASSERT_FALSE(cold.saturated);

  // Wrong layout size: ignored entirely.
  std::vector<double> wrong_size(3, 100.0);
  EXPECT_EQ(bits(model.solve(&wrong_size, nullptr).latency), bits(cold.latency));

  // Right size but absurd values (a "stale" seed): either the iteration
  // still converges — to the same stationary point — or the cold fallback
  // kicks in; both ways the result is bit-identical.
  std::vector<double> absurd(wrong_size);
  const HotspotModel probe(cfg);
  std::vector<double> layout_probe;
  (void)probe.solve(nullptr, &layout_probe);
  absurd.assign(layout_probe.size(), 1e9);
  EXPECT_EQ(bits(model.solve(&absurd, nullptr).latency), bits(cold.latency));
}

TEST(WarmStart, UniformAndHypercubeChainsAreBitIdentical) {
  {
    ModelConfig cfg;
    cfg.k = 16;
    cfg.vcs = 2;
    cfg.message_length = 32;
    cfg.hot_fraction = 0.0;
    std::vector<double> chain;
    for (double rate : {1e-4, 3e-4, 5e-4, 7e-4}) {
      cfg.injection_rate = rate;
      const UniformTorusModel model(cfg);
      const ModelResult cold = model.solve();
      std::vector<double> state;
      const ModelResult warm =
          model.solve(chain.empty() ? nullptr : &chain, &state);
      ASSERT_EQ(cold.saturated, warm.saturated) << rate;
      EXPECT_EQ(bits(cold.latency), bits(warm.latency)) << rate;
      if (!state.empty()) chain = std::move(state);
    }
  }
  {
    ModelConfig cfg;
    cfg.k = 2;
    cfg.n = 6;
    cfg.vcs = 2;
    cfg.message_length = 32;
    cfg.hot_fraction = 0.2;
    const double sat = HypercubeHotspotModel(cfg).estimated_saturation_rate();
    std::vector<double> chain;
    for (double f : {0.1, 0.4, 0.7, 0.9}) {
      cfg.injection_rate = f * sat;
      const HypercubeHotspotModel model(cfg);
      const ModelResult cold = model.solve();
      std::vector<double> state;
      const ModelResult warm =
          model.solve(chain.empty() ? nullptr : &chain, &state);
      ASSERT_EQ(cold.saturated, warm.saturated) << f;
      EXPECT_EQ(bits(cold.latency), bits(warm.latency)) << f;
      if (!state.empty()) chain = std::move(state);
    }
  }
}

TEST(WarmStart, RegistryEnginePathsAreBitIdenticalToDirectModels) {
  // The engine's warm-started, memoized registry path (ScenarioSpec ->
  // AnalyticalModel -> SweepEngine) must agree bit-for-bit with cold direct
  // model solves, for the uniform-torus and hypercube families that only
  // became engine-reachable with ScenarioSpec v2.
  {
    core::ScenarioSpec spec;
    spec.torus().k = 16;
    spec.traffic = core::UniformTraffic{};
    core::SweepEngine engine(spec);
    ASSERT_TRUE(engine.has_model());
    const auto lams = engine.lambda_sweep(6, 0.1, 0.95);
    const auto pts = engine.run(lams, /*run_sim=*/false);
    ModelConfig cfg = core::to_model_config(spec);
    for (std::size_t i = 0; i < lams.size(); ++i) {
      cfg.injection_rate = lams[i];
      const ModelResult direct = UniformTorusModel(cfg).solve();
      ASSERT_EQ(pts[i].model.saturated, direct.saturated) << i;
      EXPECT_EQ(bits(pts[i].model.latency), bits(direct.latency)) << i;
    }
  }
  {
    core::ScenarioSpec spec;
    spec.topology = core::HypercubeTopology{6};
    spec.hotspot().fraction = 0.2;
    core::SweepEngine engine(spec);
    ASSERT_TRUE(engine.has_model());
    const auto lams = engine.lambda_sweep(6, 0.1, 0.95);
    const auto pts = engine.run(lams, /*run_sim=*/false);
    ModelConfig cfg = core::to_model_config(spec);
    for (std::size_t i = 0; i < lams.size(); ++i) {
      cfg.injection_rate = lams[i];
      const ModelResult direct = HypercubeHotspotModel(cfg).solve();
      ASSERT_EQ(pts[i].model.saturated, direct.saturated) << i;
      EXPECT_EQ(bits(pts[i].model.latency), bits(direct.latency)) << i;
    }
    // The engine's saturation bisection agrees with a warm-off engine too.
    core::SweepEngine cold(spec);
    cold.set_warm_start(false);
    EXPECT_EQ(bits(engine.saturation_rate(1e-3).rate),
              bits(cold.saturation_rate(1e-3).rate));
  }
}

TEST(WarmStart, MeshChainIsBitIdenticalIncludingKnee) {
  // The mesh model's per-(dimension, position) classes run through the same
  // engine solve; continuation across an ascending sweep (including the
  // saturation knee and one saturated point) must be a pure accelerator.
  for (auto [k, n] : {std::pair{8, 2}, std::pair{4, 3}}) {
    ModelConfig cfg;
    cfg.k = k;
    cfg.n = n;
    cfg.hot_fraction = 0.0;
    cfg.vcs = 2;
    cfg.message_length = 16;
    const double sat_est = MeshUniformModel(cfg).estimated_saturation_rate();

    std::vector<double> chain;  // converged state of the previous point
    for (double f : {0.1, 0.3, 0.5, 0.7, 0.85, 0.95, 1.05, 1.5}) {
      cfg.injection_rate = f * sat_est;
      const MeshUniformModel model(cfg);
      const ModelResult cold = model.solve();
      std::vector<double> state;
      const ModelResult warm =
          model.solve(chain.empty() ? nullptr : &chain, &state);
      ASSERT_EQ(cold.saturated, warm.saturated) << "k=" << k << " f=" << f;
      EXPECT_EQ(bits(cold.latency), bits(warm.latency)) << "k=" << k << " f=" << f;
      EXPECT_EQ(bits(cold.regular_network_latency), bits(warm.regular_network_latency))
          << "k=" << k << " f=" << f;
      EXPECT_EQ(bits(cold.max_channel_utilization), bits(warm.max_channel_utilization))
          << "k=" << k << " f=" << f;
      EXPECT_EQ(cold.saturated, state.empty()) << "k=" << k << " f=" << f;
      if (!state.empty()) chain = std::move(state);
    }
  }
}

TEST(WarmStart, MeshSweepEngineIsWarmStartedMemoizedAndBitIdenticalToCold) {
  // Mesh sweeps ride the same SweepEngine machinery as every other family:
  // repeated lambdas are memoized, each solve is warm-started from the
  // nearest stable point below, and none of that may change a single bit
  // relative to a cold engine or the direct model class.
  core::ScenarioSpec spec;
  spec.topology = core::MeshTopology{8, 2};
  spec.traffic = core::UniformTraffic{};

  core::SweepEngine warm_engine(spec);
  ASSERT_TRUE(warm_engine.has_model());
  ASSERT_TRUE(warm_engine.warm_start());
  core::SweepEngine cold_engine(spec);
  cold_engine.set_warm_start(false);

  // The saturation bisection must agree bit-for-bit (every probe classifies
  // identically on both paths).
  EXPECT_EQ(bits(warm_engine.saturation_rate(1e-3).rate),
            bits(cold_engine.saturation_rate(1e-3).rate));

  const auto lams = warm_engine.lambda_sweep(6, 0.1, 0.95);
  std::vector<double> descending(lams.rbegin(), lams.rend());
  // Populate the warm cache in descending order first so warm sources vary.
  (void)warm_engine.run(descending, /*run_sim=*/false);
  const std::uint64_t hits_before = warm_engine.cache_stats().model_hits;
  const auto warm_pts = warm_engine.run(lams, /*run_sim=*/false);
  // The second sweep re-visits the identical lambdas: all solves memoized.
  EXPECT_EQ(warm_engine.cache_stats().model_hits, hits_before + lams.size());

  const auto cold_pts = cold_engine.run(lams, /*run_sim=*/false);
  ModelConfig cfg = core::to_model_config(spec);
  for (std::size_t i = 0; i < lams.size(); ++i) {
    ASSERT_EQ(warm_pts[i].model.saturated, cold_pts[i].model.saturated) << i;
    EXPECT_EQ(bits(warm_pts[i].model.latency), bits(cold_pts[i].model.latency)) << i;
    cfg.injection_rate = lams[i];
    const ModelResult direct = MeshUniformModel(cfg).solve();
    ASSERT_EQ(warm_pts[i].model.saturated, direct.saturated) << i;
    EXPECT_EQ(bits(warm_pts[i].model.latency), bits(direct.latency)) << i;
  }
}

TEST(WarmStart, SweepEngineResultsIndependentOfWarmStartAndOrder) {
  core::ScenarioSpec s;
  s.torus().k = 8;
  s.vcs = 2;
  s.message_length = 32;
  s.hotspot().fraction = 0.2;

  core::SweepEngine cold_engine(s);
  cold_engine.set_warm_start(false);
  core::SweepEngine warm_engine(s);
  ASSERT_TRUE(warm_engine.warm_start());

  // The boundary itself must agree bit-for-bit (every bisection probe
  // classifies identically), and so must every sweep point — regardless of
  // the order the cache was populated in.
  const double sat_cold = cold_engine.saturation_rate(1e-3).rate;
  const double sat_warm = warm_engine.saturation_rate(1e-3).rate;
  EXPECT_EQ(bits(sat_cold), bits(sat_warm));

  std::vector<double> lams = cold_engine.lambda_sweep(6, 0.1, 0.95);
  std::vector<double> descending(lams.rbegin(), lams.rend());
  const auto cold_pts = cold_engine.run(lams, /*run_sim=*/false);
  // Warm engine sees the sweep in *descending* order first: predecessors are
  // often absent, so warm sources vary — results must not.
  (void)warm_engine.run(descending, /*run_sim=*/false);
  const auto warm_pts = warm_engine.run(lams, /*run_sim=*/false);
  for (std::size_t i = 0; i < lams.size(); ++i) {
    ASSERT_EQ(cold_pts[i].model.saturated, warm_pts[i].model.saturated) << i;
    EXPECT_EQ(bits(cold_pts[i].model.latency), bits(warm_pts[i].model.latency)) << i;
  }
}

}  // namespace
}  // namespace kncube::model
