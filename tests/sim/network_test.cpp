// Network-level structure: wiring, port naming, aggregate statistics.
#include <gtest/gtest.h>

#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace kncube::sim {
namespace {

SimConfig tiny_config(bool bidirectional = false) {
  SimConfig cfg;
  cfg.k = 4;
  cfg.n = 2;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = 4;
  cfg.injection_rate = 0.0;
  cfg.bidirectional = bidirectional;
  return cfg;
}

TEST(Network, PortNamingRoundTrips) {
  Network net(tiny_config(true));
  const Router& r = net.router(0);
  for (int d = 0; d < 2; ++d) {
    for (auto dir : {topo::Direction::kPlus, topo::Direction::kMinus}) {
      const int port = r.out_port_for(d, dir);
      EXPECT_EQ(r.port_dim(port), d);
      EXPECT_EQ(r.port_dir(port), dir);
    }
  }
}

TEST(Network, UnidirectionalPortCount) {
  Network net(tiny_config(false));
  EXPECT_EQ(net.router(0).network_ports(), 2);
  Network bidir(tiny_config(true));
  EXPECT_EQ(bidir.router(0).network_ports(), 4);
}

TEST(Network, WiringDeliversAlongEveryLink) {
  // Send one message across each dimension from every node; every outgoing
  // channel must carry exactly Lm flits.
  const SimConfig cfg = tiny_config();
  Simulator sim(cfg);
  sim.metrics().begin_measurement(0);
  const auto& topo = sim.network().topology();
  std::uint64_t expected = 0;
  for (topo::NodeId id = 0; id < topo.size(); ++id) {
    for (int d = 0; d < topo.dims(); ++d) {
      sim.inject_now(id, topo.neighbor(id, d, topo::Direction::kPlus));
      ++expected;
    }
  }
  while (sim.metrics().delivered_total() < expected && sim.current_cycle() < 20000) {
    sim.step_cycles(16);
  }
  ASSERT_EQ(sim.metrics().delivered_total(), expected);
  for (topo::NodeId id = 0; id < topo.size(); ++id) {
    for (int p = 0; p < sim.network().router(id).network_ports(); ++p) {
      EXPECT_EQ(sim.network().router(id).output_port(p).flits_sent, 4u)
          << "node " << id << " port " << p;
    }
  }
}

TEST(Network, ChannelSummaryAggregates) {
  const SimConfig cfg = tiny_config();
  Simulator sim(cfg);
  sim.metrics().begin_measurement(0);
  sim.network().reset_channel_stats();
  sim.inject_now(0, 1);
  sim.step_cycles(100);
  const auto summary = sim.network().channel_summary();
  EXPECT_GT(summary.max_utilization, 0.0);
  EXPECT_GT(summary.mean_utilization, 0.0);
  EXPECT_LT(summary.mean_utilization, summary.max_utilization);
  EXPECT_GE(summary.mean_vc_multiplexing, 1.0);
}

TEST(Network, InflightAndBacklogAccounting) {
  SimConfig cfg = tiny_config();
  cfg.message_length = 8;
  Simulator sim(cfg);
  sim.metrics().begin_measurement(0);
  EXPECT_EQ(sim.network().inflight_flits(), 0u);
  // Two messages into the same injection VC queue: the second waits.
  sim.inject_now(0, 2);
  sim.inject_now(0, 2);
  sim.inject_now(0, 2);
  sim.step_cycles(1);
  EXPECT_GT(sim.network().inflight_flits(), 0u);
  sim.step_cycles(200);
  EXPECT_EQ(sim.network().inflight_flits(), 0u);
  EXPECT_EQ(sim.network().source_backlog(), 0u);
  EXPECT_EQ(sim.metrics().delivered_total(), 3u);
}

TEST(Network, ArrivalAtAnIdleRouterIsAppliedAtTheNextCycle) {
  // Only routers that stepped run the cycle-end commit. A flit staged at a
  // router that was idle at the cycle start stays in its staged slot until
  // the next cycle's activity scan applies it, and the occupancy counters
  // must see it in both places.
  const SimConfig cfg = tiny_config();  // Lm = 4
  Simulator sim(cfg);
  sim.metrics().begin_measurement(0);
  const Network& net = sim.network();
  const Router& r1 = net.router(1);
  sim.inject_now(0, 2);  // two hops along dimension 0: 0 -> 1 -> 2

  // Cycle 0: router 0 materialises the message and sends the head to
  // router 1 (input port 0, VC 0), which was quiescent.
  sim.step_cycles(1);
  EXPECT_EQ(r1.buffered_flits(), 1u);
  EXPECT_EQ(r1.input_vc(0, 0).count, 0u);  // still staged
  EXPECT_FALSE(r1.input_vc(0, 0).active);
  EXPECT_EQ(net.inflight_flits(), 4u);  // the whole message, staged head too
  std::uint64_t scanned = 0;
  for (topo::NodeId id = 0; id < net.size(); ++id) {
    scanned += net.router(id).buffered_flits();
  }
  EXPECT_EQ(scanned, 4u);

  // Cycle 1: the scan applies the head, router 1 routes it, allocates a VC
  // and forwards it; the body flit sent this cycle commits into the ring.
  sim.step_cycles(1);
  EXPECT_EQ(net.inflight_flits(), 4u);
  const Router::InputVc in = r1.input_vc(0, 0);
  EXPECT_TRUE(in.active);
  EXPECT_EQ(in.route_out, r1.out_port_for(0, topo::Direction::kPlus));
  EXPECT_EQ(in.out_vc, 0);
  EXPECT_EQ(in.count, 1u);
  EXPECT_EQ(net.router(2).buffered_flits(), 1u);  // head staged at router 2

  sim.step_cycles(20);
  EXPECT_EQ(sim.metrics().delivered_total(), 1u);
  EXPECT_EQ(net.inflight_flits(), 0u);
}

TEST(Network, ResetChannelStatsZeroesCounters) {
  const SimConfig cfg = tiny_config();
  Simulator sim(cfg);
  sim.metrics().begin_measurement(0);
  sim.inject_now(0, 1);
  sim.step_cycles(50);
  sim.network().reset_channel_stats();
  const auto& port = sim.network().router(0).output_port(0);
  EXPECT_EQ(port.flits_sent, 0u);
  EXPECT_EQ(port.stat_cycles, 0u);
  EXPECT_EQ(port.busy_vc_cycles, 0u);
}

TEST(Network, UtilizationAccessorMatchesPortStats) {
  const SimConfig cfg = tiny_config();
  Simulator sim(cfg);
  sim.metrics().begin_measurement(0);
  sim.network().reset_channel_stats();
  sim.inject_now(0, 1);
  sim.step_cycles(80);
  const double via_accessor =
      sim.network().channel_utilization(0, 0, topo::Direction::kPlus);
  const Router& r = sim.network().router(0);
  EXPECT_DOUBLE_EQ(via_accessor, r.output_port(0).utilization());
  EXPECT_NEAR(via_accessor, 4.0 / 80.0, 1e-12);
}

}  // namespace
}  // namespace kncube::sim
