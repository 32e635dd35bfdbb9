// Golden determinism pins for the simulator hot loop.
//
// Each case runs a fixed-seed configuration and asserts *exact* equality —
// bit-level for doubles, integer equality for counters, and an FNV-1a
// checksum over every output channel's integer statistics — against values
// recorded from the pre-SoA router (seed `main` plus the measurement-
// anchored stop-poll fix, which landed in the same PR). The SoA flit-slab /
// requester-list / active-router-set refactor must reproduce the seed
// behaviour cycle for cycle; any drift in arbitration order, credit timing
// or stats accounting trips these pins.
//
// To regenerate after an *intentional* behaviour change:
//   KNCUBE_PRINT_GOLDEN=1 ./sim_tests --gtest_filter='DeterminismGolden.*'
// and paste the printed block (values are printed as hexfloat so the
// round-trip is exact).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "core/scenario_spec.hpp"
#include "sim/simulator.hpp"
#include "util/thread_pool.hpp"
#include "validate/replication.hpp"

namespace kncube::sim {
namespace {

/// FNV-1a over the integer channel statistics of every (router, port).
std::uint64_t channel_stats_checksum(const Network& net) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (topo::NodeId id = 0; id < net.size(); ++id) {
    const Router& r = net.router(id);
    for (int p = 0; p < r.network_ports(); ++p) {
      const auto& op = r.output_port(p);
      mix(op.flits_sent);
      mix(op.busy_vc_cycles);
      mix(op.busy_vc_sq_cycles);
      mix(op.busy_cycles);
      mix(op.stat_cycles);
    }
  }
  return h;
}

struct Golden {
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t flits_delivered = 0;
  std::uint64_t inflight = 0;
  std::uint64_t backlog = 0;
  std::uint64_t checksum = 0;
  double mean_latency = 0.0;
  double mean_network_latency = 0.0;
};

bool print_mode() { return std::getenv("KNCUBE_PRINT_GOLDEN") != nullptr; }

/// Runs `cycles` cycles with measurement from cycle 0 at the given thread
/// count and returns the observed pin values.
Golden run_once(const SimConfig& cfg, std::uint64_t cycles, int sim_threads) {
  SimConfig tcfg = cfg;
  tcfg.sim_threads = sim_threads;
  Simulator sim(tcfg);
  sim.metrics().begin_measurement(0);
  sim.step_cycles(cycles);

  Golden got;
  got.generated = sim.metrics().generated_total();
  got.delivered = sim.metrics().delivered_total();
  got.flits_delivered = sim.metrics().flits_delivered();
  got.inflight = sim.network().inflight_flits();
  got.backlog = sim.network().source_backlog();
  got.checksum = channel_stats_checksum(sim.network());
  got.mean_latency = sim.metrics().latency().mean();
  got.mean_network_latency = sim.metrics().network_latency().mean();
  return got;
}

/// Sweeps sim_threads over {1, 2, 4} and either prints the pin (once, from
/// the serial run) or checks *every* thread count against the same recorded
/// values — the sharded engine's bit-identity contract is part of the pin.
void run_case(const char* name, const SimConfig& cfg, std::uint64_t cycles,
              const Golden& want) {
  for (const int threads : {1, 2, 4}) {
    const Golden got = run_once(cfg, cycles, threads);
    if (print_mode()) {
      if (threads != 1) continue;
      std::cout.precision(17);
      std::cout << "  // " << name << "\n"
                << std::hexfloat << "  {" << got.generated << "u, " << got.delivered
                << "u, " << got.flits_delivered << "u, " << got.inflight << "u, "
                << got.backlog << "u, 0x" << std::hex << got.checksum << std::dec
                << "ULL, " << got.mean_latency << ", " << got.mean_network_latency
                << "},\n"
                << std::defaultfloat;
      continue;
    }
    EXPECT_EQ(got.generated, want.generated) << name << " T=" << threads;
    EXPECT_EQ(got.delivered, want.delivered) << name << " T=" << threads;
    EXPECT_EQ(got.flits_delivered, want.flits_delivered) << name << " T=" << threads;
    EXPECT_EQ(got.inflight, want.inflight) << name << " T=" << threads;
    EXPECT_EQ(got.backlog, want.backlog) << name << " T=" << threads;
    EXPECT_EQ(got.checksum, want.checksum) << name << " T=" << threads;
    EXPECT_EQ(got.mean_latency, want.mean_latency) << name << " T=" << threads;
    EXPECT_EQ(got.mean_network_latency, want.mean_network_latency)
        << name << " T=" << threads;
  }
}

TEST(DeterminismGolden, HotspotK8) {
  // The paper's workload shape: unidirectional 8x8 torus, hot-spot traffic,
  // moderate load. Exercises dateline classes, hot-column contention and the
  // active-set scheduler (most routers idle most cycles).
  SimConfig cfg;
  cfg.k = 8;
  cfg.n = 2;
  cfg.bidirectional = false;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = 16;
  cfg.pattern = Pattern::kHotspot;
  cfg.hot_fraction = 0.2;
  cfg.injection_rate = 2e-3;
  cfg.seed = 0xDE7E12;
  run_case("HotspotK8", cfg, 20000,
           {2506u, 2502u, 40063u, 33u, 0u, 0xbccd2532e298073dULL,
            0x1.c9490e1eb208bp+4, 0x1.b60e531513d95p+4});
}

TEST(DeterminismGolden, HotspotK8HighLoad) {
  // Near saturation: long queues, continuous arbitration conflicts, requester
  // lists that stay populated — the stress case for round-robin parity.
  SimConfig cfg;
  cfg.k = 8;
  cfg.n = 2;
  cfg.vcs = 4;
  cfg.buffer_depth = 4;
  cfg.message_length = 32;
  cfg.pattern = Pattern::kHotspot;
  cfg.hot_fraction = 0.2;
  cfg.injection_rate = 2.5e-3;
  cfg.seed = 0xC0FFEE;
  run_case("HotspotK8HighLoad", cfg, 8000,
           {1293u, 1113u, 35778u, 2174u, 107u, 0xc2b9ad7ffded966ULL,
            0x1.68a611054a4bbp+7, 0x1.1733c0847c34p+7});
}

TEST(DeterminismGolden, BidirectionalUniformK4) {
  // Bidirectional 4x4 torus, uniform traffic, odd VC count (asymmetric
  // dateline class split) and a non-power-of-two buffer depth (ring capacity
  // rounds up while credits still cap at buffer_depth).
  SimConfig cfg;
  cfg.k = 4;
  cfg.n = 2;
  cfg.bidirectional = true;
  cfg.vcs = 3;
  cfg.buffer_depth = 3;
  cfg.message_length = 4;
  cfg.pattern = Pattern::kUniform;
  cfg.injection_rate = 0.02;
  cfg.seed = 99;
  run_case("BidirectionalUniformK4", cfg, 6000,
           {1919u, 1919u, 7676u, 0u, 0u, 0xd43eaca8df11f295ULL,
            0x1.59a58d8a56b71p+2, 0x1.59502cd2c6c51p+2});
}

TEST(DeterminismGolden, SingleFlitCubeK4N3) {
  // 3-D cube with single-flit messages (head == tail) and depth-1 buffers:
  // every push/pop path, credit and release fires on the same flit.
  SimConfig cfg;
  cfg.k = 4;
  cfg.n = 3;
  cfg.vcs = 2;
  cfg.buffer_depth = 1;
  cfg.message_length = 1;
  cfg.pattern = Pattern::kHotspot;
  cfg.hot_fraction = 0.3;
  cfg.injection_rate = 0.01;
  cfg.seed = 7;
  run_case("SingleFlitCubeK4N3", cfg, 6000,
           {3853u, 3849u, 3849u, 4u, 0u, 0xdcd0080558ea6f0eULL,
            0x1.265c2f16f23a5p+2, 0x1.2503645d61932p+2});
}

TEST(DeterminismGolden, HypercubeD6Hotspot) {
  // Binary hypercube as a k = 2 n-cube (dimension-order routing is e-cube):
  // 64 nodes, hot-spot traffic — the predecessor-model substrate that the
  // validation suite sweeps; single-hop rings mean no dateline classes.
  SimConfig cfg;
  cfg.k = 2;
  cfg.n = 6;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = 16;
  cfg.pattern = Pattern::kHotspot;
  cfg.hot_fraction = 0.2;
  cfg.injection_rate = 3e-3;
  cfg.seed = 0xCAB1E;
  run_case("HypercubeD6Hotspot", cfg, 12000,
           {2287u, 2284u, 36571u, 21u, 0u, 0x628687da0ef68d4aULL,
            0x1.332e2dbaf4ca6p+4, 0x1.2d9aad0ecb8bfp+4});
}

TEST(DeterminismGolden, MmppHotspotK8) {
  // MMPP bursty arrivals (the §5 extension): per-node two-state modulated
  // Bernoulli sources layered on the hot-spot pattern. Pins the burst-state
  // transition RNG stream alongside the routing/arbitration streams.
  SimConfig cfg;
  cfg.k = 8;
  cfg.n = 2;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = 16;
  cfg.pattern = Pattern::kHotspot;
  cfg.hot_fraction = 0.2;
  cfg.injection_rate = 1.5e-3;
  cfg.arrivals = Arrivals::kMmpp;
  cfg.seed = 0xB0B5;
  run_case("MmppHotspotK8", cfg, 20000,
           {1820u, 1817u, 29099u, 21u, 0u, 0x772f6d5353f4f90ULL,
            0x1.ad0f134d59781p+4, 0x1.95b0415faa565p+4});
}

TEST(DeterminismGolden, MeshK8N2Uniform) {
  // 8x8 mesh, uniform traffic: no wrap links (edge ports unconnected), no
  // dateline classes (all VCs are class 0), position-dependent channel load
  // peaking at the bisection links. Pins the mesh routing/wiring path.
  SimConfig cfg;
  cfg.k = 8;
  cfg.n = 2;
  cfg.mesh = true;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = 16;
  cfg.pattern = Pattern::kUniform;
  cfg.injection_rate = 8e-3;
  cfg.seed = 0x4D455348;  // "MESH"
  run_case("MeshK8N2Uniform", cfg, 20000,
           {10084u, 10069u, 161194u, 150u, 0u, 0xcb293402a592d1dfULL,
            0x1.daab9da8630ebp+4, 0x1.ce79e2a8f8c25p+4});
}

TEST(DeterminismGolden, MeshK4N3Hotspot) {
  // 4x4x4 mesh with a centre hot spot: hot-spot funnelling without the
  // torus's symmetry, V = 1 (legal on a mesh — acyclic routing needs no
  // dateline split) and depth-1 buffers to stress the credit path.
  SimConfig cfg;
  cfg.k = 4;
  cfg.n = 3;
  cfg.mesh = true;
  cfg.vcs = 1;
  cfg.buffer_depth = 1;
  cfg.message_length = 8;
  cfg.pattern = Pattern::kHotspot;
  cfg.hot_fraction = 0.3;
  cfg.injection_rate = 4e-3;
  cfg.seed = 0xCAFE42;
  run_case("MeshK4N3Hotspot", cfg, 16000,
           {4049u, 4042u, 32348u, 44u, 0u, 0x9e1a02730f915509ULL,
            0x1.5b0c4977f4dacp+4, 0x1.44c61ca09e15fp+4});
}

TEST(DeterminismGolden, FaultyMeshK8N2) {
  // Degraded 8x8 mesh: two dead routers plus one failed directed link (the
  // faulty_mesh.spec shape). Pins the fault-masked wiring, the unreachable-
  // at-injection classification and the sharded engine's bit-identity on a
  // faulty network — generated here counts unreachable traffic too.
  SimConfig cfg;
  cfg.k = 8;
  cfg.n = 2;
  cfg.mesh = true;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = 16;
  cfg.pattern = Pattern::kUniform;
  cfg.injection_rate = 8e-3;
  cfg.seed = 0x4D455348;  // same seed as MeshK8N2Uniform: only faults differ
  cfg.failed_routers = {9, 27};
  cfg.failed_links = {{36, 0, topo::Direction::kPlus}};
  run_case("FaultyMeshK8N2", cfg, 20000,
           {9763u, 7488u, 119867u, 101u, 0u, 0x701403dc6ad38a0aULL,
            0x1.aecf50f50f511p+4, 0x1.a79c71c71c713p+4});
}

TEST(DeterminismGolden, FaultyTorusK8N2) {
  // Degraded unidirectional 8x8 torus under hot-spot traffic with seed-
  // derived random failures (rate 2/64: exactly two routers, hot node
  // protected). Pins the random-mode resolution path end-to-end.
  SimConfig cfg;
  cfg.k = 8;
  cfg.n = 2;
  cfg.bidirectional = false;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = 16;
  cfg.pattern = Pattern::kHotspot;
  cfg.hot_fraction = 0.2;
  cfg.injection_rate = 2e-3;
  cfg.seed = 0xDE7E12;  // same seed as HotspotK8: only faults differ
  cfg.failure_rate = 2.0 / 64.0;
  cfg.failure_seed = 7;
  run_case("FaultyTorusK8N2", cfg, 20000,
           {2426u, 1963u, 31439u, 33u, 0u, 0x51031869d82f97a7ULL,
            0x1.adb9d6875e499p+4, 0x1.9ffbd3a8e264fp+4});
}

TEST(DeterminismGolden, HotspotK32Sharded) {
  // Large network (32x32 = 1024 routers): every sweep entry gets real shards
  // (4 threads => 256 routers each), so the cross-shard staging, barrier and
  // metric-replay machinery is pinned at scale, not just on the 64-node
  // cases. Short run — the active-set scheduler keeps most of the 1024
  // routers idle at this load.
  SimConfig cfg;
  cfg.k = 32;
  cfg.n = 2;
  cfg.bidirectional = false;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = 16;
  cfg.pattern = Pattern::kHotspot;
  cfg.hot_fraction = 0.1;
  cfg.injection_rate = 4e-4;
  cfg.seed = 0x5A4D32;
  run_case("HotspotK32Sharded", cfg, 6000,
           {2506u, 2482u, 39795u, 301u, 0u, 0x69fef3acc3f4fc88ULL,
            0x1.c22804f36aa5cp+5, 0x1.ba78e216b0fe8p+5});
}

/// The paper's §4 validation scenario (Figs. 1–2, examples/specs/
/// hotspot_torus.spec): 16x16 unidirectional torus, h = 0.2, V = 2, depth-2
/// buffers, at message length `lm` and injection rate `lambda`.
SimConfig paper_config(int lm, double lambda) {
  SimConfig cfg;
  cfg.k = 16;
  cfg.n = 2;
  cfg.bidirectional = false;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = lm;
  cfg.pattern = Pattern::kHotspot;
  cfg.hot_fraction = 0.2;
  cfg.injection_rate = lambda;
  cfg.seed = 7621;  // the spec file's measure.seed
  return cfg;
}

TEST(DeterminismGolden, PaperTorusK16Lm32) {
  // Fig. 1 curve at about two thirds of the model's saturation rate: the
  // headline workload itself, with 4 threads giving 64-router shards.
  run_case("PaperTorusK16Lm32", paper_config(32, 3e-4), 20000,
           {1593u, 1583u, 50778u, 198u, 0u, 0xc1530061650fc5a6ULL,
            0x1.c6687851818a2p+5, 0x1.bc89c8b13e432p+5});
}

TEST(DeterminismGolden, PaperTorusK16Lm100) {
  // Fig. 2 curve: 100-flit worms span many routers at once, so requester
  // lists, credits and VC releases stay busy across shard boundaries.
  run_case("PaperTorusK16Lm100", paper_config(100, 1e-4), 20000,
           {545u, 537u, 53799u, 701u, 0u, 0x449926932be2bce1ULL,
            0x1.3275461405b86p+7, 0x1.24bdbc4e2eb81p+7});
}

TEST(DeterminismGolden, MeshReplicationBitIdenticalAcrossThreadCountsAndRuns) {
  // The mesh goldens above pin one process; this pins the *measurement
  // subsystem* over the mesh: ReplicationRunner aggregates must be
  // bit-identical when re-run and when the worker count changes (per-
  // replication seed streams are scheduling-independent).
  core::ScenarioSpec spec;
  spec.topology = core::MeshTopology{8, 2};
  spec.traffic = core::UniformTraffic{};
  spec.message_length = 16;
  spec.warmup_cycles = 2000;
  spec.target_messages = 400;
  spec.max_cycles = 200000;

  util::ThreadPool one(1);
  util::ThreadPool many(4);
  const validate::ReplicationRunner serial(spec, 3, &one);
  const validate::ReplicationRunner serial_again(spec, 3, &one);
  const validate::ReplicationRunner parallel(spec, 3, &many);

  const double lambda = 5e-3;
  const validate::ReplicationPoint a = serial.run(lambda);
  const validate::ReplicationPoint b = serial_again.run(lambda);
  const validate::ReplicationPoint c = parallel.run(lambda);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const validate::ReplicationPoint* p : {&b, &c}) {
    EXPECT_EQ(bits(a.latency.mean), bits(p->latency.mean));
    EXPECT_EQ(bits(a.latency.half_width), bits(p->latency.half_width));
    EXPECT_EQ(bits(a.network_latency.mean), bits(p->network_latency.mean));
    EXPECT_EQ(bits(a.throughput.mean), bits(p->throughput.mean));
    ASSERT_EQ(a.results.size(), p->results.size());
    for (std::size_t r = 0; r < a.results.size(); ++r) {
      EXPECT_EQ(bits(a.results[r].mean_latency), bits(p->results[r].mean_latency))
          << "replication " << r;
      EXPECT_EQ(a.results[r].cycles, p->results[r].cycles) << "replication " << r;
    }
  }
}

TEST(DeterminismGolden, FullMeasurementProtocol) {
  // The complete run() protocol (warm-up, measurement window, anchored stop
  // polling): pins end-to-end results including the steady-state machinery.
  SimConfig cfg;
  cfg.k = 8;
  cfg.n = 2;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = 16;
  cfg.pattern = Pattern::kHotspot;
  cfg.hot_fraction = 0.2;
  cfg.injection_rate = 1.5e-3;
  cfg.seed = 0xBEEF;
  cfg.warmup_cycles = 2000;
  cfg.target_messages = 1200;
  cfg.max_cycles = 300000;

  Simulator sim(cfg);
  const SimResult res = sim.run();
  if (print_mode()) {
    std::cout.precision(17);
    std::cout << "  // FullMeasurementProtocol\n"
              << "  cycles=" << res.cycles << " messages=" << res.measured_messages
              << std::hexfloat << " mean=" << res.mean_latency
              << " p95=" << res.p95_latency << " hot_util=" << res.hot_channel_utilization
              << " chk=0x" << std::hex << channel_stats_checksum(sim.network())
              << std::dec << std::defaultfloat << "\n";
    return;
  }
  EXPECT_EQ(res.cycles, 34256u);
  EXPECT_EQ(res.measured_messages, 3009u);
  EXPECT_EQ(res.mean_latency, 0x1.a237a41d9b7p+4);
  EXPECT_EQ(res.p95_latency, 0x1.5e75555555551p+5);
  EXPECT_EQ(res.hot_channel_utilization, 0x1.479e79e79e79ep-2);
  EXPECT_EQ(channel_stats_checksum(sim.network()), 0x383811799608d566ULL);
}

}  // namespace
}  // namespace kncube::sim
