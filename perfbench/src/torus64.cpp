// torus64-sharded: one 64x64 unidirectional torus under uniform traffic at
// 0.7 of the model's saturation rate, stepped by the sharded engine with
// sim.threads = 2. Set-up warms the network up; the timed phase then steps
// fixed-length chunks with Simulator::step_cycles. One op is one chunk. It
// is the only workload that runs the sharded stepping engine (ThreadTeam,
// spin barriers, staged atomics) with every router busy.
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "core/kncube.hpp"
#include "trace.hpp"
#include "workload_util.hpp"

namespace perfbench {

namespace core = kncube::core;
namespace sim = kncube::sim;

namespace {

constexpr double kLoadFraction = 0.7;
constexpr int kSimThreads = 2;
/// One chunk takes about this long on the reference host.
constexpr double kNominalChunkSeconds = 0.26;

struct Shape {
  int k;
  std::uint64_t warmup_cycles;
  std::uint64_t chunk_cycles;
  std::uint64_t prefix_cycles;  ///< sharded-vs-serial bitwise check length
};

Shape shape_for(const RunConfig& cfg) {
  if (cfg.smoke) return {16, 300, 50, 100};
  return {64, 1500, 800, 300};
}

core::ScenarioSpec make_spec(const RunConfig& cfg, const Shape& shape) {
  core::ScenarioSpec spec;
  core::apply_scenario_setting(spec, "topology.k", std::to_string(shape.k));
  core::apply_scenario_setting(spec, "traffic.kind", "uniform");
  spec.seed = mix_seed(cfg.seed, 0x64);
  spec.sim_threads = kSimThreads;
  spec.validate();
  return spec;
}

}  // namespace

WorkloadRun run_torus64(const RunConfig& cfg) {
  WorkloadRun run;
  const Shape shape = shape_for(cfg);
  const std::uint64_t chunks =
      cfg.smoke ? 12
                : std::max<std::uint64_t>(
                      12, static_cast<std::uint64_t>(std::lround(cfg.seconds / kNominalChunkSeconds)));

  // Set-up: registry dispatch and saturation bisection, topology build,
  // Simulator construction (network, router arena, fault set) and warm-up.
  std::unique_ptr<sim::Simulator> simulator;
  sim::SimConfig sim_cfg;
  const auto set_up = [&] {
    const core::ScenarioSpec spec = make_spec(cfg, shape);
    core::SweepEngine engine(spec);
    core::SaturationResult sat;
    {
      trace::Scope span("core.saturation_rate");
      sat = engine.saturation_rate();
    }
    if (sat.failed) throw std::runtime_error("torus64: saturation search failed");
    run.values["core.sat_probes"] = sat.probes;
    sim_cfg = core::to_sim_config(spec, kLoadFraction * sat.rate);
    {
      trace::Scope span("topo.build");
      const kncube::topo::KAryNCube net(sim_cfg.k, sim_cfg.n);
      const kncube::topo::FaultSet faults = sim::build_fault_set(sim_cfg, net);
    }
    {
      trace::Scope span("sim.build");
      simulator = std::make_unique<sim::Simulator>(sim_cfg);
    }
    trace::Scope span("sim.warmup");
    simulator->step_cycles(shape.warmup_cycles);
    simulator->metrics().begin_measurement(simulator->current_cycle());
    simulator->network().reset_channel_stats();
  };
  const auto tear_down = [&] { simulator.reset(); };
  time_setups(cfg, 5, set_up, tear_down, run.setups);

  const std::uint64_t routers = simulator->network().size();
  const std::uint64_t flits0 = simulator->metrics().flits_delivered();
  for (std::uint64_t c = 0; c < chunks; ++c) {
    trace::Scope op_span("op.chunk");
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    {
      trace::Scope span("sim.step_cycles");
      simulator->step_cycles(shape.chunk_cycles);
    }
    const double dt = seconds_since(t0);
    run.cpu_s += process_cpu_seconds() - cpu0;
    run.wall_s += dt;
    run.op_ms.push_back(dt * 1e3);
    // Check (outside the timed region): flits conserved at this cut.
    ++run.attempted;
    if (!simulator->finalize(0).conservation_ok) {
      run.fail("chunk " + std::to_string(c) + ": flit conservation violated");
    }
  }
  const double cycles = static_cast<double>(chunks * shape.chunk_cycles);
  run.values["sim.cycles"] = cycles;
  run.values["sim.router_cycles"] = cycles * static_cast<double>(routers);
  run.values["sim.flits"] =
      static_cast<double>(simulator->metrics().flits_delivered() - flits0);
  run.values["sim.shards"] = static_cast<double>(simulator->network().shard_count());
  run.values["sim_mrcps"] = cycles * static_cast<double>(routers) / run.wall_s * 1e-6;
  if (simulator->network().shard_count() < 2) {
    run.fail("the sharded engine did not shard (shard_count < 2)");
  }

  run.peak_rss_mb = peak_rss_mb();

  // Check: a prefix stepped with sim.threads = 2 and with sim.threads = 1
  // must agree bit for bit.
  ++run.attempted;
  simulator.reset();
  sim::SimConfig serial_cfg = sim_cfg;
  serial_cfg.sim_threads = 1;
  sim::Simulator sharded(sim_cfg);
  sim::Simulator serial(serial_cfg);
  for (sim::Simulator* s : {&sharded, &serial}) {
    s->metrics().begin_measurement(0);
    s->step_cycles(shape.prefix_cycles);
  }
  if (!same_sim(sharded.finalize(0), serial.finalize(0)) ||
      sharded.metrics().flits_delivered() != serial.metrics().flits_delivered()) {
    run.fail("sharded and serial prefixes differ");
  }
  time_setups(cfg, 4, set_up, tear_down, run.setups);
  return run;
}

}  // namespace perfbench
