// paper-sweep: the paper's §4 scenario (examples/specs/hotspot_torus.spec,
// 16x16 unidirectional torus, h = 0.2, V = 2) swept the way kncube_run
// sweeps it — the Fig. 1 curve (Lm = 32), then the Fig. 2 curve (Lm = 100),
// 8 points each from 0.1 to 0.95 of model saturation, model and simulation,
// each curve one SweepEngine::run call with sim.threads = 1. One op is one
// operating point; ops are not timed one by one, because run() pools them.
// The inputs are the committed spec file, simulator seed included; the
// workload seed leaves them unchanged.
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "core/kncube.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "traced_store.hpp"
#include "workload_util.hpp"

namespace perfbench {

namespace core = kncube::core;
namespace sim = kncube::sim;

namespace {

constexpr int kPointsPerCurve = 8;
/// One sweep of both curves takes about this long on the reference host
/// (4-vCPU KVM guest, two busy threads); --seconds is rounded to sweeps.
constexpr double kNominalSweepSeconds = 13.0;

struct Curve {
  core::ScenarioSpec spec;
  std::shared_ptr<TracedStore> traced_store;
  std::unique_ptr<core::SweepEngine> engine;
  std::vector<double> lambdas;
  int probes = 0;
};

std::vector<Curve> set_up_curves(const RunConfig& cfg, const std::string& spec_text) {
  std::vector<Curve> curves;
  for (const int lm : {32, 100}) {
    Curve c;
    c.spec = core::parse_scenario(spec_text);
    core::apply_scenario_setting(c.spec, "workload.message_length", std::to_string(lm));
    // The spec file's own measure.seed is kept, as kncube_run keeps it: the
    // workload seed does not change the paper's scenario, so every run does
    // identical work and model_rel_err is one fixed number per commit.
    c.spec.sim_threads = 1;
    if (cfg.smoke) {
      c.spec.torus().k = 8;
      c.spec.warmup_cycles = 3000;
      c.spec.target_messages = 1000;
      c.spec.max_cycles = 200000;
    }
    c.spec.validate();
    {
      trace::Scope span("topo.build");
      const kncube::topo::KAryNCube net(c.spec.torus().k, c.spec.torus().n);
    }
    std::shared_ptr<core::ResultStore> store;
    if (cfg.traced) {
      c.traced_store =
          std::make_shared<TracedStore>(std::make_shared<core::MemoryResultStore>());
      c.traced_store->register_spec(c.spec.key(), c.spec.node_count(),
                                    c.spec.message_length);
      store = c.traced_store;
    }
    c.engine = std::make_unique<core::SweepEngine>(c.spec, store);
    {
      trace::Scope span("core.saturation_rate");
      c.probes = c.engine->saturation_rate().probes;
    }
    c.lambdas = c.engine->lambda_sweep(kPointsPerCurve, 0.1, 0.95);
    curves.push_back(std::move(c));
  }
  return curves;
}

}  // namespace

WorkloadRun run_paper_sweep(const RunConfig& cfg) {
  WorkloadRun run;
  const std::string spec_path = "examples/specs/hotspot_torus.spec";
  const int sweeps = std::max(1, static_cast<int>(std::lround(cfg.seconds / kNominalSweepSeconds)));

  double sim_router_cycles = 0.0;
  double err_sum = 0.0;
  int err_points = 0;
  // Set-up: spec parse, registry dispatch and saturation bisection for
  // both curves, cold each time (each sweep needs fresh engines, or it would
  // only read back the previous sweep's results).
  std::vector<Curve> curves;
  const auto set_up = [&] { curves = set_up_curves(cfg, read_file(spec_path)); };
  const auto tear_down = [&] { curves.clear(); };
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    if (sweep == 0) {
      time_setups(cfg, 5, set_up, tear_down, run.setups);
    } else {
      tear_down();
      set_up();
    }

    std::vector<std::vector<core::PointResult>> results(curves.size());
    std::vector<std::string> errors(curves.size());
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    for (std::size_t c = 0; c < curves.size(); ++c) {
      trace::Scope op_span("op.curve");
      try {
        trace::Scope span("core.run", /*adopt_orphans=*/true);
        results[c] = curves[c].engine->run(curves[c].lambdas, /*run_sim=*/true);
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    }
    run.wall_s += seconds_since(start);
    run.cpu_s += process_cpu_seconds() - cpu0;
    run.peak_rss_mb = peak_rss_mb();

    // Checks (outside the timed region): every point simulated without an
    // error and conserved its flits; the model answered.
    for (std::size_t c = 0; c < curves.size(); ++c) {
      const Curve& curve = curves[c];
      const std::string where = "Lm=" + std::to_string(curve.spec.message_length);
      if (!errors[c].empty() || results[c].size() != curve.lambdas.size()) {
        run.attempted += curve.lambdas.size();
        for (std::size_t i = 0; i < curve.lambdas.size(); ++i) {
          run.fail(where + ": " + (errors[c].empty() ? "points missing" : errors[c]));
        }
        continue;
      }
      for (std::size_t i = 0; i < results[c].size(); ++i) {
        const core::PointResult& p = results[c][i];
        ++run.attempted;
        const std::string point = where + " point " + std::to_string(i);
        if (!p.has_model || !p.has_sim || p.sim.measured_messages == 0) {
          run.fail(point + ": missing model or simulation result");
        } else if (!p.sim.conservation_ok) {
          run.fail(point + ": simulator flit conservation violated");
        }
        sim_router_cycles += static_cast<double>(p.sim.cycles) *
                             static_cast<double>(curve.spec.node_count());
        // model_rel_err: stable points only (model converged, sim steady
        // and unsaturated), as the accuracy suites define it.
        const double err = p.relative_error();
        if (std::isfinite(err) && p.sim.steady && !p.sim.saturated) {
          err_sum += err;
          ++err_points;
        }
      }
    }

    for (Curve& c : curves) {
      run.values["core.sat_probes"] += c.probes;
      if (cfg.traced) {
        absorb_store_counts(run, c.traced_store->counts());
        absorb_cache_stats(run, c.engine->cache_stats());
        // The engine builds its Simulators internally, so the sim.simulate
        // spans include construction; time the constructor on its own here,
        // after the timed phase, for every point of the sweep.
        for (const double lambda : c.lambdas) {
          trace::Scope span("sim.build");
          const sim::Simulator s(core::to_sim_config(c.spec, lambda));
        }
      }
    }
  }

  run.values["sim_mrcps"] = sim_router_cycles / run.wall_s * 1e-6;
  run.values["model_rel_err"] = err_points > 0 ? err_sum / err_points : std::nan("");
  if (err_points == 0) run.fail("no stable point to measure model_rel_err");
  time_setups(cfg, 4, set_up, tear_down, run.setups);
  return run;
}

}  // namespace perfbench
