// plan-grid: a model-only capacity-planning grid. A seeded draw of specs
// over every modelled family — hot-spot and uniform torus (k = 8..64),
// hypercube, uniform and centre-hot-spot mesh, MMPP hot-spot and uniform
// torus — varying h, Lm and V. One op is one spec: a fresh engine and
// store, the saturation bisection, then a 16-point model-only run. Nearly
// all host time is in the fixed-point solver and the bisection; no
// simulation runs.
//
// The draw is stratified: every pass over the grid visits the same
// (family, size) slots and the seed draws the continuous parameters, so
// the work of a run hardly depends on the seed.
#include <bit>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "core/kncube.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "traced_store.hpp"
#include "util/rng.hpp"
#include "workload_util.hpp"

namespace perfbench {

namespace core = kncube::core;
namespace model = kncube::model;

namespace {

constexpr int kPoints = 16;
/// One pass over the slots takes about this long on the reference host.
constexpr double kNominalPassSeconds = 0.29;
constexpr int kChecksPerSpec = 2;

enum class Family { kHotTorus, kUniTorus, kHypercube, kUniMesh, kHotMesh, kMmppHot, kMmppUni };

struct Slot {
  Family family;
  int size;  ///< k, or dims for the hypercube
};

constexpr Slot kSlots[] = {
    {Family::kHotTorus, 64},  {Family::kHotTorus, 32}, {Family::kHotTorus, 32},
    {Family::kHotTorus, 16},  {Family::kHotTorus, 16}, {Family::kHotTorus, 8},
    {Family::kHotTorus, 8},   {Family::kUniTorus, 8},  {Family::kUniTorus, 16},
    {Family::kUniTorus, 32},  {Family::kUniTorus, 64}, {Family::kHypercube, 4},
    {Family::kHypercube, 6},  {Family::kHypercube, 8}, {Family::kUniMesh, 8},
    {Family::kUniMesh, 16},   {Family::kHotMesh, 8},   {Family::kHotMesh, 16},
    {Family::kMmppHot, 8},    {Family::kMmppHot, 16},  {Family::kMmppUni, 8},
    {Family::kMmppUni, 16},
};

std::string draw_spec_text(const Slot& slot, kncube::util::Xoshiro256& rng) {
  core::ScenarioSpec spec;
  const auto set = [&spec](const char* key, const std::string& value) {
    core::apply_scenario_setting(spec, key, value);
  };
  const bool hot = slot.family == Family::kHotTorus || slot.family == Family::kHypercube ||
                   slot.family == Family::kHotMesh || slot.family == Family::kMmppHot;
  switch (slot.family) {
    case Family::kHypercube:
      set("topology.kind", "hypercube");
      set("topology.dims", std::to_string(slot.size));
      break;
    case Family::kUniMesh:
    case Family::kHotMesh:
      set("topology.kind", "mesh");
      set("topology.k", std::to_string(slot.size));
      break;
    default:
      set("topology.k", std::to_string(slot.size));
      break;
  }
  set("traffic.kind", hot ? "hotspot" : "uniform");
  if (hot) set("traffic.hot_fraction", std::to_string(0.05 + 0.35 * rng.uniform()));
  if (slot.family == Family::kMmppHot || slot.family == Family::kMmppUni) {
    set("arrivals.kind", "mmpp");
    set("arrivals.burst_multiplier", std::to_string(2 + rng.uniform_below(3)));
    set("arrivals.p_enter_burst", "0.02");
    set("arrivals.p_leave_burst", "0.08");
  }
  constexpr int kLengths[] = {16, 32, 64, 100};
  set("workload.message_length", std::to_string(kLengths[rng.uniform_below(4)]));
  set("router.vcs", std::to_string(2 + rng.uniform_below(3)));
  return core::format_scenario(spec);
}

/// Bitwise equality of every result field except the schedule-dependent
/// iteration count.
bool same_result(const model::ModelResult& a, const model::ModelResult& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(a.latency) == bits(b.latency) && a.saturated == b.saturated &&
         a.converged == b.converged && bits(a.regular_latency) == bits(b.regular_latency) &&
         bits(a.hot_latency) == bits(b.hot_latency) &&
         bits(a.regular_network_latency) == bits(b.regular_network_latency) &&
         bits(a.source_wait_regular) == bits(b.source_wait_regular) &&
         bits(a.vc_mux_x) == bits(b.vc_mux_x) && bits(a.vc_mux_hot_y) == bits(b.vc_mux_hot_y) &&
         bits(a.vc_mux_nonhot_y) == bits(b.vc_mux_nonhot_y) &&
         bits(a.max_channel_utilization) == bits(b.max_channel_utilization);
}

}  // namespace

WorkloadRun run_plan_grid(const RunConfig& cfg) {
  WorkloadRun run;
  const int passes =
      cfg.smoke ? 1 : std::max(1, static_cast<int>(std::lround(cfg.seconds / kNominalPassSeconds)));

  // Set-up: draw the grid and parse it back, as a planner reading spec
  // files would.
  std::vector<core::ScenarioSpec> specs;
  const auto set_up = [&] {
    kncube::util::Xoshiro256 rng(mix_seed(cfg.seed, 0x9d1d));
    for (int p = 0; p < passes; ++p) {
      for (const Slot& slot : kSlots) {
        if (cfg.smoke && slot.size > 16) continue;
        specs.push_back(core::parse_scenario(draw_spec_text(slot, rng)));
      }
    }
  };
  const auto tear_down = [&] { specs.clear(); };
  time_setups(cfg, 5, set_up, tear_down, run.setups);

  struct Op {
    std::unique_ptr<core::SweepEngine> engine;
    std::shared_ptr<TracedStore> traced_store;
    core::SaturationResult sat;
    std::vector<double> lambdas;
    std::vector<core::PointResult> points;
    std::string error;
  };
  std::vector<Op> ops(specs.size());
  double solves = 0.0;

  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Op& op = ops[i];
    trace::Scope op_span("op.spec", /*adopt_orphans=*/true);
    const auto t0 = Clock::now();
    try {
      std::shared_ptr<core::ResultStore> store;
      if (cfg.traced) {
        op.traced_store =
            std::make_shared<TracedStore>(std::make_shared<core::MemoryResultStore>());
        store = op.traced_store;
      }
      op.engine = std::make_unique<core::SweepEngine>(specs[i], store);
      {
        trace::Scope span("core.saturation_rate");
        op.sat = op.engine->saturation_rate();
      }
      op.lambdas = op.engine->lambda_sweep(kPoints, 0.1, 0.95);
      {
        trace::Scope span("core.run");
        op.points = op.engine->run(op.lambdas, /*run_sim=*/false);
      }
    } catch (const std::exception& e) {
      op.error = e.what();
    }
    run.op_ms.push_back(seconds_since(t0) * 1e3);
  }
  run.wall_s = seconds_since(start);
  run.cpu_s = process_cpu_seconds() - cpu0;
  run.peak_rss_mb = peak_rss_mb();

  // Checks (outside the timed region): the bisection found a boundary,
  // every point came back, and a seeded sample of the warm-started solves
  // equals a cold solve_at bit for bit. Iteration counts depend on the warm
  // start and are counted, not failed.
  kncube::util::Xoshiro256 pick(mix_seed(cfg.seed, 0xc4ec));
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    ++run.attempted;
    const std::string where = "spec " + std::to_string(i);
    if (!op.error.empty()) {
      run.fail(where + ": " + op.error);
      continue;
    }
    if (op.sat.failed || op.points.size() != static_cast<std::size_t>(kPoints)) {
      run.fail(where + ": saturation search failed or points missing");
      continue;
    }
    const core::CacheStats stats = op.engine->cache_stats();
    solves += static_cast<double>(stats.model_solves);
    run.values["core.sat_probes"] += op.sat.probes;
    if (cfg.traced) {
      absorb_store_counts(run, op.traced_store->counts());
      absorb_cache_stats(run, stats);
    }
    for (int c = 0; c < kChecksPerSpec; ++c) {
      const std::size_t j = pick.uniform_below(kPoints);
      const model::ModelResult cold =
          op.engine->analytical_model().solve_at(op.lambdas[j]);
      if (!same_result(op.points[j].model, cold)) {
        run.fail(where + ": warm solve differs from cold solve_at at point " +
                 std::to_string(j));
        break;
      }
      if (op.points[j].model.iterations != cold.iterations) {
        run.values["core.iter_mismatch"] += 1;
      }
    }
  }
  run.values["solves_per_s"] = solves / run.wall_s;
  time_setups(cfg, 4, set_up, tear_down, run.setups);
  return run;
}

}  // namespace perfbench
