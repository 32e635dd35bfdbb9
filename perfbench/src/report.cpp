#include "report.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <numeric>

#include "core/result_store.hpp"

namespace perfbench {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double value_or(const WorkloadRun& run, const std::string& name, double fallback) {
  const auto it = run.values.find(name);
  return it == run.values.end() ? fallback : it->second;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double host_steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0.0, steal = 0.0;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8 && stat >> field; ++i) steal = field;
  return cpu == "cpu" ? steal / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

void time_setups(const RunConfig& cfg, int batches, const std::function<void()>& set_up,
                 const std::function<void()>& tear_down, Setups& setups) {
  constexpr double kMinBatchCpuSeconds = 0.3;
  if (cfg.traced) batches = setups.cpu_s.empty() ? 1 : 0;
  for (int b = 0; b < batches; ++b) {
    double wall = 0.0, cpu = 0.0;
    int count = 0;
    do {
      tear_down();
      const double cpu0 = process_cpu_seconds();
      const auto start = Clock::now();
      set_up();
      wall += seconds_since(start);
      cpu += process_cpu_seconds() - cpu0;
      ++count;
    } while (!cfg.traced && cpu < kMinBatchCpuSeconds);
    setups.wall_s.push_back(wall / count);
    setups.cpu_s.push_back(cpu / count);
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) {
    t.value = v.back();
    return t;
  }
  t.value = v[n - 11];
  t.beyond = 10;
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

std::vector<Metric> end_to_end_metrics(const WorkloadRun& run) {
  return {
      {"setup_s", median(run.setups.cpu_s), "s"},
      {"cpu_s", run.cpu_s, "s"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> all_end_to_end_figures(const WorkloadRun& run) {
  std::vector<Metric> out = end_to_end_metrics(run);
  out.push_back({"setup_wall_s", median(run.setups.wall_s), "s"});
  out.push_back({"wall_s", run.wall_s, "s"});
  const bool ops_timed = !run.op_ms.empty();
  out.push_back({"op_p50_ms", ops_timed ? median(run.op_ms) : kNaN, "ms"});
  out.push_back({"op_tail_ms", ops_timed ? tail(run.op_ms).value : kNaN, "ms"});
  out.push_back({"fail_ratio",
                 ratio(static_cast<double>(run.failed), static_cast<double>(run.attempted)),
                 "1"});
  out.push_back({"sim_mrcps", value_or(run, "sim_mrcps", kNaN), "Mrc/s"});
  out.push_back({"solves_per_s", value_or(run, "solves_per_s", kNaN), "1/s"});
  out.push_back({"req_per_s", value_or(run, "req_per_s", kNaN), "1/s"});
  out.push_back({"model_rel_err", value_or(run, "model_rel_err", kNaN), "1"});
  return out;
}

void absorb_store_counts(WorkloadRun& run, const TracedStore::Counts& c) {
  auto& v = run.values;
  v["store.loads"] += static_cast<double>(c.loads);
  v["store.load_ns"] += static_cast<double>(c.load_ns);
  v["store.appends"] += static_cast<double>(c.appends);
  v["store.append_ns"] += static_cast<double>(c.append_ns);
  v["model.iterations"] += static_cast<double>(c.model_iterations);
  v["model.saturated"] += static_cast<double>(c.model_saturated);
  v["sim.cycles"] += static_cast<double>(c.sim_cycles);
  v["sim.router_cycles"] += static_cast<double>(c.sim_router_cycles);
  v["sim.flits"] += static_cast<double>(c.sim_flits);
  v["sim.shards"] = std::max(v["sim.shards"], static_cast<double>(c.sim_shards));
}

void absorb_cache_stats(WorkloadRun& run, const kncube::core::CacheStats& s) {
  auto& v = run.values;
  v["core.model_hits"] += static_cast<double>(s.model_hits);
  v["core.model_solves"] += static_cast<double>(s.model_solves);
  v["core.sim_hits"] += static_cast<double>(s.sim_hits);
  v["core.sim_runs"] += static_cast<double>(s.sim_runs);
  v["core.inflight_waits"] += static_cast<double>(s.inflight_waits);
}

std::vector<Metric> per_layer_metrics(const WorkloadRun& run,
                                      const std::vector<trace::Span>& spans,
                                      double untraced_cpu_s) {
  const auto v = [&run](const std::string& name) { return value_or(run, name, 0.0); };

  std::vector<double> sim_ms;
  for (const char* name : {"sim.run", "sim.step_cycles", "sim.simulate"}) {
    const std::vector<double> d = trace::durations_ms(spans, name);
    sim_ms.insert(sim_ms.end(), d.begin(), d.end());
  }
  const double sim_run_s = sum(sim_ms) * 1e-3;
  const double router_cycles = v("sim.router_cycles");
  const double flits = v("sim.flits");
  const std::vector<double> build_ms = trace::durations_ms(spans, "sim.build");

  const std::vector<double> solve_ms = trace::durations_ms(spans, "model.solve_at");
  std::vector<double> solve_us;
  for (double ms : solve_ms) solve_us.push_back(ms * 1e3);
  const double solves = static_cast<double>(solve_ms.size());

  const double hits = v("core.model_hits") + v("core.sim_hits");
  const double misses = v("core.model_solves") + v("core.sim_runs");

  const std::map<std::string, double> self = trace::self_seconds_by_layer(spans);
  const auto self_of = [&self](const std::string& layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };

  return {
      {"sim.run_s", sim_run_s, "s"},
      {"sim.build_ms", build_ms.empty() ? v("sim.build_ms") : mean(build_ms), "ms"},
      {"sim.cycles", v("sim.cycles"), "count"},
      {"sim.router_cycles", router_cycles, "count"},
      {"sim.flits", flits, "count"},
      {"sim.ns_per_router_cycle", ratio(sim_run_s * 1e9, router_cycles), "ns"},
      {"sim.ns_per_flit", ratio(sim_run_s * 1e9, flits), "ns"},
      {"sim.point_p50_ms", median(sim_ms), "ms"},
      {"sim.point_max_ms", sim_ms.empty() ? 0.0 : *std::max_element(sim_ms.begin(), sim_ms.end()), "ms"},
      {"sim.shards", v("sim.shards"), "count"},
      {"sim.cpu_per_wall", sim_ms.empty() ? 0.0 : ratio(run.cpu_s, run.wall_s), "1"},
      {"sim.self_s", self_of("sim"), "s"},
      {"model.solves", solves, "count"},
      {"model.iterations", v("model.iterations"), "count"},
      {"model.us_per_iteration", ratio(sum(solve_us), v("model.iterations")), "us"},
      {"model.solve_us_p50", median(solve_us), "us"},
      {"model.solve_us_tail", tail(solve_us).value, "us"},
      {"model.saturated_frac", ratio(v("model.saturated"), solves), "1"},
      {"model.rel_err", v("model_rel_err"), "1"},
      {"model.self_s", self_of("model"), "s"},
      {"core.sat_probes", v("core.sat_probes"), "count"},
      {"core.sat_ms", mean(trace::durations_ms(spans, "core.saturation_rate")), "ms"},
      {"core.model_hits", v("core.model_hits"), "count"},
      {"core.model_solves", v("core.model_solves"), "count"},
      {"core.sim_hits", v("core.sim_hits"), "count"},
      {"core.sim_runs", v("core.sim_runs"), "count"},
      {"core.inflight_waits", v("core.inflight_waits"), "count"},
      {"core.hit_ratio", ratio(hits, hits + misses), "1"},
      {"core.store_load_us", ratio(v("store.load_ns") * 1e-3, v("store.loads")), "us"},
      {"core.store_append_us", ratio(v("store.append_ns") * 1e-3, v("store.appends")), "us"},
      {"core.iter_mismatch", v("core.iter_mismatch"), "count"},
      {"core.self_s", self_of("core"), "s"},
      {"service.hit_req_ms", v("service.hit_req_ms"), "ms"},
      {"service.miss_req_ms", v("service.miss_req_ms"), "ms"},
      {"service.overhead_ms", v("service.overhead_ms"), "ms"},
      {"service.self_s", self_of("service"), "s"},
      {"store.replay_s", v("store.replay_s"), "s"},
      {"store.records", v("store.records"), "count"},
      {"store.file_mb", v("store.file_mb"), "MB"},
      {"store.appends", v("store.appends"), "count"},
      {"topo.build_ms", mean(trace::durations_ms(spans, "topo.build")), "ms"},
      {"util.busy_threads", v("util.busy_threads"), "count"},
      {"util.nproc", v("util.nproc"), "count"},
      {"trace.overhead", ratio(run.cpu_s, untraced_cpu_s), "1"},
  };
}

}  // namespace perfbench
