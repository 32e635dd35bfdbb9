// Shared types of the benchmark harness: what a workload receives, what it
// hands back, and the small timing helpers every workload uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process CPU time (all threads), in seconds. Time the hypervisor stole
/// from the guest is not in it.
double process_cpu_seconds();

/// Peak resident set size of the process, in MB (ru_maxrss).
double peak_rss_mb();

/// CPU time the hypervisor stole from this guest, summed over its CPUs
/// (/proc/stat), in seconds; 0 where the kernel does not report it.
double host_steal_seconds();

/// What a workload is asked to do. `seconds` sizes the timed phase: each
/// workload turns it into a fixed amount of work (a number of sweeps, specs,
/// requests or chunks) that takes about that long on the reference host, so
/// a faster program shows as a lower cpu_s and wall_s on identical work.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Tiny sizes for the self-test; never used for measurement.
  bool smoke = false;
  std::string scratch = ".";  ///< private directory for files the run makes
};

/// Cold set-ups, timed in batches: one entry per batch, each the mean
/// wall-clock and process CPU time of one set-up in that batch.
struct Setups {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
};

/// Everything one execution of a workload measured. The harness runs a
/// workload once untraced (the end-to-end figures) and, in trace mode, once
/// more with spans on (the per-layer figures).
struct WorkloadRun {
  Setups setups;                  ///< cold set-ups, timed in batches
  double wall_s = 0.0;            ///< wall-clock time of the timed phase
  double cpu_s = 0.0;             ///< process CPU time during the timed phase
  /// Peak RSS (MB) read when the timed phase ends, before the checks build
  /// reference engines or simulators of their own.
  double peak_rss_mb = 0.0;
  std::vector<double> op_ms;      ///< one entry per timed op
  std::uint64_t attempted = 0;    ///< ops checked
  std::uint64_t failed = 0;       ///< ops that threw or failed a check
  std::vector<std::string> failures;  ///< first few failure messages
  /// Workload-specific end-to-end figures (sim_mrcps, solves_per_s,
  /// req_per_s, model_rel_err) and per-layer counters, by metric name.
  std::map<std::string, double> values;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// Times cold set-ups in `batches` batches and appends one sample per batch
/// to `setups`. `set_up` builds the workload's state from nothing;
/// `tear_down` destroys it, untimed, before every set-up, so it must accept
/// state that is already gone. Each batch repeats set_up until its set-up
/// CPU time reaches 0.3 s and yields the mean time of one set-up. The state
/// of the last set-up stays. The host's speed drifts within seconds, so each
/// workload takes 5 batches before its timed phase and 4 after its checks.
/// The traced run sets up once in all, so its spans and counts describe one
/// set-up.
void time_setups(const RunConfig& cfg, int batches, const std::function<void()>& set_up,
                 const std::function<void()>& tear_down, Setups& setups);

/// Median and the "tail": the highest percentile with at least ten samples
/// beyond it (rank n - 10 of n sorted samples, 1-based), or the maximum when
/// there are ten samples or fewer.
double median(std::vector<double> v);
struct Tail {
  double value = 0.0;
  double percentile = 100.0;  ///< which percentile `value` is
  std::size_t beyond = 0;     ///< samples above it
};
Tail tail(std::vector<double> v);

using WorkloadFn = WorkloadRun (*)(const RunConfig&);

WorkloadRun run_paper_sweep(const RunConfig& cfg);
WorkloadRun run_plan_grid(const RunConfig& cfg);
WorkloadRun run_daemon_replay(const RunConfig& cfg);
WorkloadRun run_torus64(const RunConfig& cfg);

}  // namespace perfbench
