// kncube_perfbench: the repository benchmark harness.
//
//   kncube_perfbench --workload <paper-sweep|plan-grid|daemon-replay|torus64-sharded>
//                    --seed N --seconds S --trace 0|1
//                    [--scratch DIR] [--git-rev REV] [--smoke]
//
// Runs from the root of a checkout: spec files are read relative to the
// working directory.
// Runs one workload through the library's public API, checks every op's
// output, and prints human-readable metric lines followed by one JSON line:
// the end-to-end metrics (--trace 0), or the per-layer metrics of a second,
// traced execution of the same workload (--trace 1). See perfbench/README.md.
#include <dirent.h>
#include <sched.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "report.hpp"
#include "service/store_version.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  WorkloadFn fn;
  int busy_threads;  ///< most threads computing at once
  int sim_threads;   ///< sim.threads of the workload's simulations
};

// Busy threads: a pool-driven sweep is the calling thread plus the pool's
// one worker (KNCUBE_THREADS=1); the daemon adds a second connection thread
// (its clients block while the server computes); the sharded torus is the
// caller plus one team member.
constexpr Workload kWorkloads[] = {
    {"paper-sweep", run_paper_sweep, 2, 1},
    {"plan-grid", run_plan_grid, 2, 1},
    {"daemon-replay", run_daemon_replay, 3, 1},
    {"torus64-sharded", run_torus64, 2, 2},
};

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Moves the process's threads around the usable CPUs: every 500 ms it lets
/// every thread run on all of them but one, the left-out CPU rotating. On a
/// shared host the speed of a CPU depends on what runs beside it and drifts
/// over seconds; a thread the scheduler leaves on one CPU for a whole run
/// inherits that CPU's luck, and rotating spreads every thread over all of
/// them. Used only when a spare CPU exists beyond the busy threads.
class CpuRotator {
 public:
  CpuRotator() : thread_([this] { loop(); }) {}
  ~CpuRotator() {
    stop_ = true;
    thread_.join();
  }
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

 private:
  void loop() {
    cpu_set_t usable;
    CPU_ZERO(&usable);
    sched_getaffinity(0, sizeof(usable), &usable);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &usable)) cpus.push_back(c);
    }
    for (std::size_t k = 0; !stop_; ++k) {
      cpu_set_t set = usable;
      CPU_CLR(cpus[k % cpus.size()], &set);
      if (DIR* dir = opendir("/proc/self/task")) {
        while (const dirent* entry = readdir(dir)) {
          const int tid = std::atoi(entry->d_name);
          if (tid > 0) sched_setaffinity(tid, sizeof(set), &set);
        }
        closedir(dir);
      }
      for (int i = 0; i < 50 && !stop_; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);  // shortest round trip
  return std::string(buf, res.ptr);
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out << ", ";
    out << "\"" << metrics[i].name << "\": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

void print_lines(const char* kind, const std::vector<Metric>& metrics,
                 const WorkloadRun& run) {
  for (const Metric& m : metrics) {
    std::printf("%s %-24s %-14s %s", kind, m.name.c_str(),
                std::isfinite(m.value) ? json_number(m.value).c_str() : "n/a",
                m.unit.c_str());
    if (m.name == "op_tail_ms" && !run.op_ms.empty()) {
      const Tail t = tail(run.op_ms);
      std::printf("   (p%.2f: %zu of %zu ops beyond)", t.percentile, t.beyond,
                  run.op_ms.size());
    } else if (m.name == "fail_ratio") {
      std::printf("   (%llu of %llu ops)", static_cast<unsigned long long>(run.failed),
                  static_cast<unsigned long long>(run.attempted));
    } else if (!std::isfinite(m.value)) {
      std::printf("   (not exercised by this workload)");
    }
    std::printf("\n");
  }
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "kncube_perfbench: %s\nusage: kncube_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scratch DIR] [--git-rev REV] "
               "[--smoke]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string workload_name;
  std::string git_rev = "unknown";
  int trace_flag = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") workload_name = next();
    else if (arg == "--seed") cfg.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (arg == "--seconds") cfg.seconds = std::strtod(next().c_str(), nullptr);
    else if (arg == "--trace") trace_flag = std::atoi(next().c_str());
    else if (arg == "--scratch") cfg.scratch = next();
    else if (arg == "--git-rev") git_rev = next();
    else if (arg == "--smoke") cfg.smoke = true;
    else usage("unknown argument " + arg);
  }
  if (trace_flag != 0 && trace_flag != 1) usage("--trace must be 0 or 1");
  if (!(cfg.seconds > 0.0)) usage("--seconds must be positive");

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (!workload) usage("unknown workload '" + workload_name + "'");

  // Thread budget: the pool is pinned to one worker before its first use, so
  // every workload keeps at most workload->busy_threads threads busy.
  const char* env_threads = std::getenv("KNCUBE_THREADS");
  if (env_threads && std::strcmp(env_threads, "1") != 0) {
    std::fprintf(stderr,
                 "kncube_perfbench: refusing to run with KNCUBE_THREADS=%s; the "
                 "benchmark's thread budget pins it to 1\n",
                 env_threads);
    return 3;
  }
  setenv("KNCUBE_THREADS", "1", 1);
  const int nproc = usable_cpus();
  if (workload->busy_threads > nproc) {
    std::fprintf(stderr,
                 "kncube_perfbench: refusing to run oversubscribed: %s keeps %d threads "
                 "busy but only %d CPUs are usable\n",
                 workload->name, workload->busy_threads, nproc);
    return 3;
  }
  const std::size_t pool_threads = kncube::util::global_pool().size();
  const bool rotate_cpus = nproc > workload->busy_threads;

  std::printf("# kncube_perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              workload->name, static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              trace_flag, cfg.smoke ? " smoke=1" : "");
  std::printf(
      "# provenance {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %d, "
      "\"busy_threads\": %d, \"oversubscribed\": false, \"KNCUBE_THREADS\": %zu, "
      "\"sim_threads\": %d, \"build_type\": \"%s\", \"store_version\": \"0x%016llx\", "
      "\"git_rev\": \"%s\", \"cpu_rotation\": %s}\n",
      workload->name, static_cast<unsigned long long>(cfg.seed), nproc,
      workload->busy_threads, pool_threads, workload->sim_threads, PERFBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(kncube::service::store_version()), git_rev.c_str(),
      rotate_cpus ? "true" : "false");
  std::fflush(stdout);

  std::unique_ptr<CpuRotator> rotator;
  if (rotate_cpus) rotator = std::make_unique<CpuRotator>();

  try {
    const double steal0 = host_steal_seconds();
    WorkloadRun run = workload->fn(cfg);
    // Stolen time marks a run the host slowed down; printed, never corrected.
    std::printf("# host steal during the untraced run: %.2f CPU-s\n",
                host_steal_seconds() - steal0);
    std::printf("# end-to-end (untraced run)\n");
    print_lines("e2e", all_end_to_end_figures(run), run);
    std::vector<Metric> reported = end_to_end_metrics(run);
    std::uint64_t attempted = run.attempted;
    std::uint64_t failed = run.failed;
    std::vector<std::string> failures = run.failures;

    if (trace_flag == 1) {
      RunConfig traced_cfg = cfg;
      traced_cfg.traced = true;
      trace::start();
      WorkloadRun traced = workload->fn(traced_cfg);
      const std::vector<trace::Span> spans = trace::stop();
      traced.values["util.busy_threads"] = workload->busy_threads;
      traced.values["util.nproc"] = nproc;
      reported = per_layer_metrics(traced, spans, run.cpu_s);
      std::printf("# per-layer (traced run, %zu spans)\n", spans.size());
      print_lines("layer", reported, traced);
      attempted += traced.attempted;
      failed += traced.failed;
      failures.insert(failures.end(), traced.failures.begin(), traced.failures.end());
    }

    for (const std::string& f : failures) std::fprintf(stderr, "check failed: %s\n", f.c_str());
    bool finite = true;
    for (const Metric& m : reported) finite = finite && std::isfinite(m.value);
    const bool correct = failed == 0 && attempted > 0 && finite;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), json_metrics(reported).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "kncube_perfbench: %s failed: %s\n", workload->name, e.what());
    return 1;
  }
}
