// Turning workload runs into named metrics: the end-to-end set (untraced
// run) and the per-layer set (traced run). The names and units here are the
// ones BENCHMARK.json declares; perfbench/selftest.py checks they agree.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"
#include "traced_store.hpp"

namespace kncube::core {
struct CacheStats;
}

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The end-to-end metrics of BENCHMARK.json, from the untraced run.
std::vector<Metric> end_to_end_metrics(const WorkloadRun& run);

/// Every end-to-end figure the benchmark knows, including the ones that
/// only mean something on some workloads (printed for reading, n/a as NaN).
std::vector<Metric> all_end_to_end_figures(const WorkloadRun& run);

/// The per-layer metrics of BENCHMARK.json, from the traced run's spans and
/// counters; `untraced_cpu_s` gives trace.overhead (traced over untraced
/// CPU time of the timed phase).
std::vector<Metric> per_layer_metrics(const WorkloadRun& traced,
                                      const std::vector<trace::Span>& spans,
                                      double untraced_cpu_s);

/// Copies the decorator's counts into the per-layer values of `run`.
void absorb_store_counts(WorkloadRun& run, const TracedStore::Counts& counts);
/// Adds one engine's (or the server's) cache counters to `run`.
void absorb_cache_stats(WorkloadRun& run, const kncube::core::CacheStats& stats);

}  // namespace perfbench
