// Helpers shared by the workload files (internal to the harness).
#pragma once

#include <bit>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/simulator.hpp"

namespace perfbench {

/// SplitMix64: derives independent, reproducible sub-seeds from the
/// workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The simulation results two runs must share bit for bit: latency
/// statistics, counts, loads, flags and channel summaries.
inline bool same_sim(const kncube::sim::SimResult& a, const kncube::sim::SimResult& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(a.mean_latency) == bits(b.mean_latency) &&
         bits(a.latency_ci95) == bits(b.latency_ci95) &&
         bits(a.p99_latency) == bits(b.p99_latency) &&
         bits(a.mean_network_latency) == bits(b.mean_network_latency) &&
         bits(a.mean_source_wait) == bits(b.mean_source_wait) &&
         a.measured_messages == b.measured_messages && a.cycles == b.cycles &&
         bits(a.generated_load) == bits(b.generated_load) &&
         bits(a.accepted_load) == bits(b.accepted_load) && a.steady == b.steady &&
         a.saturated == b.saturated && a.conservation_ok == b.conservation_ok &&
         bits(a.mean_channel_utilization) == bits(b.mean_channel_utilization) &&
         bits(a.max_channel_utilization) == bits(b.max_channel_utilization) &&
         bits(a.mean_vc_multiplexing) == bits(b.mean_vc_multiplexing);
}

}  // namespace perfbench
