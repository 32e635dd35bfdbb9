#include "traced_store.hpp"

#include <algorithm>

#include "trace.hpp"

namespace perfbench {

namespace core = kncube::core;

namespace {

/// Start of the engine work (solve or simulation) the calling thread began
/// after its last store call; -1 when no miss is pending on this thread.
thread_local std::int64_t tl_work_start = -1;

}  // namespace

TracedStore::TracedStore(std::shared_ptr<core::ResultStore> inner)
    : inner_(std::move(inner)) {}

void TracedStore::register_spec(std::uint64_t spec_key, std::uint64_t routers,
                                int message_length) {
  std::lock_guard<std::mutex> lock(mutex_);
  specs_[spec_key] = SpecShape{routers, message_length};
}

void TracedStore::loaded(std::int64_t start_ns) {
  const std::int64_t end = trace::now_ns();
  trace::record("core.store_load", start_ns, end);
  std::lock_guard<std::mutex> lock(mutex_);
  ++counts_.loads;
  counts_.load_ns += end - start_ns;
}

void TracedStore::appended(std::int64_t start_ns) {
  const std::int64_t end = trace::now_ns();
  trace::record("core.store_append", start_ns, end);
  std::lock_guard<std::mutex> lock(mutex_);
  ++counts_.appends;
  counts_.append_ns += end - start_ns;
}

bool TracedStore::load_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                             core::ModelEntry* out) {
  const std::int64_t start = trace::now_ns();
  const bool hit = inner_->load_model(spec_key, lambda_bits, out);
  loaded(start);
  tl_work_start = hit ? -1 : trace::now_ns();
  return hit;
}

bool TracedStore::warm_state_at_or_below(std::uint64_t spec_key,
                                         std::uint64_t lambda_bits,
                                         std::vector<double>* state) {
  const std::int64_t start = trace::now_ns();
  const bool found = inner_->warm_state_at_or_below(spec_key, lambda_bits, state);
  loaded(start);
  tl_work_start = trace::now_ns();
  return found;
}

void TracedStore::store_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                              const core::ModelEntry& entry) {
  const std::int64_t start = trace::now_ns();
  if (tl_work_start >= 0) trace::record("model.solve_at", tl_work_start, start);
  tl_work_start = -1;
  inner_->store_model(spec_key, lambda_bits, entry);
  appended(start);
  std::lock_guard<std::mutex> lock(mutex_);
  counts_.model_iterations += static_cast<std::uint64_t>(entry.result.iterations);
  if (entry.result.saturated) ++counts_.model_saturated;
}

bool TracedStore::load_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                           std::uint64_t seed, kncube::sim::SimResult* out) {
  const std::int64_t start = trace::now_ns();
  const bool hit = inner_->load_sim(spec_key, lambda_bits, seed, out);
  loaded(start);
  tl_work_start = hit ? -1 : trace::now_ns();
  return hit;
}

void TracedStore::store_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                            std::uint64_t seed, const kncube::sim::SimResult& result) {
  const std::int64_t start = trace::now_ns();
  if (tl_work_start >= 0) trace::record("sim.simulate", tl_work_start, start);
  tl_work_start = -1;
  inner_->store_sim(spec_key, lambda_bits, seed, result);
  appended(start);
  std::lock_guard<std::mutex> lock(mutex_);
  counts_.sim_cycles += result.cycles;
  counts_.sim_shards = std::max(counts_.sim_shards, result.sim_shards);
  if (auto it = specs_.find(spec_key); it != specs_.end()) {
    counts_.sim_router_cycles += result.cycles * it->second.routers;
    counts_.sim_flits += result.measured_messages *
                         static_cast<std::uint64_t>(it->second.message_length);
  }
}

bool TracedStore::load_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                                  core::SaturationResult* out) {
  const std::int64_t start = trace::now_ns();
  const bool hit = inner_->load_saturation(spec_key, tol_bits, out);
  loaded(start);
  tl_work_start = -1;
  return hit;
}

void TracedStore::store_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                                   const core::SaturationResult& result) {
  const std::int64_t start = trace::now_ns();
  tl_work_start = -1;
  inner_->store_saturation(spec_key, tol_bits, result);
  appended(start);
}

TracedStore::Counts TracedStore::counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

}  // namespace perfbench
