// TracedStore: a forwarding core::ResultStore decorator for the traced run.
//
// Injected through the SweepEngine constructor or ServerOptions.store, it
// sees every store call the engine makes, on whichever thread makes it, and
// so measures the core layer's store cost (core.store_load_us,
// core.store_append_us, store.appends) from outside the library. It also
// recovers the solves and simulations the engine runs internally: on the
// owner thread SweepEngine::model_point does load-miss -> warm lookup ->
// AnalyticalModel::solve_at -> store_model, and sim_point does load-miss ->
// Simulator -> store_sim, so the interval from the end of the last store
// call to the start of the append is exactly the solve (recorded as the
// span "model.solve_at") or the simulation ("sim.simulate", construction
// plus run). The entries passing through store_model / store_sim give the
// solver iteration counts and the simulated cycles.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/result_store.hpp"

namespace perfbench {

class TracedStore final : public kncube::core::ResultStore {
 public:
  explicit TracedStore(std::shared_ptr<kncube::core::ResultStore> inner);

  /// Tells the decorator how many routers a spec's network has, so sims of
  /// that spec count router-cycles.
  void register_spec(std::uint64_t spec_key, std::uint64_t routers,
                     int message_length);

  bool load_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                  kncube::core::ModelEntry* out) override;
  void store_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                   const kncube::core::ModelEntry& entry) override;
  bool warm_state_at_or_below(std::uint64_t spec_key, std::uint64_t lambda_bits,
                              std::vector<double>* state) override;
  bool load_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                std::uint64_t seed, kncube::sim::SimResult* out) override;
  void store_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                 std::uint64_t seed, const kncube::sim::SimResult& result) override;
  bool load_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                       kncube::core::SaturationResult* out) override;
  void store_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                        const kncube::core::SaturationResult& result) override;
  kncube::core::StoreSizes sizes() const override { return inner_->sizes(); }
  void clear() override { inner_->clear(); }
  void flush() override { inner_->flush(); }
  const char* kind() const noexcept override { return inner_->kind(); }

  struct Counts {
    std::uint64_t loads = 0;
    std::int64_t load_ns = 0;
    std::uint64_t appends = 0;
    std::int64_t append_ns = 0;
    std::uint64_t model_iterations = 0;
    std::uint64_t model_saturated = 0;
    std::uint64_t sim_cycles = 0;
    std::uint64_t sim_router_cycles = 0;
    std::uint64_t sim_flits = 0;  ///< measured delivered messages x Lm
    std::uint64_t sim_shards = 0;  ///< widest engine any sim used
  };
  Counts counts() const;

 private:
  void loaded(std::int64_t start_ns);
  void appended(std::int64_t start_ns);

  std::shared_ptr<kncube::core::ResultStore> inner_;

  mutable std::mutex mutex_;  ///< guards counts_ and specs_
  Counts counts_;
  struct SpecShape {
    std::uint64_t routers = 0;
    int message_length = 0;
  };
  std::map<std::uint64_t, SpecShape> specs_;
};

}  // namespace perfbench
