#include "model/engine/solve_point.hpp"

#include <limits>
#include <utility>

namespace kncube::model::engine {

ModelResult solve_point(const ChannelClassSystem& system, bool retry_stubborn,
                        const Assembler& assemble,
                        const std::vector<double>* warm_start,
                        std::vector<double>* converged_state) {
  if (converged_state != nullptr) converged_state->clear();
  ModelResult res;
  std::vector<double> state;
  const FixedPointResult fp = system.solve(state, retry_stubborn, warm_start);
  res.iterations = fp.iterations;
  res.converged = fp.converged;
  // Diverged or out of budget: no steady state at this load.
  if (!fp.converged) return res;
  if (!assemble(state, res)) {
    res.latency = std::numeric_limits<double>::infinity();
    return res;
  }
  res.saturated = false;
  if (converged_state != nullptr) *converged_state = std::move(state);
  return res;
}

}  // namespace kncube::model::engine
