// The one solve path of every model family. A family supplies its
// channel-class system, an assembler from the converged state to a
// ModelResult, and whether its stalled points take the stubborn-point
// retry (R7); solve_point does the rest the same way for every family.
//
// An unstable point keeps `saturated == true` and `latency == +inf`, plus
// `iterations`, `converged` and whatever the assembler filled in before it
// found the point unstable (the saturated-point leftovers pinned in
// model_result_golden_test.cpp). The uniform families then copy `latency`
// into `regular_latency` (+inf when saturated); the hot-spot families
// leave it at 0.
#pragma once

#include <functional>
#include <vector>

#include "model/analytical_model.hpp"  // ModelResult
#include "model/engine/channel_class.hpp"

namespace kncube::model::engine {

/// Fills `res` from the converged `state`. Returns false when the point has
/// no steady state after all (a source queue past its pole). It never sets
/// `saturated`: solve_point does, from the return value.
using Assembler =
    std::function<bool(const std::vector<double>& state, ModelResult& res)>;

/// Clears `converged_state`, solves `system` (warm try, cold fallback,
/// optional retry), records `iterations` and `converged`, assembles, and
/// hands the converged iterate to `converged_state` only when the point is
/// stable. `warm_start` (optional) seeds the iteration with the converged
/// state of a nearby point of the same family and size; a converged warm
/// solve is bit-identical to the cold one in every field but `iterations`,
/// which counts this solve's own sweeps. Either pointer may be null.
ModelResult solve_point(const ChannelClassSystem& system, bool retry_stubborn,
                        const Assembler& assemble,
                        const std::vector<double>* warm_start,
                        std::vector<double>* converged_state);

}  // namespace kncube::model::engine
