// Rendering of model-vs-simulation series as the tables behind the paper's
// figures, plus CSV export for replotting.
#pragma once

#include <string>
#include <vector>

#include "core/sweep_engine.hpp"
#include "util/table.hpp"

namespace kncube::core {

/// One figure panel (e.g. "Figure 1, h=20%"): latency-vs-rate for model and
/// simulation, with CI and relative error columns.
util::Table figure_table(const std::string& title, const std::vector<PointResult>& pts);

/// Summary across a whole panel: mean relative error in the stable region,
/// correlation of the two curves, and both saturation estimates.
struct PanelSummary {
  double mean_rel_error = 0.0;     ///< over points where both sides are stable
  double correlation = 0.0;        ///< Pearson r of model vs sim latency
  int stable_points = 0;
  int model_saturated_points = 0;
  int sim_saturated_points = 0;
};
PanelSummary summarize_panel(const std::vector<PointResult>& pts);

util::Table summary_table(const std::string& title,
                          const std::vector<std::pair<std::string, PanelSummary>>& rows);

/// Writes `table` to CSV under the directory given by KNCUBE_OUT (if set).
/// Returns the written path, or empty when export is disabled/fails.
std::string export_csv(const util::Table& table, const std::string& basename);

}  // namespace kncube::core
