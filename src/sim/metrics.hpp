#pragma once

// Metric output of one run. Index t of each series is the state after t
// iterations (index 0 = initial condition), matching the paper's x[t].

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "common/interval.hpp"
#include "common/series.hpp"
#include "sim/trace.hpp"

namespace ftmao {

/// Aggregated results of per-iteration Lemma 2 / Corollary 1 audits.
struct WitnessStats {
  std::size_t checks = 0;
  std::size_t failures = 0;     ///< no admissible witness found
  std::size_t inexact = 0;      ///< verdicts not decided exactly
  double min_weight_seen = std::numeric_limits<double>::infinity();
  std::size_t min_support_seen = std::numeric_limits<std::size_t>::max();

  bool all_passed() const { return checks > 0 && failures == 0; }
};

struct RunMetrics {
  Series disagreement;    ///< M[t] - m[t] over honest agents
  Series max_dist_to_y;   ///< max_j Dist(x_j[t], Y)
  Series max_projection_error;  ///< constrained runs; 0 series otherwise

  std::vector<double> final_states;  ///< honest agents' states, agent order
  Interval optima{0.0};              ///< the Y used for max_dist_to_y

  WitnessStats state_witness;     ///< audits of Trim(D^x) (Corollary 1)
  WitnessStats gradient_witness;  ///< audits of Trim(D^g) (Lemma 2)

  /// Full per-round honest states; populated when
  /// RunOptions::record_trace is set. Feed to check_sbg_invariants.
  std::optional<ExecutionTrace> trace;

  double final_disagreement() const { return disagreement.back(); }
  double final_max_dist() const { return max_dist_to_y.back(); }
};

}  // namespace ftmao
