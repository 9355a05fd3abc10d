#pragma once

// Admissibility witnesses (Definition 1, Lemma 2, Corollary 1).
//
// Lemma 2 / Corollary 1 assert that each trimmed value y equals
// sum_i alpha_i v_i for some (beta, gamma)-admissible alpha over the
// non-faulty agents. These queries verify that claim constructively: find
// alpha >= 0 with sum alpha = 1, sum alpha_i v_i ~= y, and at least gamma
// coordinates >= beta.
//
// In one dimension the question has a closed form. Write
// alpha = beta * 1_S + r with |S| = gamma, r >= 0 and sum r = c, where
// c = 1 - gamma * beta. Subset S reaches exactly the targets
// beta * sum_S v + c * [v_min, v_max]. Sliding a gamma-window over the
// sorted values moves sum_S v by at most v_max - v_min per step, which is
// no wider than the window c * (v_max - v_min) whenever
// beta <= 1 / (gamma + 1). The paper's beta = 1/(2 gamma) always
// qualifies, so the reachable targets form one interval and
// admissible_witness_closed_form answers exactly in O(m log m).
//
// find_admissible_witness is the general LP search (one simplex per
// gamma-subset, an LP-guided heuristic past a cap). It serves as the test
// oracle for the closed form and, with max_guaranteed_beta, for queries
// outside beta <= 1 / (gamma + 1).

#include <cstddef>
#include <vector>

#include "lp/simplex.hpp"

namespace ftmao::lp {

struct WitnessQuery {
  std::vector<double> values;  ///< v_i for each non-faulty agent
  double target = 0.0;         ///< y to express as a convex combination
  double beta = 0.0;           ///< required lower bound on gamma weights
  std::size_t gamma = 0;       ///< required number of weights >= beta
  double tolerance = 1e-7;     ///< |sum alpha_i v_i - y| allowed
};

struct WitnessResult {
  bool found = false;
  bool exact = true;  ///< decided exactly (false = LP heuristic pass)
  std::vector<double> weights;       ///< alpha, same indexing as values
  std::vector<std::size_t> support;  ///< indices with alpha_i >= beta - tol
};

/// Exact (beta, gamma)-admissible witness in O(m log m); needs
/// beta * (gamma + 1) <= 1. The weights put beta on the first sorted
/// gamma-window that can reach the target, and split the remaining mass
/// 1 - gamma * beta between the smallest and the largest value. The result
/// is always `exact`.
WitnessResult admissible_witness_closed_form(const WitnessQuery& query);

/// LP search for a (beta, gamma)-admissible witness. subset_cap bounds the
/// number of subsets tried exhaustively; beyond it a single LP-relaxation
/// guided attempt is made and `exact` is false if it fails.
WitnessResult find_admissible_witness(const WitnessQuery& query,
                                      std::size_t subset_cap = 20000);

/// The best achievable beta for the query's gamma: max over subsets S of
/// size gamma of (max t s.t. exists alpha with alpha_i >= t on S and the
/// convex-combination constraints). Returns < 0 if no convex combination
/// hits the target at all. Exhaustive (use for small |N| only).
double max_guaranteed_beta(const WitnessQuery& query);

}  // namespace ftmao::lp
