#pragma once

// Shared helpers for the admissibility-witness tests: an independent
// residual check of a claimed witness, and the exact reach of a
// (beta, gamma) query computed from sorted partial sums.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "lp/witness.hpp"

namespace ftmao::witness_check {

/// No cap: the LP oracle enumerates every gamma-subset.
inline constexpr std::size_t kUncapped = std::numeric_limits<std::size_t>::max();

/// The LP oracle's phase 1 accepts an infeasibility of up to 1e-7 on top of
/// the query tolerance, so it may call a target found that lies that far
/// outside the exact reach. Agreement is asserted outside this band only.
inline constexpr double kOracleBand = 1e-6;

/// Definition 1 recomputed from the weights alone: alpha >= 0, sum 1, the
/// combination within tolerance of the target, >= gamma weights >= beta.
inline ::testing::AssertionResult is_witness(const lp::WitnessQuery& q,
                                             const lp::WitnessResult& w) {
  if (!w.found) return ::testing::AssertionFailure() << "not found";
  if (w.weights.size() != q.values.size())
    return ::testing::AssertionFailure() << "weights have the wrong size";
  double mass = 0.0;
  double dot = 0.0;
  std::size_t bounded = 0;
  for (std::size_t i = 0; i < w.weights.size(); ++i) {
    if (w.weights[i] < 0.0)
      return ::testing::AssertionFailure() << "alpha_" << i << " < 0";
    mass += w.weights[i];
    dot += w.weights[i] * q.values[i];
    if (w.weights[i] >= q.beta) ++bounded;
  }
  if (std::abs(mass - 1.0) > 1e-9)
    return ::testing::AssertionFailure() << "sum alpha = " << mass;
  if (std::abs(dot - q.target) > q.tolerance + 1e-9)
    return ::testing::AssertionFailure()
           << "sum alpha v = " << dot << ", target " << q.target;
  if (bounded < q.gamma)
    return ::testing::AssertionFailure()
           << bounded << " weights >= beta, need " << q.gamma;
  return ::testing::AssertionSuccess();
}

/// [beta * (gamma smallest) + c * v_min, beta * (gamma largest) + c * v_max]
/// with c = 1 - gamma * beta: every target an admissible alpha can hit
/// exactly, when beta * (gamma + 1) <= 1.
inline std::pair<double, double> exact_reach(const lp::WitnessQuery& q) {
  std::vector<double> v = q.values;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::ptrdiff_t>(q.gamma);
  const double low = std::accumulate(v.begin(), v.begin() + k, 0.0);
  const double high = std::accumulate(v.end() - k, v.end(), 0.0);
  const double c = 1.0 - static_cast<double>(q.gamma) * q.beta;
  return {q.beta * low + c * v.front(), q.beta * high + c * v.back()};
}

/// The paper's query for m honest values and f faults: gamma = m - f,
/// beta = 1/(2 gamma).
inline lp::WitnessQuery paper_query(std::vector<double> values, std::size_t f,
                                    double target) {
  lp::WitnessQuery q;
  q.gamma = values.size() - f;
  q.beta = 1.0 / (2.0 * static_cast<double>(q.gamma));
  q.values = std::move(values);
  q.target = target;
  return q;
}

}  // namespace ftmao::witness_check
