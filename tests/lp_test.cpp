// Unit tests for the dense two-phase simplex, the admissibility witness
// queries built on top of it, and the closed-form witness they check.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "lp/simplex.hpp"
#include "lp/witness.hpp"
#include "witness_check.hpp"

namespace ftmao::lp {
namespace {

// ---------------------------------------------------------------- simplex

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), value 36.
  Problem p;
  p.num_vars = 2;
  p.objective = {3.0, 5.0};
  p.sense = Sense::Maximize;
  p.add({1.0, 0.0}, Relation::LessEq, 4.0);
  p.add({0.0, 2.0}, Relation::LessEq, 12.0);
  p.add({3.0, 2.0}, Relation::LessEq, 18.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective_value, 36.0, 1e-9);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 6.0, 1e-9);
}

TEST(Simplex, SolvesMinimizationWithGreaterEq) {
  // min 2x + 3y s.t. x + y >= 4, x >= 1 -> (4, 0), value 8.
  Problem p;
  p.num_vars = 2;
  p.objective = {2.0, 3.0};
  p.add({1.0, 1.0}, Relation::GreaterEq, 4.0);
  p.add({1.0, 0.0}, Relation::GreaterEq, 1.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective_value, 8.0, 1e-9);
  EXPECT_NEAR(s.x[0], 4.0, 1e-9);
  EXPECT_NEAR(s.x[1], 0.0, 1e-9);
}

TEST(Simplex, HandlesEqualityConstraints) {
  // min x + y s.t. x + 2y = 3, x - y = 0 -> x = y = 1, value 2.
  Problem p;
  p.num_vars = 2;
  p.objective = {1.0, 1.0};
  p.add({1.0, 2.0}, Relation::Eq, 3.0);
  p.add({1.0, -1.0}, Relation::Eq, 0.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.x[0], 1.0, 1e-9);
  EXPECT_NEAR(s.x[1], 1.0, 1e-9);
}

TEST(Simplex, DetectsInfeasibility) {
  Problem p;
  p.num_vars = 1;
  p.add({1.0}, Relation::LessEq, 1.0);
  p.add({1.0}, Relation::GreaterEq, 2.0);
  EXPECT_EQ(solve(p).status, Status::Infeasible);
}

TEST(Simplex, DetectsInfeasibilityWithEqualities) {
  // x + y = 1, x + y = 2 cannot hold together.
  Problem p;
  p.num_vars = 2;
  p.add({1.0, 1.0}, Relation::Eq, 1.0);
  p.add({1.0, 1.0}, Relation::Eq, 2.0);
  EXPECT_EQ(solve(p).status, Status::Infeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Problem p;
  p.num_vars = 1;
  p.objective = {1.0};
  p.sense = Sense::Maximize;
  p.add({-1.0}, Relation::LessEq, 0.0);  // -x <= 0, i.e. x >= 0: unbounded above
  EXPECT_EQ(solve(p).status, Status::Unbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // -x <= -2  <=>  x >= 2; minimize x -> 2.
  Problem p;
  p.num_vars = 1;
  p.objective = {1.0};
  p.add({-1.0}, Relation::LessEq, -2.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
}

TEST(Simplex, DegenerateProblemNoCycle) {
  // Classic degeneracy-prone instance; Bland's rule must terminate.
  Problem p;
  p.num_vars = 4;
  p.objective = {-0.75, 150.0, -0.02, 6.0};
  p.add({0.25, -60.0, -0.04, 9.0}, Relation::LessEq, 0.0);
  p.add({0.5, -90.0, -0.02, 3.0}, Relation::LessEq, 0.0);
  p.add({0.0, 0.0, 1.0, 0.0}, Relation::LessEq, 1.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective_value, -0.05, 1e-9);
}

TEST(Simplex, FeasibilityOnlyNoObjective) {
  Problem p;
  p.num_vars = 3;
  p.add({1.0, 1.0, 1.0}, Relation::Eq, 1.0);
  p.add({1.0, 2.0, 3.0}, Relation::Eq, 2.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.x[0] + s.x[1] + s.x[2], 1.0, 1e-9);
  EXPECT_NEAR(s.x[0] + 2 * s.x[1] + 3 * s.x[2], 2.0, 1e-9);
}

TEST(Simplex, RedundantConstraintsHarmless) {
  Problem p;
  p.num_vars = 2;
  p.objective = {1.0, 1.0};
  p.add({1.0, 1.0}, Relation::Eq, 2.0);
  p.add({2.0, 2.0}, Relation::Eq, 4.0);  // same hyperplane
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective_value, 2.0, 1e-9);
}

TEST(Simplex, RandomFeasibleConvexCombinationProblems) {
  // alpha >= 0, sum = 1, sum alpha v = y with y inside the hull: always
  // feasible; outside the hull: infeasible.
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t m = 3 + static_cast<std::size_t>(rng.uniform_int(0, 5));
    std::vector<double> v(m);
    for (auto& x : v) x = rng.uniform(-10.0, 10.0);
    const auto [mn, mx] = std::minmax_element(v.begin(), v.end());

    Problem inside;
    inside.num_vars = m;
    inside.add(std::vector<double>(m, 1.0), Relation::Eq, 1.0);
    inside.add(v, Relation::Eq, rng.uniform(*mn, *mx));
    EXPECT_EQ(solve(inside).status, Status::Optimal);

    Problem outside = inside;
    outside.constraints[1].rhs = *mx + 1.0;
    EXPECT_EQ(solve(outside).status, Status::Infeasible);
  }
}

// ---------------------------------------------------------------- witness

TEST(Witness, UniformMidpointHasFullSupportWitness) {
  // target = mean of 4 values; gamma = 4, beta = 1/8 is satisfiable by the
  // uniform weights.
  WitnessQuery q;
  q.values = {0.0, 1.0, 2.0, 3.0};
  q.target = 1.5;
  q.beta = 1.0 / 8.0;
  q.gamma = 4;
  const WitnessResult w = find_admissible_witness(q);
  ASSERT_TRUE(w.found);
  EXPECT_TRUE(w.exact);
  EXPECT_GE(w.support.size(), 4u);
  double sum = std::accumulate(w.weights.begin(), w.weights.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(Witness, TargetOutsideHullFails) {
  WitnessQuery q;
  q.values = {0.0, 1.0, 2.0};
  q.target = 5.0;
  q.beta = 0.1;
  q.gamma = 2;
  EXPECT_FALSE(find_admissible_witness(q).found);
}

TEST(Witness, ExtremeTargetLimitsSupport) {
  // target equals the max value: only weight-1-on-max works, so requiring
  // 2 weights >= 0.25 must fail, while gamma = 1 succeeds.
  WitnessQuery q;
  q.values = {0.0, 1.0, 2.0};
  q.target = 2.0;
  q.beta = 0.25;
  q.gamma = 2;
  EXPECT_FALSE(find_admissible_witness(q).found);
  q.gamma = 1;
  EXPECT_TRUE(find_admissible_witness(q).found);
}

TEST(Witness, NearExtremeTargetNeedsSmallBeta) {
  // target close to the max: a second weight can only be tiny.
  WitnessQuery q;
  q.values = {0.0, 10.0};
  q.target = 9.9;
  q.gamma = 2;
  q.beta = 0.009;  // needs alpha_0 = 0.01 >= beta: ok
  EXPECT_TRUE(find_admissible_witness(q).found);
  q.beta = 0.02;  // alpha_0 = 0.01 < 0.02: impossible
  EXPECT_FALSE(find_admissible_witness(q).found);
}

TEST(Witness, ToleranceAbsorbsFloatNoise) {
  WitnessQuery q;
  q.values = {1.0, 2.0};
  q.target = 1.5 + 1e-9;  // off by less than tolerance
  q.beta = 0.4;
  q.gamma = 2;
  q.tolerance = 1e-7;
  EXPECT_TRUE(find_admissible_witness(q).found);
}

TEST(Witness, WitnessWeightsActuallyAdmissible) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t m = 5;
    WitnessQuery q;
    q.values.resize(m);
    for (auto& v : q.values) v = rng.uniform(-5.0, 5.0);
    // A target generated by an actual admissible combination.
    std::vector<double> alpha(m, 0.15);
    alpha[0] = 0.4;
    q.target = 0.0;
    for (std::size_t i = 0; i < m; ++i) q.target += alpha[i] * q.values[i];
    q.beta = 0.1;
    q.gamma = 4;
    const WitnessResult w = find_admissible_witness(q);
    ASSERT_TRUE(w.found) << "trial " << trial;
    double sum = 0.0;
    double dot = 0.0;
    std::size_t big = 0;
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_GE(w.weights[i], -1e-9);
      sum += w.weights[i];
      dot += w.weights[i] * q.values[i];
      if (w.weights[i] >= q.beta - 1e-7) ++big;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
    EXPECT_NEAR(dot, q.target, 1e-5);
    EXPECT_GE(big, q.gamma);
  }
}

// ----------------------------------------------------------- closed form

using witness_check::exact_reach;
using witness_check::is_witness;
using witness_check::kOracleBand;
using witness_check::kUncapped;
using witness_check::paper_query;

TEST(ClosedFormWitness, WindowEndsPinnedAtHalfTolerance) {
  // {0, 1, 2, 3} with f = 1: gamma = 3, beta = 1/6, c = 1/2. The lowest
  // window reaches 1/6 * (0 + 1 + 2) + 0 / 2 = 0.5, the highest
  // 1/6 * (1 + 2 + 3) + 3 / 2 = 2.5.
  WitnessQuery q = paper_query({3.0, 0.0, 2.0, 1.0}, 1, 0.0);
  const double tol = q.tolerance;
  const auto [lo, hi] = exact_reach(q);
  ASSERT_DOUBLE_EQ(lo, 0.5);
  ASSERT_DOUBLE_EQ(hi, 2.5);
  for (const double end : {lo, hi}) {
    for (const double inside : {end - tol / 2, end + tol / 2}) {
      q.target = inside;
      const WitnessResult w = admissible_witness_closed_form(q);
      EXPECT_TRUE(is_witness(q, w)) << "target " << inside;
      EXPECT_TRUE(w.exact);
      EXPECT_TRUE(find_admissible_witness(q, kUncapped).found);
    }
  }
  for (const double outside : {lo - 1.5 * tol, hi + 1.5 * tol}) {
    q.target = outside;
    const WitnessResult w = admissible_witness_closed_form(q);
    EXPECT_FALSE(w.found) << "target " << outside;
    EXPECT_TRUE(w.exact);
  }
  for (const double outside : {lo - kOracleBand, hi + kOracleBand}) {
    q.target = outside;
    EXPECT_FALSE(admissible_witness_closed_form(q).found);
    EXPECT_FALSE(find_admissible_witness(q, kUncapped).found);
  }
}

TEST(ClosedFormWitness, LowEndPutsTheSpareMassOnTheMinimum) {
  WitnessQuery q = paper_query({3.0, 0.0, 2.0, 1.0}, 1, 0.5);
  const WitnessResult w = admissible_witness_closed_form(q);
  ASSERT_TRUE(is_witness(q, w));
  const std::vector<double> expected{0.0, 1.0 / 6 + 0.5, 1.0 / 6, 1.0 / 6};
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_NEAR(w.weights[i], expected[i], 1e-15) << "alpha_" << i;
  EXPECT_EQ(w.support, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(ClosedFormWitness, TargetPastAWindowHandsOffToTheNext) {
  // Same query: the window {0, 1, 2} reaches [0.5, 2.0], the window
  // {1, 2, 3} reaches [1.0, 2.5]. Past 2.0 + tol only the second window
  // works, so the search must move on to it; within tol the first does.
  WitnessQuery q = paper_query({3.0, 0.0, 2.0, 1.0}, 1, 0.0);
  const double tol = q.tolerance;
  for (const double past : {0.5 * tol, 1.5 * tol, 3.0 * tol, 0.25}) {
    q.target = 2.0 + past;
    const WitnessResult w = admissible_witness_closed_form(q);
    EXPECT_TRUE(is_witness(q, w)) << "target 2 + " << past;
  }
}

TEST(ClosedFormWitness, NoFaultsUsesTheWholeSet) {
  // f = 0: gamma = m, the only window is every value; c = 1/2.
  WitnessQuery q = paper_query({1.0, 4.0, 2.0}, 0, 0.0);
  const auto [lo, hi] = exact_reach(q);
  EXPECT_DOUBLE_EQ(lo, 7.0 / 6 + 0.5);
  EXPECT_DOUBLE_EQ(hi, 7.0 / 6 + 2.0);
  for (const double target : {lo, (lo + hi) / 2, hi}) {
    q.target = target;
    EXPECT_TRUE(is_witness(q, admissible_witness_closed_form(q)));
  }
  q.target = lo - 1e-3;
  EXPECT_FALSE(admissible_witness_closed_form(q).found);
  EXPECT_FALSE(find_admissible_witness(q, kUncapped).found);
}

TEST(ClosedFormWitness, AllEqualValuesReachOnlyThatValue) {
  WitnessQuery q = paper_query({2.0, 2.0, 2.0, 2.0, 2.0}, 2, 2.0);
  EXPECT_TRUE(is_witness(q, admissible_witness_closed_form(q)));
  q.target = 2.0 + 1e-5;
  EXPECT_FALSE(admissible_witness_closed_form(q).found);
  EXPECT_FALSE(find_admissible_witness(q, kUncapped).found);

  WitnessQuery single = paper_query({-3.0}, 0, -3.0);
  EXPECT_TRUE(is_witness(single, admissible_witness_closed_form(single)));
  single.target = -2.0;
  EXPECT_FALSE(admissible_witness_closed_form(single).found);
}

TEST(ClosedFormWitness, MatchesTheLpHandCases) {
  // The Witness cases above, all with beta * (gamma + 1) <= 1.
  WitnessQuery q;
  q.values = {0.0, 1.0, 2.0};
  q.target = 2.0;
  q.beta = 0.25;
  q.gamma = 2;
  EXPECT_FALSE(admissible_witness_closed_form(q).found);
  q.gamma = 1;
  EXPECT_TRUE(is_witness(q, admissible_witness_closed_form(q)));
  q.target = 5.0;
  EXPECT_FALSE(admissible_witness_closed_form(q).found);

  q.values = {0.0, 10.0};
  q.target = 9.9;
  q.gamma = 2;
  q.beta = 0.009;
  EXPECT_TRUE(is_witness(q, admissible_witness_closed_form(q)));
  q.beta = 0.02;
  EXPECT_FALSE(admissible_witness_closed_form(q).found);
}

TEST(ClosedFormWitness, RejectsBetaAboveOneOverGammaPlusOne) {
  // Past 1/(gamma + 1) the reachable set can have gaps (here {0, 10} with
  // gamma = 1, beta = 0.9 reaches [0, 1] and [9, 10] only).
  WitnessQuery q;
  q.values = {0.0, 10.0};
  q.target = 5.0;
  q.gamma = 1;
  q.beta = 0.9;
  EXPECT_THROW(admissible_witness_closed_form(q), ContractViolation);
  EXPECT_FALSE(find_admissible_witness(q).found);
  q.beta = 0.5;
  EXPECT_TRUE(is_witness(q, admissible_witness_closed_form(q)));
}

TEST(ClosedFormWitness, AgreesWithLpOracleOnRandomQueries) {
  // m = 1..15, every f with m > 2f, continuous or heavily duplicated
  // values, targets spread past both ends of the reach.
  Rng rng(19);
  std::size_t found = 0;
  std::size_t missing = 0;
  for (std::size_t m = 1; m <= 15; ++m) {
    for (std::size_t f = 0; 2 * f < m; ++f) {
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<double> values(m);
        const bool duplicated = trial % 2 == 1;
        for (auto& v : values)
          v = duplicated ? static_cast<double>(rng.uniform_int(-2, 2))
                         : rng.uniform(-5.0, 5.0);
        WitnessQuery q = paper_query(values, f, 0.0);
        const auto [lo, hi] = exact_reach(q);
        const double vmin = *std::min_element(values.begin(), values.end());
        const double vmax = *std::max_element(values.begin(), values.end());
        q.target = rng.uniform(vmin - 1.0, vmax + 1.0);
        if (std::abs(q.target - lo) < kOracleBand ||
            std::abs(q.target - hi) < kOracleBand)
          continue;
        const WitnessResult closed = admissible_witness_closed_form(q);
        const WitnessResult lp = find_admissible_witness(q, kUncapped);
        ASSERT_TRUE(closed.exact);
        ASSERT_TRUE(lp.exact);
        ASSERT_EQ(closed.found, lp.found)
            << "m=" << m << " f=" << f << " target " << q.target;
        EXPECT_EQ(closed.found, q.target >= lo && q.target <= hi);
        if (closed.found) {
          EXPECT_TRUE(is_witness(q, closed));
          ++found;
        } else {
          ++missing;
        }
      }
    }
  }
  EXPECT_GT(found, 50u);
  EXPECT_GT(missing, 50u);
}

TEST(MaxGuaranteedBeta, MeanOfTwoIsHalf) {
  WitnessQuery q;
  q.values = {0.0, 2.0};
  q.target = 1.0;
  q.gamma = 2;
  EXPECT_NEAR(max_guaranteed_beta(q), 0.5, 1e-7);
}

TEST(MaxGuaranteedBeta, SkewedTarget) {
  // target 0.5 on {0, 2}: alpha = (0.75, 0.25) -> best min weight 0.25.
  WitnessQuery q;
  q.values = {0.0, 2.0};
  q.target = 0.5;
  q.gamma = 2;
  EXPECT_NEAR(max_guaranteed_beta(q), 0.25, 1e-7);
}

TEST(MaxGuaranteedBeta, InfeasibleTargetNegative) {
  WitnessQuery q;
  q.values = {0.0, 1.0};
  q.target = 4.0;
  q.gamma = 1;
  EXPECT_LT(max_guaranteed_beta(q), 0.0);
}

TEST(MaxGuaranteedBeta, GammaOneIsUnconstrainedByBeta) {
  // With gamma = 1 the best beta is the largest single weight over
  // combinations hitting the target; for target = a value itself, 1.0.
  WitnessQuery q;
  q.values = {0.0, 1.0, 2.0};
  q.target = 1.0;
  q.gamma = 1;
  EXPECT_NEAR(max_guaranteed_beta(q), 1.0, 1e-7);
}

}  // namespace
}  // namespace ftmao::lp
