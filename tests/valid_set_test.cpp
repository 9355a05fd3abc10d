// Tests for the valid family C, the gradient envelopes r/s, the optima set
// Y (Lemma 1 / Appendix A), and admissibility checks — including
// brute-force cross-validation of the envelope-based Y computation.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/admissibility.hpp"
#include "core/valid_set.hpp"
#include "func/functions.hpp"
#include "func/library.hpp"
#include "lp/witness.hpp"
#include "trim/trim.hpp"
#include "witness_check.hpp"

namespace ftmao {
namespace {

ScalarFunctionPtr huber_at(double center, double delta = 5.0,
                           double scale = 1.0) {
  return std::make_shared<Huber>(center, delta, scale);
}

// --------------------------------------------------- is_admissible_weights

TEST(AdmissibleWeights, AcceptsValidVector) {
  // m=4, gamma=3, beta=1/6: three weights at 1/6 + slack on one.
  const std::vector<double> w{0.5, 1.0 / 6, 1.0 / 6, 1.0 / 6};
  EXPECT_TRUE(is_admissible_weights(w, 1.0 / 6, 3));
}

TEST(AdmissibleWeights, RejectsNegativeWeight) {
  const std::vector<double> w{1.2, -0.2};
  EXPECT_FALSE(is_admissible_weights(w, 0.1, 1));
}

TEST(AdmissibleWeights, RejectsWrongSum) {
  const std::vector<double> w{0.4, 0.4};
  EXPECT_FALSE(is_admissible_weights(w, 0.1, 2));
}

TEST(AdmissibleWeights, RejectsTooFewBoundedWeights) {
  const std::vector<double> w{0.9, 0.05, 0.05};
  EXPECT_FALSE(is_admissible_weights(w, 0.1, 2));
  EXPECT_TRUE(is_admissible_weights(w, 0.1, 1));
}

// ------------------------------------------------------------- ValidFamily

TEST(ValidFamily, BetaGammaMatchPaper) {
  const ValidFamily family({huber_at(0), huber_at(1), huber_at(2),
                            huber_at(3), huber_at(4)},
                           /*f=*/1);
  EXPECT_EQ(family.gamma(), 4u);  // m - f = 5 - 1
  EXPECT_DOUBLE_EQ(family.beta(), 1.0 / 8.0);
}

TEST(ValidFamily, RequiresMGreaterThan2F) {
  EXPECT_THROW(ValidFamily({huber_at(0), huber_at(1)}, 1), ContractViolation);
}

TEST(ValidFamily, FZeroYEqualsUniformArgminHull) {
  // With f = 0 the family still spans admissible weight vectors (all
  // weights >= 1/(2m)); Y contains the uniform average's argmin.
  const ValidFamily family({huber_at(-2), huber_at(0), huber_at(2)}, 0);
  const Interval y = family.optima_set();
  EXPECT_TRUE(y.contains(0.0));  // uniform average optimum
  // Y is inside the hull of local optima.
  EXPECT_GE(y.lo(), -2.0 - 1e-6);
  EXPECT_LE(y.hi(), 2.0 + 1e-6);
}

TEST(ValidFamily, EnvelopesBracketAllValidGradients) {
  Rng rng(13);
  const ValidFamily family(
      {huber_at(-3), huber_at(-1), huber_at(0), huber_at(2), huber_at(5)}, 1);
  for (int i = 0; i < 50; ++i) {
    const auto w = family.random_admissible_weights(rng);
    const WeightedSum p = family.member(w);
    const double x = rng.uniform(-8.0, 8.0);
    EXPECT_LE(p.derivative(x), family.max_envelope_gradient(x) + 1e-9);
    EXPECT_GE(p.derivative(x), family.min_envelope_gradient(x) - 1e-9);
  }
}

TEST(ValidFamily, EnvelopeIsAttainedByEnvelopeFunction) {
  const ValidFamily family(
      {huber_at(-3), huber_at(-1), huber_at(0), huber_at(2), huber_at(5)}, 1);
  for (double x : {-6.0, -1.5, 0.0, 1.0, 4.0}) {
    const WeightedSum q_max = family.envelope_function_at(x, true);
    EXPECT_NEAR(q_max.derivative(x), family.max_envelope_gradient(x), 1e-9);
    const WeightedSum q_min = family.envelope_function_at(x, false);
    EXPECT_NEAR(q_min.derivative(x), family.min_envelope_gradient(x), 1e-9);
  }
}

TEST(ValidFamily, EnvelopeRIsNonDecreasingAndContinuous) {
  // Proposition 2, checked on a grid.
  const ValidFamily family(make_mixed_family(7, 10.0), 2);
  double prev = family.max_envelope_gradient(-20.0);
  for (double x = -20.0; x <= 20.0; x += 0.01) {
    const double r = family.max_envelope_gradient(x);
    EXPECT_GE(r, prev - 1e-9);
    EXPECT_LE(std::abs(r - prev), 1.0);  // crude continuity bound on the grid
    prev = r;
  }
}

TEST(ValidFamily, MemberArgminInsideY) {
  Rng rng(21);
  const ValidFamily family(make_mixed_family(6, 8.0), 1);
  const Interval y = family.optima_set();
  for (int i = 0; i < 100; ++i) {
    const auto w = family.random_admissible_weights(rng);
    const Interval am = family.member(w).argmin();
    EXPECT_GE(am.lo(), y.lo() - 1e-6);
    EXPECT_LE(am.hi(), y.hi() + 1e-6);
  }
}

TEST(ValidFamily, SampledHullApproachesYFromInside) {
  Rng rng(31);
  const ValidFamily family({huber_at(-4), huber_at(-1), huber_at(1),
                            huber_at(3), huber_at(6)},
                           1);
  const Interval y = family.optima_set();
  const Interval sampled = family.sampled_optima_hull(rng, 400);
  EXPECT_GE(sampled.lo(), y.lo() - 1e-6);
  EXPECT_LE(sampled.hi(), y.hi() + 1e-6);
  // The random sampler covers a decent fraction of Y.
  EXPECT_GT(sampled.length(), 0.3 * y.length());
}

TEST(ValidFamily, YEndpointsMatchEnvelopeArgmins) {
  // min Y is a minimizer of the max-side envelope function anchored at
  // min Y itself (Appendix A's construction), symmetrically for max Y.
  const ValidFamily family(
      {huber_at(-3), huber_at(0), huber_at(1), huber_at(4)}, 1);
  const Interval y = family.optima_set();
  const WeightedSum q_lo = family.envelope_function_at(y.lo(), true);
  EXPECT_NEAR(q_lo.derivative(y.lo()), 0.0, 1e-6);
  const WeightedSum q_hi = family.envelope_function_at(y.hi(), false);
  EXPECT_NEAR(q_hi.derivative(y.hi()), 0.0, 1e-6);
}

TEST(ValidFamily, IdenticalFunctionsGiveTheirArgmin) {
  const ValidFamily family({huber_at(2), huber_at(2), huber_at(2),
                            huber_at(2)},
                           1);
  const Interval y = family.optima_set();
  EXPECT_NEAR(y.lo(), 2.0, 1e-6);
  EXPECT_NEAR(y.hi(), 2.0, 1e-6);
}

TEST(ValidFamily, FlatArgminWidensY) {
  const auto flat = std::make_shared<FlatHuber>(Interval(-1.0, 1.0), 2.0, 1.0);
  const ValidFamily family({flat, flat, flat}, 0);
  const Interval y = family.optima_set();
  EXPECT_NEAR(y.lo(), -1.0, 1e-6);
  EXPECT_NEAR(y.hi(), 1.0, 1e-6);
}

TEST(ValidFamily, LargerFWidensY) {
  const std::vector<ScalarFunctionPtr> fns{
      huber_at(-4), huber_at(-2), huber_at(0), huber_at(2), huber_at(4),
      huber_at(6), huber_at(8)};
  const Interval y1 = ValidFamily(fns, 1).optima_set();
  const Interval y2 = ValidFamily(fns, 2).optima_set();
  EXPECT_LE(y2.lo(), y1.lo() + 1e-6);  // grows left
  EXPECT_GE(y2.hi(), y1.hi() - 1e-6);  // grows right
  EXPECT_GE(y2.length(), y1.length() - 1e-9);
}

TEST(ValidFamily, DistanceToOptima) {
  const ValidFamily family({huber_at(0), huber_at(0), huber_at(0)}, 0);
  EXPECT_NEAR(family.distance_to_optima(3.0), 3.0, 1e-6);
  EXPECT_NEAR(family.distance_to_optima(0.0), 0.0, 1e-6);
}

TEST(ValidFamily, MemberRejectsInadmissibleWeights) {
  const ValidFamily family({huber_at(0), huber_at(1), huber_at(2)}, 0);
  const std::vector<double> bad{1.0, 0.0, 0.0};  // only 1 weight >= beta, gamma=3
  EXPECT_THROW(family.member(bad), ContractViolation);
}

TEST(ValidFamily, RandomWeightsAlwaysAdmissible) {
  Rng rng(77);
  const ValidFamily family(make_mixed_family(9, 12.0), 2);
  for (int i = 0; i < 200; ++i) {
    const auto w = family.random_admissible_weights(rng);
    EXPECT_TRUE(is_admissible_weights(w, family.beta(), family.gamma()));
  }
}

TEST(ValidFamily, MembershipAgreesWithDistance) {
  const ValidFamily family(
      {huber_at(-3), huber_at(-1), huber_at(0), huber_at(2), huber_at(5)}, 1);
  const Interval y = family.optima_set();
  EXPECT_TRUE(family.contains_optimum(y.midpoint()));
  EXPECT_TRUE(family.contains_optimum(y.lo(), 1e-6));
  EXPECT_FALSE(family.contains_optimum(y.hi() + 1.0));
}

TEST(ValidFamily, OptimumWitnessExistsInsideYOnly) {
  const ValidFamily family(
      {huber_at(-3), huber_at(-1), huber_at(0), huber_at(2), huber_at(5)}, 1);
  const Interval y = family.optima_set();

  const auto inside = family.optimum_witness(y.midpoint());
  ASSERT_TRUE(inside.has_value());
  EXPECT_TRUE(is_admissible_weights(*inside, family.beta(), family.gamma()));
  // The witness really is stationary at the point.
  double g = 0.0;
  for (std::size_t i = 0; i < inside->size(); ++i)
    g += (*inside)[i] * family.functions()[i]->derivative(y.midpoint());
  EXPECT_NEAR(g, 0.0, 1e-6);

  EXPECT_FALSE(family.optimum_witness(y.hi() + 0.5).has_value());
  EXPECT_FALSE(family.optimum_witness(y.lo() - 0.5).has_value());
}

TEST(ValidFamily, OptimumWitnessAgreesWithLpOracle) {
  const ValidFamily family({huber_at(-4), huber_at(-2), huber_at(-1),
                            huber_at(0.5), huber_at(1), huber_at(3),
                            huber_at(6)},
                           2);
  const Interval y = family.optima_set();
  for (int k = 0; k <= 40; ++k) {
    const double x = y.lo() - 1.0 + (y.length() + 2.0) * k / 40.0;
    if (std::abs(x - y.lo()) < 1e-4 || std::abs(x - y.hi()) < 1e-4) continue;
    lp::WitnessQuery query;
    for (const auto& fn : family.functions())
      query.values.push_back(fn->derivative(x));
    query.beta = family.beta();
    query.gamma = family.gamma();
    const auto witness = family.optimum_witness(x);
    EXPECT_EQ(witness.has_value(),
              lp::find_admissible_witness(query, witness_check::kUncapped).found)
        << "x = " << x;
    EXPECT_EQ(witness.has_value(), family.contains_optimum(x)) << "x = " << x;
    if (witness) {
      lp::WitnessResult as_result;
      as_result.found = true;
      as_result.weights = *witness;
      EXPECT_TRUE(witness_check::is_witness(query, as_result)) << "x = " << x;
    }
  }
}

// ------------------------------------------------------------- audit_trim

TEST(AuditTrim, PassesForActualTrimOutputs) {
  // Values held by honest agents plus Byzantine entries; Lemma 2 promises
  // a witness for the trimmed result w.r.t. honest values only.
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t f = 1 + static_cast<std::size_t>(rng.uniform_int(0, 1));
    const std::size_t n = 3 * f + 1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
    const std::size_t m = n - f;  // honest agents
    std::vector<double> honest(m);
    for (auto& v : honest) v = rng.uniform(-5.0, 5.0);
    std::vector<double> all = honest;
    for (std::size_t b = 0; b < f; ++b) all.push_back(rng.uniform(-50.0, 50.0));
    const double trimmed = trim_value(all, f);
    const TrimAuditResult audit = audit_trim(honest, trimmed, f);
    EXPECT_TRUE(audit.witness_found) << "trial " << trial;
    if (audit.witness_found) {
      EXPECT_GE(audit.support_size, m - f);
      EXPECT_GE(audit.min_support_weight,
                1.0 / (2.0 * static_cast<double>(m - f)) - 1e-6);
    }
  }
}

TEST(AuditTrim, FailsForValueOutsideHull) {
  const std::vector<double> honest{0.0, 1.0, 2.0, 3.0};
  EXPECT_FALSE(audit_trim(honest, 10.0, 1).witness_found);
}

TEST(BestAchievableBeta, AtLeastPaperGuaranteeOnTrimOutputs) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t f = 1;
    const std::size_t m = 4;
    std::vector<double> honest(m);
    for (auto& v : honest) v = rng.uniform(-3.0, 3.0);
    std::vector<double> all = honest;
    all.push_back(rng.uniform(-30.0, 30.0));  // one Byzantine
    const double trimmed = trim_value(all, f);
    const double beta_star = best_achievable_beta(honest, trimmed, f);
    EXPECT_GE(beta_star, 1.0 / (2.0 * static_cast<double>(m - f)) - 1e-6)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace ftmao
