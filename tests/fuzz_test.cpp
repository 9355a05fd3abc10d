// Randomized differential and fuzz tests: every randomized check compares
// an optimized implementation against an independent (naive) reference or
// a mathematical invariant, across many seeded cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.hpp"
#include "consensus/eig.hpp"
#include "func/combination.hpp"
#include "func/functions.hpp"
#include "func/library.hpp"
#include "core/admissibility.hpp"
#include "core/step_size.hpp"
#include "lp/simplex.hpp"
#include "lp/witness.hpp"
#include "opt/golden.hpp"
#include "trim/trim.hpp"
#include "witness_check.hpp"

namespace ftmao {
namespace {

// ------------------------------------------------ trim vs naive reference

// Reference implementation straight from the paper's prose: full sort,
// drop f head and f tail, midpoint of the remainder's extremes.
TrimResult reference_trim(std::vector<double> values, std::size_t f) {
  std::sort(values.begin(), values.end());
  const double y_s = values[f];
  const double y_l = values[values.size() - 1 - f];
  return {y_s + (y_l - y_s) / 2.0, y_s, y_l};
}

TEST(Fuzz, TrimMatchesNaiveReference) {
  Rng rng(101);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t f = static_cast<std::size_t>(rng.uniform_int(0, 4));
    const std::size_t size =
        2 * f + 1 + static_cast<std::size_t>(rng.uniform_int(0, 12));
    std::vector<double> values(size);
    for (auto& v : values) {
      // Mix scales and exact duplicates to stress tie handling.
      v = rng.bernoulli(0.3) ? std::floor(rng.uniform(-3.0, 3.0))
                             : rng.uniform(-1e6, 1e6);
    }
    const TrimResult fast = trim(values, f);
    const TrimResult ref = reference_trim(values, f);
    EXPECT_DOUBLE_EQ(fast.y_s, ref.y_s) << "trial " << trial;
    EXPECT_DOUBLE_EQ(fast.y_l, ref.y_l) << "trial " << trial;
    EXPECT_DOUBLE_EQ(fast.value, ref.value) << "trial " << trial;
  }
}

TEST(Fuzz, TrimmedMeanMatchesNaiveReference) {
  Rng rng(102);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::size_t f = static_cast<std::size_t>(rng.uniform_int(0, 3));
    const std::size_t size =
        2 * f + 1 + static_cast<std::size_t>(rng.uniform_int(0, 9));
    std::vector<double> values(size);
    for (auto& v : values) v = rng.uniform(-100.0, 100.0);

    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (std::size_t i = f; i < sorted.size() - f; ++i) sum += sorted[i];
    const double ref = sum / static_cast<double>(sorted.size() - 2 * f);
    EXPECT_NEAR(trimmed_mean(values, f), ref, 1e-9);
  }
}

// -------------------------------------------- simplex vs 2-var brute force

// For 2-variable LPs, the optimum lies at a vertex: intersect every pair
// of active constraint boundaries (including the axes) and take the best
// feasible point. Independent of the simplex code path.
struct Line {
  // ax + by = c
  double a, b, c;
};

std::optional<std::pair<double, double>> intersect(const Line& p, const Line& q) {
  const double det = p.a * q.b - p.b * q.a;
  if (std::abs(det) < 1e-12) return std::nullopt;
  return std::make_pair((p.c * q.b - p.b * q.c) / det,
                        (p.a * q.c - p.c * q.a) / det);
}

TEST(Fuzz, SimplexMatchesVertexEnumerationIn2D) {
  Rng rng(103);
  for (int trial = 0; trial < 300; ++trial) {
    lp::Problem problem;
    problem.num_vars = 2;
    problem.objective = {rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
    problem.sense = lp::Sense::Minimize;

    std::vector<Line> lines{{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}};  // axes
    const int m = static_cast<int>(rng.uniform_int(2, 5));
    for (int i = 0; i < m; ++i) {
      const double a = rng.uniform(-2.0, 2.0);
      const double b = rng.uniform(-2.0, 2.0);
      const double c = rng.uniform(0.5, 6.0);  // keeps origin feasible
      problem.add({a, b}, lp::Relation::LessEq, c);
      lines.push_back({a, b, c});
    }
    // Boundedness: cap both variables.
    problem.add({1.0, 0.0}, lp::Relation::LessEq, 50.0);
    problem.add({0.0, 1.0}, lp::Relation::LessEq, 50.0);
    lines.push_back({1.0, 0.0, 50.0});
    lines.push_back({0.0, 1.0, 50.0});

    auto feasible = [&](double x, double y) {
      if (x < -1e-7 || y < -1e-7) return false;
      for (std::size_t i = 2; i < lines.size(); ++i) {
        if (lines[i].a * x + lines[i].b * y > lines[i].c + 1e-7) return false;
      }
      return true;
    };

    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      for (std::size_t j = i + 1; j < lines.size(); ++j) {
        const auto pt = intersect(lines[i], lines[j]);
        if (!pt || !feasible(pt->first, pt->second)) continue;
        best = std::min(best, problem.objective[0] * pt->first +
                                  problem.objective[1] * pt->second);
      }
    }

    const lp::Solution sol = lp::solve(problem);
    ASSERT_EQ(sol.status, lp::Status::Optimal) << "trial " << trial;
    EXPECT_NEAR(sol.objective_value, best, 1e-6) << "trial " << trial;
  }
}

// ------------------------------------ closed-form witness vs LP oracle

TEST(Fuzz, ClosedFormWitnessMatchesLpOracleOnTrims) {
  // Lemma 2 on random trims of honest plus Byzantine values: the trimmed
  // value always has a witness over the honest values, in closed form and
  // by the uncapped LP search. Shifted targets probe both verdicts.
  using witness_check::exact_reach;
  using witness_check::kOracleBand;
  using witness_check::kUncapped;
  Rng rng(107);
  std::size_t missing = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const auto f = static_cast<std::size_t>(rng.uniform_int(0, 4));
    const std::size_t m = 2 * f + 1 +
                          static_cast<std::size_t>(rng.uniform_int(0, 14 - 2 * f));
    std::vector<double> honest(m);
    const bool duplicated = trial % 3 == 0;
    for (auto& v : honest)
      v = duplicated ? static_cast<double>(rng.uniform_int(-1, 1))
                     : rng.uniform(-5.0, 5.0);
    std::vector<double> all = honest;
    for (std::size_t b = 0; b < f; ++b) all.push_back(rng.uniform(-50.0, 50.0));
    const double trimmed = trim_value(all, f);

    const TrimAuditResult audit = audit_trim(honest, trimmed, f);
    ASSERT_TRUE(audit.witness_found) << "trial " << trial;
    ASSERT_TRUE(audit.exact);
    EXPECT_GE(audit.support_size, m - f);

    lp::WitnessQuery q = witness_check::paper_query(honest, f, trimmed);
    EXPECT_TRUE(witness_check::is_witness(q, lp::admissible_witness_closed_form(q)))
        << "trial " << trial;
    EXPECT_TRUE(lp::find_admissible_witness(q, kUncapped).found);

    q.target = trimmed + rng.uniform(-3.0, 3.0);
    const auto [lo, hi] = exact_reach(q);
    if (std::abs(q.target - lo) < kOracleBand ||
        std::abs(q.target - hi) < kOracleBand)
      continue;
    const lp::WitnessResult closed = lp::admissible_witness_closed_form(q);
    ASSERT_EQ(closed.found, lp::find_admissible_witness(q, kUncapped).found)
        << "trial " << trial << " target " << q.target;
    if (closed.found)
      EXPECT_TRUE(witness_check::is_witness(q, closed));
    else
      ++missing;
  }
  EXPECT_GT(missing, 20u);
}

// ---------------------------------------- argmin vs golden-section search

TEST(Fuzz, WeightedSumArgminMatchesGoldenSection) {
  Rng rng(104);
  for (int trial = 0; trial < 100; ++trial) {
    Rng sub = rng.substream("family", static_cast<std::uint64_t>(trial));
    const auto fns = make_random_family(4, sub);
    std::vector<WeightedTerm> terms;
    double total = 0.0;
    for (const auto& fn : fns) {
      const double w = sub.uniform(0.1, 1.0);
      terms.push_back({w, fn});
      total += w;
    }
    for (auto& t : terms) t.weight /= total;
    const WeightedSum sum(terms);

    const double golden = golden_section_min(
        [&](double x) { return sum.value(x); }, -40.0, 40.0);
    // golden finds some minimizer; it must be inside (or extremely near)
    // the derivative-based argmin interval.
    EXPECT_LE(sum.argmin().distance_to(golden), 1e-4) << "trial " << trial;
  }
}

// --------------------------------------------------- EIG randomized lies

// An attack that answers every query with seeded random garbage — the
// "fuzzer adversary". Agreement must survive anything it does.
class RandomEigAttack final : public EigAttack {
 public:
  explicit RandomEigAttack(std::uint64_t seed) : seed_(seed) {}

  double initial_value(AgentId self, AgentId recipient) override {
    return hash_to_value(mix64(seed_ ^ (self.value * 1000003ULL + recipient.value)));
  }

  double relay_value(AgentId self, AgentId recipient, const EigPath& path,
                     double) override {
    std::uint64_t h = seed_ ^ (self.value * 1000003ULL + recipient.value);
    for (std::uint32_t p : path) h = mix64(h ^ p);
    return hash_to_value(h);
  }

 private:
  static double hash_to_value(std::uint64_t h) {
    return static_cast<double>(h % 2001) - 1000.0;
  }
  std::uint64_t seed_;
};

TEST(Fuzz, EigAgreementSurvivesRandomLies) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RandomEigAttack a(seed), b(seed + 1000);
    std::vector<EigAttack*> attacks(7, nullptr);
    const std::size_t slot_a = seed % 7;
    const std::size_t slot_b = (slot_a + 3) % 7;  // always distinct mod 7
    attacks[slot_a] = &a;
    attacks[slot_b] = &b;

    EigConfig config;
    config.n = 7;
    config.f = 2;
    for (std::uint32_t sender = 0; sender < 7; ++sender) {
      EigInstance instance(config, AgentId{sender}, attacks);
      instance.run(3.0);
      std::optional<double> first;
      for (std::uint32_t obs = 0; obs < 7; ++obs) {
        if (attacks[obs] != nullptr) continue;
        const double d = instance.decision(AgentId{obs});
        if (!first) first = d;
        EXPECT_DOUBLE_EQ(d, *first) << "seed " << seed << " sender " << sender;
      }
      if (attacks[sender] == nullptr) {
        // Validity for honest senders.
        EXPECT_DOUBLE_EQ(*first, 3.0);
      }
    }
  }
}

// --------------------------------------------- end-to-end SBG state fuzz

TEST(Fuzz, SbgHonestStatesAlwaysFiniteAndBounded) {
  // Wild random attacks for a short horizon: no honest state may become
  // NaN/inf or escape the initial hull by more than the step budget.
  Rng rng(105);
  for (int trial = 0; trial < 30; ++trial) {
    const std::vector<double> honest{-2.0, -1.0, 0.0, 1.0, 2.0};
    std::vector<double> states = honest;
    const std::size_t f = 1;
    const HarmonicStep schedule;
    double budget = 2.0 * 4.0;  // initial hull width 4, L <= 2 baked below

    for (std::uint32_t t = 1; t <= 100; ++t) {
      std::vector<double> next(states.size());
      for (std::size_t j = 0; j < states.size(); ++j) {
        std::vector<double> sv = states;
        std::vector<double> gv;
        for (double x : states) gv.push_back(std::tanh(x));  // |g| <= 1
        // One Byzantine entry of unrestricted garbage per agent view.
        sv.push_back(rng.uniform(-1e12, 1e12));
        gv.push_back(rng.uniform(-1e12, 1e12));
        next[j] = trim_value(sv, f) - schedule.at(t - 1) * trim_value(gv, f);
      }
      states = next;
      for (double x : states) {
        ASSERT_TRUE(std::isfinite(x));
        ASSERT_LE(std::abs(x), budget + 10.0);
      }
    }
  }
}

}  // namespace
}  // namespace ftmao
