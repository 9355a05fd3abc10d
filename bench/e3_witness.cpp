// E3 — Lemma 2 / Corollary 1: admissible witnesses for every trim.
//
// Claim: every effective gradient g~ and trimmed state x~ computed by an
// honest agent equals a convex combination of honest gradients/states with
// a (1/(2(m-f)), m-f)-admissible weight vector. We verify this with exact
// closed-form witnesses per iteration per agent, across attacks and
// system sizes, and report the observed minimum support weight against the
// guaranteed beta.

#include <iostream>

#include "bench_util.hpp"
#include "sim/runner.hpp"

int main() {
  using namespace ftmao;
  bench::print_header(
      "E3: admissibility witnesses (Lemma 2 / Corollary 1)",
      "exact witnesses per trim; failures must be 0; min weight >= beta");

  Table table({"n", "f", "attack", "checks", "failures", "min weight",
               "beta=1/(2(m-f))", "min support", "m-f"});

  const std::vector<std::pair<std::string, AttackKind>> kinds{
      {"split-brain", AttackKind::SplitBrain},
      {"sign-flip", AttackKind::SignFlip},
      {"hull-edge", AttackKind::HullEdgeUp},
      {"noise", AttackKind::RandomNoise},
      {"silent", AttackKind::Silent}};
  const std::vector<std::pair<std::size_t, std::size_t>> sizes{
      {7, 2}, {10, 3}, {13, 4}};

  for (const auto& [n, f] : sizes) {
    for (const auto& [name, kind] : kinds) {
      Scenario s = make_standard_scenario(n, f, 8.0, kind, 120);
      RunOptions opts;
      opts.audit_witnesses = true;
      const RunMetrics m = run_sbg(s, opts);
      const std::size_t honest = n - f;
      const double beta = 1.0 / (2.0 * static_cast<double>(honest - f));
      const std::size_t total_checks =
          m.state_witness.checks + m.gradient_witness.checks;
      const std::size_t total_failures =
          m.state_witness.failures + m.gradient_witness.failures;
      const double min_weight = std::min(m.state_witness.min_weight_seen,
                                         m.gradient_witness.min_weight_seen);
      const std::size_t min_support = std::min(
          m.state_witness.min_support_seen, m.gradient_witness.min_support_seen);
      table.row()
          .add(n)
          .add(f)
          .add(name)
          .add(total_checks)
          .add(total_failures)
          .add(min_weight, 4)
          .add(beta, 4)
          .add(min_support)
          .add(honest - f);
    }
  }
  table.print(std::cout);
  std::cout << "\nEvery row must show failures = 0, min weight >= beta, and\n"
               "min support >= m-f: that is exactly the paper's guarantee.\n";
  return 0;
}
