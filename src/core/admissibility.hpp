#pragma once

// Runtime audits of Lemma 2 / Corollary 1: after each Trim, the effective
// value must equal a convex combination of the *honest* inputs with a
// (1/(2(m-f)), m-f)-admissible weight vector. audit_trim builds that
// witness with lp::admissible_witness_closed_form: beta = 1/(2 gamma)
// satisfies its beta <= 1/(gamma + 1) condition for every gamma >= 1, so
// the answer is exact in O(m log m) at any system size (see
// lp/witness.hpp for the derivation). The experiment harness runs it
// every iteration (E3) and the property tests assert it never fails.

#include <cstddef>
#include <span>
#include <vector>

#include "lp/witness.hpp"

namespace ftmao {

struct TrimAuditResult {
  bool witness_found = false;
  bool exact = true;                ///< decided exactly (always, in closed form)
  double min_support_weight = 0.0;  ///< smallest weight on the support
  std::size_t support_size = 0;     ///< #weights >= beta
  std::vector<double> weights;      ///< the witness itself (over honest values)
};

/// Verifies that `trimmed_value` lies in the admissible-combination hull of
/// `honest_values` (the values held by the m non-faulty agents), with
/// beta = 1/(2(m-f)) and gamma = m-f.
TrimAuditResult audit_trim(std::span<const double> honest_values,
                           double trimmed_value, std::size_t f,
                           double tolerance = 1e-7);

/// The best beta achievable for gamma = m-f on this instance — compare
/// with the guaranteed 1/(2(m-f)) (it must be >= that when the audit
/// passes) and with Theorem 1's ceiling. Exhaustive; small m only.
double best_achievable_beta(std::span<const double> honest_values,
                            double trimmed_value, std::size_t f,
                            double tolerance = 1e-7);

}  // namespace ftmao
