#include "core/admissibility.hpp"

#include <algorithm>
#include <limits>

#include "common/contracts.hpp"

namespace ftmao {

namespace {

lp::WitnessQuery make_query(std::span<const double> honest_values,
                            double trimmed_value, std::size_t f,
                            double tolerance) {
  const std::size_t m = honest_values.size();
  FTMAO_EXPECTS(m > f);
  lp::WitnessQuery q;
  q.values.assign(honest_values.begin(), honest_values.end());
  q.target = trimmed_value;
  q.gamma = m - f;
  q.beta = 1.0 / (2.0 * static_cast<double>(m - f));
  q.tolerance = tolerance;
  return q;
}

}  // namespace

TrimAuditResult audit_trim(std::span<const double> honest_values,
                           double trimmed_value, std::size_t f,
                           double tolerance) {
  const lp::WitnessQuery q =
      make_query(honest_values, trimmed_value, f, tolerance);
  const lp::WitnessResult w = lp::admissible_witness_closed_form(q);

  TrimAuditResult result;
  result.witness_found = w.found;
  result.exact = w.exact;
  if (w.found) {
    result.weights = w.weights;
    result.support_size = w.support.size();
    double min_w = std::numeric_limits<double>::infinity();
    for (std::size_t i : w.support) min_w = std::min(min_w, w.weights[i]);
    result.min_support_weight = w.support.empty() ? 0.0 : min_w;
  }
  return result;
}

double best_achievable_beta(std::span<const double> honest_values,
                            double trimmed_value, std::size_t f,
                            double tolerance) {
  const lp::WitnessQuery q =
      make_query(honest_values, trimmed_value, f, tolerance);
  return lp::max_guaranteed_beta(q);
}

}  // namespace ftmao
