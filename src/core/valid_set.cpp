#include "core/valid_set.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/contracts.hpp"
#include "lp/witness.hpp"
#include "opt/bisection.hpp"

namespace ftmao {

bool is_admissible_weights(std::span<const double> weights, double beta,
                           std::size_t gamma, double tol) {
  double sum = 0.0;
  std::size_t bounded = 0;
  for (double w : weights) {
    if (w < -tol) return false;
    sum += w;
    if (w >= beta - tol) ++bounded;
  }
  return std::abs(sum - 1.0) <= tol && bounded >= gamma;
}

namespace {

Interval argmin_hull(const std::vector<ScalarFunctionPtr>& functions) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& fn : functions) {
    lo = std::min(lo, fn->argmin().lo());
    hi = std::max(hi, fn->argmin().hi());
  }
  return Interval(lo, hi);
}

}  // namespace

ValidFamily::ValidFamily(std::vector<ScalarFunctionPtr> functions, std::size_t f)
    : functions_(std::move(functions)), f_(f), optima_(0.0) {
  FTMAO_EXPECTS(!functions_.empty());
  for (const auto& fn : functions_) FTMAO_EXPECTS(fn != nullptr);
  FTMAO_EXPECTS(functions_.size() > 2 * f_);  // m > 2f (from n > 3f)

  // Y = [leftmost zero of r, rightmost zero of s] (Appendix A). Both
  // envelopes are continuous and non-decreasing, so both endpoints are
  // monotone-predicate thresholds. Any valid function's argmin — hence Y —
  // lies in the hull of the individual argmins, giving the seed bracket.
  const Interval hull = argmin_hull(functions_);
  const MonotonePredicate r_nonneg = [this](double x) {
    return max_envelope_gradient(x) >= 0.0;
  };
  const MonotonePredicate s_positive = [this](double x) {
    return min_envelope_gradient(x) > 0.0;
  };
  const Bracket rb = expand_bracket(r_nonneg, hull.lo() - 1.0, hull.hi() + 1.0);
  const double y_lo = bisect_threshold(r_nonneg, rb.lo, rb.hi);
  const Bracket sb = expand_bracket(s_positive, hull.lo() - 1.0, hull.hi() + 1.0);
  const double y_hi = bisect_threshold(s_positive, sb.lo, sb.hi);
  optima_ = y_hi >= y_lo ? Interval(y_lo, y_hi)
                         : Interval((y_lo + y_hi) / 2.0);  // numeric noise
}

double ValidFamily::beta() const {
  return 1.0 / (2.0 * static_cast<double>(gamma()));
}

std::size_t ValidFamily::gamma() const { return functions_.size() - f_; }

double ValidFamily::envelope(double x, bool max_side) const {
  std::vector<double> grads;
  grads.reserve(functions_.size());
  for (const auto& fn : functions_) grads.push_back(fn->derivative(x));
  if (max_side) {
    std::sort(grads.begin(), grads.end(), std::greater<>());
  } else {
    std::sort(grads.begin(), grads.end());
  }
  const std::size_t k = gamma();
  const double b = beta();
  // Weight (m-f+1)/(2(m-f)) on the extreme gradient, beta on the next k-1.
  double g = (1.0 - static_cast<double>(k - 1) * b) * grads[0];
  for (std::size_t j = 1; j < k; ++j) g += b * grads[j];
  return g;
}

double ValidFamily::max_envelope_gradient(double x) const {
  return envelope(x, /*max_side=*/true);
}

double ValidFamily::min_envelope_gradient(double x) const {
  return envelope(x, /*max_side=*/false);
}

WeightedSum ValidFamily::envelope_function_at(double x0, bool max_side) const {
  std::vector<std::size_t> order(functions_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ga = functions_[a]->derivative(x0);
    const double gb = functions_[b]->derivative(x0);
    return max_side ? ga > gb : ga < gb;
  });
  const std::size_t k = gamma();
  const double b = beta();
  std::vector<double> weights(functions_.size(), 0.0);
  weights[order[0]] = 1.0 - static_cast<double>(k - 1) * b;
  for (std::size_t j = 1; j < k; ++j) weights[order[j]] = b;
  return member(weights);
}

WeightedSum ValidFamily::member(std::span<const double> weights) const {
  FTMAO_EXPECTS(weights.size() == functions_.size());
  FTMAO_EXPECTS(is_admissible_weights(weights, beta(), gamma()));
  std::vector<WeightedTerm> terms;
  terms.reserve(functions_.size());
  for (std::size_t i = 0; i < functions_.size(); ++i)
    terms.push_back({weights[i], functions_[i]});
  return WeightedSum(std::move(terms));
}

Interval ValidFamily::optima_set() const { return optima_; }

double ValidFamily::distance_to_optima(double x) const {
  return optima_.distance_to(x);
}

bool ValidFamily::contains_optimum(double x, double tolerance) const {
  return optima_.distance_to(x) <= tolerance;
}

std::optional<std::vector<double>> ValidFamily::optimum_witness(
    double x, double tolerance) const {
  // x minimizes sum alpha_i h_i iff sum alpha_i h_i'(x) = 0 with alpha
  // admissible — the same witness query as the trim audits, with target 0
  // over the gradient values at x; beta = 1/(2 gamma) admits the closed form.
  lp::WitnessQuery query;
  query.values.reserve(functions_.size());
  for (const auto& fn : functions_) query.values.push_back(fn->derivative(x));
  query.target = 0.0;
  query.beta = beta();
  query.gamma = gamma();
  query.tolerance = tolerance;
  const lp::WitnessResult witness = lp::admissible_witness_closed_form(query);
  if (!witness.found) return std::nullopt;
  return witness.weights;
}

Interval ValidFamily::sampled_optima_hull(Rng& rng, std::size_t samples) const {
  FTMAO_EXPECTS(samples >= 1);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < samples; ++s) {
    const std::vector<double> w = random_admissible_weights(rng);
    const Interval am = member(w).argmin();
    lo = std::min(lo, am.lo());
    hi = std::max(hi, am.hi());
  }
  return Interval(lo, hi);
}

std::vector<double> ValidFamily::random_admissible_weights(Rng& rng) const {
  const std::size_t m = functions_.size();
  const std::size_t k = gamma();
  const double b = beta();

  // Uniform-random support of size gamma via partial Fisher-Yates.
  std::vector<std::size_t> perm(m);
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(m - 1)));
    std::swap(perm[i], perm[j]);
  }

  std::vector<double> weights(m, 0.0);
  for (std::size_t i = 0; i < k; ++i) weights[perm[i]] = b;

  // Spread the remaining mass (1 - k*b = 1/2) over the support with
  // random proportions; keeping it on the support preserves admissibility.
  double remaining = 1.0 - static_cast<double>(k) * b;
  std::vector<double> cuts(k);
  double total = 0.0;
  for (auto& c : cuts) {
    c = rng.uniform(0.0, 1.0);
    total += c;
  }
  if (total > 0.0) {
    for (std::size_t i = 0; i < k; ++i)
      weights[perm[i]] += remaining * cuts[i] / total;
  } else {
    weights[perm[0]] += remaining;
  }
  return weights;
}

}  // namespace ftmao
