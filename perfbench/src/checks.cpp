#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace perfbench {

double lemma3_bound(double d0, double gradient_bound, double step_scale,
                    std::size_t honest, std::size_t f, std::size_t rounds) {
  if (honest <= f) throw std::invalid_argument("lemma3_bound: need m > f");
  const double rho = 1.0 - 1.0 / (2.0 * static_cast<double>(honest - f));
  double d = d0;
  for (std::size_t t = 1; t <= rounds; ++t) {
    const std::size_t k = t - 1;
    const double lambda =
        k == 0 ? step_scale : step_scale / static_cast<double>(k);
    d = rho * d + 2.0 * gradient_bound * lambda * rho;
  }
  return d;
}

namespace {

// Smallest x (to 1e-12 relative width) with !pred(x), given that pred is
// true to the left of some point and false to its right.
template <typename Pred>
double boundary(Pred pred) {
  double lo = -1.0;
  double hi = 1.0;
  while (!pred(lo)) {
    lo *= 2.0;
    if (lo < -1e15) throw std::runtime_error("argmin bisection: no bracket");
  }
  while (pred(hi)) {
    hi *= 2.0;
    if (hi > 1e15) throw std::runtime_error("argmin bisection: no bracket");
  }
  for (int i = 0; i < 200; ++i) {
    const double mid = lo + 0.5 * (hi - lo);
    if (mid <= lo || mid >= hi) break;
    if (hi - lo <= 1e-12 * std::max(1.0, std::fabs(mid))) break;
    (pred(mid) ? lo : hi) = mid;
  }
  return lo + 0.5 * (hi - lo);
}

}  // namespace

Hull argmin_by_bisection(const ftmao::ScalarFunction& h) {
  const double lo = boundary([&](double x) { return h.derivative(x) < 0.0; });
  const double hi = boundary([&](double x) { return h.derivative(x) <= 0.0; });
  return {lo, std::max(lo, hi)};
}

Hull argmin_hull(std::span<const ftmao::ScalarFunctionPtr> honest) {
  Hull hull{std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity()};
  for (const auto& h : honest) {
    const Hull a = argmin_by_bisection(*h);
    hull.lo = std::min(hull.lo, a.lo);
    hull.hi = std::max(hull.hi, a.hi);
  }
  return hull;
}

bool states_in_hull(std::span<const double> states, const Hull& hull,
                    double slack) {
  return std::all_of(states.begin(), states.end(),
                     [&](double x) { return hull.contains(x, slack); });
}

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double x) { return std::isfinite(x); });
}

bool same_bits(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

}  // namespace perfbench
