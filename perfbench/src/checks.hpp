#pragma once

// Property checks the benchmark applies to the program's outputs. Each is
// computed by the benchmark's own code from the run's inputs, never by the
// library's theory helpers (core/theory) it is meant to check.

#include <cstddef>
#include <span>
#include <vector>

#include "func/scalar_function.hpp"

namespace perfbench {

/// Lemma 3's recursion, iterated here: D[0] = d0 and
///   D[t] = rho * D[t-1] + 2 L lambda[t-1] rho,  rho = 1 - 1/(2(m - f)),
/// for the harmonic step lambda[0] = scale, lambda[k] = scale / k. Returns
/// D[rounds]. `honest` is m, the number of non-faulty agents.
double lemma3_bound(double d0, double gradient_bound, double step_scale,
                    std::size_t honest, std::size_t f, std::size_t rounds);

/// Closed interval [lo, hi].
struct Hull {
  double lo = 0.0;
  double hi = 0.0;
  bool contains(double x, double slack) const {
    return x >= lo - slack && x <= hi + slack;
  }
};

/// argmin of an admissible cost, found by bisection on the sign of its
/// derivative (non-decreasing by convexity): lo = sup{x : h'(x) < 0},
/// hi = inf{x : h'(x) > 0}, each to within 1e-12 relative width.
Hull argmin_by_bisection(const ftmao::ScalarFunction& h);

/// Hull of the argmins of `honest` (each by bisection). It contains Y,
/// since every valid objective is a convex combination of these costs.
Hull argmin_hull(std::span<const ftmao::ScalarFunctionPtr> honest);

/// True iff every state lies in `hull` widened by `slack`.
bool states_in_hull(std::span<const double> states, const Hull& hull,
                    double slack);

/// True iff every value is finite.
bool all_finite(std::span<const double> values);

/// Bitwise equality of two doubles (so 0.0 != -0.0 and NaN == same NaN).
bool same_bits(double a, double b);
bool same_bits(std::span<const double> a, std::span<const double> b);

}  // namespace perfbench
