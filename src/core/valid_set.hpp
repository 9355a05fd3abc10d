#pragma once

// The family C of "valid" global objectives (eq. 4) and the set
// Y = union of their argmins (eq. 5).
//
// For non-faulty cost functions {h_i}_{i in N} and fault bound f, C is all
// convex combinations whose weight vector is
// (1/(2(|N|-f)), |N|-f)-admissible. Lemma 1: Y is convex and closed — an
// interval here. Appendix A computes its endpoints through the envelope
//
//   r(x) = (1 - (m-f-1)/(2(m-f))) * g_(1)(x)
//        + (1/(2(m-f))) * sum_{j=2..m-f} g_(j)(x),
//
// with g_(1) >= g_(2) >= ... the sorted gradients at x and m = |N|: r(x)
// is the largest gradient any valid function attains at x, is continuous
// and non-decreasing (Proposition 2), and min Y is its leftmost zero. The
// mirrored envelope s(x) (smallest gradients) gives max Y as its rightmost
// zero.

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/interval.hpp"
#include "common/rng.hpp"
#include "func/combination.hpp"
#include "func/scalar_function.hpp"

namespace ftmao {

/// Checks Definition 1 on a weight vector over the non-faulty agents:
/// entries non-negative, summing to 1 (within tol), with at least gamma
/// entries >= beta - tol.
bool is_admissible_weights(std::span<const double> weights, double beta,
                           std::size_t gamma, double tol = 1e-9);

/// The family C for a fixed execution's non-faulty functions and f.
class ValidFamily {
 public:
  /// `functions` are the costs of the non-faulty agents (|N| = m of them);
  /// f is the system fault bound. Requires m > 2f (implied by n > 3f).
  ValidFamily(std::vector<ScalarFunctionPtr> functions, std::size_t f);

  std::size_t m() const { return functions_.size(); }
  std::size_t f() const { return f_; }

  /// beta = 1/(2(m-f)) — the guaranteed weight lower bound.
  double beta() const;

  /// gamma = m - f — the optimal number of represented agents (Thm 1).
  std::size_t gamma() const;

  /// r(x): the largest gradient over all valid functions at x.
  double max_envelope_gradient(double x) const;

  /// s(x): the smallest gradient over all valid functions at x.
  double min_envelope_gradient(double x) const;

  /// The valid function achieving the max (or min) gradient envelope at
  /// anchor x0 — eq. (23)'s q(x). Its weights put
  /// (m-f+1)/(2(m-f)) on the extreme-gradient agent at x0 and
  /// 1/(2(m-f)) on the next m-f-1.
  WeightedSum envelope_function_at(double x0, bool max_side) const;

  /// A valid function from an explicit admissible weight vector (asserts
  /// admissibility).
  WeightedSum member(std::span<const double> weights) const;

  /// Y = [leftmost zero of r, rightmost zero of s]. Cached.
  Interval optima_set() const;

  /// Dist(x, Y) (Definition 2).
  double distance_to_optima(double x) const;

  /// Is x an optimum of SOME valid objective? (Equivalent to
  /// distance_to_optima(x) == 0 up to tolerance; exposed for symmetry with
  /// the vector API and for direct membership queries.)
  bool contains_optimum(double x, double tolerance = 1e-9) const;

  /// An admissible weight vector whose combination is minimized at x, when
  /// one exists (closed-form witness over the gradients at x); nullopt
  /// outside Y.
  std::optional<std::vector<double>> optimum_witness(
      double x, double tolerance = 1e-7) const;

  /// Monte-Carlo inner approximation of Y: hull of argmins of `samples`
  /// random valid functions. Always a subset of Y (up to numeric
  /// tolerance) — used to cross-validate the envelope computation.
  Interval sampled_optima_hull(Rng& rng, std::size_t samples) const;

  /// A random admissible weight vector: a uniform-random support of size
  /// gamma gets beta each, the remaining mass is spread randomly.
  std::vector<double> random_admissible_weights(Rng& rng) const;

  const std::vector<ScalarFunctionPtr>& functions() const { return functions_; }

 private:
  double envelope(double x, bool max_side) const;

  std::vector<ScalarFunctionPtr> functions_;
  std::size_t f_;
  Interval optima_;
};

}  // namespace ftmao
