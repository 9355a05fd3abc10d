#include "lp/witness.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contracts.hpp"

namespace ftmao::lp {

namespace {

// Base problem: alpha >= 0, sum alpha = 1, |sum alpha v - y| <= tol.
// Equality-with-tolerance is encoded as two inequality rows so that tiny
// floating-point error in y does not produce spurious infeasibility.
Problem base_problem(const WitnessQuery& q) {
  const std::size_t m = q.values.size();
  Problem p;
  p.num_vars = m;
  p.add(std::vector<double>(m, 1.0), Relation::Eq, 1.0);
  p.add(q.values, Relation::LessEq, q.target + q.tolerance);
  p.add(q.values, Relation::GreaterEq, q.target - q.tolerance);
  return p;
}

std::vector<double> unit_row(std::size_t m, std::size_t i) {
  std::vector<double> row(m, 0.0);
  row[i] = 1.0;
  return row;
}

// Feasibility of the base problem with alpha_i >= beta for i in subset.
Solution try_subset(const WitnessQuery& q,
                    const std::vector<std::size_t>& subset) {
  Problem p = base_problem(q);
  for (std::size_t i : subset)
    p.add(unit_row(q.values.size(), i), Relation::GreaterEq, q.beta);
  return solve(p);
}

std::vector<std::size_t> support_of(const std::vector<double>& weights,
                                    double beta, double tol) {
  std::vector<std::size_t> support;
  for (std::size_t i = 0; i < weights.size(); ++i)
    if (weights[i] >= beta - tol) support.push_back(i);
  return support;
}

// Visits all gamma-subsets of {0..m-1} until visitor returns true
// (found) or the cap is hit. Returns {found, exhausted_all}.
template <typename Visitor>
std::pair<bool, bool> for_each_subset(std::size_t m, std::size_t gamma,
                                      std::size_t cap, Visitor&& visit) {
  std::vector<std::size_t> idx(gamma);
  std::iota(idx.begin(), idx.end(), 0);
  std::size_t tried = 0;
  while (true) {
    if (tried++ >= cap) return {false, false};
    if (visit(idx)) return {true, true};
    // next combination in lexicographic order
    std::size_t k = gamma;
    while (k > 0) {
      --k;
      if (idx[k] != k + m - gamma) {
        ++idx[k];
        for (std::size_t j = k + 1; j < gamma; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (k == 0) return {false, true};
    }
    if (gamma == 0) return {false, true};
  }
}

}  // namespace

WitnessResult admissible_witness_closed_form(const WitnessQuery& query) {
  const std::vector<double>& v = query.values;
  const std::size_t m = v.size();
  const std::size_t gamma = query.gamma;
  const double beta = query.beta;
  const double y = query.target;
  const double tol = query.tolerance;
  FTMAO_EXPECTS(m >= 1);
  FTMAO_EXPECTS(gamma <= m);
  FTMAO_EXPECTS(beta >= 0.0);
  FTMAO_EXPECTS(beta * static_cast<double>(gamma + 1) <= 1.0);
  FTMAO_EXPECTS(std::isfinite(y));
  for (double x : v) FTMAO_EXPECTS(std::isfinite(x));

  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return v[a] < v[b] || (v[a] == v[b] && a < b);
  });
  const std::size_t lo = order.front();
  const std::size_t hi = order.back();
  // c >= beta > 0, or c = 1 when beta = 0.
  const double c = 1.0 - static_cast<double>(gamma) * beta;

  // Window sums are non-decreasing, so the first window whose reach
  // [beta * sum + c * v_min, beta * sum + c * v_max] ends at or above
  // y - tol is the only one that can start at or below y + tol.
  double sum = 0.0;
  for (std::size_t j = 0; j < gamma; ++j) sum += v[order[j]];
  std::size_t start = 0;
  while (beta * sum + c * v[hi] < y - tol && start + gamma < m) {
    sum += v[order[start + gamma]] - v[order[start]];
    ++start;
  }

  WitnessResult result;
  if (beta * sum + c * v[hi] < y - tol || beta * sum + c * v[lo] > y + tol)
    return result;

  std::vector<double> weights(m, 0.0);
  for (std::size_t j = start; j < start + gamma; ++j) weights[order[j]] = beta;
  const double t = std::clamp((y - beta * sum) / c, v[lo], v[hi]);
  const double up = v[hi] > v[lo] ? (t - v[lo]) / (v[hi] - v[lo]) : 0.0;
  weights[hi] += c * up;
  weights[lo] += c * (1.0 - up);

  // Residual check, independent of the window arithmetic above. The two
  // round differently by a few ulps of the values, hence the slack.
  double mass = 0.0;
  double dot = 0.0;
  double scale = std::abs(y);
  std::size_t bounded = 0;
  for (std::size_t i = 0; i < m; ++i) {
    FTMAO_ENSURES(weights[i] >= 0.0);
    mass += weights[i];
    dot += weights[i] * v[i];
    scale = std::max(scale, std::abs(v[i]));
    if (weights[i] >= beta) ++bounded;
  }
  FTMAO_ENSURES(std::abs(mass - 1.0) <= 1e-12 * static_cast<double>(m));
  FTMAO_ENSURES(std::abs(dot - y) <= tol + 1e-12 * (1.0 + scale));
  FTMAO_ENSURES(bounded >= gamma);

  result.found = true;
  result.support = support_of(weights, beta, tol);
  result.weights = std::move(weights);
  return result;
}

WitnessResult find_admissible_witness(const WitnessQuery& query,
                                      std::size_t subset_cap) {
  const std::size_t m = query.values.size();
  FTMAO_EXPECTS(m >= 1);
  FTMAO_EXPECTS(query.gamma <= m);
  FTMAO_EXPECTS(query.beta >= 0.0);

  WitnessResult result;

  auto accept = [&](const Solution& sol) {
    result.found = true;
    result.weights = sol.x;
    result.support = support_of(sol.x, query.beta, query.tolerance);
    return true;
  };

  auto [found, exhausted] = for_each_subset(
      m, query.gamma, subset_cap, [&](const std::vector<std::size_t>& subset) {
        const Solution sol = try_subset(query, subset);
        return sol.feasible() && accept(sol);
      });

  result.exact = exhausted || found;
  if (found || exhausted) return result;

  // Heuristic pass: solve the relaxation maximizing total "capped" mass,
  // then probe the top-gamma support it suggests.
  //
  // Variables: alpha (m), z (m) with z_i <= alpha_i, z_i <= beta;
  // maximize sum z. If a witness exists the optimum is gamma*beta, and the
  // top coordinates of alpha usually identify a working support.
  {
    Problem p;
    p.num_vars = 2 * m;
    p.objective.assign(2 * m, 0.0);
    for (std::size_t i = 0; i < m; ++i) p.objective[m + i] = 1.0;
    p.sense = Sense::Maximize;

    std::vector<double> row(2 * m, 0.0);
    for (std::size_t i = 0; i < m; ++i) row[i] = 1.0;
    p.add(row, Relation::Eq, 1.0);
    std::fill(row.begin(), row.end(), 0.0);
    for (std::size_t i = 0; i < m; ++i) row[i] = query.values[i];
    p.add(row, Relation::LessEq, query.target + query.tolerance);
    p.add(row, Relation::GreaterEq, query.target - query.tolerance);
    for (std::size_t i = 0; i < m; ++i) {
      std::fill(row.begin(), row.end(), 0.0);
      row[m + i] = 1.0;
      row[i] = -1.0;
      p.add(row, Relation::LessEq, 0.0);  // z_i <= alpha_i
      std::fill(row.begin(), row.end(), 0.0);
      row[m + i] = 1.0;
      p.add(row, Relation::LessEq, query.beta);  // z_i <= beta
    }
    const Solution relax = solve(p);
    if (relax.feasible()) {
      std::vector<std::size_t> order(m);
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return relax.x[a] > relax.x[b];
      });
      order.resize(query.gamma);
      const Solution sol = try_subset(query, order);
      if (sol.feasible()) {
        accept(sol);
        result.exact = false;
        return result;
      }
    }
  }
  result.exact = false;
  return result;
}

double max_guaranteed_beta(const WitnessQuery& query) {
  const std::size_t m = query.values.size();
  FTMAO_EXPECTS(query.gamma >= 1 && query.gamma <= m);

  double best = -1.0;
  for_each_subset(
      m, query.gamma, static_cast<std::size_t>(-1),
      [&](const std::vector<std::size_t>& subset) {
        // Vars: alpha (m), t (1). Maximize t with alpha_i - t >= 0 on S.
        Problem p;
        p.num_vars = m + 1;
        p.objective.assign(m + 1, 0.0);
        p.objective[m] = 1.0;
        p.sense = Sense::Maximize;

        std::vector<double> row(m + 1, 0.0);
        for (std::size_t i = 0; i < m; ++i) row[i] = 1.0;
        p.add(row, Relation::Eq, 1.0);
        std::fill(row.begin(), row.end(), 0.0);
        for (std::size_t i = 0; i < m; ++i) row[i] = query.values[i];
        p.add(row, Relation::LessEq, query.target + query.tolerance);
        p.add(row, Relation::GreaterEq, query.target - query.tolerance);
        for (std::size_t i : subset) {
          std::fill(row.begin(), row.end(), 0.0);
          row[i] = 1.0;
          row[m] = -1.0;
          p.add(row, Relation::GreaterEq, 0.0);
        }
        const Solution sol = solve(p);
        if (sol.feasible()) best = std::max(best, sol.objective_value);
        return false;  // keep scanning all subsets
      });
  return best;
}

}  // namespace ftmao::lp
