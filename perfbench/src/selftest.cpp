// Shows that each of the benchmark's correctness checks can fail: every
// case runs a check on a correct output (it must pass) and on a broken
// one (it must be rejected). Exits non-zero if any case goes wrong.
//
//   .bench_build/perfbench_selftest     (or: ctest in the build directory)

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>

#include "checks.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << '\n';
  if (!ok) ++failures;
}

double flip_low_bit(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof x);
  bits ^= 1;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

// A one-cell cut of sync_large: (10, 3) under split-brain, two seeds.
Workload small_sync() {
  Workload w = make_workload("sync_large", 7);
  w.sweep.sizes = {{10, 3}};
  w.sweep.attacks = {ftmao::AttackKind::SplitBrain};
  w.sweep.seeds.resize(2);
  return w;
}

bool all_true(const std::vector<bool>& v) {
  for (bool b : v)
    if (!b) return false;
  return true;
}

}  // namespace

int main() {
  const Workload w = small_sync();
  const SweepOutput good = decompose_sweep(w, 1, nullptr);
  expect(all_true(check_sweep_runs(w, good)), "harmonic sync run passes");
  expect(good.csv == sweep_pass(w, 1),
         "decomposed pass reproduces the run_sweep CSV");

  // Lemma 3: a constant step keeps disagreement at a floor the harmonic
  // recursion has long left behind.
  Workload constant = w;
  constant.sweep.step.kind = ftmao::StepKind::Constant;
  const SweepOutput bad = decompose_sweep(constant, 1, nullptr);
  const RunRecord& r = bad.runs[0];
  const ftmao::Scenario s = ftmao::make_standard_scenario(
      10, 3, w.sweep.spread, ftmao::AttackKind::SplitBrain, 1, 1);
  double L = 0.0;
  for (const auto& h : s.honest_functions())
    L = std::max(L, h->gradient_bound());
  expect(r.final_disagreement >
             lemma3_bound(r.disagreement0, L, w.sweep.step.scale, 10 - 3, 3,
                          w.sweep.rounds),
         "constant-step run breaks the Lemma 3 recursion bound");
  expect(!check_sweep_runs(w, bad)[0],
         "per-run check rejects the constant-step run");

  // Hull: move one honest final state just outside the argmin hull.
  const Hull hull = argmin_hull(s.honest_functions());
  SweepOutput moved = good;
  moved.runs[1].final_states[0] = hull.hi + 1e-6;
  const std::vector<bool> moved_ok = check_sweep_runs(w, moved);
  expect(moved_ok[0] && !moved_ok[1],
         "a final state outside the honest-argmin hull is rejected");

  // Scalar oracle: the reference engine matches; one flipped bit does not.
  const RunRecord oracle = scalar_reference(w, 0);
  expect(same_record(oracle, good.runs[0]),
         "scalar reference matches the batched run bit for bit");
  RunRecord flipped = oracle;
  flipped.final_states.back() = flip_low_bit(flipped.final_states.back());
  expect(!same_record(flipped, good.runs[0]),
         "a one-bit difference in a final state is rejected");
  flipped = oracle;
  flipped.final_disagreement = flip_low_bit(flipped.final_disagreement);
  expect(!same_record(flipped, good.runs[0]),
         "a one-bit difference in the final disagreement is rejected");

  // Bisection finds each cost's closed-form argmin interval.
  bool bisection_ok = true;
  for (const auto& h : s.honest_functions()) {
    const Hull a = argmin_by_bisection(*h);
    const ftmao::Interval exact = h->argmin();
    bisection_ok = bisection_ok && std::fabs(a.lo - exact.lo()) <= 1e-9 &&
                   std::fabs(a.hi - exact.hi()) <= 1e-9;
  }
  expect(bisection_ok, "bisection matches every closed-form argmin");

  std::cout << (failures == 0 ? "all checks can fail as intended\n"
                              : "self-test FAILED\n");
  return failures == 0 ? 0 : 1;
}
