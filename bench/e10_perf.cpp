// E10 — implementation performance (google-benchmark).
//
// Microbenchmarks of the primitives (Trim, envelopes, Y computation,
// closed-form witness) and whole-round costs vs n — the scaling a
// deployment would care about. No paper counterpart (the paper has no
// implementation); included for completeness of the harness.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "consensus/eig.hpp"
#include "graph/robustness.hpp"
#include "core/admissibility.hpp"
#include "core/valid_set.hpp"
#include "func/library.hpp"
#include "sim/runner.hpp"
#include "trim/trim.hpp"

namespace {

using namespace ftmao;

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-10.0, 10.0);
  return v;
}

void BM_Trim(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t f = (n - 1) / 3;
  const auto values = random_values(n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trim_value(values, f));
  }
}
BENCHMARK(BM_Trim)->Arg(7)->Arg(31)->Arg(127)->Arg(1023)->Arg(8191);

void BM_TrimmedMean(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t f = (n - 1) / 3;
  const auto values = random_values(n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trimmed_mean(values, f));
  }
}
BENCHMARK(BM_TrimmedMean)->Arg(7)->Arg(127)->Arg(8191);

void BM_EnvelopeGradient(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const ValidFamily family(make_mixed_family(m, 10.0), (m - 1) / 3);
  double x = -5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(family.max_envelope_gradient(x));
    x += 1e-4;
  }
}
BENCHMARK(BM_EnvelopeGradient)->Arg(5)->Arg(21)->Arg(85);

void BM_OptimaSetY(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto fns = make_mixed_family(m, 10.0);
  for (auto _ : state) {
    const ValidFamily family(fns, (m - 1) / 3);
    benchmark::DoNotOptimize(family.optima_set());
  }
}
BENCHMARK(BM_OptimaSetY)->Arg(5)->Arg(21)->Arg(85);

void BM_WitnessAudit(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::size_t f = (m - 1) / 4;
  const auto honest = random_values(m, 11);
  std::vector<double> all = honest;
  all.push_back(100.0);
  const double trimmed = trim_value(all, f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit_trim(honest, trimmed, f));
  }
}
BENCHMARK(BM_WitnessAudit)->Arg(5)->Arg(8)->Arg(11)->Arg(21);

void BM_SbgFullRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t f = (n - 1) / 3;
  // Pre-built outside the loop: per-iteration PauseTiming/ResumeTiming has
  // ~100ns+ overhead that dwarfs and distorts small-n timings. run_sbg
  // takes the scenario by const& and never mutates it, so one instance
  // serves every iteration.
  const Scenario s =
      make_standard_scenario(n, f, 8.0, AttackKind::SplitBrain, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sbg(s));
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_SbgFullRound)->Arg(7)->Arg(31)->Arg(127)->Unit(benchmark::kMicrosecond);

void BM_DgdFullRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t f = (n - 1) / 3;
  Scenario s = make_standard_scenario(n, f, 8.0, AttackKind::SplitBrain, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_dgd(s));
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_DgdFullRound)->Arg(7)->Arg(31)->Arg(127)->Unit(benchmark::kMicrosecond);

void BM_EigInstance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t f = (n - 1) / 3;
  EigConfig config;
  config.n = n;
  config.f = f;
  const std::vector<EigAttack*> attacks(n, nullptr);
  for (auto _ : state) {
    EigInstance instance(config, AgentId{0}, attacks);
    instance.run(1.0);
    benchmark::DoNotOptimize(instance.decision(AgentId{1}));
  }
}
BENCHMARK(BM_EigInstance)->Arg(4)->Arg(7)->Arg(10)->Unit(benchmark::kMicrosecond);

void BM_RobustnessCheck(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Topology t = make_ring_lattice(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_r_robust(t, 3));
  }
}
BENCHMARK(BM_RobustnessCheck)->Arg(7)->Arg(9)->Arg(11)->Unit(benchmark::kMicrosecond);

void BM_ValidSetWitness(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const ValidFamily family(make_mixed_family(m, 10.0), (m - 1) / 3);
  const double x = family.optima_set().midpoint();
  for (auto _ : state) {
    benchmark::DoNotOptimize(family.optimum_witness(x));
  }
}
BENCHMARK(BM_ValidSetWitness)->Arg(5)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
