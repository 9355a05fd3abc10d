#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/valid_set.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"
#include "trim/trim_batch.hpp"

namespace perfbench {

using namespace ftmao;

namespace {

using Clock = std::chrono::steady_clock;

// Median over five timings of `body`, divided by `calls` per timing, in ns.
template <typename Body>
double median_ns_per_call(std::size_t calls, Body body) {
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    body();
    const std::chrono::duration<double, std::nano> elapsed = Clock::now() - t0;
    ns.push_back(elapsed.count() / static_cast<double>(calls));
  }
  std::nth_element(ns.begin(), ns.begin() + 2, ns.end());
  return ns[2];
}

double seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

double adversary_send_to_ns(AttackKind kind, std::size_t n, std::size_t f,
                            std::uint64_t seed) {
  AttackConfig config;
  config.kind = kind;
  const std::unique_ptr<SbgAdversary> adversary =
      make_adversary(config, Rng(seed));
  // A few distinct honest views, cycled with the round number so
  // per-round memoizing strategies derive each round afresh.
  constexpr std::size_t kViews = 8;
  const std::size_t honest = n - f;
  Rng rng(seed);
  std::vector<std::vector<Received<SbgPayload>>> views(kViews);
  for (auto& view : views)
    for (std::size_t j = 0; j < honest; ++j)
      view.push_back(
          {AgentId(static_cast<std::uint32_t>(j)),
           SbgPayload{rng.uniform(-4.0, 4.0), rng.uniform(-1.0, 1.0)}});
  constexpr std::size_t kRounds = 4000;
  const AgentId self(static_cast<std::uint32_t>(n - 1));
  std::uint32_t round = 0;
  double sink = 0.0;
  const double ns = median_ns_per_call(kRounds * honest, [&] {
    for (std::size_t t = 0; t < kRounds; ++t) {
      ++round;
      const RoundView<SbgPayload> view{Round(round), views[round % kViews]};
      for (std::size_t r = 0; r < honest; ++r) {
        const auto payload = adversary->send_to(
            self, AgentId(static_cast<std::uint32_t>(r)), view);
        if (payload) sink += payload->state;
      }
    }
  });
  return sink == 1.2345e300 ? 0.0 : ns;  // keeps the payloads observable
}

double trim_batch_ns(std::size_t n, std::size_t f, std::uint64_t seed) {
  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kCalls = 2000;
  Rng rng(seed);
  std::vector<double> pristine(n * kBatch);
  for (double& x : pristine) x = rng.uniform(-100.0, 100.0);
  std::vector<double> data(pristine.size());
  std::vector<double> out(kBatch);
  double sink = 0.0;
  const double ns = median_ns_per_call(kCalls * kBatch, [&] {
    for (std::size_t call = 0; call < kCalls; ++call) {
      std::memcpy(data.data(), pristine.data(), data.size() * sizeof(double));
      trim_batch(data.data(), n, kBatch, f, out.data());
      sink += out[call % kBatch];
    }
  });
  return sink == 1.2345e300 ? 0.0 : ns;
}

double distance_ns(std::size_t n, std::size_t f) {
  const Scenario s = make_standard_scenario(n, f, 8.0, AttackKind::None, 1, 1);
  const ValidFamily family(s.honest_functions(), f);
  constexpr std::size_t kCalls = 200000;
  double sink = 0.0;
  const double ns = median_ns_per_call(kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i)
      sink += family.distance_to_optima(-6.0 + 12.0 * static_cast<double>(i) /
                                                   static_cast<double>(kCalls));
  });
  return sink == 1.2345e300 ? 0.0 : ns;
}

CertifyLayers certify_layers(std::size_t n, std::size_t f, std::size_t rounds,
                             std::uint64_t seed) {
  // certify_sbg's own sync-section scenario and audit options.
  Scenario s =
      make_standard_scenario(n, f, 8.0, AttackKind::SplitBrain, rounds, seed);
  s.attack.target = -6.0 * 8.0;
  s.attack.gradient_magnitude = 10.0;
  RunOptions audit;
  audit.audit_witnesses = true;
  audit.audit_every = 5;
  audit.audit_max_rounds = 100;
  RunOptions traced;
  traced.record_trace = true;

  auto t0 = Clock::now();
  run_sbg(s);
  const double plain_s = seconds(t0);
  t0 = Clock::now();
  run_sbg(s, audit);
  const double audit_s = seconds(t0);
  t0 = Clock::now();
  const RunMetrics m = run_sbg(s, traced);
  const double trace_s = seconds(t0);

  double L = 0.0;
  for (const auto& h : s.honest_functions())
    L = std::max(L, h->gradient_bound());
  const HarmonicStep schedule(s.step.scale);
  t0 = Clock::now();
  check_sbg_invariants(*m.trace, s.f, L, schedule);
  const double invariants_s = seconds(t0);
  return {audit_s - plain_s, trace_s - plain_s, invariants_s};
}

}  // namespace perfbench
