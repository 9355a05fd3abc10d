#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/valid_set.hpp"
#include "sim/async_runner.hpp"
#include "sim/batch_async_runner.hpp"
#include "sim/batch_runner.hpp"
#include "sim/batch_vector_runner.hpp"
#include "sim/runner.hpp"
#include "sim/vector_scenario.hpp"

namespace perfbench {

using namespace ftmao;

namespace {

std::vector<std::uint64_t> seed_axis(std::uint64_t seed, std::size_t count) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t i = 0; i < count; ++i) seeds[i] = seed * 1000 + i;
  return seeds;
}

Scenario sync_scenario(const SweepConfig& c, const CellSpec& spec,
                       std::uint64_t seed) {
  Scenario s = make_standard_scenario(spec.n, spec.f, c.spread, spec.attack,
                                      c.rounds, seed);
  s.step = c.step;
  return s;
}

AsyncScenario async_scenario(const SweepConfig& c, const CellSpec& spec,
                             std::uint64_t seed) {
  AsyncScenario s = make_standard_async_scenario(spec.n, spec.f, c.spread,
                                                 spec.attack, c.rounds, seed);
  s.step = c.step;
  s.delay_kind = c.delay_kind;
  s.delay_lo = c.delay_lo;
  s.delay_hi = c.delay_hi;
  return s;
}

VectorScenario vector_scenario(const SweepConfig& c, const CellSpec& spec,
                               std::uint64_t seed) {
  VectorScenario s = make_standard_vector_scenario(
      spec.n, spec.f, c.spread, spec.attack, c.rounds, seed, spec.dim);
  s.step = c.step;
  return s;
}

std::vector<ScalarFunctionPtr> honest_functions(const AsyncScenario& s) {
  std::vector<ScalarFunctionPtr> honest;
  for (std::size_t i = 0; i < s.n; ++i)
    if (std::find(s.faulty.begin(), s.faulty.end(), i) == s.faulty.end())
      honest.push_back(s.functions[i]);
  return honest;
}

MegabatchEngine engine_of(const SweepConfig& c, const CellSpec& spec) {
  if (c.async_engine) return MegabatchEngine::kAsync;
  return spec.dim >= 2 ? MegabatchEngine::kVector : MegabatchEngine::kSync;
}

std::vector<MegabatchItem> plan_items(const SweepConfig& c,
                                      const std::vector<CellSpec>& specs) {
  std::vector<MegabatchItem> items;
  items.reserve(specs.size() * c.seeds.size());
  for (std::size_t cell = 0; cell < specs.size(); ++cell) {
    const MegabatchKey key{engine_of(c, specs[cell]), specs[cell].n,
                           specs[cell].f, specs[cell].dim};
    for (std::size_t i = 0; i < c.seeds.size(); ++i)
      items.push_back({key, cell, i});
  }
  return items;
}

RunRecord record_of(const RunMetrics& m) {
  return {m.disagreement[0], m.final_disagreement(), m.final_max_dist(),
          m.final_states};
}

RunRecord record_of(const AsyncRunMetrics& m) {
  return {m.disagreement[0], m.disagreement.back(), m.max_dist_to_y.back(),
          m.final_states};
}

RunRecord record_of(const VectorRunResult& m) {
  RunRecord r{m.disagreement[0], m.disagreement.back(),
              m.dist_to_average_optimum.back(), {}};
  for (const Vec& x : m.final_states)
    r.final_states.insert(r.final_states.end(), x.data().begin(),
                          x.data().end());
  return r;
}

std::string canonical_double(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof x);
  std::ostringstream os;
  os << std::hex << bits;
  return os.str();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"sync_large", "vector_d8",
                                              "async_delays", "certify_n22"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  SweepConfig& c = w.sweep;
  if (name == "sync_large") {
    for (std::size_t n = 7, f = 2; n <= 31; n += 3, ++f)
      c.sizes.push_back({n, f});
    c.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip,
                 AttackKind::PullToTarget, AttackKind::HullEdgeUp};
    c.seeds = seed_axis(seed, 16);
    c.rounds = 4000;
  } else if (name == "vector_d8") {
    c.sizes = {{7, 2}, {10, 3}, {13, 4}, {16, 5}};
    c.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip,
                 AttackKind::PullToTarget, AttackKind::RandomNoise};
    c.seeds = seed_axis(seed, 8);
    c.rounds = 2000;
    c.dims = {8};
  } else if (name == "async_delays") {
    c.sizes = {{6, 1}, {11, 2}, {16, 3}, {21, 4}};
    c.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip,
                 AttackKind::PullToTarget, AttackKind::RandomNoise};
    c.seeds = seed_axis(seed, 16);
    c.rounds = 1000;
    c.async_engine = true;
    c.delay_kind = DelayKind::Uniform;
    c.delay_lo = 0.5;
    c.delay_hi = 1.5;
  } else if (name == "certify_n22") {
    w.certify = true;
    CertifyOptions& o = w.certify_options;
    o.n = 22;
    o.f = 7;
    o.rounds = 4000;
    o.seed = seed;
    w.search_base = make_standard_scenario(o.n, o.f, o.spread,
                                           AttackKind::None, o.rounds, seed);
    w.candidates = standard_attack_grid();
    return w;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

Inputs build_inputs(const Workload& w, SpanRecorder* spans) {
  Inputs in;
  if (w.certify) {
    // One base scenario per certify section (sync, async, vector) and the
    // Y of each scalar family.
    const CertifyOptions& o = w.certify_options;
    SpanRecorder::Scope s(spans, "sim.scenario.build");
    const Scenario sync = make_standard_scenario(
        o.n, o.f, o.spread, AttackKind::None, o.rounds, o.seed);
    const AsyncScenario async =
        make_standard_async_scenario(o.async_n, o.async_f, o.spread,
                                     AttackKind::None, o.async_rounds, o.seed);
    make_standard_vector_scenario(o.n, o.f, o.spread, AttackKind::None,
                                  o.vector_rounds, o.seed, o.vector_dim);
    SpanRecorder::Scope y(spans, "core.valid_set.optima");
    in.optima.push_back(
        ValidFamily(sync.honest_functions(), sync.f).optima_set());
    in.optima.push_back(
        ValidFamily(honest_functions(async), async.f).optima_set());
    return in;
  }
  const SweepConfig& c = w.sweep;
  const std::vector<CellSpec> specs = sweep_cell_specs(c);
  for (const CellSpec& spec : specs) {
    SpanRecorder::Scope s(spans, "sim.scenario.build");
    for (std::uint64_t seed : c.seeds) {
      switch (engine_of(c, spec)) {
        case MegabatchEngine::kSync: {
          const Scenario sc = sync_scenario(c, spec, seed);
          if (seed == c.seeds.front()) {
            SpanRecorder::Scope y(spans, "core.valid_set.optima");
            in.optima.push_back(
                ValidFamily(sc.honest_functions(), sc.f).optima_set());
          }
          break;
        }
        case MegabatchEngine::kAsync: {
          const AsyncScenario sc = async_scenario(c, spec, seed);
          if (seed == c.seeds.front()) {
            SpanRecorder::Scope y(spans, "core.valid_set.optima");
            in.optima.push_back(
                ValidFamily(honest_functions(sc), sc.f).optima_set());
          }
          break;
        }
        case MegabatchEngine::kVector:
          vector_scenario(c, spec, seed);
          break;
      }
    }
  }
  SpanRecorder::Scope p(spans, "sim.megabatch.plan");
  in.plan = plan_megabatches(plan_items(c, specs), c.batch_size, c.rounds);
  return in;
}

bool same_record(const RunRecord& a, const RunRecord& b) {
  return same_bits(a.disagreement0, b.disagreement0) &&
         same_bits(a.final_disagreement, b.final_disagreement) &&
         same_bits(a.final_dist, b.final_dist) &&
         same_bits(a.final_states, b.final_states);
}

std::string sweep_pass(const Workload& w, std::size_t threads) {
  SweepConfig c = w.sweep;
  c.num_threads = threads;
  return sweep_to_csv(run_sweep(c));
}

SweepOutput decompose_sweep(const Workload& w, std::size_t threads,
                            SpanRecorder* spans) {
  if (spans != nullptr && threads != 1)
    throw std::invalid_argument("decompose_sweep: spans need one thread");
  const SweepConfig& c = w.sweep;
  SpanRecorder::Scope root(spans, "sim.sweep");
  std::vector<CellSpec> specs;
  {
    SpanRecorder::Scope s(spans, "sim.sweep.cell_specs");
    specs = sweep_cell_specs(c);
  }
  MegabatchPlan plan;
  {
    SpanRecorder::Scope s(spans, "sim.megabatch.plan");
    plan = plan_megabatches(plan_items(c, specs), c.batch_size, c.rounds);
  }
  const std::size_t num_seeds = c.seeds.size();
  SweepOutput out;
  out.runs.resize(specs.size() * num_seeds);
  for (const MegabatchTask& task : plan.tasks)
    out.agent_rounds += static_cast<double>(task.count * task.key.n *
                                            task.key.dim * c.rounds);

  // Mirrors run_sweep's megabatch path task for task, so every replica is
  // built and batched exactly as run_sweep builds and batches it.
  parallel_for_each(threads, plan.tasks.size(), [&](std::size_t ti) {
    const MegabatchTask& task = plan.tasks[ti];
    const std::span<const MegabatchItem> batch(plan.items.data() + task.first,
                                               task.count);
    auto slot = [&](const MegabatchItem& it) {
      return it.cell * num_seeds + it.seed;
    };
    switch (task.key.engine) {
      case MegabatchEngine::kAsync: {
        std::vector<AsyncScenario> replicas;
        {
          SpanRecorder::Scope s(spans, "sim.scenario.build");
          for (const MegabatchItem& it : batch)
            replicas.push_back(
                async_scenario(c, specs[it.cell], c.seeds[it.seed]));
        }
        std::vector<AsyncRunMetrics> ms;
        {
          SpanRecorder::Scope s(spans, "sim.batch_async_runner");
          ms = run_async_sbg_batch(replicas);
        }
        for (std::size_t i = 0; i < batch.size(); ++i)
          out.runs[slot(batch[i])] = record_of(ms[i]);
        break;
      }
      case MegabatchEngine::kVector: {
        std::vector<VectorScenario> replicas;
        {
          SpanRecorder::Scope s(spans, "sim.scenario.build");
          std::size_t i = 0;
          while (i < batch.size()) {
            const std::size_t cell = batch[i].cell;
            const VectorScenario proto =
                vector_scenario(c, specs[cell], c.seeds[batch[i].seed]);
            for (; i < batch.size() && batch[i].cell == cell; ++i) {
              replicas.push_back(proto);
              replicas.back().seed = c.seeds[batch[i].seed];
            }
          }
        }
        std::vector<VectorRunResult> ms;
        {
          SpanRecorder::Scope s(spans, "sim.batch_vector_runner");
          ms = run_vector_sbg_batch(replicas);
        }
        for (std::size_t i = 0; i < batch.size(); ++i)
          out.runs[slot(batch[i])] = record_of(ms[i]);
        break;
      }
      case MegabatchEngine::kSync: {
        std::vector<Scenario> replicas;
        {
          SpanRecorder::Scope s(spans, "sim.scenario.build");
          for (const MegabatchItem& it : batch)
            replicas.push_back(
                sync_scenario(c, specs[it.cell], c.seeds[it.seed]));
        }
        std::vector<RunMetrics> ms;
        {
          SpanRecorder::Scope s(spans, "sim.batch_runner");
          ms = run_sbg_batch(replicas);
        }
        for (std::size_t i = 0; i < batch.size(); ++i)
          out.runs[slot(batch[i])] = record_of(ms[i]);
        break;
      }
    }
  });

  SpanRecorder::Scope s(spans, "sim.sweep.summarize");
  std::vector<SweepCell> cells(specs.size());
  std::vector<double> disagreements(num_seeds);
  std::vector<double> dists(num_seeds);
  for (std::size_t cell = 0; cell < specs.size(); ++cell) {
    for (std::size_t i = 0; i < num_seeds; ++i) {
      disagreements[i] = out.runs[cell * num_seeds + i].final_disagreement;
      dists[i] = out.runs[cell * num_seeds + i].final_dist;
    }
    cells[cell] = {specs[cell].n,          specs[cell].f,
                   specs[cell].dim,        specs[cell].attack,
                   summarize(disagreements), summarize(dists)};
  }
  out.csv = sweep_to_csv(cells);
  return out;
}

RunRecord scalar_reference(const Workload& w, std::size_t slot) {
  const SweepConfig& c = w.sweep;
  const std::vector<CellSpec> specs = sweep_cell_specs(c);
  const CellSpec& spec = specs.at(slot / c.seeds.size());
  const std::uint64_t seed = c.seeds[slot % c.seeds.size()];
  switch (engine_of(c, spec)) {
    case MegabatchEngine::kAsync:
      return record_of(run_async_sbg(async_scenario(c, spec, seed)));
    case MegabatchEngine::kVector:
      return record_of(run_vector_scenario(vector_scenario(c, spec, seed)));
    case MegabatchEngine::kSync:
      break;
  }
  return record_of(run_sbg(sync_scenario(c, spec, seed)));
}

std::vector<std::size_t> oracle_sample(const Workload& w, std::uint64_t seed) {
  // One run from each of the first, middle and last sizes' cells, so the
  // sample always spans small and large shapes; which attack and seed is
  // drawn from the workload seed.
  const SweepConfig& c = w.sweep;
  const std::size_t per_size = c.dims.size() * c.attacks.size();
  const std::size_t sizes = c.sizes.size();
  Rng rng(seed);
  auto draw = [&rng](std::size_t count) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
  };
  std::vector<std::size_t> slots;
  for (std::size_t size : {std::size_t{0}, sizes / 2, sizes - 1}) {
    const std::size_t cell = size * per_size + draw(per_size);
    slots.push_back(cell * c.seeds.size() + draw(c.seeds.size()));
  }
  return slots;
}

std::vector<bool> check_sweep_runs(const Workload& w, const SweepOutput& out) {
  const SweepConfig& c = w.sweep;
  const std::vector<CellSpec> specs = sweep_cell_specs(c);
  const std::size_t num_seeds = c.seeds.size();
  std::vector<bool> ok(out.runs.size(), true);
  for (std::size_t cell = 0; cell < specs.size(); ++cell) {
    const CellSpec& spec = specs[cell];
    const MegabatchEngine engine = engine_of(c, spec);
    std::vector<ScalarFunctionPtr> honest;
    if (engine == MegabatchEngine::kSync) {
      honest = sync_scenario(c, spec, c.seeds.front()).honest_functions();
    } else if (engine == MegabatchEngine::kAsync) {
      honest = honest_functions(async_scenario(c, spec, c.seeds.front()));
    }
    double L = 0.0;
    for (const auto& h : honest) L = std::max(L, h->gradient_bound());
    const Hull hull = honest.empty() ? Hull{} : argmin_hull(honest);
    for (std::size_t i = 0; i < num_seeds; ++i) {
      const RunRecord& r = out.runs[cell * num_seeds + i];
      bool pass = all_finite(r.final_states) &&
                  std::isfinite(r.final_disagreement);
      switch (engine) {
        case MegabatchEngine::kSync: {
          const double bound = lemma3_bound(r.disagreement0, L, c.step.scale,
                                            honest.size(), spec.f, c.rounds);
          pass = pass && r.final_disagreement <= bound + 1e-9 &&
                 states_in_hull(r.final_states, hull, 1e-9);
          break;
        }
        case MegabatchEngine::kAsync:
          pass = pass && r.final_disagreement <= kConsensusTolerance &&
                 states_in_hull(r.final_states, hull, 1e-9);
          break;
        case MegabatchEngine::kVector:
          pass = pass && r.final_disagreement <= kConsensusTolerance;
          break;
      }
      ok[cell * num_seeds + i] = pass;
    }
  }
  return ok;
}

CertifyOutput certify_pass(const Workload& w, std::size_t threads,
                           SpanRecorder* spans) {
  CertifyOutput out;
  CertifyOptions o = w.certify_options;
  o.num_threads = threads;
  {
    SpanRecorder::Scope s(spans, "sim.certify");
    out.report = certify_sbg(o);
  }
  {
    SpanRecorder::Scope s(spans, "sim.attack_search");
    out.search = find_strongest_attack(w.search_base, w.candidates, threads);
  }
  std::ostringstream os;
  os << "passed=" << out.report.passed << '\n';
  for (const CertifyCheck& check : out.report.checks)
    os << check.name << ';' << check.passed << ';' << check.detail << '\n';
  os << "reference=" << canonical_double(out.search.reference_state) << '\n';
  for (const AttackOutcome& a : out.search.outcomes)
    os << a.name << ';' << canonical_double(a.final_state) << ';'
       << canonical_double(a.bias) << ';' << canonical_double(a.dist_to_y)
       << ';' << canonical_double(a.disagreement) << '\n';
  out.bytes = os.str();
  return out;
}

std::vector<bool> check_certify(const Workload& w, const CertifyOutput& out) {
  std::vector<bool> ok;
  for (const CertifyCheck& check : out.report.checks)
    ok.push_back(check.passed);
  const std::vector<ScalarFunctionPtr> honest =
      w.search_base.honest_functions();
  const Hull hull = argmin_hull(honest);
  for (const AttackOutcome& a : out.search.outcomes)
    ok.push_back(std::isfinite(a.final_state) &&
                 hull.contains(a.final_state, 1e-9));
  return ok;
}

}  // namespace perfbench
