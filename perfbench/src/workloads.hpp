#pragma once

// The benchmark's workloads and the passes it times over them. Every pass
// goes through the library's public API: run_sweep for the sweep
// workloads, certify_sbg + find_strongest_attack for certify_n22. The
// sweep decomposition drives the same work through the functions run_sweep
// is built from, so it can be traced and its per-run outputs checked.

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "sim/attack_search.hpp"
#include "sim/certify.hpp"
#include "sim/megabatch.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "spans.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  bool certify = false;
  ftmao::SweepConfig sweep;  ///< sweep workloads (num_threads left at 1)
  ftmao::CertifyOptions certify_options;  ///< certify_n22
  ftmao::Scenario search_base;            ///< certify_n22's attack search
  std::vector<ftmao::AttackCandidate> candidates;
};

const std::vector<std::string>& workload_names();

/// The workload's configuration for `seed` (cheap; builds no scenario).
/// Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The workload's inputs, built through the program's scenario factories:
/// every (cell, seed) scenario, each cell's Y envelope, and the megabatch plan
/// (sweeps); the base scenario of each certify section and the Y of its
/// scalar families (certify_n22). Records the factory spans when `spans`
/// is set.
struct Inputs {
  std::vector<ftmao::Interval> optima;  ///< one per scalar cell
  ftmao::MegabatchPlan plan;            ///< empty for certify_n22
};
Inputs build_inputs(const Workload& w, SpanRecorder* spans);

/// One simulated run's outputs, as far as the checks need them.
struct RunRecord {
  double disagreement0 = 0.0;  ///< initial honest disagreement (sync)
  double final_disagreement = 0.0;
  double final_dist = 0.0;
  std::vector<double> final_states;  ///< honest; vector runs flattened
};

/// Bitwise equality of every field.
bool same_record(const RunRecord& a, const RunRecord& b);

struct SweepOutput {
  std::vector<RunRecord> runs;  ///< slot = cell * seeds + seed index
  std::string csv;              ///< sweep_to_csv of the recomposed cells
  /// Engine work: agent-rounds summed over runs (vector runs count
  /// agent-lane-rounds, lanes = replicas x dim).
  double agent_rounds = 0.0;
};

/// The user-facing pass: sweep_to_csv(run_sweep(config)) on `threads`.
std::string sweep_pass(const Workload& w, std::size_t threads);

/// The same work through run_sweep's parts: sweep_cell_specs, the
/// make_standard_*scenario factories, plan_megabatches, run_*_batch and
/// summarize. Spans are recorded when `spans` is set (then threads must
/// be 1).
SweepOutput decompose_sweep(const Workload& w, std::size_t threads,
                            SpanRecorder* spans);

/// Re-runs one (cell, seed) through the scalar reference engine
/// (run_sbg, run_async_sbg or run_vector_scenario).
RunRecord scalar_reference(const Workload& w, std::size_t slot);

/// Per-run property checks of a sweep workload; returns one flag per run
/// (true = passed). See README.md for each check and its tolerance.
std::vector<bool> check_sweep_runs(const Workload& w, const SweepOutput& out);

/// Fixed sample of slots re-run through the scalar engines, drawn from
/// the workload seed.
std::vector<std::size_t> oracle_sample(const Workload& w, std::uint64_t seed);

/// Final-disagreement tolerance of the async and vector workloads
/// (README.md gives why).
inline constexpr double kConsensusTolerance = 0.05;

struct CertifyOutput {
  ftmao::CertificationReport report;
  ftmao::AttackSearchResult search;
  std::string bytes;  ///< canonical serialization, compared across passes
};

/// certify_sbg then find_strongest_attack, both on `threads`.
CertifyOutput certify_pass(const Workload& w, std::size_t threads,
                           SpanRecorder* spans);

/// One flag per operation: each report check, then each attack-search
/// outcome (its final state must lie in the honest-argmin hull).
std::vector<bool> check_certify(const Workload& w, const CertifyOutput& out);

}  // namespace perfbench
