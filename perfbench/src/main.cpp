// The benchmark program: one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//   perfbench --workload <name> --seed <n> --setup-only
//
// Builds the workload's inputs (set-up, timed repeatedly), checks one
// decomposed pass run by run, then runs whole rounds of passes for
// --seconds: it starts no round that would end past them, if the longest
// round so far is a guide. A --trace 0 round is a single-thread pass and a
// parallel pass through the user-facing entry point, and yields the
// end-to-end metrics; --trace 1 rounds add a traced pass and yield the
// per-layer metrics. The last line of stdout is the JSON result. Any error
// exits non-zero without printing one.
// --setup-only prints the median set-up time (s) and exits.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "probes.hpp"
#include "sim/megabatch.hpp"
#include "sim/scenario_io.hpp"
#include "simd/simd.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  ///< print the median set-up time and exit
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

// The operations of one pass and which of them fail their checks. Every
// pass of a run repeats the same operations; a pass whose output differs
// from the checked reference fails all of them.
struct Verdict {
  std::size_t ops = 0;
  std::size_t failing = 0;
  std::string reference;  ///< output bytes every pass must reproduce
};

Verdict make_verdict(const std::vector<bool>& ok, std::string reference) {
  Verdict v{ok.size(),
            static_cast<std::size_t>(std::count(ok.begin(), ok.end(), false)),
            std::move(reference)};
  for (std::size_t i = 0; i < ok.size(); ++i)
    if (!ok[i])
      std::cerr << "perfbench: operation " << i << " failed its checks\n";
  return v;
}

Verdict verify_sweep(const Workload& w, std::uint64_t seed,
                     std::size_t threads) {
  const SweepOutput ref = decompose_sweep(w, threads, nullptr);
  std::vector<bool> ok = check_sweep_runs(w, ref);
  for (std::size_t slot : oracle_sample(w, seed))
    if (!same_record(scalar_reference(w, slot), ref.runs[slot]))
      ok[slot] = false;
  double worst = 0.0;
  for (const RunRecord& r : ref.runs)
    worst = std::max(worst, r.final_disagreement);
  std::cerr << "perfbench: " << ok.size()
            << " runs checked; worst final disagreement " << worst << '\n';
  return make_verdict(ok, ref.csv);
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void pass(const Verdict& v, const std::string& output) {
    attempted += v.ops;
    if (output == v.reference) {
      failed += v.failing;
    } else {
      failed += v.ops;
      std::cerr << "perfbench: a pass's output differs from the checked one\n";
    }
  }
};

// Every workload probes all five attacks of its grids; a probe costs
// milliseconds.
constexpr ftmao::AttackKind kProbeAttacks[] = {
    ftmao::AttackKind::SplitBrain, ftmao::AttackKind::SignFlip,
    ftmao::AttackKind::PullToTarget, ftmao::AttackKind::HullEdgeUp,
    ftmao::AttackKind::RandomNoise};

struct Metric {
  std::string name;
  std::string unit;
};

// Per-layer metrics, in BENCHMARK.json order. A metric of a layer the
// workload's traced run does not call from the benchmark reads 0.
const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics = [] {
    std::vector<Metric> m{
        {"sim.scenario.build_s", "s"},
        {"core.valid_set.optima_s", "s"},
        {"sim.megabatch.plan_s", "s"},
        {"sim.batch_runner.busy_s", "s"},
        {"sim.batch_runner.calls", "count"},
        {"sim.batch_runner.ns_per_agent_round", "ns"},
        {"sim.batch_vector_runner.busy_s", "s"},
        {"sim.batch_vector_runner.calls", "count"},
        {"sim.batch_vector_runner.ns_per_lane_round", "ns"},
        {"sim.batch_async_runner.busy_s", "s"},
        {"sim.batch_async_runner.calls", "count"},
        {"sim.batch_async_runner.ns_per_agent_round", "ns"},
        {"sim.megabatch.tasks", "count"},
        {"sim.megabatch.occupancy", "ratio"},
        {"sim.megabatch.largest_task_share", "ratio"},
        {"common.thread_pool.efficiency", "ratio"},
        {"sim.sweep.self_s", "s"},
    };
    for (ftmao::AttackKind kind : kProbeAttacks)
      m.push_back(
          {"adversary.send_to_ns." + ftmao::attack_kind_name(kind), "ns"});
    m.insert(m.end(), {{"trim.trim_batch_ns", "ns"},
                       {"core.valid_set.distance_ns", "ns"},
                       {"lp.witness_audit_s", "s"},
                       {"sim.runner.trace_s", "s"},
                       {"sim.trace.invariants_s", "s"},
                       {"sim.attack_search.s", "s"},
                       {"sim.certify.s", "s"},
                       {"bench.trace_overhead_s", "s"}});
    return m;
  }();
  return metrics;
}

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> metrics{{"pass_s", "s"},
                                           {"parallel_pass_s", "s"},
                                           {"setup_s", "s"},
                                           {"peak_rss_mib", "MiB"}};
  return metrics;
}

void print_result(const Tally& tally, const std::vector<Metric>& names,
                  const std::map<std::string, double>& values) {
  for (const Metric& m : names)
    if (!std::isfinite(values.at(m.name)))
      throw std::runtime_error("metric " + m.name + " is not finite");
  std::printf(
      "{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {",
      tally.attempted, tally.failed);
  for (std::size_t i = 0; i < names.size(); ++i) {
    const double v = values.at(names[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                names[i].name.c_str(), v, names[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Peak resident memory of this process image: VmHWM, which execve resets.
// (ru_maxrss would carry over the launching process's peak.)
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// Largest (n, f) the workload runs, for the layer probes.
std::pair<std::size_t, std::size_t> largest_size(const Workload& w) {
  if (w.certify) return {w.certify_options.n, w.certify_options.f};
  return w.sweep.sizes.back();
}

// One traced pass plus a traced set-up; appends this round's value of
// every span-derived per-layer metric to `layer`.
void traced_round(const Workload& w, const Inputs& inputs, std::size_t threads,
                  double single_s, double parallel_s,
                  const ftmao::EngineStats& stats, const Verdict& verdict,
                  Tally& tally,
                  std::map<std::string, std::vector<double>>& layer,
                  std::vector<SpanRecorder>& kept) {
  SpanRecorder setup_spans;
  build_inputs(w, &setup_spans);
  SpanRecorder spans;
  const auto t0 = Clock::now();
  double units = 0.0;
  if (w.certify) {
    tally.pass(verdict, certify_pass(w, 1, &spans).bytes);
  } else {
    const SweepOutput out = decompose_sweep(w, 1, &spans);
    units = out.agent_rounds;
    tally.pass(verdict, out.csv);
  }
  const double traced_s = since(t0);

  layer["sim.scenario.build_s"].push_back(
      setup_spans.self_s("sim.scenario.build"));
  layer["core.valid_set.optima_s"].push_back(
      setup_spans.total_s("core.valid_set.optima"));
  layer["sim.megabatch.plan_s"].push_back(
      setup_spans.total_s("sim.megabatch.plan"));
  for (const std::string e : {"sim.batch_runner", "sim.batch_vector_runner",
                              "sim.batch_async_runner"}) {
    const double busy = spans.total_s(e);
    const char* per = e == "sim.batch_vector_runner" ? ".ns_per_lane_round"
                                                     : ".ns_per_agent_round";
    layer[e + ".busy_s"].push_back(busy);
    layer[e + ".calls"].push_back(static_cast<double>(spans.count(e)));
    layer[e + per].push_back(busy > 0.0 ? busy * 1e9 / units : 0.0);
  }
  std::uint64_t total_cost = 0, largest_cost = 0;
  for (const ftmao::MegabatchTask& t : inputs.plan.tasks) {
    total_cost += t.cost;
    largest_cost = std::max(largest_cost, t.cost);
  }
  layer["sim.megabatch.tasks"].push_back(static_cast<double>(stats.batches));
  layer["sim.megabatch.occupancy"].push_back(stats.occupancy());
  layer["sim.megabatch.largest_task_share"].push_back(
      total_cost > 0
          ? static_cast<double>(largest_cost) / static_cast<double>(total_cost)
          : 0.0);
  layer["common.thread_pool.efficiency"].push_back(
      single_s / (static_cast<double>(threads) * parallel_s));
  layer["sim.sweep.self_s"].push_back(spans.self_s("sim.sweep"));
  layer["sim.attack_search.s"].push_back(spans.total_s("sim.attack_search"));
  layer["sim.certify.s"].push_back(spans.total_s("sim.certify"));
  layer["bench.trace_overhead_s"].push_back(traced_s - single_s);
  kept.push_back(std::move(setup_spans));
  kept.push_back(std::move(spans));
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  // Two threads, not one per core: on a shared host a pass that needs
  // every core at once waits whenever any one of them is taken, and its
  // time then drifts with the other tenants' load rather than the program.
  const std::size_t threads =
      std::min<std::size_t>(ftmao::ThreadPool::resolve_threads(0), 2);
  std::cerr << "perfbench: " << w.name << " seed " << args.seed << ", "
            << threads << " threads, ISA "
            << ftmao::simd_isa_name(ftmao::simd_active()) << '\n';

  // Set-up: the time to build the inputs once, as CPU time of this
  // (single) thread. Set-up is pure single-threaded computation, so on an
  // idle machine that equals its wall time; on a shared VM it leaves out
  // the preemption bursts that would otherwise dominate a millisecond
  // figure. Each of seven back-to-back samples averages builds over at
  // least 30 ms, all before the first pass so every run measures set-up
  // in the same state; the median is reported.
  // The same build can take up to 50 % longer in one process than in
  // another (address-space layout), so run.py adds the medians of a few
  // --setup-only processes to this one's.
  std::vector<double> setup;
  Inputs inputs;
  for (int rep = 0; rep < 7; ++rep) {
    const double cpu0 = thread_cpu_s();
    const auto t0 = Clock::now();
    std::size_t builds = 0;
    do {
      inputs = build_inputs(w, nullptr);
      ++builds;
    } while (since(t0) < 0.03);
    setup.push_back((thread_cpu_s() - cpu0) / static_cast<double>(builds));
  }
  if (args.setup_only) {
    std::printf("%.17g\n", median(setup));
    return 0;
  }

  // One checked pass fixes the reference output and which runs fail.
  Verdict verdict;
  if (!w.certify) verdict = verify_sweep(w, args.seed, threads);

  Tally tally;
  std::vector<double> single_s, parallel_s;
  std::map<std::string, std::vector<double>> layer;
  std::vector<SpanRecorder> kept;  // written out when the run ends
  const auto loop_start = Clock::now();
  double longest_round_s = 0.0;
  do {
    const auto round_start = Clock::now();
    auto t0 = round_start;
    std::string single_out;
    if (w.certify) {
      CertifyOutput out = certify_pass(w, 1, nullptr);
      single_s.push_back(since(t0));
      if (verdict.ops == 0)
        verdict = make_verdict(check_certify(w, out), out.bytes);
      single_out = std::move(out.bytes);
    } else {
      single_out = sweep_pass(w, 1);
      single_s.push_back(since(t0));
    }
    tally.pass(verdict, single_out);

    ftmao::engine_stats_reset();
    t0 = Clock::now();
    tally.pass(verdict, w.certify ? certify_pass(w, threads, nullptr).bytes
                                  : sweep_pass(w, threads));
    parallel_s.push_back(since(t0));
    const ftmao::EngineStats stats = ftmao::engine_stats_snapshot();

    if (args.trace)
      traced_round(w, inputs, threads, single_s.back(), parallel_s.back(),
                   stats, verdict, tally, layer, kept);
    longest_round_s = std::max(longest_round_s, since(round_start));
  } while (since(loop_start) + longest_round_s <= args.seconds);

  // Every sample to stderr, so a run's spread can be read off its log.
  auto log_samples = [](const char* name, const std::vector<double>& v) {
    std::cerr << "perfbench: " << name << " samples";
    for (double x : v) std::cerr << ' ' << x;
    std::cerr << '\n';
  };
  log_samples("setup_s", setup);
  log_samples("pass_s", single_s);
  log_samples("parallel_pass_s", parallel_s);

  std::map<std::string, double> values;
  if (!args.trace) {
    values["pass_s"] = median(single_s);
    values["parallel_pass_s"] = median(parallel_s);
    values["setup_s"] = median(setup);
    values["peak_rss_mib"] = peak_rss_mib();
    print_result(tally, end_to_end_metrics(), values);
    return 0;
  }

  for (const auto& [name, samples] : layer) values[name] = median(samples);
  const auto [n, f] = largest_size(w);
  for (ftmao::AttackKind kind : kProbeAttacks)
    values["adversary.send_to_ns." + ftmao::attack_kind_name(kind)] =
        adversary_send_to_ns(kind, n, f, args.seed);
  values["trim.trim_batch_ns"] = trim_batch_ns(n, f, args.seed);
  values["core.valid_set.distance_ns"] = distance_ns(n, f);
  CertifyLayers cert;
  if (w.certify)
    cert = certify_layers(n, f, w.certify_options.rounds, args.seed);
  values["lp.witness_audit_s"] = cert.witness_audit_s;
  values["sim.runner.trace_s"] = cert.trace_s;
  values["sim.trace.invariants_s"] = cert.invariants_s;

  if (!args.spans_out.empty()) {
    std::ofstream os(args.spans_out);
    for (const SpanRecorder& r : kept) r.write_tsv(os);
    if (!os) throw std::runtime_error("cannot write " + args.spans_out);
  }
  print_result(tally, per_layer_metrics(), values);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
