#pragma once

// Unit-cost probes of the layers the batch engines call internally, on
// inputs of a workload's own shapes. Each probe times a fixed amount of
// work five times and returns the median cost of one call.

#include <cstddef>
#include <cstdint>

#include "sim/scenario.hpp"

namespace perfbench {

/// ns per send_to call: rounds of one Byzantine agent answering every
/// honest recipient, over a view of n - f honest broadcasts.
double adversary_send_to_ns(ftmao::AttackKind kind, std::size_t n,
                            std::size_t f, std::uint64_t seed);

/// ns per trimmed fan-in: trim_batch over an n x 32 lane matrix (the
/// megabatch planner's lane target), refilled before every call.
double trim_batch_ns(std::size_t n, std::size_t f, std::uint64_t seed);

/// ns per ValidFamily::distance_to_optima call on the standard scenario's
/// honest family at (n, f).
double distance_ns(std::size_t n, std::size_t f);

/// Seconds the certification extras add to one plain run_sbg of certify's
/// split-brain scenario at (n, f, rounds): witness audits (certify's audit
/// options), the full state trace, and check_sbg_invariants over it.
struct CertifyLayers {
  double witness_audit_s = 0.0;
  double trace_s = 0.0;
  double invariants_s = 0.0;
};
CertifyLayers certify_layers(std::size_t n, std::size_t f, std::size_t rounds,
                             std::uint64_t seed);

}  // namespace perfbench
