#include "cli/engine_flags.hpp"

#include <limits>
#include <ostream>
#include <utility>

#include "cache/result_cache.hpp"
#include "common/contracts.hpp"
#include "simd/simd.hpp"

namespace ftmao::cli {

void append_flags(std::vector<FlagSpec>& specs, std::vector<FlagSpec> extra) {
  for (FlagSpec& spec : extra) specs.push_back(std::move(spec));
}

FlagSpec isa_flag_spec(const std::string& subject) {
  return {"isa",
          "SIMD lane backend: auto | scalar | sse2 | avx2 | avx512; " +
              subject + " is identical for every value",
          "auto", false};
}

std::vector<FlagSpec> engine_flag_specs(const std::string& subject,
                                        const std::string& unit) {
  return {
      {"threads",
       "worker threads (0 = all cores); " + subject +
           " is identical for every value",
       "1", false},
      {"batch",
       unit + " per batched-engine call (0 = one full batch); " + subject +
           " is identical for every value",
       "0", false},
      {"scalar",
       "force the scalar reference engine (one run per " + unit + ")", "false",
       true},
      {"megabatch",
       "on | off: lane-aligned cross-cell megabatch packing; " + subject +
           " is identical either way (off = per-cell baseline)",
       "on", false},
      isa_flag_spec(subject),
  };
}

bool megabatch_flag(const ArgParser& parser) {
  const std::string value = parser.get("megabatch");
  if (value == "on") return true;
  if (value == "off") return false;
  throw ContractViolation("--megabatch expects on|off, got '" + value + "'");
}

std::vector<FlagSpec> cache_flag_specs() {
  return {
      {"cache-dir",
       "persistent result-cache directory (created on demand; empty = "
       "caching off); corrupt or stale records degrade to recomputation",
       "", false},
      {"cache-mem-mb", "in-memory result-cache LRU budget, MiB", "256",
       false},
  };
}

bool apply_isa_flag(const ArgParser& parser, std::ostream& err) {
  if (parser.get("isa") == "auto") return true;
  const SimdIsa isa = parse_simd_isa(parser.get("isa"));
  if (!simd_select(isa)) {
    err << "error: ISA '" << simd_isa_name(isa)
        << "' is not supported on this machine/build\n";
    return false;
  }
  return true;
}

std::unique_ptr<ResultCache> cache_from(const ArgParser& parser) {
  const std::string dir = parser.get("cache-dir");
  if (dir.empty()) return nullptr;
  CacheConfig config;
  config.dir = dir;
  const std::size_t mib = parser.get_size(
      "cache-mem-mb", std::numeric_limits<std::size_t>::max() >> 20);
  config.max_memory_bytes = mib << 20;
  return std::make_unique<ResultCache>(std::move(config));
}

}  // namespace ftmao::cli
