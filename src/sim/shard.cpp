#include "sim/shard.hpp"

#include <charconv>
#include <limits>
#include <sstream>

#include "common/contracts.hpp"
#include "common/json_min.hpp"
#include "sim/scenario_io.hpp"

#ifndef FTMAO_GIT_REV
#define FTMAO_GIT_REV "unknown"
#endif

namespace ftmao {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix_u64(std::uint64_t& h, std::uint64_t v) {
  // Little-endian byte order by construction (not by host endianness), so
  // the assignment is identical across machines.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

void fnv_mix_str(std::uint64_t& h, const std::string& s) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
}

std::string format_double(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string token;
  while (std::getline(is, token, sep)) out.push_back(token);
  return out;
}

// One decimal count of a grid list, e.g. field "sizes", entry 0. Signs,
// blanks and overflow are errors that name the entry.
std::uint64_t parse_count(const char* field, std::size_t index,
                          const std::string& token) {
  std::uint64_t out = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  if (ec != std::errc{} || ptr != end)
    throw ContractViolation(std::string(field) + "[" + std::to_string(index) +
                            "]: '" + token + "' is not a count");
  return out;
}

}  // namespace

std::size_t shard_of_cell(const CellSpec& cell, std::size_t shard_count) {
  FTMAO_EXPECTS(shard_count >= 1);
  std::uint64_t h = kFnvOffset;
  fnv_mix_u64(h, static_cast<std::uint64_t>(cell.n));
  fnv_mix_u64(h, static_cast<std::uint64_t>(cell.f));
  // Scalar cells (dim 1, the historical grid) keep their pre-dim-axis
  // assignment: only vector cells mix the dimension in.
  if (cell.dim != 1) fnv_mix_u64(h, static_cast<std::uint64_t>(cell.dim));
  fnv_mix_str(h, attack_kind_name(cell.attack));
  // FNV-1a avalanches poorly on short inputs (adjacent cells land in the
  // same residue class for small moduli), so finalize with the splitmix64
  // mixer before reducing — grids of a few cells then spread across
  // shards instead of clumping.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return static_cast<std::size_t>(h % shard_count);
}

std::vector<CellSpec> shard_cell_specs(const SweepConfig& config,
                                       std::size_t shard_index,
                                       std::size_t shard_count) {
  FTMAO_EXPECTS(shard_index < shard_count);
  std::vector<CellSpec> mine;
  for (const CellSpec& cell : sweep_cell_specs(config))
    if (shard_of_cell(cell, shard_count) == shard_index) mine.push_back(cell);
  return mine;
}

std::vector<SweepCell> run_sweep_shard(const SweepConfig& config,
                                       std::size_t shard_index,
                                       std::size_t shard_count) {
  return run_sweep_cells(config,
                         shard_cell_specs(config, shard_index, shard_count));
}

std::string cell_key(const CellSpec& cell) {
  std::ostringstream os;
  os << cell.n << ':' << cell.f << ':' << cell.dim << ':'
     << attack_kind_name(cell.attack);
  return os.str();
}

std::string format_sizes(
    const std::vector<std::pair<std::size_t, std::size_t>>& sizes) {
  std::ostringstream os;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (i) os << ',';
    os << sizes[i].first << ':' << sizes[i].second;
  }
  return os.str();
}

std::vector<std::pair<std::size_t, std::size_t>> parse_sizes(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> sizes;
  for (const std::string& pair : split(text, ',')) {
    const std::size_t i = sizes.size();
    const auto colon = pair.find(':');
    if (colon == std::string::npos)
      throw ContractViolation("sizes[" + std::to_string(i) +
                              "]: expects an n:f pair, got '" + pair + "'");
    sizes.emplace_back(parse_count("sizes", i, pair.substr(0, colon)),
                       parse_count("sizes", i, pair.substr(colon + 1)));
  }
  return sizes;
}

std::string format_attacks(const std::vector<AttackKind>& attacks) {
  std::ostringstream os;
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    if (i) os << ',';
    os << attack_kind_name(attacks[i]);
  }
  return os.str();
}

std::vector<AttackKind> parse_attacks(const std::string& text) {
  std::vector<AttackKind> attacks;
  for (const std::string& name : split(text, ','))
    attacks.push_back(parse_attack_kind(name));
  return attacks;
}

std::string format_dims(const std::vector<std::size_t>& dims) {
  std::ostringstream os;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i) os << ',';
    os << dims[i];
  }
  return os.str();
}

std::vector<std::size_t> parse_dims(const std::string& text) {
  std::vector<std::size_t> dims;
  for (const std::string& token : split(text, ','))
    dims.push_back(parse_count("dims", dims.size(), token));
  return dims;
}

std::string format_seeds(const std::vector<std::uint64_t>& seeds) {
  std::ostringstream os;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (i) os << ',';
    os << seeds[i];
  }
  return os.str();
}

std::vector<std::uint64_t> parse_seeds(const std::string& text) {
  std::vector<std::uint64_t> seeds;
  for (const std::string& token : split(text, ','))
    seeds.push_back(parse_count("seeds", seeds.size(), token));
  return seeds;
}

std::string format_step(const StepConfig& step) {
  std::ostringstream os;
  os << step_kind_name(step.kind) << ':' << format_double(step.scale) << ':'
     << format_double(step.exponent);
  return os.str();
}

StepConfig parse_step(const std::string& text) {
  const std::vector<std::string> parts = split(text, ':');
  if (parts.size() != 3)
    throw ContractViolation("step spec expects kind:scale:exponent, got '" +
                            text + "'");
  StepConfig step;
  step.kind = parse_step_kind(parts[0]);
  step.scale = std::stod(parts[1]);
  step.exponent = std::stod(parts[2]);
  return step;
}

ShardManifest make_shard_manifest(const SweepConfig& config,
                                  std::size_t shard_index,
                                  std::size_t shard_count) {
  ShardManifest m;
  m.shard_index = shard_index;
  m.shard_count = shard_count;
  m.sizes = format_sizes(config.sizes);
  m.dims = format_dims(config.dims);
  m.attacks = format_attacks(config.attacks);
  m.seeds = format_seeds(config.seeds);
  m.rounds = config.rounds;
  m.spread = config.spread;
  m.step = format_step(config.step);
  for (const CellSpec& cell :
       shard_cell_specs(config, shard_index, shard_count))
    m.cells.push_back(cell_key(cell));
  m.git_rev = build_git_revision();
  return m;
}

SweepConfig config_from_manifest(const ShardManifest& manifest) {
  SweepConfig config;
  config.sizes = parse_sizes(manifest.sizes);
  config.dims = parse_dims(manifest.dims);
  config.attacks = parse_attacks(manifest.attacks);
  config.seeds = parse_seeds(manifest.seeds);
  config.rounds = manifest.rounds;
  config.spread = manifest.spread;
  config.step = parse_step(manifest.step);
  return config;
}

std::string manifest_to_json(const ShardManifest& m) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": " << m.schema << ",\n"
     << "  \"shard_index\": " << m.shard_index << ",\n"
     << "  \"shard_count\": " << m.shard_count << ",\n"
     << "  \"grid\": {\n"
     << "    \"sizes\": \"" << m.sizes << "\",\n"
     << "    \"dims\": \"" << m.dims << "\",\n"
     << "    \"attacks\": \"" << m.attacks << "\",\n"
     << "    \"seeds\": \"" << m.seeds << "\",\n"
     << "    \"rounds\": " << m.rounds << ",\n"
     << "    \"spread\": " << format_double(m.spread) << ",\n"
     << "    \"step\": \"" << m.step << "\"\n"
     << "  },\n"
     << "  \"cells\": [";
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    if (i) os << ", ";
    os << '"' << m.cells[i] << '"';
  }
  os << "],\n"
     << "  \"git_rev\": \"" << m.git_rev << "\",\n"
     << "  \"isa\": \"" << m.isa << "\",\n"
     << "  \"wall_ms\": " << format_double(m.wall_ms) << ",\n"
     << "  \"exit_status\": " << m.exit_status << "\n"
     << "}\n";
  return os.str();
}

ShardManifest manifest_from_json(const std::string& json) {
  using jsonmin::number_field;
  using jsonmin::string_array_field;
  using jsonmin::string_field;
  ShardManifest m;
  m.schema = static_cast<int>(number_field(json, "schema"));
  if (m.schema != 1)
    throw ContractViolation("manifest JSON: unsupported schema " +
                            std::to_string(m.schema));
  m.shard_index = static_cast<std::size_t>(number_field(json, "shard_index"));
  m.shard_count = static_cast<std::size_t>(number_field(json, "shard_count"));
  m.sizes = string_field(json, "sizes");
  m.dims = string_field(json, "dims");
  m.attacks = string_field(json, "attacks");
  m.seeds = string_field(json, "seeds");
  m.rounds = static_cast<std::size_t>(number_field(json, "rounds"));
  m.spread = number_field(json, "spread");
  m.step = string_field(json, "step");
  m.cells = string_array_field(json, "cells");
  m.git_rev = string_field(json, "git_rev");
  m.isa = string_field(json, "isa");
  m.wall_ms = number_field(json, "wall_ms");
  m.exit_status = static_cast<int>(number_field(json, "exit_status"));
  if (m.shard_index >= m.shard_count)
    throw ContractViolation("manifest JSON: shard_index >= shard_count");
  return m;
}

std::string build_git_revision() { return FTMAO_GIT_REV; }

}  // namespace ftmao
