// Content-addressed result cache: golden key stability, payload codec,
// LRU eviction, the persistent disk tier (including corrupt / truncated /
// mismatched records degrading to misses), and the end-to-end guarantee
// that cached sweep / certify / attack-search results are byte-identical
// cold vs warm vs mixed.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cache/cell_key.hpp"
#include "cache/result_cache.hpp"
#include "common/contracts.hpp"
#include "sim/attack_search.hpp"
#include "sim/certify.hpp"
#include "sim/sweep.hpp"

namespace ftmao {
namespace {

// --- helpers ----------------------------------------------------------

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("ftmao_cache_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

SweepConfig small_grid() {
  SweepConfig config;
  config.sizes = {{7, 2}, {10, 3}};
  config.dims = {1, 3};
  config.attacks = {AttackKind::SplitBrain, AttackKind::SignFlip};
  config.seeds = {1, 2, 3};
  config.rounds = 200;
  return config;
}

SweepConfig small_async_grid() {
  SweepConfig config;
  config.sizes = {{6, 1}, {11, 2}};
  config.attacks = {AttackKind::SplitBrain, AttackKind::PullToTarget};
  config.seeds = {1, 2};
  config.rounds = 200;
  config.async_engine = true;
  return config;
}

std::string sweep_csv(const SweepConfig& config) {
  return sweep_to_csv(run_sweep(config));
}

// --- key golden values ------------------------------------------------
//
// These hashes pin the canonical spec grammar AND kEngineSchemaRev. If
// either changes deliberately, bump kEngineSchemaRev and re-pin; if this
// test fails without such a bump, stale cache entries would be served
// across a numeric change.

TEST(CellKey, GoldenHashesArePinned) {
  // Default-rev pin (currently rev 3: closed-form Lemma 2 witnesses),
  // the previous rev, and an explicit future-rev pin so the grammar itself
  // stays covered independently of the default.
  static_assert(kEngineSchemaRev == 3);
  EXPECT_EQ(make_cell_key("golden-spec-a").hex(),
            "98d6c23e5acf9884c0db568c834d1e7e");
  EXPECT_EQ(make_cell_key("golden-spec-a", 2).hex(),
            "d0b2426f24d8ace9c66a898094951d99");
  EXPECT_EQ(make_cell_key("golden-spec-a", 4).hex(),
            "2793b2cb7af26da76ff71af16f24c389");
}

TEST(CellKey, HexIs32LowercaseChars) {
  const std::string hex = make_cell_key("anything").hex();
  ASSERT_EQ(hex.size(), 32u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
}

TEST(CellKey, SchemaRevisionSeparatesKeys) {
  const CellKey v1 = make_cell_key("spec", 1);
  const CellKey v2 = make_cell_key("spec", 2);
  EXPECT_FALSE(v1 == v2);
  EXPECT_NE(v1.spec, v2.spec);  // the rev is part of the identity, not
                                // just the hash
  EXPECT_NE(v1.hex(), v2.hex());
}

TEST(CellKey, SweepSpecGrammarIsPinned) {
  SweepConfig config;
  config.sizes = {{7, 2}};
  config.attacks = {AttackKind::SplitBrain};
  config.seeds = {1, 2, 3};
  config.rounds = 4000;
  const CellSpec cell{7, 2, 1, AttackKind::SplitBrain};
  const std::string spec = sweep_cell_cache_spec(config, cell);
  EXPECT_EQ(spec,
            "sweep;family=std-mixed;n=7;f=2;dim=1;attack=split-brain;"
            "spread=8;rounds=4000;step=harmonic:1:0.75;seeds=1,2,3;"
            "constraint=none;engine=sync");
  EXPECT_EQ(make_cell_key(spec).hex(), "54dde516299cab86386fac55a5f1c065");

  SweepConfig async_config = config;
  async_config.sizes = {{11, 2}};
  async_config.async_engine = true;
  const CellSpec async_cell{11, 2, 1, AttackKind::SplitBrain};
  const std::string async_spec =
      sweep_cell_cache_spec(async_config, async_cell);
  EXPECT_EQ(async_spec,
            "sweep;family=std-mixed;n=11;f=2;dim=1;attack=split-brain;"
            "spread=8;rounds=4000;step=harmonic:1:0.75;seeds=1,2,3;"
            "constraint=none;engine=async;delay=uniform:0.5:1.5");
  EXPECT_EQ(make_cell_key(async_spec).hex(),
            "194fa64065b406796779478049d81c88");
}

TEST(CellKey, CanonDoubleRoundTripsShortest) {
  EXPECT_EQ(cache_canon_double(8.0), "8");
  EXPECT_EQ(cache_canon_double(0.75), "0.75");
  EXPECT_EQ(cache_canon_double(0.1), "0.1");
  // A value with no short decimal form keeps full round-trip precision.
  EXPECT_EQ(std::stod(cache_canon_double(1.0 / 3.0)), 1.0 / 3.0);
}

// --- payload codec ----------------------------------------------------

TEST(PayloadCodec, RoundTripsAllFieldTypes) {
  PayloadWriter writer;
  writer.put_u64(0);
  writer.put_u64(~0ull);
  writer.put_double(1.0 / 3.0);
  writer.put_double(-0.0);
  writer.put_bool(true);
  writer.put_bool(false);
  const std::string with_nul("hello\0world", 11);
  writer.put_string(with_nul);
  writer.put_string("");

  PayloadReader reader(writer.bytes());
  EXPECT_EQ(reader.get_u64(), 0u);
  EXPECT_EQ(reader.get_u64(), ~0ull);
  EXPECT_EQ(reader.get_double(), 1.0 / 3.0);
  const double neg_zero = reader.get_double();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit-exact, not value-equal
  EXPECT_TRUE(reader.get_bool());
  EXPECT_FALSE(reader.get_bool());
  EXPECT_EQ(reader.get_string(), with_nul);
  EXPECT_EQ(reader.get_string(), "");
  EXPECT_TRUE(reader.exhausted());
}

TEST(PayloadCodec, TruncationThrowsContractViolation) {
  PayloadWriter writer;
  writer.put_double(42.0);
  const std::string bytes = writer.bytes().substr(0, 4);
  PayloadReader reader(bytes);
  EXPECT_THROW(reader.get_double(), ContractViolation);

  const std::string nothing;
  PayloadReader empty(nothing);
  EXPECT_THROW(empty.get_u64(), ContractViolation);
}

TEST(PayloadCodec, ExhaustedDetectsTrailingGarbage) {
  PayloadWriter writer;
  writer.put_u64(7);
  writer.put_u64(8);
  PayloadReader reader(writer.bytes());
  reader.get_u64();
  EXPECT_FALSE(reader.exhausted());
  reader.get_u64();
  EXPECT_TRUE(reader.exhausted());
}

// --- in-memory tier ---------------------------------------------------

TEST(ResultCache, MemoryHitAndMissCounters) {
  ResultCache cache{CacheConfig{}};
  const CellKey key = make_cell_key("mem-spec");
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, "payload");
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload");

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(stats.disk_errors, 0u);
  EXPECT_GT(stats.memory_bytes, 0u);
}

TEST(ResultCache, InsertIsIdempotent) {
  ResultCache cache{CacheConfig{}};
  const CellKey key = make_cell_key("idempotent");
  cache.insert(key, "v");
  cache.insert(key, "v");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCache, LruEvictionRespectsByteBudget) {
  CacheConfig config;
  config.max_memory_bytes = 4096;  // 256 bytes per shard
  ResultCache cache{std::move(config)};
  const std::string payload(100, 'x');
  for (int i = 0; i < 500; ++i) {
    cache.insert(make_cell_key("evict-spec-" + std::to_string(i)), payload);
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 500u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 500u);
  EXPECT_EQ(stats.entries + stats.evictions, stats.inserts);
  // Each entry exceeds half a shard budget, yet the budget holds: the
  // just-inserted entry is never evicted, but everything older goes.
  EXPECT_LE(stats.memory_bytes, 16u * 256u);
}

// --- disk tier --------------------------------------------------------

TEST(ResultCache, DiskRoundTripAcrossInstances) {
  const auto dir = fresh_dir("roundtrip");
  const CellKey key = make_cell_key("disk-spec");

  {
    ResultCache writer{CacheConfig{dir.string(), 256 << 20}};
    writer.insert(key, "disk-payload");
  }

  ResultCache reader{CacheConfig{dir.string(), 256 << 20}};
  const auto hit = reader.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "disk-payload");
  const CacheStats stats = reader.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.disk_errors, 0u);

  // Faulted in: a second lookup is served from memory.
  ASSERT_TRUE(reader.lookup(key).has_value());
  EXPECT_EQ(reader.stats().disk_hits, 1u);
}

TEST(ResultCache, RecordFileIsNamedByKeyHex) {
  const auto dir = fresh_dir("naming");
  const CellKey key = make_cell_key("named-spec");
  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  cache.insert(key, "p");
  EXPECT_TRUE(std::filesystem::exists(dir / (key.hex() + ".ftc")));
}

TEST(ResultCache, AbsentRecordIsAPlainMiss) {
  const auto dir = fresh_dir("absent");
  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  EXPECT_FALSE(cache.lookup(make_cell_key("never-stored")).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.disk_errors, 0u);  // missing != corrupt
}

TEST(ResultCache, CrossRevisionRecordIsAMiss) {
  const auto dir = fresh_dir("crossrev");
  {
    ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
    cache.insert(make_cell_key("rev-spec", 1), "old-revision");
  }
  // A schema bump changes the spec ("rev=2;...") and therefore the key;
  // the old record is simply never addressed.
  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  EXPECT_FALSE(cache.lookup(make_cell_key("rev-spec", 2)).has_value());
  EXPECT_EQ(cache.stats().disk_errors, 0u);
}

TEST(ResultCache, PreBumpDiskRecordIsAMissUnderCurrentDefault) {
  // The latest bump (rev 2 → rev 3, closed-form Lemma 2 witnesses)
  // specifically: a disk tier populated before the bump serves nothing
  // to a post-bump binary, without a single disk error — stale results
  // age out silently rather than poisoning the new numerics.
  const auto dir = fresh_dir("prebump");
  const CellKey old_key = make_cell_key("prebump-spec", kEngineSchemaRev - 1);
  {
    ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
    cache.insert(old_key, "pre-bump-bits");
  }
  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  EXPECT_FALSE(cache.lookup(make_cell_key("prebump-spec")).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.disk_errors, 0u);
  // The old record itself is intact and still addressable by its own key.
  ASSERT_TRUE(cache.lookup(old_key).has_value());
}

TEST(ResultCache, TruncatedRecordIsAMissNotAnError) {
  const auto dir = fresh_dir("truncated");
  const CellKey key = make_cell_key("trunc-spec");
  {
    ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
    cache.insert(key, "truncate-me");
  }
  const auto path = dir / (key.hex() + ".ftc");
  write_file(path, read_file(path).substr(0, 10));

  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  EXPECT_FALSE(cache.lookup(key).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.disk_errors, 1u);
}

TEST(ResultCache, CorruptPayloadFailsChecksumAndMisses) {
  const auto dir = fresh_dir("corrupt");
  const CellKey key = make_cell_key("corrupt-spec");
  {
    ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
    cache.insert(key, "corrupt-me-corrupt-me");
  }
  const auto path = dir / (key.hex() + ".ftc");
  std::string bytes = read_file(path);
  bytes[bytes.size() - 12] ^= 0x5a;  // flip a payload byte
  write_file(path, bytes);

  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().disk_errors, 1u);
}

TEST(ResultCache, WrongMagicIsAMiss) {
  const auto dir = fresh_dir("magic");
  const CellKey key = make_cell_key("magic-spec");
  {
    ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
    cache.insert(key, "payload");
  }
  const auto path = dir / (key.hex() + ".ftc");
  std::string bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);

  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().disk_errors, 1u);
}

TEST(ResultCache, MismatchedKeyEchoIsAMiss) {
  // Simulate a hash collision / misplaced file: the record for key A
  // sits under key B's filename. The key echo inside the record must
  // reject it.
  const auto dir = fresh_dir("mismatch");
  const CellKey key_a = make_cell_key("mismatch-spec-a");
  const CellKey key_b = make_cell_key("mismatch-spec-b");
  {
    ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
    cache.insert(key_a, "payload-a");
  }
  std::filesystem::copy_file(dir / (key_a.hex() + ".ftc"),
                             dir / (key_b.hex() + ".ftc"));

  ResultCache cache{CacheConfig{dir.string(), 256 << 20}};
  EXPECT_FALSE(cache.lookup(key_b).has_value());
  EXPECT_EQ(cache.stats().disk_errors, 1u);
}

TEST(ResultCache, StatsLineMentionsEveryCounter) {
  const std::string line = cache_stats_line(CacheStats{});
  for (const char* field : {"hits=", "misses=", "inserts=", "evictions=",
                            "mem_bytes=", "entries=", "disk_hits=",
                            "disk_errors="}) {
    EXPECT_NE(line.find(field), std::string::npos) << field;
  }
}

// --- cached sweep: byte-identical cold vs warm vs mixed ---------------

TEST(CachedSweep, ColdWarmMixedAreByteIdentical) {
  SweepConfig config = small_grid();
  const std::string reference = sweep_csv(config);  // no cache

  ResultCache cache{CacheConfig{}};
  config.cache = &cache;
  const std::string cold = sweep_csv(config);
  const CacheStats after_cold = cache.stats();
  EXPECT_EQ(after_cold.hits, 0u);
  EXPECT_GT(after_cold.inserts, 0u);

  const std::string warm = sweep_csv(config);
  const CacheStats after_warm = cache.stats();
  EXPECT_EQ(after_warm.hits, after_cold.inserts);  // every cell served
  EXPECT_EQ(after_warm.inserts, after_cold.inserts);

  // Mixed: a fresh cache pre-warmed with only a subset of the grid.
  ResultCache mixed_cache{CacheConfig{}};
  SweepConfig mixed_config = config;
  mixed_config.cache = &mixed_cache;
  const std::vector<CellSpec> all = sweep_cell_specs(mixed_config);
  const std::vector<CellSpec> subset(all.begin(),
                                     all.begin() + all.size() / 2);
  run_sweep_cells(mixed_config, subset);
  const std::string mixed = sweep_csv(mixed_config);
  EXPECT_GT(mixed_cache.stats().hits, 0u);

  EXPECT_EQ(cold, reference);
  EXPECT_EQ(warm, reference);
  EXPECT_EQ(mixed, reference);
}

TEST(CachedSweep, WarmHitsAreIdenticalAcrossThreadAndBatchKnobs) {
  SweepConfig config = small_grid();
  ResultCache cache{CacheConfig{}};
  config.cache = &cache;
  const std::string cold = sweep_csv(config);

  SweepConfig threaded = config;
  threaded.num_threads = 4;
  threaded.batch_size = 2;
  EXPECT_EQ(sweep_csv(threaded), cold);

  SweepConfig scalar = config;
  scalar.scalar_engine = true;
  EXPECT_EQ(sweep_csv(scalar), cold);
}

TEST(CachedSweep, AsyncEngineColdWarmAreByteIdentical) {
  SweepConfig config = small_async_grid();
  const std::string reference = sweep_csv(config);

  ResultCache cache{CacheConfig{}};
  config.cache = &cache;
  EXPECT_EQ(sweep_csv(config), reference);
  EXPECT_EQ(sweep_csv(config), reference);
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(CachedSweep, PoisonedDiskCacheStillByteIdentical) {
  const auto dir = fresh_dir("poisoned_sweep");
  SweepConfig config = small_grid();
  config.dims = {1};  // 2 sizes x 2 attacks = 4 cells; 2 get poisoned

  ResultCache cold_cache{CacheConfig{dir.string(), 256 << 20}};
  config.cache = &cold_cache;
  const std::string reference = sweep_csv(config);

  // Poison the directory: truncate one record, corrupt another, add junk.
  std::vector<std::filesystem::path> records;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    records.push_back(entry.path());
  }
  ASSERT_EQ(records.size(), 4u);
  write_file(records[0], read_file(records[0]).substr(0, 10));
  std::string bytes = read_file(records[1]);
  bytes[bytes.size() / 2] ^= 0xff;
  write_file(records[1], bytes);
  write_file(dir / "not-a-record.ftc", "garbage");

  ResultCache warm_cache{CacheConfig{dir.string(), 256 << 20}};
  config.cache = &warm_cache;
  EXPECT_EQ(sweep_csv(config), reference);
  const CacheStats stats = warm_cache.stats();
  EXPECT_EQ(stats.disk_errors, 2u);  // the junk file's key is never looked up
  EXPECT_EQ(stats.hits, 2u);    // the intact records still serve
  EXPECT_EQ(stats.misses, 2u);  // both poisoned cells recomputed
}

// --- cached certify ---------------------------------------------------

TEST(CachedCertify, ColdAndWarmReportsMatchUncached) {
  CertifyOptions options;
  options.rounds = 150;
  options.async_rounds = 100;
  options.vector_rounds = 100;
  options.vector_dim = 2;
  const CertificationReport reference = certify_sbg(options);

  ResultCache cache{CacheConfig{}};
  options.cache = &cache;
  const CertificationReport cold = certify_sbg(options);
  const CacheStats after_cold = cache.stats();
  EXPECT_GT(after_cold.inserts, 0u);

  const CertificationReport warm = certify_sbg(options);
  EXPECT_GT(cache.stats().hits, after_cold.hits);

  for (const CertificationReport* report : {&cold, &warm}) {
    EXPECT_EQ(report->passed, reference.passed);
    ASSERT_EQ(report->checks.size(), reference.checks.size());
    for (std::size_t i = 0; i < reference.checks.size(); ++i) {
      EXPECT_EQ(report->checks[i].name, reference.checks[i].name);
      EXPECT_EQ(report->checks[i].passed, reference.checks[i].passed);
      EXPECT_EQ(report->checks[i].detail, reference.checks[i].detail) << i;
    }
  }
}

// --- cached attack search ---------------------------------------------

TEST(CachedAttackSearch, ColdAndWarmMatchUncached) {
  const Scenario base = make_standard_scenario(7, 2, 8.0, AttackKind::None,
                                               300, 1);
  const std::vector<AttackCandidate> candidates = standard_attack_grid();
  const AttackSearchResult reference =
      find_strongest_attack(base, candidates);

  ResultCache cache{CacheConfig{}};
  const AttackSearchResult cold =
      find_strongest_attack(base, candidates, 1, 0, false, &cache);
  const CacheStats after_cold = cache.stats();
  EXPECT_EQ(after_cold.inserts, candidates.size() + 1);  // + reference run

  const AttackSearchResult warm =
      find_strongest_attack(base, candidates, 1, 0, false, &cache);
  EXPECT_EQ(cache.stats().hits, candidates.size() + 1);

  for (const AttackSearchResult* result : {&cold, &warm}) {
    EXPECT_EQ(result->reference_state, reference.reference_state);
    EXPECT_EQ(result->optima.lo(), reference.optima.lo());
    EXPECT_EQ(result->optima.hi(), reference.optima.hi());
    ASSERT_EQ(result->outcomes.size(), reference.outcomes.size());
    for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
      EXPECT_EQ(result->outcomes[i].name, reference.outcomes[i].name);
      EXPECT_EQ(result->outcomes[i].final_state,
                reference.outcomes[i].final_state);
      EXPECT_EQ(result->outcomes[i].bias, reference.outcomes[i].bias);
      EXPECT_EQ(result->outcomes[i].dist_to_y,
                reference.outcomes[i].dist_to_y);
      EXPECT_EQ(result->outcomes[i].disagreement,
                reference.outcomes[i].disagreement);
    }
  }
}

TEST(CachedAttackSearch, AsyncColdAndWarmMatchUncached) {
  const AsyncScenario base =
      make_standard_async_scenario(11, 2, 8.0, AttackKind::None, 200, 1);
  const std::vector<AttackCandidate> candidates = standard_attack_grid();
  const AttackSearchResult reference =
      find_strongest_attack_async(base, candidates);

  ResultCache cache{CacheConfig{}};
  const AttackSearchResult cold =
      find_strongest_attack_async(base, candidates, 1, 0, false, &cache);
  const AttackSearchResult warm =
      find_strongest_attack_async(base, candidates, 1, 0, false, &cache);
  EXPECT_GT(cache.stats().hits, 0u);

  for (const AttackSearchResult* result : {&cold, &warm}) {
    EXPECT_EQ(result->reference_state, reference.reference_state);
    ASSERT_EQ(result->outcomes.size(), reference.outcomes.size());
    for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
      EXPECT_EQ(result->outcomes[i].name, reference.outcomes[i].name);
      EXPECT_EQ(result->outcomes[i].final_state,
                reference.outcomes[i].final_state);
      EXPECT_EQ(result->outcomes[i].bias, reference.outcomes[i].bias);
    }
  }
}

}  // namespace
}  // namespace ftmao
