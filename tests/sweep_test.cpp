// Tests for the sweep aggregation module.

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "sim/scenario_io.hpp"
#include "sim/shard.hpp"
#include "sim/sweep.hpp"

namespace ftmao {
namespace {

SweepConfig small_config() {
  SweepConfig c;
  c.sizes = {{7, 2}};
  c.attacks = {AttackKind::SplitBrain, AttackKind::Silent};
  c.seeds = {1, 2};
  c.rounds = 300;
  return c;
}

TEST(Sweep, ProducesOneCellPerSizeAttackPair) {
  SweepConfig c = small_config();
  c.sizes = {{7, 2}, {10, 3}};
  const auto cells = run_sweep(c);
  EXPECT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].n, 7u);
  EXPECT_EQ(cells[0].attack, AttackKind::SplitBrain);
  EXPECT_EQ(cells[3].n, 10u);
  EXPECT_EQ(cells[3].attack, AttackKind::Silent);
}

TEST(Sweep, AggregatesOverAllSeeds) {
  const auto cells = run_sweep(small_config());
  for (const auto& c : cells) {
    EXPECT_EQ(c.disagreement.count, 2u);
    EXPECT_EQ(c.dist_to_y.count, 2u);
    EXPECT_GE(c.disagreement.max, c.disagreement.median);
  }
}

TEST(Sweep, Deterministic) {
  const auto a = run_sweep(small_config());
  const auto b = run_sweep(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].disagreement.median, b[i].disagreement.median);
    EXPECT_DOUBLE_EQ(a[i].dist_to_y.max, b[i].dist_to_y.max);
  }
}

TEST(Sweep, CsvShape) {
  const auto cells = run_sweep(small_config());
  const std::string csv = sweep_to_csv(cells);
  EXPECT_EQ(csv.rfind("n,f,dim,attack,seeds,dist_count,", 0), 0u);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'),
            static_cast<long>(cells.size()) + 1);
  EXPECT_NE(csv.find("split-brain"), std::string::npos);
}

TEST(Sweep, CsvHandlesEmptyCells) {
  // Hand-built cells with empty summaries must emit zeros, not garbage
  // from dividing an empty sample.
  SweepCell empty;
  empty.n = 7;
  empty.f = 2;
  empty.attack = AttackKind::Silent;
  const std::string csv = sweep_to_csv({empty});
  EXPECT_NE(csv.find("7,2,1,silent,0,0,0,0,0,0"), std::string::npos);
}

TEST(Sweep, ValidationCatchesBadGrid) {
  SweepConfig c = small_config();
  c.sizes = {{6, 2}};  // violates n > 3f
  EXPECT_THROW(run_sweep(c), ContractViolation);
  c = small_config();
  c.seeds.clear();
  EXPECT_THROW(run_sweep(c), ContractViolation);
}

// The ContractViolation message thrown by `body`, or "" if none.
template <typename Body>
std::string violation_of(Body&& body) {
  try {
    body();
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";
}

TEST(Sweep, ValidationNamesTheBadSizeEntry) {
  SweepConfig c = small_config();
  c.sizes = {{10, 3}, {7, 3}};
  EXPECT_EQ(violation_of([&] { c.validate(); }),
            "sizes[1]: n=7 needs n > 3f (f=3)");
  c.sizes = {{7, 2}};
  c.async_engine = true;
  EXPECT_EQ(violation_of([&] { c.validate(); }),
            "sizes[0]: n=7 needs n > 5f (f=2)");
  c.sizes = {{11, 2}};
  EXPECT_EQ(violation_of([&] { c.validate(); }), "");
}

TEST(Sweep, ParseSizesNamesTheBadEntry) {
  EXPECT_EQ(violation_of([] { parse_sizes("99999999999999999999:1"); }),
            "sizes[0]: '99999999999999999999' is not a count");
  EXPECT_EQ(violation_of([] { parse_sizes("7:2,10:-3"); }),
            "sizes[1]: '-3' is not a count");
  EXPECT_EQ(violation_of([] { parse_sizes("7:2,10"); }),
            "sizes[1]: expects an n:f pair, got '10'");
  EXPECT_EQ(violation_of([] { parse_dims("1,x"); }),
            "dims[1]: 'x' is not a count");
  EXPECT_EQ(violation_of([] { parse_seeds("-1"); }),
            "seeds[0]: '-1' is not a count");
  EXPECT_EQ(parse_sizes("7:2,10:3"),
            (std::vector<std::pair<std::size_t, std::size_t>>{{7, 2}, {10, 3}}));
}

}  // namespace
}  // namespace ftmao
