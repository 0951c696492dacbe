#include "vbatt/solver/branch_bound.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "vbatt/util/rng.h"

namespace vbatt::solver {
namespace {

TEST(Mip, Knapsack) {
  // max 10a + 6b + 4c with weights 5,4,3 <= 10 -> a + b = 16.
  Model m;
  const int a = m.add_binary("a", -10.0);
  const int b = m.add_binary("b", -6.0);
  const int c = m.add_binary("c", -4.0);
  m.add_constraint({{a, 5.0}, {b, 4.0}, {c, 3.0}}, Rel::le, 10.0);
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, LpStatus::optimal);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_NEAR(r.objective, -16.0, 1e-9);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
  EXPECT_NEAR(r.x[2], 0.0, 1e-9);
}

TEST(Mip, GeneralIntegerRounding) {
  // min x st 2x >= 7, x integer -> 4 (LP gives 3.5).
  Model m;
  const int x = m.add_var("x", 1.0, 0.0, 100.0, true);
  m.add_constraint({{x, 2.0}}, Rel::ge, 7.0);
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, LpStatus::optimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-9);
}

TEST(Mip, MixedIntegerContinuous) {
  // min 2i + c st i + c >= 3.5, i integer, c <= 1 -> i=3, c=0.5: 6.5.
  Model m;
  const int i = m.add_var("i", 2.0, 0.0, 10.0, true);
  const int c = m.add_var("c", 1.0, 0.0, 1.0);
  m.add_constraint({{i, 1.0}, {c, 1.0}}, Rel::ge, 3.5);
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, LpStatus::optimal);
  EXPECT_NEAR(r.objective, 6.5, 1e-9);
}

TEST(Mip, InfeasibleIntegerBox) {
  // 0.3 <= x <= 0.7, x integer: no integer point.
  Model m;
  (void)m.add_var("x", 1.0, 0.3, 0.7, true);
  EXPECT_EQ(solve_mip(m).status, LpStatus::infeasible);
}

TEST(Mip, AssignmentProblemIsIntegralAtRoot) {
  const double cost[3][3] = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  Model m;
  int v[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) v[i][j] = m.add_binary("x", cost[i][j]);
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<std::pair<int, double>> row;
    std::vector<std::pair<int, double>> col;
    for (int j = 0; j < 3; ++j) {
      row.emplace_back(v[i][j], 1.0);
      col.emplace_back(v[j][i], 1.0);
    }
    m.add_constraint(std::move(row), Rel::eq, 1.0);
    m.add_constraint(std::move(col), Rel::eq, 1.0);
  }
  const MipResult r = solve_mip(m);
  ASSERT_EQ(r.status, LpStatus::optimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-9);
  EXPECT_LE(r.nodes_explored, 3);  // assignment polytope: root-integral
}

TEST(Mip, NodeBudgetReturnsIterationLimit) {
  // A hard-ish knapsack with a tiny node budget and no incumbent yet.
  Model m;
  std::vector<std::pair<int, double>> weight;
  for (int i = 0; i < 20; ++i) {
    const int v = m.add_binary("x", -(100.0 + i));
    weight.emplace_back(v, 50.0 + 3.0 * i);
  }
  m.add_constraint(std::move(weight), Rel::le, 500.0);
  MipOptions options;
  options.max_nodes = 1;
  const MipResult r = solve_mip(m, options);
  EXPECT_FALSE(r.proven_optimal);
}

/// Property: on random small binary programs, branch & bound matches
/// exhaustive enumeration.
class MipProperty : public ::testing::TestWithParam<int> {};

TEST_P(MipProperty, MatchesBruteForce) {
  util::Rng rng{static_cast<std::uint64_t>(GetParam()) * 7919 + 13};
  const int n = 2 + GetParam() % 5;        // 2..6 binaries
  const int m_rows = 1 + GetParam() % 3;   // 1..3 constraints

  Model model;
  std::vector<double> costs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    costs[static_cast<std::size_t>(i)] = rng.uniform(-10.0, 10.0);
    (void)model.add_binary("x", costs[static_cast<std::size_t>(i)]);
  }
  std::vector<std::vector<double>> rows(static_cast<std::size_t>(m_rows));
  std::vector<double> rhs(static_cast<std::size_t>(m_rows));
  for (int r = 0; r < m_rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int i = 0; i < n; ++i) {
      const double coeff = rng.uniform(0.0, 5.0);
      rows[static_cast<std::size_t>(r)].push_back(coeff);
      terms.emplace_back(i, coeff);
    }
    rhs[static_cast<std::size_t>(r)] = rng.uniform(2.0, 10.0);
    model.add_constraint(std::move(terms), Rel::le,
                         rhs[static_cast<std::size_t>(r)]);
  }

  // Brute force over all 2^n assignments.
  double best = 1e18;
  bool any = false;
  for (int mask = 0; mask < (1 << n); ++mask) {
    bool feasible = true;
    for (int r = 0; r < m_rows && feasible; ++r) {
      double lhs = 0.0;
      for (int i = 0; i < n; ++i) {
        if (mask & (1 << i)) lhs += rows[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)];
      }
      feasible = lhs <= rhs[static_cast<std::size_t>(r)] + 1e-9;
    }
    if (!feasible) continue;
    any = true;
    double obj = 0.0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) obj += costs[static_cast<std::size_t>(i)];
    }
    best = std::min(best, obj);
  }

  const MipResult r = solve_mip(model);
  ASSERT_TRUE(any);  // all-zeros is always feasible with rhs >= 2
  ASSERT_EQ(r.status, LpStatus::optimal);
  EXPECT_NEAR(r.objective, best, 1e-6) << "n=" << n << " rows=" << m_rows;
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, MipProperty,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace vbatt::solver
