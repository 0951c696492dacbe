// Directed regression: the revised engine mishandled constraint rows that
// name the same variable twice. Model::add_constraint allows duplicates
// and the dense tableau sums them, but RevisedSolver stored one column
// entry per term, so pivot-element lookups read a partial coefficient and
// the engine declared feasible models infeasible.
// Minimized by: vbatt_fuzz --suite=solver --cases=200 --seed=1
#include <gtest/gtest.h>

#include "vbatt/solver/branch_bound.h"
#include "vbatt/solver/reference.h"
#include "vbatt/testkit/property.h"
#include "vbatt/testkit/spec.h"
#include "vbatt/testkit/suites.h"

namespace vbatt::testkit {
namespace {

constexpr const char* kSpec =
    "seed=6833689247038760672;vars=7;rows=2;ints=1;"
    "prop=solver.revised_objective";

TEST(SolverDuplicateTermsRegress, ReplaySpecHolds) {
  const CaseResult result = replay(all_properties(), Spec::parse(kSpec));
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(SolverDuplicateTermsRegress, DuplicateTermRowSolvesLikeReference) {
  // minimize x subject to x + x == 4, 0 <= x <= 5: optimum x = 2.
  solver::Model model;
  const int x = model.add_var("x", 1.0, 0.0, 5.0, false);
  model.add_constraint({{x, 1.0}, {x, 1.0}}, solver::Rel::eq, 4.0);

  const solver::MipResult got = solver::solve_revised(model);
  const solver::MipResult want = solver::reference::solve_mip(model);
  ASSERT_EQ(want.status, solver::LpStatus::optimal);
  ASSERT_EQ(got.status, solver::LpStatus::optimal);
  EXPECT_NEAR(got.objective, 2.0, 1e-9);
  EXPECT_NEAR(got.objective, want.objective, 1e-9);
}

}  // namespace
}  // namespace vbatt::testkit
