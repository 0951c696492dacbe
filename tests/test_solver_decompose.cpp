// Directed coverage for the stage-3 decomposition layer (decompose.h).
//
//  * Chain detection: the scheduler's trajectory family must be solved by
//    the exact DP master (chain_blocks > 0, no fallback) with the same
//    objective as the monolithic engines and a genuinely feasible vertex.
//  * Block detection: a block-diagonal model (several independent
//    trajectory chains + free box variables) must split, and the stitched
//    solution must match the monolithic objective.
//  * Coupling: a deliberately coupled model (a cap-style row across
//    blocks, or non-unit coefficients) must take the monolithic fallback
//    path — never a wrong "decomposed" answer.
//  * Node budget: max_nodes = 0 fails both engines the same way.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "vbatt/solver/branch_bound.h"
#include "vbatt/solver/decompose.h"
#include "vbatt/solver/reference.h"
#include "vbatt/util/rng.h"

namespace vbatt::solver {
namespace {

constexpr double kObjTol = 1e-6;

/// The decomposed engine pinned, on a throwaway plan.
MipResult solve_decomposed(const Model& model, const MipOptions& options = {}) {
  CompiledModel plan{model};
  return solve_mip_decomposed(model, plan, options);
}

/// The scheduler's per-app trajectory family (same shape as the bench and
/// the revised-engine tests): binary site indicators x[τ][s], continuous
/// move slacks y[τ][s], one-site-per-bucket equalities, move-link rows.
Model trajectory_mip(int sites, int buckets, std::uint64_t seed) {
  util::Rng rng{seed};
  Model model;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(buckets));
  std::vector<std::vector<int>> y(static_cast<std::size_t>(buckets));
  for (int k = 0; k < buckets; ++k) {
    for (int s = 0; s < sites; ++s) {
      x[static_cast<std::size_t>(k)].push_back(
          model.add_binary("x", rng.uniform(0.0, 50.0)));
      y[static_cast<std::size_t>(k)].push_back(
          model.add_var("y", 100.0, 0.0, 1.0));
    }
  }
  for (int k = 0; k < buckets; ++k) {
    std::vector<std::pair<int, double>> one;
    for (int s = 0; s < sites; ++s) {
      one.emplace_back(
          x[static_cast<std::size_t>(k)][static_cast<std::size_t>(s)], 1.0);
    }
    model.add_constraint(std::move(one), Rel::eq, 1.0);
    for (int s = 0; s < sites; ++s) {
      std::vector<std::pair<int, double>> terms;
      terms.emplace_back(
          x[static_cast<std::size_t>(k)][static_cast<std::size_t>(s)], 1.0);
      double rhs = 0.0;
      if (k > 0) {
        terms.emplace_back(
            x[static_cast<std::size_t>(k - 1)][static_cast<std::size_t>(s)],
            -1.0);
      } else {
        rhs = s == 0 ? 1.0 : 0.0;
      }
      terms.emplace_back(
          y[static_cast<std::size_t>(k)][static_cast<std::size_t>(s)], -1.0);
      model.add_constraint(std::move(terms), Rel::le, rhs);
    }
  }
  return model;
}

void audit_feasibility(const Model& model, const MipResult& r) {
  ASSERT_EQ(r.x.size(), model.n_vars());
  for (std::size_t i = 0; i < r.x.size(); ++i) {
    const Variable& v = model.vars()[i];
    EXPECT_GE(r.x[i], v.lb - kObjTol);
    EXPECT_LE(r.x[i], v.ub + kObjTol);
    if (v.integer) {
      EXPECT_NEAR(r.x[i], std::round(r.x[i]), 1e-9);
    }
  }
  for (const Constraint& con : model.constraints()) {
    double act = 0.0;
    for (const auto& [idx, coeff] : con.terms) {
      act += coeff * r.x[static_cast<std::size_t>(idx)];
    }
    switch (con.rel) {
      case Rel::le: EXPECT_LE(act, con.rhs + kObjTol); break;
      case Rel::ge: EXPECT_GE(act, con.rhs - kObjTol); break;
      case Rel::eq: EXPECT_NEAR(act, con.rhs, kObjTol); break;
    }
  }
  EXPECT_NEAR(r.objective, model.objective_of(r.x), kObjTol);
}

TEST(DecomposedMip, ChainModelSolvedByDpMaster) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const int sites = 2 + static_cast<int>(seed % 5);
    const int buckets = 1 + static_cast<int>(seed % 6);
    const Model model = trajectory_mip(sites, buckets, seed);
    const MipResult mono = solve_revised(model);
    const MipResult dec =
        solve_decomposed(model);
    ASSERT_EQ(mono.status, LpStatus::optimal) << "seed " << seed;
    ASSERT_EQ(dec.status, LpStatus::optimal) << "seed " << seed;
    EXPECT_FALSE(dec.monolithic_fallback) << "seed " << seed;
    EXPECT_EQ(dec.blocks, 1) << "seed " << seed;
    EXPECT_EQ(dec.chain_blocks, 1) << "seed " << seed;
    EXPECT_EQ(dec.master_iterations, buckets) << "seed " << seed;
    EXPECT_TRUE(dec.proven_optimal) << "seed " << seed;
    EXPECT_NEAR(dec.objective, mono.objective, kObjTol) << "seed " << seed;
    audit_feasibility(model, dec);
  }
}

TEST(DecomposedMip, BlockDiagonalModelSplitsAndStitches) {
  // Three independent chains of different shapes plus two row-less box
  // variables, all in one model. The layer must find every block, solve
  // the chains with the DP master, and stitch the exact objective.
  Model model;
  double expect_obj = 0.0;
  {
    // Build the blocks inline (same structure as trajectory_mip but with
    // a shared variable index space).
    util::Rng rng{7};
    for (int chain = 0; chain < 3; ++chain) {
      const int sites = 2 + chain;
      const int buckets = 2 + chain;
      std::vector<std::vector<int>> x(static_cast<std::size_t>(buckets));
      std::vector<std::vector<int>> y(static_cast<std::size_t>(buckets));
      for (int k = 0; k < buckets; ++k) {
        for (int s = 0; s < sites; ++s) {
          x[static_cast<std::size_t>(k)].push_back(
              model.add_binary("x", rng.uniform(0.0, 50.0)));
          y[static_cast<std::size_t>(k)].push_back(
              model.add_var("y", 100.0, 0.0, 1.0));
        }
      }
      for (int k = 0; k < buckets; ++k) {
        std::vector<std::pair<int, double>> one;
        for (int s = 0; s < sites; ++s) {
          one.emplace_back(
              x[static_cast<std::size_t>(k)][static_cast<std::size_t>(s)],
              1.0);
        }
        model.add_constraint(std::move(one), Rel::eq, 1.0);
        for (int s = 0; s < sites; ++s) {
          std::vector<std::pair<int, double>> terms;
          terms.emplace_back(
              x[static_cast<std::size_t>(k)][static_cast<std::size_t>(s)],
              1.0);
          double rhs = 0.0;
          if (k > 0) {
            terms.emplace_back(x[static_cast<std::size_t>(k - 1)]
                                [static_cast<std::size_t>(s)],
                               -1.0);
          } else {
            rhs = s == 0 ? 1.0 : 0.0;
          }
          terms.emplace_back(
              y[static_cast<std::size_t>(k)][static_cast<std::size_t>(s)],
              -1.0);
          model.add_constraint(std::move(terms), Rel::le, rhs);
        }
      }
    }
    // Box variables: one wants its upper bound, one its lower.
    (void)model.add_var("free_neg", -3.0, 0.0, 2.0);
    (void)model.add_var("free_pos", 4.0, 1.0, 5.0);
    expect_obj = -3.0 * 2.0 + 4.0 * 1.0;
  }
  const MipResult mono = solve_revised(model);
  const MipResult dec =
      solve_decomposed(model);
  ASSERT_EQ(mono.status, LpStatus::optimal);
  ASSERT_EQ(dec.status, LpStatus::optimal);
  EXPECT_FALSE(dec.monolithic_fallback);
  EXPECT_EQ(dec.blocks, 4);  // 3 chains + 1 box block
  EXPECT_EQ(dec.chain_blocks, 3);
  EXPECT_NEAR(dec.objective, mono.objective, kObjTol);
  audit_feasibility(model, dec);
  // The box contribution really is in there.
  const std::size_t n = model.n_vars();
  EXPECT_NEAR(dec.x[n - 2], 2.0, 1e-9);
  EXPECT_NEAR(dec.x[n - 1], 1.0, 1e-9);
  (void)expect_obj;
}

TEST(DecomposedMip, CoupledModelTakesMonolithicFallback) {
  // The lexicographic/peak shape: a trajectory chain plus one cap-style
  // row with cost coefficients over every variable. The cap row couples
  // the whole model and its coefficients are not ±1, so chain detection
  // must refuse and the monolithic revised path must answer.
  Model model = trajectory_mip(3, 4, 42);
  std::vector<std::pair<int, double>> cap;
  for (std::size_t i = 0; i < model.n_vars(); ++i) {
    const double c = model.vars()[i].cost;
    if (c != 0.0) cap.emplace_back(static_cast<int>(i), c);
  }
  model.add_constraint(std::move(cap), Rel::le, 1e6);
  const MipResult mono = solve_revised(model);
  const MipResult dec =
      solve_decomposed(model);
  ASSERT_EQ(mono.status, LpStatus::optimal);
  ASSERT_EQ(dec.status, LpStatus::optimal);
  EXPECT_TRUE(dec.monolithic_fallback);
  EXPECT_EQ(dec.blocks, 0);
  EXPECT_EQ(dec.chain_blocks, 0);
  EXPECT_NEAR(dec.objective, mono.objective, kObjTol);
  audit_feasibility(model, dec);
}

TEST(DecomposedMip, NonUnitMoveCoefficientRefusesChain) {
  // Perturbing a single move-row coefficient away from ±1 must disqualify
  // the chain DP (its closed-form slack assumes unit steps). The model is
  // still one block, so this lands on the monolithic fallback.
  Model model = trajectory_mip(3, 3, 11);
  // Rebuild the last move row with a 0.5 coefficient on the slack.
  const Constraint last = model.constraints().back();
  model.pop_constraint();
  std::vector<std::pair<int, double>> terms = last.terms;
  terms.back().second = -0.5;
  model.add_constraint(std::move(terms), last.rel, last.rhs);
  const MipResult mono = solve_revised(model);
  const MipResult dec =
      solve_decomposed(model);
  ASSERT_EQ(mono.status, LpStatus::optimal);
  ASSERT_EQ(dec.status, LpStatus::optimal);
  EXPECT_TRUE(dec.monolithic_fallback);
  EXPECT_NEAR(dec.objective, mono.objective, kObjTol);
}

TEST(DecomposedMip, InfeasibleStageIsDetected) {
  // Excluding every site of one bucket (ub = 0) makes the assignment row
  // unsatisfiable; both engines must agree on infeasibility.
  Model model = trajectory_mip(3, 3, 5);
  for (std::size_t i = 0; i < model.n_vars(); ++i) {
    // Bucket 1's x variables are indices [2*3, 2*3+2*3) stepping by 2
    // (x and y interleave per site).
    if (model.vars()[i].integer && i >= 6 && i < 12) {
      model.vars()[i].ub = 0.0;
    }
  }
  const MipResult mono = solve_revised(model);
  const MipResult dec =
      solve_decomposed(model);
  EXPECT_EQ(mono.status, LpStatus::infeasible);
  EXPECT_EQ(dec.status, LpStatus::infeasible);
}

TEST(DecomposedMip, FixedSiteForcesChainThroughIt) {
  // Pinning bucket 1 to site 2 (lb = 1) must route the DP through it and
  // match the monolithic optimum of the same pinned model.
  Model model = trajectory_mip(3, 3, 9);
  model.vars()[6 + 2 * 2].lb = 1.0;  // bucket 1, site 2 (x at even offsets)
  const MipResult mono = solve_revised(model);
  const MipResult dec =
      solve_decomposed(model);
  ASSERT_EQ(mono.status, LpStatus::optimal);
  ASSERT_EQ(dec.status, LpStatus::optimal);
  EXPECT_FALSE(dec.monolithic_fallback);
  EXPECT_NEAR(dec.objective, mono.objective, kObjTol);
  EXPECT_NEAR(dec.x[6 + 2 * 2], 1.0, 1e-9);
  audit_feasibility(model, dec);
}

TEST(DecomposedMip, ObjectiveMatchesReferenceOnChainFamily) {
  for (std::uint64_t seed = 60; seed < 80; ++seed) {
    const Model model = trajectory_mip(2 + static_cast<int>(seed % 3),
                                       2 + static_cast<int>(seed % 4), seed);
    const MipResult want = reference::solve_mip(model);
    const MipResult got =
        solve_decomposed(model);
    ASSERT_EQ(got.status, want.status) << "seed " << seed;
    if (want.status != LpStatus::optimal) continue;
    EXPECT_NEAR(got.objective, want.objective, kObjTol) << "seed " << seed;
  }
}

TEST(NodeBudget, SpentBudgetFailsBothEnginesAlike) {
  // The revised root and each chain DP block count as one node, so a zero
  // budget must fail the solve unproven with no incumbent in both engines.
  const Model model = trajectory_mip(3, 4, 7);
  MipOptions none;
  none.max_nodes = 0;
  for (const MipEngine engine : {MipEngine::revised, MipEngine::decomposed}) {
    const MipResult r = engine == MipEngine::revised
                            ? solve_revised(model, none)
                            : solve_decomposed(model, none);
    EXPECT_EQ(r.status, LpStatus::iteration_limit) << engine_name(engine);
    EXPECT_FALSE(r.proven_optimal) << engine_name(engine);
    EXPECT_TRUE(r.x.empty()) << engine_name(engine);
  }
  // One node is exactly what the single chain block needs.
  MipOptions one;
  one.max_nodes = 1;
  const MipResult r = solve_decomposed(model, one);
  ASSERT_EQ(r.status, LpStatus::optimal);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.chain_blocks, 1);
}

}  // namespace
}  // namespace vbatt::solver
