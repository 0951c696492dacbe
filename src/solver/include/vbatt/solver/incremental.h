// Incremental model reuse across replans.
//
// PR 7 drove trajectory-MIP solve time down far enough that building the
// Model from scratch costs as much as solving it (BENCH_solver.json,
// 250 sites / k=4 / 168h: build_ms ~= decomposed_ms). Between consecutive
// replans the model *structure* is frozen by the planning family — the
// same variables in the same order, the same rows with the same terms —
// and only the data changes: cost vectors (forecast-driven deficit
// penalties), and the k=0 move-row rhs that pins the app's current site.
//
// ModelCache keeps one built Model per structural family key. A cache hit
// skips every allocation (variable vector, per-row term vectors, name
// strings) and the caller patches costs/rhs in place; because patch and
// scratch paths evaluate the same arithmetic in the same order, the
// patched model is bitwise-identical to a from-scratch build. That claim
// is enforced, not assumed: models_bitwise_equal() backs the
// solver.delta_model_identity fuzz property and MipSchedulerConfig::
// verify_incremental_build, and the cache is dropped whole on
// topology-epoch bumps.
//
// Each entry also holds the model's CompiledModel (engine choice, block
// partition, chain plans — decompose.h), so patch-only solves skip every
// structure cost, and the family's econ-stage cost vector.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vbatt/solver/decompose.h"
#include "vbatt/solver/model.h"

namespace vbatt::solver {

/// One cached Model per planning-family key. Not thread-safe; intended to
/// be owned by a single scheduler instance.
class ModelCache {
 public:
  /// Structural family: callers encode whatever determines the model's
  /// shape (e.g. bucket count, candidate-site count, has-current-site).
  struct Key {
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t c = 0;
    bool operator<(const Key& other) const noexcept {
      if (a != other.a) return a < other.a;
      if (b != other.b) return b < other.b;
      return c < other.c;
    }
  };

  /// One structural family's cached state.
  struct Entry {
    Model model;
    /// Compiled from `model` by the first solve that passes it to
    /// solve_mip; recompiled automatically after structural edits.
    CompiledModel plan;
    /// Secondary-objective costs for the family (empty until a caller
    /// fills it; MipScheduler's econ stage patches it like the model).
    std::vector<double> econ;
  };

  /// Return the entry for `key`, building its model via `build()` on a
  /// miss. `*fresh` (optional) reports whether `build` ran — on a hit the
  /// caller must patch stale costs/rhs before solving.
  template <typename Build>
  Entry& get(const Key& key, const Build& build, bool* fresh = nullptr) {
    auto it = cache_.find(key);
    const bool miss = it == cache_.end();
    if (miss) it = cache_.emplace(key, Entry{build(), {}, {}}).first;
    if (fresh != nullptr) *fresh = miss;
    return it->second;
  }

  /// Drop every entry (topology-epoch invalidation).
  void clear() { cache_.clear(); }

  std::size_t size() const noexcept { return cache_.size(); }

 private:
  std::map<Key, Entry> cache_;
};

/// True when the two models are indistinguishable to the solver at the
/// bit level: same variables (name, bounds, integrality, cost compared as
/// bit patterns) and same constraints (terms, relation, rhs bit
/// patterns). Bitwise double comparison deliberately distinguishes -0.0
/// from 0.0 and is NaN-reflexive — "would solve identically" must mean
/// byte-for-byte, not approximately.
bool models_bitwise_equal(const Model& a, const Model& b);

/// Empty string when bitwise-equal, otherwise a one-line description of
/// the first divergence (for test/fuzzer diagnostics).
std::string diff_models_bitwise(const Model& a, const Model& b);

}  // namespace vbatt::solver
