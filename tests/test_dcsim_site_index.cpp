// SiteBlock answers placement queries from incremental indices (free-cores
// buckets, per-server victim order). These tests pin them to the frozen
// linear-scan testkit::RefSite:
//   * property test: every placement lands on the identical server the
//     scan picks across randomized place / remove / shrink sequences, for
//     all three policies;
//   * regression: shrink_to's eviction order matches the scan's
//     rebuild-and-sort implementation;
//   * best fit's "never start an empty server if a partially-used one
//     fits" holds even for zero-core shapes (the only case where free
//     cores alone cannot tell an empty server from a used one) — in
//     SiteBlock and in the oracle.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "vbatt/dcsim/site_block.h"
#include "vbatt/testkit/ref_site.h"
#include "vbatt/util/rng.h"

namespace vbatt::dcsim {
namespace {

using testkit::RefSite;

SiteConfig site_config(int servers, int cores, double mem) {
  SiteConfig config;
  config.n_servers = servers;
  config.server = {cores, mem};
  return config;
}

VmInstance make_vm(std::int64_t id, int cores, double mem,
                   workload::VmClass cls = workload::VmClass::stable) {
  VmInstance v;
  v.vm_id = id;
  v.shape = {cores, mem};
  v.vm_class = cls;
  return v;
}

bool degradable(const VmInstance& vm) {
  return vm.vm_class == workload::VmClass::degradable;
}

/// Place on both containers; returns the block's server after checking
/// the oracle chose the same one (or both refused).
int place_both(SiteBlock& block, RefSite& ref, const VmInstance& vm,
               BlockPolicy policy) {
  const int got = block.place(0, vm.vm_id, vm.shape.cores, vm.shape.memory_gb,
                              degradable(vm), policy);
  const int want = ref.place(vm, policy) ? ref.find(vm.vm_id)->server : -1;
  EXPECT_EQ(got, want) << "policy " << static_cast<int>(policy)
                       << " diverged for vm " << vm.vm_id << " shape {"
                       << vm.shape.cores << ", " << vm.shape.memory_gb
                       << "}";
  return got;
}

TEST(SiteIndexProperty, IndexedChooseMatchesScanUnderRandomChurn) {
  for (const BlockPolicy policy : {BlockPolicy::first_fit,
                                   BlockPolicy::best_fit,
                                   BlockPolicy::worst_fit}) {
    util::Rng rng{util::seed_for(2024, "site-index-property",
                                 static_cast<std::uint64_t>(policy))};
    const SiteConfig config = site_config(24, 16, 64.0);
    SiteBlock block{{config}};
    RefSite ref{config.n_servers, config.server};
    std::vector<VmInstance> resident;
    std::int64_t next_id = 0;
    int queries = 0;

    for (int step = 0; step < 4000; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.55) {
        // Place: varied shapes, some memory-heavy so the memory constraint
        // (not just the core bucket) decides fits; occasional zero-core
        // shapes exercise the best-fit tie-break.
        const int cores = rng.chance(0.05)
                              ? 0
                              : static_cast<int>(rng.below(8)) + 1;
        const double mem =
            rng.chance(0.2) ? 48.0 : static_cast<double>(rng.below(24) + 1);
        const auto cls = rng.chance(0.4) ? workload::VmClass::degradable
                                         : workload::VmClass::stable;
        VmInstance vm = make_vm(next_id++, cores, mem, cls);
        vm.server = place_both(block, ref, vm, policy);
        ++queries;
        if (vm.server >= 0) resident.push_back(vm);
      } else if (roll < 0.85 && !resident.empty()) {
        // Remove a random resident VM.
        const std::size_t pick = rng.below(resident.size());
        const VmInstance vm = resident[pick];
        block.remove(0, vm.server, vm.vm_id, vm.shape.cores,
                     vm.shape.memory_gb, degradable(vm));
        ASSERT_TRUE(ref.remove(vm.vm_id).has_value());
        resident[pick] = resident.back();
        resident.pop_back();
      } else {
        // Shrink to a random budget.
        const int budget = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(config.n_servers *
                                       config.server.cores) +
            1));
        std::vector<SiteBlock::Evicted> evicted;
        block.shrink_to(0, budget, evicted);
        const std::vector<VmInstance> ref_evicted = ref.shrink_to(budget);
        ASSERT_EQ(evicted.size(), ref_evicted.size()) << "step " << step;
        for (const SiteBlock::Evicted& e : evicted) {
          const auto it = std::find_if(
              resident.begin(), resident.end(),
              [&](const VmInstance& vm) { return vm.vm_id == e.vm_id; });
          ASSERT_NE(it, resident.end());
          *it = resident.back();
          resident.pop_back();
        }
      }
      ASSERT_EQ(block.allocated_cores(0), ref.allocated_cores());
    }
    EXPECT_GT(queries, 1000);
  }
}

TEST(SiteShrinkRegression, EvictionOrderMatchesSeedRebuildAndSort) {
  util::Rng rng{util::seed_for(2024, "shrink-order")};
  const SiteConfig config = site_config(8, 16, 64.0);
  SiteBlock block{{config}};
  RefSite ref{config.n_servers, config.server};
  std::int64_t next_id = 0;

  for (int round = 0; round < 200; ++round) {
    // Fill with a random mix, placed on both containers.
    for (int p = 0; p < 12; ++p) {
      const int cores = static_cast<int>(rng.below(6)) + 1;
      const auto cls = rng.chance(0.5) ? workload::VmClass::degradable
                                       : workload::VmClass::stable;
      (void)place_both(block, ref, make_vm(next_id++, cores, 4.0, cls),
                       BlockPolicy::first_fit);
    }
    // Shrink to a random budget and compare the exact eviction order.
    const int budget = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(config.n_servers * config.server.cores) +
        1));
    std::vector<SiteBlock::Evicted> evicted;
    block.shrink_to(0, budget, evicted);
    const std::vector<VmInstance> expected = ref.shrink_to(budget);
    ASSERT_EQ(evicted.size(), expected.size()) << "round " << round;
    for (std::size_t i = 0; i < evicted.size(); ++i) {
      EXPECT_EQ(evicted[i].vm_id, expected[i].vm_id)
          << "round " << round << " position " << i;
      EXPECT_EQ(evicted[i].server, expected[i].server);
    }
    EXPECT_EQ(block.allocated_cores(0), ref.allocated_cores());
  }
}

TEST(BestFitTieBreak, NeverStartsAnEmptyServerIfUsedOneFits) {
  // Zero-core VMs leave a used server with every core free — the one case
  // where free cores cannot distinguish it from an empty server. Make
  // server 1 such a server while server 0 is empty: a tie broken by index
  // alone would start server 0.
  const SiteConfig config = site_config(4, 8, 32.0);
  SiteBlock block{{config}};
  RefSite ref{config.n_servers, config.server};
  ASSERT_EQ(
      place_both(block, ref, make_vm(0, 1, 4.0), BlockPolicy::worst_fit), 0);
  ASSERT_EQ(
      place_both(block, ref, make_vm(1, 0, 4.0), BlockPolicy::worst_fit), 1);
  block.remove(0, 0, 0, 1, 4.0, false);
  ASSERT_TRUE(ref.remove(0).has_value());

  // Every server now has all 8 cores free; only server 1 hosts a VM. A
  // zero-core follow-up and a positive-core VM both land there.
  EXPECT_EQ(
      place_both(block, ref, make_vm(2, 0, 4.0), BlockPolicy::best_fit), 1);
  EXPECT_EQ(
      place_both(block, ref, make_vm(3, 2, 4.0), BlockPolicy::best_fit), 1);
  EXPECT_EQ(block.powered_servers(0), 1);
  EXPECT_EQ(ref.powered_servers(), 1);
}

TEST(SitePoweredCounters, TrackPlaceRemoveShrink) {
  SiteBlock block{{site_config(4, 8, 32.0)}};
  EXPECT_EQ(block.powered_servers(0), 0);
  EXPECT_EQ(block.active_cores(0), 0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(block.place(0, i, 2, 4.0, false, BlockPolicy::worst_fit), i);
  }
  EXPECT_EQ(block.powered_servers(0), 4);  // worst-fit spreads
  EXPECT_EQ(block.active_cores(0), 8);
  block.remove(0, 0, 0, 2, 4.0, false);
  EXPECT_EQ(block.powered_servers(0), 3);
  EXPECT_EQ(block.active_cores(0), 6);
  std::vector<SiteBlock::Evicted> evicted;
  block.shrink_to(0, 0, evicted);
  EXPECT_EQ(evicted.size(), 3u);
  EXPECT_EQ(block.powered_servers(0), 0);
  EXPECT_EQ(block.active_cores(0), 0);
}

}  // namespace
}  // namespace vbatt::dcsim
