// One-site behaviour of dcsim::SiteBlock: placement, power shrink, server
// outages and repair.
#include "vbatt/dcsim/site_block.h"

#include <gtest/gtest.h>

#include <vector>

namespace vbatt::dcsim {
namespace {

SiteBlock small_site(int servers = 4, int cores = 8, double mem = 32.0) {
  SiteConfig config;
  config.n_servers = servers;
  config.server = {cores, mem};
  return SiteBlock{{config}};
}

/// Place vm `id` on site 0; returns the server id or -1.
int place(SiteBlock& site, std::int64_t id, int cores = 2, double mem = 8.0,
          bool degradable = false,
          BlockPolicy policy = BlockPolicy::first_fit) {
  return site.place(0, id, cores, mem, degradable, policy);
}

std::vector<SiteBlock::Evicted> shrink(SiteBlock& site, int available) {
  std::vector<SiteBlock::Evicted> out;
  site.shrink_to(0, available, out);
  return out;
}

std::vector<SiteBlock::Evicted> fail(SiteBlock& site, int count) {
  std::vector<SiteBlock::Evicted> out;
  site.fail_servers(0, count, out);
  return out;
}

TEST(OneSiteBlock, ValidatesConfig) {
  EXPECT_THROW(small_site(0), std::invalid_argument);
  EXPECT_THROW(small_site(4, 0), std::invalid_argument);
  EXPECT_THROW(small_site(4, 8, 0.0), std::invalid_argument);
}

TEST(OneSiteBlock, PlaceAndRemove) {
  SiteBlock site = small_site();
  EXPECT_EQ(place(site, 1), 0);
  EXPECT_EQ(site.allocated_cores(0), 2);
  EXPECT_DOUBLE_EQ(site.allocated_memory_gb(0), 8.0);
  EXPECT_EQ(site.powered_servers(0), 1);

  site.remove(0, 0, 1, 2, 8.0, false);
  EXPECT_EQ(site.allocated_cores(0), 0);
  EXPECT_DOUBLE_EQ(site.allocated_memory_gb(0), 0.0);
  EXPECT_EQ(site.powered_servers(0), 0);
}

TEST(OneSiteBlock, PlacementFailsWhenFull) {
  SiteBlock site = small_site(1, 4);
  EXPECT_EQ(place(site, 1, 4), 0);
  EXPECT_EQ(place(site, 2, 1), -1);
}

TEST(OneSiteBlock, MemoryConstrainsPlacement) {
  SiteBlock site = small_site(1, 8, 16.0);
  EXPECT_EQ(place(site, 1, 1, 12.0), 0);
  EXPECT_EQ(place(site, 2, 1, 8.0), -1);  // cores fit, memory not
}

TEST(OneSiteBlock, ShrinkPowersDownIdleCoresFirst) {
  SiteBlock site = small_site(4, 8);
  ASSERT_GE(place(site, 1, 4), 0);
  // Plenty of allocated headroom: shrinking to 4 evicts nothing.
  EXPECT_TRUE(shrink(site, 4).empty());
  EXPECT_EQ(site.allocated_cores(0), 4);
}

TEST(OneSiteBlock, ShrinkEvictsWhenNeeded) {
  SiteBlock site = small_site(2, 8);
  for (int i = 0; i < 4; ++i) {
    ASSERT_GE(place(site, i, 4, 8.0, false, BlockPolicy::best_fit), 0);
  }
  ASSERT_EQ(site.allocated_cores(0), 16);
  const auto evicted = shrink(site, 8);
  EXPECT_EQ(site.allocated_cores(0), 8);
  EXPECT_EQ(evicted.size(), 2u);
}

TEST(OneSiteBlock, ShrinkEvictsDegradableFirst) {
  SiteBlock site = small_site(1, 8);
  ASSERT_GE(place(site, 1, 4, 8.0, false), 0);
  ASSERT_GE(place(site, 2, 4, 8.0, true), 0);
  const auto evicted = shrink(site, 4);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].vm_id, 2);  // degradable went first
  EXPECT_TRUE(evicted[0].degradable);
  EXPECT_EQ(site.allocated_cores(0), 4);
}

TEST(OneSiteBlock, ShrinkToZeroEvictsEverything) {
  SiteBlock site = small_site();
  for (int i = 0; i < 6; ++i) ASSERT_GE(place(site, i), 0);
  const auto evicted = shrink(site, 0);
  EXPECT_EQ(evicted.size(), 6u);
  EXPECT_EQ(site.allocated_cores(0), 0);
  EXPECT_EQ(site.powered_servers(0), 0);
}

TEST(OneSiteBlock, FailServersEvictsResidentsDegradableFirst) {
  SiteBlock site = small_site(2, 8);
  ASSERT_EQ(place(site, 1, 4, 8.0, false), 0);
  ASSERT_EQ(place(site, 2, 4, 8.0, true), 0);
  ASSERT_EQ(place(site, 3, 4), 1);

  const auto evicted = fail(site, 1);  // server 0 (lowest index)
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0].vm_id, 2);  // degradable first
  EXPECT_EQ(evicted[1].vm_id, 1);
  EXPECT_EQ(evicted[0].server, 0);
  EXPECT_EQ(site.failed_servers(0), 1);
  EXPECT_EQ(site.allocated_cores(0), 4);  // vm 3 still resident
}

TEST(OneSiteBlock, FailedServersAreNotPlaceable) {
  SiteBlock site = small_site(2, 8);
  (void)fail(site, 1);
  // Only server 1 can host anything now; the 8-core VM fills it and the
  // next placement must fail even though server 0 looks empty.
  EXPECT_EQ(place(site, 1, 8), 1);
  EXPECT_EQ(place(site, 2, 1), -1);
}

TEST(OneSiteBlock, RepairReturnsServersToService) {
  SiteBlock site = small_site(2, 8);
  (void)fail(site, 2);
  EXPECT_EQ(site.failed_servers(0), 2);
  EXPECT_EQ(place(site, 1, 1), -1);

  site.repair_servers(0, 1);
  EXPECT_EQ(site.failed_servers(0), 1);
  EXPECT_EQ(place(site, 2, 2), 0);

  site.repair_servers(0, 5);  // over-repair clamps to what is failed
  EXPECT_EQ(site.failed_servers(0), 0);
  EXPECT_EQ(place(site, 3, 8), 1);
}

TEST(OneSiteBlock, FailMoreServersThanHealthyClamps) {
  SiteBlock site = small_site(2, 8);
  ASSERT_GE(place(site, 1, 2), 0);
  const auto evicted = fail(site, 10);
  EXPECT_EQ(evicted.size(), 1u);
  EXPECT_EQ(site.failed_servers(0), 2);
  EXPECT_EQ(site.allocated_cores(0), 0);
  // Idempotent: nothing healthy left to fail.
  EXPECT_TRUE(fail(site, 1).empty());
  EXPECT_EQ(site.failed_servers(0), 2);
}

TEST(OneSiteBlock, FailRepairKeepsShrinkConsistent) {
  SiteBlock site = small_site(3, 8);
  ASSERT_EQ(place(site, 1, 4), 0);
  ASSERT_EQ(fail(site, 1).size(), 1u);

  // Shrink math still works with a failed server out of the index.
  ASSERT_EQ(place(site, 2, 4), 1);
  ASSERT_EQ(place(site, 3, 4), 1);
  const auto shrunk = shrink(site, 4);
  EXPECT_EQ(shrunk.size(), 1u);
  EXPECT_EQ(site.allocated_cores(0), 4);

  site.repair_servers(0, 1);
  EXPECT_EQ(site.failed_servers(0), 0);
  EXPECT_EQ(place(site, 4, 8), 0);  // repaired server usable again
}

TEST(AllocationPolicies, BestFitConsolidates) {
  SiteBlock site = small_site(3, 8);
  ASSERT_GE(place(site, 1, 4, 8.0, false, BlockPolicy::best_fit), 0);
  // Next VM should land on the same (fullest) server, not an empty one.
  ASSERT_GE(place(site, 2, 2, 8.0, false, BlockPolicy::best_fit), 0);
  EXPECT_EQ(site.powered_servers(0), 1);
}

TEST(AllocationPolicies, WorstFitSpreads) {
  SiteBlock site = small_site(3, 8);
  ASSERT_GE(place(site, 1, 4, 8.0, false, BlockPolicy::worst_fit), 0);
  ASSERT_GE(place(site, 2, 4, 8.0, false, BlockPolicy::worst_fit), 0);
  EXPECT_EQ(site.powered_servers(0), 2);
}

TEST(AllocationPolicies, AllRefuseWhenNothingFits) {
  SiteBlock site = small_site(2, 2);
  for (const BlockPolicy policy : {BlockPolicy::first_fit,
                                   BlockPolicy::best_fit,
                                   BlockPolicy::worst_fit}) {
    EXPECT_EQ(place(site, 1, 16, 8.0, false, policy), -1);
  }
  EXPECT_EQ(site.allocated_cores(0), 0);
}

}  // namespace
}  // namespace vbatt::dcsim
