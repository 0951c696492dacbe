// SiteBlock's contract is exact behavioral equality with the frozen
// linear-scan testkit::RefSite. These tests drive a SiteBlock and one
// RefSite per block site through identical randomized op streams (place
// under all three policies, remove, shrink, fail, repair) and demand
// identical server choices, eviction orders, and counters at every step —
// including block-internal base-offset handling, which only shows up when
// the block holds several sites of different sizes.
#include "vbatt/dcsim/site_block.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "vbatt/testkit/ref_site.h"
#include "vbatt/util/rng.h"

namespace vbatt::dcsim {
namespace {

using testkit::RefSite;

VmInstance make_vm(std::int64_t id, int cores, double mem,
                   workload::VmClass cls) {
  VmInstance v;
  v.vm_id = id;
  v.shape = {cores, mem};
  v.vm_class = cls;
  return v;
}

struct Resident {
  std::int64_t vm_id;
  int cores;
  double memory_gb;
  bool degradable;
  int server;
};

/// Op mix of one differential stream: cumulative roll thresholds for
/// place / remove / shrink / fail (the rest repairs), and how a shrink
/// picks its budget.
struct OpMix {
  double place = 0.50;
  double remove = 0.75;
  double shrink = 0.90;
  double fail = 0.95;
  /// Budget = allocated cores minus up to this many cores (a near miss
  /// that evicts a VM or two), or -1 for uniform in [0, total cores].
  int shave = -1;
};

/// Per site: shrink calls that started over budget (each advances the
/// eviction cursor by one), and the occupied share of the site's servers
/// summed over those calls.
struct ShrinkTally {
  std::vector<int> over_budget;
  std::vector<double> occupied_share;
};

/// Drive a SiteBlock and one RefSite per entry of `server_counts` through
/// the same random op stream and demand identical answers throughout.
/// (void so the ASSERTs can return; the tally comes back through `tally`.)
void run_differential(const std::vector<int>& server_counts,
                      const char* seed_name, int steps, const OpMix& mix,
                      ShrinkTally& tally) {
  tally.over_budget.assign(server_counts.size(), 0);
  tally.occupied_share.assign(server_counts.size(), 0.0);
  std::vector<SiteConfig> configs;
  std::vector<RefSite> sites;
  for (const int n : server_counts) {
    SiteConfig config;
    config.n_servers = n;
    config.server = {16, 64.0};
    configs.push_back(config);
    sites.emplace_back(n, config.server);
  }
  SiteBlock block{configs};
  ASSERT_EQ(block.n_sites(), sites.size());

  util::Rng rng{util::seed_for(2026, seed_name)};
  std::vector<std::vector<Resident>> residents(sites.size());
  std::int64_t next_id = 0;
  std::vector<SiteBlock::Evicted> evicted;

  for (int step = 0; step < steps; ++step) {
    const auto s = static_cast<std::size_t>(rng.below(sites.size()));
    RefSite& site = sites[s];
    std::vector<Resident>& live = residents[s];
    const double roll = rng.uniform();

    if (roll < mix.place) {
      // Place with a random policy; both containers must agree on the
      // server (or both refuse).
      const int cores =
          rng.chance(0.05) ? 0 : static_cast<int>(rng.below(8)) + 1;
      const double mem =
          rng.chance(0.2) ? 48.0 : static_cast<double>(rng.below(24) + 1);
      const bool degradable = rng.chance(0.4);
      const auto policy = static_cast<BlockPolicy>(rng.below(3));
      const int got = block.place(s, next_id, cores, mem, degradable, policy);
      const bool placed = site.place(
          make_vm(next_id, cores, mem,
                  degradable ? workload::VmClass::degradable
                             : workload::VmClass::stable),
          policy);
      if (placed) {
        const VmInstance* vm = site.find(next_id);
        ASSERT_NE(vm, nullptr);
        ASSERT_EQ(got, vm->server) << "step " << step << " site " << s;
        live.push_back({next_id, cores, mem, degradable, vm->server});
      } else {
        ASSERT_EQ(got, -1) << "step " << step << " site " << s;
      }
      ++next_id;
    } else if (roll < mix.remove && !live.empty()) {
      const std::size_t pick = rng.below(live.size());
      const Resident r = live[pick];
      const std::optional<VmInstance> gone = site.remove(r.vm_id);
      ASSERT_TRUE(gone.has_value());
      block.remove(s, r.server, r.vm_id, r.cores, r.memory_gb, r.degradable);
      live[pick] = live.back();
      live.pop_back();
    } else if (roll < mix.shrink) {
      const int budget =
          mix.shave < 0
              ? static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(server_counts[s] * 16) + 1))
              : std::max(0, site.allocated_cores() -
                                static_cast<int>(rng.below(
                                    static_cast<std::uint64_t>(mix.shave) +
                                    1)));
      if (site.allocated_cores() > budget) {
        ++tally.over_budget[s];
        tally.occupied_share[s] += static_cast<double>(site.powered_servers()) /
                                   static_cast<double>(server_counts[s]);
      }
      const std::vector<VmInstance> site_evicted = site.shrink_to(budget);
      evicted.clear();
      block.shrink_to(s, budget, evicted);
      ASSERT_EQ(evicted.size(), site_evicted.size()) << "step " << step;
      for (std::size_t i = 0; i < evicted.size(); ++i) {
        EXPECT_EQ(evicted[i].vm_id, site_evicted[i].vm_id)
            << "step " << step << " eviction " << i;
        EXPECT_EQ(evicted[i].server, site_evicted[i].server);
        EXPECT_EQ(evicted[i].cores, site_evicted[i].shape.cores);
        EXPECT_EQ(evicted[i].memory_gb, site_evicted[i].shape.memory_gb);
        EXPECT_EQ(evicted[i].degradable,
                  site_evicted[i].vm_class == workload::VmClass::degradable);
        std::erase_if(live, [&](const Resident& r) {
          return r.vm_id == evicted[i].vm_id;
        });
      }
    } else if (roll < mix.fail) {
      const int count = 1 + static_cast<int>(rng.below(2));
      const std::vector<VmInstance> site_evicted = site.fail_servers(count);
      evicted.clear();
      block.fail_servers(s, count, evicted);
      ASSERT_EQ(evicted.size(), site_evicted.size()) << "step " << step;
      for (std::size_t i = 0; i < evicted.size(); ++i) {
        EXPECT_EQ(evicted[i].vm_id, site_evicted[i].vm_id)
            << "step " << step << " outage eviction " << i;
        EXPECT_EQ(evicted[i].server, site_evicted[i].server);
        std::erase_if(live, [&](const Resident& r) {
          return r.vm_id == evicted[i].vm_id;
        });
      }
    } else {
      const int count = 1 + static_cast<int>(rng.below(2));
      site.repair_servers(count);
      block.repair_servers(s, count);
    }

    // Counters must agree after every operation, on every site.
    for (std::size_t k = 0; k < sites.size(); ++k) {
      ASSERT_EQ(block.allocated_cores(k), sites[k].allocated_cores())
          << "step " << step << " site " << k;
      ASSERT_EQ(block.allocated_memory_gb(k),
                sites[k].allocated_memory_gb());
      ASSERT_EQ(block.powered_servers(k), sites[k].powered_servers());
      ASSERT_EQ(block.active_cores(k), sites[k].allocated_cores());
      ASSERT_EQ(block.failed_servers(k), sites[k].failed_servers());
    }
  }
}

TEST(SiteBlockDifferential, MatchesRefSiteUnderRandomChurn) {
  // Different server counts per site so base offsets and bitset word
  // counts differ across the block.
  ShrinkTally tally;
  run_differential({24, 7, 65, 1}, "site-block-differential", 8000, {},
                   tally);
}

TEST(SiteBlockDifferential, MatchesRefSiteOnSparseSitesAcrossCursorWrap) {
  // Few residents on many servers, so most servers a shrink walks past
  // are empty, and near-miss budgets that evict a VM or two per call, so
  // the eviction cursor advances on almost every shrink and wraps every
  // site several times. Sites straddle 64-server word boundaries.
  OpMix sparse;
  sparse.place = 0.35;
  sparse.remove = 0.55;
  sparse.shrink = 0.97;
  sparse.fail = 0.985;
  sparse.shave = 6;
  const std::vector<int> servers{130, 64, 3, 200, 65};
  ShrinkTally tally;
  run_differential(servers, "site-block-sparse", 12000, sparse, tally);
  ASSERT_FALSE(HasFatalFailure());
  for (std::size_t k = 0; k < servers.size(); ++k) {
    EXPECT_GT(tally.over_budget[k], 2 * servers[k]) << "site " << k;
    if (servers[k] >= 64) {
      EXPECT_LT(tally.occupied_share[k] / tally.over_budget[k], 0.25)
          << "site " << k;
    }
  }
}

TEST(SiteBlock, EmptyBlockIsInert) {
  const SiteBlock block{{}};
  EXPECT_EQ(block.n_sites(), 0u);
}

TEST(SiteBlock, RejectsMixedServerSpecs) {
  SiteConfig a;
  a.n_servers = 4;
  a.server = {16, 64.0};
  SiteConfig b = a;
  b.server = {8, 64.0};
  EXPECT_THROW((SiteBlock{{a, b}}), std::invalid_argument);
}

TEST(SiteBlock, FailedServersAreInvisibleUntilRepair) {
  SiteConfig config;
  config.n_servers = 2;
  config.server = {8, 32.0};
  SiteBlock block{{config}};
  std::vector<SiteBlock::Evicted> evicted;
  block.fail_servers(0, 1, evicted);  // takes server 0 offline
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(block.place(0, 1, 2, 4.0, false, BlockPolicy::first_fit), 1);
  block.fail_servers(0, 1, evicted);  // server 1, evicting the resident
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].vm_id, 1);
  EXPECT_EQ(block.place(0, 2, 2, 4.0, false, BlockPolicy::first_fit), -1);
  block.repair_servers(0, 2);
  EXPECT_EQ(block.failed_servers(0), 0);
  EXPECT_EQ(block.place(0, 2, 2, 4.0, false, BlockPolicy::first_fit), 0);
}

}  // namespace
}  // namespace vbatt::dcsim
