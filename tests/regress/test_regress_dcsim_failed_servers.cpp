// Directed regression: the linear-scan placement oracle ignored failed
// servers. A failed server keeps its (fully free) entry in the oracle's
// server array but leaves SiteBlock's bucket index, so after fail_servers
// the scan offered servers the indexed choose correctly refused.
// Minimized by: vbatt_fuzz --suite=dcsim --cases=25 --seed=1
#include <gtest/gtest.h>

#include "vbatt/dcsim/site_block.h"
#include "vbatt/testkit/property.h"
#include "vbatt/testkit/ref_site.h"
#include "vbatt/testkit/spec.h"
#include "vbatt/testkit/suites.h"

namespace vbatt::testkit {
namespace {

constexpr const char* kSpec =
    "seed=4951804853814196349;servers=1;ops=4;prop=dcsim.placement_diff";

TEST(DcsimFailedServersRegress, ReplaySpecHolds) {
  const CaseResult result = replay(all_properties(), Spec::parse(kSpec));
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(DcsimFailedServersRegress, ScanSkipsFailedServers) {
  constexpr dcsim::BlockPolicy kPolicies[] = {dcsim::BlockPolicy::first_fit,
                                              dcsim::BlockPolicy::best_fit,
                                              dcsim::BlockPolicy::worst_fit};
  dcsim::SiteConfig config;
  config.n_servers = 2;
  config.server = {8, 32.0};
  std::vector<dcsim::SiteBlock::Evicted> evicted;
  std::int64_t id = 0;
  for (const dcsim::BlockPolicy policy : kPolicies) {
    dcsim::SiteBlock block{{config}};
    RefSite ref{config.n_servers, config.server};
    block.fail_servers(0, 1, evicted);  // server 0 offline, server 1 healthy
    (void)ref.fail_servers(1);

    dcsim::VmInstance vm;
    vm.vm_id = id++;
    vm.shape = {4, 16.0};
    ASSERT_TRUE(ref.place(vm, policy));
    EXPECT_EQ(ref.find(vm.vm_id)->server, 1);
    EXPECT_EQ(block.place(0, vm.vm_id, 4, 16.0, false, policy), 1);

    // With every server failed, both sides must refuse.
    block.fail_servers(0, 1, evicted);
    (void)ref.fail_servers(1);
    vm.vm_id = id++;
    EXPECT_FALSE(ref.place(vm, policy));
    EXPECT_EQ(block.place(0, vm.vm_id, 4, 16.0, false, policy), -1);
  }
}

}  // namespace
}  // namespace vbatt::testkit
