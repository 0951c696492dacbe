// Frozen linear-scan site — the one oracle for dcsim::SiteBlock.
//
// A flat server array with O(n_servers) placement scans and a shrink_to
// that rebuilds and sorts a by-server table on every call: the pre-index
// site, kept as an executable specification of each policy's exact
// semantics (tie-breaks included). It is never used on a production path.
// Its users: reference_vm_run (the VM-level engine oracle),
// tests/test_dcsim_site_block.cpp and the dcsim.placement_diff fuzz
// property, which drive a SiteBlock and a RefSite through identical op
// streams and demand identical server ids, eviction lists and counters.
// Failed servers keep their (fully free) entry in servers() but are never
// placement candidates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "vbatt/dcsim/site_block.h"
#include "vbatt/dcsim/site_sim.h"

namespace vbatt::testkit {

struct RefServer {
  int free_cores = 0;
  double free_memory_gb = 0.0;
  int vm_count = 0;
  bool failed = false;  // offline (server outage) until repaired
};

class RefSite {
 public:
  RefSite(int n_servers, const dcsim::ServerSpec& server) {
    servers_.assign(static_cast<std::size_t>(n_servers),
                    RefServer{server.cores, server.memory_gb, 0, false});
  }

  int allocated_cores() const { return allocated_cores_; }
  double allocated_memory_gb() const { return allocated_memory_gb_; }
  const std::vector<RefServer>& servers() const { return servers_; }

  /// Servers hosting at least one VM.
  int powered_servers() const {
    return static_cast<int>(std::count_if(
        servers_.begin(), servers_.end(),
        [](const RefServer& s) { return s.vm_count > 0; }));
  }
  int failed_servers() const {
    return static_cast<int>(std::count_if(
        servers_.begin(), servers_.end(),
        [](const RefServer& s) { return s.failed; }));
  }

  /// A resident VM (its `server` is the hosting server), or nullptr.
  const dcsim::VmInstance* find(std::int64_t vm_id) const {
    const auto it = vms_.find(vm_id);
    return it == vms_.end() ? nullptr : &it->second;
  }

  /// Place under `policy`; false when no healthy server fits.
  bool place(const dcsim::VmInstance& vm, dcsim::BlockPolicy policy) {
    // One scan for every policy: first fit takes the first healthy server
    // with room; best fit the least free cores, worst fit the most, ties
    // to the lowest index — except that best fit prefers a server already
    // hosting VMs over an empty one (never start an empty server if a
    // used one fits). That tie-break only fires once zero-core VMs are
    // resident: only they leave a used server with every core free.
    std::optional<int> best;
    int best_free = 0;
    bool best_used = false;
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      const RefServer& s = servers_[i];
      if (s.failed || s.free_cores < vm.shape.cores ||
          s.free_memory_gb < vm.shape.memory_gb) {
        continue;
      }
      const bool used = s.vm_count > 0;
      const bool better =
          !best ||
          (policy == dcsim::BlockPolicy::best_fit &&
           ((used && !best_used) ||
            (used == best_used && s.free_cores < best_free))) ||
          (policy == dcsim::BlockPolicy::worst_fit &&
           s.free_cores > best_free);
      if (better) {
        best = static_cast<int>(i);
        best_free = s.free_cores;
        best_used = used;
      }
      if (policy == dcsim::BlockPolicy::first_fit) break;
    }
    if (!best) return false;
    RefServer& s = servers_[static_cast<std::size_t>(*best)];
    s.free_cores -= vm.shape.cores;
    s.free_memory_gb -= vm.shape.memory_gb;
    ++s.vm_count;
    allocated_cores_ += vm.shape.cores;
    allocated_memory_gb_ += vm.shape.memory_gb;
    dcsim::VmInstance placed = vm;
    placed.server = *best;
    vms_.emplace(vm.vm_id, placed);
    return true;
  }

  std::optional<dcsim::VmInstance> remove(std::int64_t vm_id) {
    const auto it = vms_.find(vm_id);
    if (it == vms_.end()) return std::nullopt;
    const dcsim::VmInstance vm = it->second;
    detach(vm);
    vms_.erase(it);
    return vm;
  }

  /// Evict round-robin from the persistent cursor until allocated cores
  /// <= available_cores; per server degradable first, then vm_id. The
  /// cursor advances by one only when the call started over budget.
  std::vector<dcsim::VmInstance> shrink_to(int available_cores) {
    std::vector<dcsim::VmInstance> evicted;
    if (allocated_cores_ <= available_cores) return evicted;
    std::vector<std::vector<const dcsim::VmInstance*>> by_server =
        residents_by_server();
    const int n = static_cast<int>(servers_.size());
    std::vector<std::int64_t> victim_ids;
    for (int step = 0; step < n && allocated_cores_ > available_cores;
         ++step) {
      const auto server =
          static_cast<std::size_t>((eviction_cursor_ + step) % n);
      for (const dcsim::VmInstance* vm : by_server[server]) {
        if (allocated_cores_ <= available_cores) break;
        victim_ids.push_back(vm->vm_id);
        evicted.push_back(*vm);
        detach(*vm);
      }
      by_server[server].clear();
    }
    eviction_cursor_ = (eviction_cursor_ + 1) % n;
    for (const std::int64_t id : victim_ids) vms_.erase(id);
    return evicted;
  }

  /// Take `count` healthy servers offline, lowest index first, evicting
  /// every resident in victim order.
  std::vector<dcsim::VmInstance> fail_servers(int count) {
    std::vector<dcsim::VmInstance> evicted;
    const std::vector<std::vector<const dcsim::VmInstance*>> by_server =
        residents_by_server();
    std::vector<std::int64_t> victim_ids;
    for (std::size_t i = 0; i < servers_.size() && count > 0; ++i) {
      if (servers_[i].failed) continue;
      --count;
      for (const dcsim::VmInstance* vm : by_server[i]) {
        victim_ids.push_back(vm->vm_id);
        evicted.push_back(*vm);
        detach(*vm);
      }
      servers_[i].failed = true;
    }
    for (const std::int64_t id : victim_ids) vms_.erase(id);
    return evicted;
  }

  /// Return `count` failed servers to service, lowest index first.
  void repair_servers(int count) {
    for (std::size_t i = 0; i < servers_.size() && count > 0; ++i) {
      if (!servers_[i].failed) continue;
      --count;
      servers_[i].failed = false;
    }
  }

 private:
  /// Eviction order within a server: degradable before stable, then vm_id.
  static bool victim_before(const dcsim::VmInstance* a,
                            const dcsim::VmInstance* b) {
    if (a->vm_class != b->vm_class) {
      return a->vm_class == workload::VmClass::degradable;
    }
    return a->vm_id < b->vm_id;
  }

  std::vector<std::vector<const dcsim::VmInstance*>> residents_by_server()
      const {
    std::vector<std::vector<const dcsim::VmInstance*>> by_server(
        servers_.size());
    for (const auto& [id, vm] : vms_) {
      by_server[static_cast<std::size_t>(vm.server)].push_back(&vm);
    }
    for (auto& list : by_server) {
      std::sort(list.begin(), list.end(), victim_before);
    }
    return by_server;
  }

  void detach(const dcsim::VmInstance& vm) {
    RefServer& s = servers_[static_cast<std::size_t>(vm.server)];
    s.free_cores += vm.shape.cores;
    s.free_memory_gb += vm.shape.memory_gb;
    --s.vm_count;
    allocated_cores_ -= vm.shape.cores;
    allocated_memory_gb_ -= vm.shape.memory_gb;
  }

  std::vector<RefServer> servers_;
  std::unordered_map<std::int64_t, dcsim::VmInstance> vms_;
  int allocated_cores_ = 0;
  double allocated_memory_gb_ = 0.0;
  int eviction_cursor_ = 0;
};

}  // namespace vbatt::testkit
