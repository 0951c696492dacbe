#include "vbatt/fault/invariants.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace vbatt::fault {

void InvariantChecker::check(const core::TickSnapshot& snap,
                             const std::vector<char>& site_down) {
  // Messages are built only on the failing path: the checker runs on every
  // hooked tick, so the passing path allocates nothing.
  const auto fail = [&](const std::string& law) {
    throw std::logic_error{"InvariantChecker: tick " +
                           std::to_string(snap.t) + ": " + law};
  };
  const auto fail_at = [&](const char* law, std::size_t s) {
    fail(law + (" at site " + std::to_string(s)));
  };
  if (snap.available == nullptr || snap.stable_cores == nullptr ||
      snap.degradable_cores == nullptr) {
    fail("missing snapshot arrays");
  }
  const std::size_t n = snap.available->size();
  if (snap.stable_cores->size() != n ||
      snap.degradable_cores->size() != n || site_down.size() != n) {
    fail("snapshot array size mismatch");
  }
  if (snap.displaced_stable_cores < 0) fail("negative displaced total");

  std::int64_t over_budget = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const int stable = (*snap.stable_cores)[s];
    const int degradable = (*snap.degradable_cores)[s];
    const int avail = (*snap.available)[s];
    if (stable < 0) fail_at("negative stable cores", s);
    if (degradable < 0) fail_at("negative degradable cores", s);
    if (site_down[s] != 0) {
      if (avail > 0) fail_at("blacked-out site reports available cores", s);
      if (degradable > 0) {
        fail_at("active degradable VMs on blacked-out site", s);
      }
    }
    over_budget += std::max(0, stable + degradable - std::max(avail, 0));
  }
  // Nothing may run on unpowered cores unaccounted: any excess of served
  // cores over the power budget must appear in the displaced total.
  if (over_budget > snap.displaced_stable_cores) {
    fail("served cores exceed available beyond the displaced total (" +
         std::to_string(over_budget) + " > " +
         std::to_string(snap.displaced_stable_cores) + ")");
  }
  ++checked_ticks_;
}

}  // namespace vbatt::fault
