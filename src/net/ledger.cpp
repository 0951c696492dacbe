#include "vbatt/net/ledger.h"

#include <algorithm>
#include <stdexcept>

namespace vbatt::net {

MigrationLedger::MigrationLedger(std::size_t n_sites, std::size_t n_ticks)
    : n_sites_{n_sites}, n_ticks_{n_ticks} {
  if (n_sites == 0 || n_ticks == 0) {
    throw std::invalid_argument{"MigrationLedger: empty dimensions"};
  }
  out_.resize(n_sites);
  in_.resize(n_sites);
}

void MigrationLedger::check(std::size_t site, util::Tick t) const {
  if (site >= n_sites_ || t < 0 ||
      static_cast<std::size_t>(t) >= n_ticks_) {
    throw std::out_of_range{"MigrationLedger: bad (site, tick)"};
  }
}

void MigrationLedger::record(std::vector<Cell>& cells, util::Tick t,
                             double gb) {
  // A new cell starts as 0.0 + gb, as a zero-filled dense cell would, so
  // a recorded -0.0 reads back as +0.0.
  if (cells.empty() || cells.back().tick < t) {
    cells.push_back({t, 0.0 + gb});
    return;
  }
  if (cells.back().tick == t) {
    cells.back().gb += gb;
    return;
  }
  const auto it = std::lower_bound(
      cells.begin(), cells.end(), t,
      [](const Cell& c, util::Tick tick) { return c.tick < tick; });
  if (it->tick == t) {
    it->gb += gb;
  } else {
    cells.insert(it, {t, 0.0 + gb});
  }
}

void MigrationLedger::record_out(std::size_t site, util::Tick t, double gb) {
  if (gb < 0.0) throw std::invalid_argument{"record_out: negative volume"};
  check(site, t);
  record(out_[site], t, gb);
}

void MigrationLedger::record_in(std::size_t site, util::Tick t, double gb) {
  if (gb < 0.0) throw std::invalid_argument{"record_in: negative volume"};
  check(site, t);
  record(in_[site], t, gb);
}

std::vector<double> MigrationLedger::expand(
    const std::vector<Cell>& cells) const {
  std::vector<double> series(n_ticks_, 0.0);
  for (const Cell& c : cells) series[static_cast<std::size_t>(c.tick)] = c.gb;
  return series;
}

std::vector<double> MigrationLedger::out_series(std::size_t site) const {
  check(site, 0);
  return expand(out_[site]);
}

std::vector<double> MigrationLedger::in_series(std::size_t site) const {
  check(site, 0);
  return expand(in_[site]);
}

std::span<const MigrationLedger::Cell> MigrationLedger::out_cells(
    std::size_t site) const {
  check(site, 0);
  return out_[site];
}

std::span<const MigrationLedger::Cell> MigrationLedger::in_cells(
    std::size_t site) const {
  check(site, 0);
  return in_[site];
}

}  // namespace vbatt::net
