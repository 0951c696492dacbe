// Migration traffic ledger.
//
// Both simulators (single-site Fig. 4 and multi-site Table 1) report their
// results as per-site, per-tick inbound/outbound migration volume in GB;
// this type is the single accounting sink they share.
//
// Storage is sparse: each site keeps one out and one in list of
// (tick, GB) cells in ascending tick order, and a (site, tick) that never
// saw a migration takes no memory. The ledger therefore grows with the
// number of migration cells, not with sites × ticks (a 250-site × 90-day
// fleet fills ~1% of its cells). The series accessors expand a site to the
// dense per-tick vector, bit for bit what a dense matrix accumulating the
// same calls in the same order would hold.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "vbatt/util/time.h"

namespace vbatt::net {

/// Per-(site, tick) in/out transfer accounting, GB.
class MigrationLedger {
 public:
  /// One recorded (tick, volume) cell of a site's out or in series.
  struct Cell {
    util::Tick tick = 0;
    double gb = 0.0;
  };

  MigrationLedger(std::size_t n_sites, std::size_t n_ticks);

  std::size_t n_sites() const noexcept { return n_sites_; }
  std::size_t n_ticks() const noexcept { return n_ticks_; }

  /// Record `gb` leaving `site` at tick `t` (bounds-checked; a negative
  /// volume throws std::invalid_argument, a bad cell std::out_of_range).
  /// Calls on one cell accumulate in call order.
  void record_out(std::size_t site, util::Tick t, double gb);
  /// Record `gb` arriving at `site` at tick `t`.
  void record_in(std::size_t site, util::Tick t, double gb);

  /// Whole out/in series for one site (n_ticks() long, zero where nothing
  /// was recorded).
  std::vector<double> out_series(std::size_t site) const;
  std::vector<double> in_series(std::size_t site) const;

  /// The recorded cells of one site, ascending by tick, one per tick. A
  /// cell may hold 0.0 (an explicit zero-volume record).
  std::span<const Cell> out_cells(std::size_t site) const;
  std::span<const Cell> in_cells(std::size_t site) const;

 private:
  void check(std::size_t site, util::Tick t) const;
  void record(std::vector<Cell>& cells, util::Tick t, double gb);
  std::vector<double> expand(const std::vector<Cell>& cells) const;

  std::size_t n_sites_;
  std::size_t n_ticks_;
  std::vector<std::vector<Cell>> out_;  // [site], ascending tick
  std::vector<std::vector<Cell>> in_;
};

}  // namespace vbatt::net
