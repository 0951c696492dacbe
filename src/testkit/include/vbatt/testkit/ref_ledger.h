// Frozen dense migration ledger — the one oracle for net::MigrationLedger.
//
// Two zero-filled site × tick matrices of doubles, one per direction, each
// record adding into its cell: the pre-sparse ledger, kept as an executable
// specification of what every out_series/in_series must read back (cell
// accumulation order, +0.0 for untouched and -0.0-only cells) and of which
// inputs throw what. It is never used on a production path. Its one user
// is the sim.ledger_parity fuzz property, which feeds both ledgers
// identical record sequences and demands bitwise-equal series and
// identical exceptions.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "vbatt/util/time.h"

namespace vbatt::testkit {

class RefLedger {
 public:
  RefLedger(std::size_t n_sites, std::size_t n_ticks)
      : n_sites_{n_sites}, n_ticks_{n_ticks} {
    if (n_sites == 0 || n_ticks == 0) {
      throw std::invalid_argument{"MigrationLedger: empty dimensions"};
    }
    out_.resize(n_sites * n_ticks, 0.0);
    in_.resize(n_sites * n_ticks, 0.0);
  }

  std::size_t n_sites() const noexcept { return n_sites_; }
  std::size_t n_ticks() const noexcept { return n_ticks_; }

  void record_out(std::size_t site, util::Tick t, double gb) {
    if (gb < 0.0) throw std::invalid_argument{"record_out: negative volume"};
    out_[index(site, t)] += gb;
  }

  void record_in(std::size_t site, util::Tick t, double gb) {
    if (gb < 0.0) throw std::invalid_argument{"record_in: negative volume"};
    in_[index(site, t)] += gb;
  }

  std::vector<double> out_series(std::size_t site) const {
    const std::size_t base = index(site, 0);
    return {out_.begin() + static_cast<std::ptrdiff_t>(base),
            out_.begin() + static_cast<std::ptrdiff_t>(base + n_ticks_)};
  }

  std::vector<double> in_series(std::size_t site) const {
    const std::size_t base = index(site, 0);
    return {in_.begin() + static_cast<std::ptrdiff_t>(base),
            in_.begin() + static_cast<std::ptrdiff_t>(base + n_ticks_)};
  }

 private:
  std::size_t index(std::size_t site, util::Tick t) const {
    if (site >= n_sites_ || t < 0 ||
        static_cast<std::size_t>(t) >= n_ticks_) {
      throw std::out_of_range{"MigrationLedger: bad (site, tick)"};
    }
    return site * n_ticks_ + static_cast<std::size_t>(t);
  }

  std::size_t n_sites_;
  std::size_t n_ticks_;
  std::vector<double> out_;
  std::vector<double> in_;
};

}  // namespace vbatt::testkit
