#include "vbatt/net/ledger.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vbatt::net {
namespace {

TEST(Ledger, ValidatesConstruction) {
  EXPECT_THROW(MigrationLedger(0, 10), std::invalid_argument);
  EXPECT_THROW(MigrationLedger(3, 0), std::invalid_argument);
}

TEST(Ledger, RecordAndQuery) {
  MigrationLedger ledger{2, 5};
  ledger.record_out(0, 2, 10.0);
  ledger.record_in(1, 2, 10.0);
  ledger.record_out(0, 2, 5.0);  // accumulates
  EXPECT_EQ(ledger.out_series(0),
            (std::vector<double>{0.0, 0.0, 15.0, 0.0, 0.0}));
  EXPECT_EQ(ledger.in_series(1),
            (std::vector<double>{0.0, 0.0, 10.0, 0.0, 0.0}));
  EXPECT_EQ(ledger.out_series(1), std::vector<double>(5, 0.0));
  EXPECT_EQ(ledger.in_series(0), std::vector<double>(5, 0.0));
}

TEST(Ledger, BoundsChecked) {
  MigrationLedger ledger{2, 5};
  EXPECT_THROW(ledger.record_out(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(ledger.record_out(0, 5, 1.0), std::out_of_range);
  EXPECT_THROW(ledger.record_out(0, -1, 1.0), std::out_of_range);
  EXPECT_THROW(ledger.record_in(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(ledger.record_out(0, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(ledger.record_in(0, 0, -1.0), std::invalid_argument);
  // The volume is checked before the cell.
  EXPECT_THROW(ledger.record_in(2, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(ledger.out_series(2)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(ledger.in_series(2)), std::out_of_range);
  // A rejected record leaves nothing behind.
  EXPECT_EQ(ledger.out_series(0), std::vector<double>(5, 0.0));
  EXPECT_EQ(ledger.in_series(0), std::vector<double>(5, 0.0));
}

TEST(Ledger, Series) {
  MigrationLedger ledger{2, 3};
  ledger.record_out(1, 0, 1.0);
  ledger.record_out(1, 2, 3.0);
  EXPECT_EQ(ledger.out_series(1), (std::vector<double>{1.0, 0.0, 3.0}));
  EXPECT_EQ(ledger.in_series(1), (std::vector<double>{0.0, 0.0, 0.0}));
}

TEST(Ledger, TotalsAcrossSites) {
  // Per-site series keep each site's traffic apart; summing them per tick
  // gives the fleet totals.
  MigrationLedger ledger{3, 2};
  ledger.record_out(0, 0, 1.0);
  ledger.record_out(1, 0, 2.0);
  ledger.record_out(2, 1, 4.0);
  ledger.record_in(1, 1, 7.0);
  EXPECT_EQ(ledger.out_series(0), (std::vector<double>{1.0, 0.0}));
  EXPECT_EQ(ledger.out_series(1), (std::vector<double>{2.0, 0.0}));
  EXPECT_EQ(ledger.out_series(2), (std::vector<double>{0.0, 4.0}));
  EXPECT_EQ(ledger.in_series(1), (std::vector<double>{0.0, 7.0}));
  std::vector<double> out_total(2, 0.0);
  double moved = 0.0;
  for (std::size_t s = 0; s < 3; ++s) {
    const std::vector<double> out = ledger.out_series(s);
    for (std::size_t t = 0; t < 2; ++t) {
      out_total[t] += out[t];
      moved += out[t];
    }
  }
  EXPECT_EQ(out_total, (std::vector<double>{3.0, 4.0}));
  EXPECT_DOUBLE_EQ(moved, 7.0);
}

TEST(Ledger, MovedEqualsOut) {
  // "Each byte moved once": a transfer records the same volume out at the
  // source and in at the destination, at the same tick.
  MigrationLedger ledger{2, 1};
  ledger.record_out(0, 0, 9.0);
  ledger.record_in(1, 0, 9.0);
  EXPECT_EQ(ledger.out_series(0), (std::vector<double>{9.0}));
  EXPECT_EQ(ledger.in_series(1), (std::vector<double>{9.0}));
  EXPECT_EQ(ledger.out_series(1), (std::vector<double>{0.0}));
  EXPECT_EQ(ledger.in_series(0), (std::vector<double>{0.0}));
}

TEST(Ledger, NegativeZeroReadsBackPositive) {
  MigrationLedger ledger{1, 3};
  ledger.record_out(0, 1, -0.0);
  const std::vector<double> out = ledger.out_series(0);
  EXPECT_FALSE(std::signbit(out[1]));
  ASSERT_EQ(ledger.out_cells(0).size(), 1u);
  EXPECT_FALSE(std::signbit(ledger.out_cells(0)[0].gb));
}

TEST(Ledger, OutOfOrderTicksStaySortedAndAccumulate) {
  MigrationLedger ledger{1, 8};
  ledger.record_in(0, 5, 1.0);
  ledger.record_in(0, 2, 2.0);  // before the last cell: sorted insert
  ledger.record_in(0, 7, 3.0);
  ledger.record_in(0, 2, 4.0);  // into an existing middle cell
  ledger.record_in(0, 0, 5.0);
  EXPECT_EQ(ledger.in_series(0), (std::vector<double>{5.0, 0.0, 6.0, 0.0, 0.0,
                                                      1.0, 0.0, 3.0}));
  const auto cells = ledger.in_cells(0);
  ASSERT_EQ(cells.size(), 4u);
  for (std::size_t i = 1; i < cells.size(); ++i) {
    EXPECT_LT(cells[i - 1].tick, cells[i].tick);
  }
}

}  // namespace
}  // namespace vbatt::net
