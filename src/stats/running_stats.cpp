#include "vbatt/stats/running_stats.h"

#include <cmath>

namespace vbatt::stats {

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::cov() const noexcept {
  return cov_of(count_, mean_, m2_);
}

double RunningStats::cov_of(std::uint64_t count, double mean,
                            double m2) noexcept {
  if (count == 0) return 0.0;
  const double s =
      std::sqrt(count > 1 ? m2 / static_cast<double>(count) : 0.0);
  if (mean == 0.0) {
    return s == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return s / mean;
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

}  // namespace vbatt::stats
