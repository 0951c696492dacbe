// Single-pass summary statistics (Welford's algorithm).
#pragma once

#include <cstdint>
#include <limits>

namespace vbatt::stats {

/// Accumulates count / mean / variance / min / max in one pass with O(1)
/// state. Numerically stable for the long (3-month @ 15 min) series the
/// benchmarks produce.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    sum_ += x;
  }

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than two samples.
  double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_) : 0.0;
  }
  double stddev() const noexcept;
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }

  /// Coefficient of variation (stddev / mean) — the paper's §2.3 metric.
  /// Returns +inf for zero mean with nonzero spread, 0 for empty input.
  double cov() const noexcept;

  /// cov() of an accumulator holding `count` samples with Welford state
  /// (`mean`, `m2`), for kernels that run add()'s arithmetic on their own
  /// lanes and must finish exactly as RunningStats would.
  static double cov_of(std::uint64_t count, double mean, double m2) noexcept;

  /// Merge another accumulator (parallel reduction support).
  void merge(const RunningStats& other) noexcept;

 private:
  std::uint64_t count_{0};
  double mean_{0.0};
  double m2_{0.0};
  double sum_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

}  // namespace vbatt::stats
