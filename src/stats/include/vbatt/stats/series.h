// Operations on equally-spaced numeric series.
//
// Free functions over std::vector<double>; a power trace, a forecast, and a
// migration-traffic history are all just series on the shared tick grid.
#pragma once

#include <cstddef>
#include <vector>

namespace vbatt::stats {

/// Element-wise sum of `a` and `b` (sizes must match).
std::vector<double> add(const std::vector<double>& a,
                        const std::vector<double>& b);

/// Series scaled by a constant.
std::vector<double> scale(const std::vector<double>& a, double factor);

/// Centered moving average: out[i] is the mean of a[i - w/2 .. i + w/2]
/// (integer w/2), clipped to the series at the edges. The full window
/// spans 2*(w/2) + 1 points, so an even `w` averages w + 1 points. Each
/// output's sum runs from 0.0 left to right over its window, so results
/// are bit-identical to the naive loop.
std::vector<double> moving_average(const std::vector<double>& a,
                                   std::size_t w);

/// Exponentially weighted moving average, smoothing factor alpha in (0, 1].
std::vector<double> ewma(const std::vector<double>& a, double alpha);

/// First differences: out[i] = a[i+1] - a[i]; size n-1.
std::vector<double> diff(const std::vector<double>& a);

/// Coefficient of variation of the series (stddev / mean).
double cov(const std::vector<double>& a) noexcept;

/// Mean absolute percentage error of `forecast` against `actual`, in percent.
/// Points where |actual| < `floor` are skipped (solar nights would otherwise
/// blow MAPE up to infinity; the ELIA methodology does the same).
double mape(const std::vector<double>& actual,
            const std::vector<double>& forecast, double floor = 1e-3);

/// Minimum over each non-overlapping window of `w` elements; the trailing
/// partial window (if any) also contributes. Used by the stable-energy
/// decomposition (§2.3: stable energy = window min × window length).
std::vector<double> window_min(const std::vector<double>& a, std::size_t w);

/// Pearson correlation of two equal-length series; 0 if degenerate.
double correlation(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace vbatt::stats
