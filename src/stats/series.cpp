#include "vbatt/stats/series.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "vbatt/stats/running_stats.h"

namespace vbatt::stats {

std::vector<double> add(const std::vector<double>& a,
                        const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument{"series::add: size mismatch"};
  }
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

std::vector<double> scale(const std::vector<double>& a, double factor) {
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * factor;
  return out;
}

std::vector<double> moving_average(const std::vector<double>& a,
                                   std::size_t w) {
  if (w == 0) throw std::invalid_argument{"moving_average: zero window"};
  const std::size_t n = a.size();
  const std::size_t half = w / 2;
  const std::size_t span = 2 * half + 1;
  std::vector<double> out(n);

  // Every output is sum / count over its (edge-clipped) window, the sum
  // taken from 0.0 left to right. Both paths below keep that exact add
  // order, so the result does not depend on which path produced it.
  const auto clipped = [&](std::size_t i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(n - 1, i + half);
    double sum = 0.0;
    for (std::size_t j = lo; j <= hi; ++j) sum += a[j];
    out[i] = sum / static_cast<double>(hi - lo + 1);
  };
  if (n < span) {
    for (std::size_t i = 0; i < n; ++i) clipped(i);
    return out;
  }

  // Interior outputs [half, n - half) have full windows. Compute them
  // eight at a time, one register accumulator each: the adds of different
  // outputs are independent, so they pipeline (and vectorize) instead of
  // waiting on one long dependency chain.
  const double divisor = static_cast<double>(span);
  std::size_t i = 0;
  for (; i < half; ++i) clipped(i);
  for (; i + 8 <= n - half; i += 8) {
    const double* p = a.data() + (i - half);
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
    for (const double* end = p + span; p != end; ++p) {
      s0 += p[0];
      s1 += p[1];
      s2 += p[2];
      s3 += p[3];
      s4 += p[4];
      s5 += p[5];
      s6 += p[6];
      s7 += p[7];
    }
    double* o = out.data() + i;
    o[0] = s0 / divisor;
    o[1] = s1 / divisor;
    o[2] = s2 / divisor;
    o[3] = s3 / divisor;
    o[4] = s4 / divisor;
    o[5] = s5 / divisor;
    o[6] = s6 / divisor;
    o[7] = s7 / divisor;
  }
  for (; i < n; ++i) clipped(i);
  return out;
}

std::vector<double> ewma(const std::vector<double>& a, double alpha) {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument{"ewma: alpha must be in (0, 1]"};
  }
  std::vector<double> out(a.size());
  double state = a.empty() ? 0.0 : a.front();
  for (std::size_t i = 0; i < a.size(); ++i) {
    state += alpha * (a[i] - state);
    out[i] = state;
  }
  return out;
}

std::vector<double> diff(const std::vector<double>& a) {
  if (a.size() < 2) return {};
  std::vector<double> out(a.size() - 1);
  for (std::size_t i = 0; i + 1 < a.size(); ++i) out[i] = a[i + 1] - a[i];
  return out;
}

double cov(const std::vector<double>& a) noexcept {
  RunningStats rs;
  for (const double x : a) rs.add(x);
  return rs.cov();
}

double mape(const std::vector<double>& actual,
            const std::vector<double>& forecast, double floor) {
  if (actual.size() != forecast.size()) {
    throw std::invalid_argument{"mape: size mismatch"};
  }
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (std::abs(actual[i]) < floor) continue;
    sum += std::abs((forecast[i] - actual[i]) / actual[i]);
    ++count;
  }
  return count ? 100.0 * sum / static_cast<double>(count) : 0.0;
}

std::vector<double> window_min(const std::vector<double>& a, std::size_t w) {
  if (w == 0) throw std::invalid_argument{"window_min: zero window"};
  std::vector<double> out;
  out.reserve(a.size() / w + 1);
  for (std::size_t start = 0; start < a.size(); start += w) {
    const std::size_t end = std::min(start + w, a.size());
    out.push_back(*std::min_element(a.begin() + static_cast<std::ptrdiff_t>(start),
                                    a.begin() + static_cast<std::ptrdiff_t>(end)));
  }
  return out;
}

double correlation(const std::vector<double>& a,
                   const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument{"correlation: size mismatch"};
  }
  if (a.empty()) return 0.0;
  RunningStats sa;
  RunningStats sb;
  for (const double x : a) sa.add(x);
  for (const double x : b) sb.add(x);
  double cross = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    cross += (a[i] - sa.mean()) * (b[i] - sb.mean());
  }
  const double denom =
      sa.stddev() * sb.stddev() * static_cast<double>(a.size());
  return denom == 0.0 ? 0.0 : cross / denom;
}

}  // namespace vbatt::stats
