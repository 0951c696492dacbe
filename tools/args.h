// --key=value / --flag argument bag shared by the command-line tools, and
// the one reader of the scenario flags `vbatt` and `vbatt_svc` share.
// `--flag` alone stores "1"; anything not starting with "--" exits with
// status 2.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "vbatt/svc/scenario.h"

namespace vbatt::tools {

class Args {
 public:
  /// Parse argv[first..argc).
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      const std::string body = arg.substr(2);
      const std::size_t eq = body.find('=');
      if (eq == std::string::npos) {
        values_.insert_or_assign(body, std::string{"1"});
      } else {
        values_.insert_or_assign(body.substr(0, eq), body.substr(eq + 1));
      }
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double number(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  /// --key as a whole number that fits T, or `fallback` when absent. A
  /// negative, fractional, non-numeric or out-of-range value throws a
  /// std::runtime_error naming the flag (the tools exit 2 on it).
  template <typename T>
  T whole(const std::string& key, T fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    // 2^digits is exact as a double, and every whole value below it fits T.
    if (text.empty() || end != text.c_str() + text.size() ||
        !(value >= 0.0) || value != std::floor(value) ||
        value >= std::ldexp(1.0, std::numeric_limits<T>::digits)) {
      throw std::runtime_error{
          "--" + key + " must be a whole number in [0, " +
          std::to_string(std::numeric_limits<T>::max()) + "], got '" + text +
          "'"};
    }
    return static_cast<T>(value);
  }
  /// --key as a finite number >= 0, or `fallback` when absent. A negative,
  /// non-finite or non-numeric value throws a std::runtime_error naming the
  /// flag (the tools exit 2 on it).
  double nonneg(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size() ||
        !std::isfinite(value) || value < 0.0) {
      throw std::runtime_error{"--" + key +
                               " must be a finite number >= 0, got '" + text +
                               "'"};
    }
    return value;
  }
  bool flag(const std::string& key) const { return values_.contains(key); }

 private:
  std::map<std::string, std::string> values_;
};

/// The scenario flags both tools read: --days --solar --wind --region
/// --storms --cores-per-mw --apps-per-hour --chaos --chaos-seed
/// --batch-seed. An absent flag keeps svc::ScenarioConfig{}'s value, except
/// --days, which falls back to the tool's `default_days`. A value that
/// svc::validate_scenario_config would reject throws here already, naming
/// the flag rather than the field.
inline svc::ScenarioConfig scenario_flags(const Args& args,
                                          std::size_t default_days) {
  svc::ScenarioConfig config;
  config.days = args.whole("days", default_days);
  if (config.days < 1) {
    throw std::runtime_error{"--days must be at least 1, got '" +
                             args.get("days", "") + "'"};
  }
  config.n_solar = args.whole("solar", config.n_solar);
  config.n_wind = args.whole("wind", config.n_wind);
  config.region_km = args.nonneg("region", config.region_km);
  config.storms = args.flag("storms");
  config.cores_per_mw = args.nonneg("cores-per-mw", config.cores_per_mw);
  config.apps_per_hour = args.nonneg("apps-per-hour", config.apps_per_hour);
  config.chaos_intensity = args.nonneg("chaos", config.chaos_intensity);
  config.chaos_seed = args.whole("chaos-seed", config.chaos_seed);
  config.batch_seed = args.whole("batch-seed", config.batch_seed);
  return config;
}

}  // namespace vbatt::tools
