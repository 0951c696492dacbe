#include "vbatt/fault/schedule.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "vbatt/util/rng.h"

namespace vbatt::fault {

namespace {

[[noreturn]] void bad_event(std::size_t index, const std::string& what) {
  throw std::runtime_error{"FaultSchedule: event " + std::to_string(index) +
                           ": " + what};
}

/// "load_schedule_csv: <what> at line L, column C".
[[noreturn]] void reject(const std::string& what, std::size_t line_no,
                         int column) {
  throw std::runtime_error{"load_schedule_csv: " + what + " at line " +
                           std::to_string(line_no) + ", column " +
                           std::to_string(column)};
}

double parse_number(const std::string& cell, std::size_t line_no,
                    int column) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(cell, &consumed);
  } catch (const std::exception&) {
    reject("non-numeric value", line_no, column);
  }
  if (consumed == 0 || std::isnan(value)) {
    reject("non-numeric value", line_no, column);
  }
  return value;
}

FaultKind parse_kind(const std::string& cell, std::size_t line_no) {
  for (const FaultKind kind :
       {FaultKind::site_blackout, FaultKind::site_brownout,
        FaultKind::forecast_error, FaultKind::link_down,
        FaultKind::server_failure}) {
    if (cell == to_string(kind)) return kind;
  }
  reject("unknown fault kind '" + cell + "'", line_no, 0);
}

/// Shortest decimal string that parses back to exactly `value` — keeps
/// the CSV round-trip bit-exact for alpha/sigma without fixed precision.
std::string shortest_double(double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return std::string{buf, end};
}

/// Sort key making generation order irrelevant to the emitted schedule.
auto event_key(const FaultEvent& e) {
  return std::make_tuple(e.start, static_cast<int>(e.kind), e.site, e.peer,
                         e.end);
}

}  // namespace

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::site_blackout:
      return "site_blackout";
    case FaultKind::site_brownout:
      return "site_brownout";
    case FaultKind::forecast_error:
      return "forecast_error";
    case FaultKind::link_down:
      return "link_down";
    case FaultKind::server_failure:
      return "server_failure";
  }
  return "unknown";
}

void FaultSchedule::validate(std::size_t n_sites, std::size_t n_ticks) const {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (e.site >= n_sites) bad_event(i, "site out of range");
    if (e.start < 0 || e.start >= static_cast<util::Tick>(n_ticks)) {
      bad_event(i, "start out of range");
    }
    if (e.end <= e.start) bad_event(i, "end must exceed start");
    switch (e.kind) {
      case FaultKind::site_brownout:
        if (e.alpha < 0.0 || e.alpha >= 1.0) {
          bad_event(i, "brownout alpha out of [0, 1)");
        }
        break;
      case FaultKind::forecast_error:
        if (e.alpha < -1.0) bad_event(i, "forecast bias below -1");
        if (e.sigma < 0.0) bad_event(i, "negative forecast sigma");
        break;
      case FaultKind::link_down:
        if (e.peer >= n_sites) bad_event(i, "peer out of range");
        if (e.peer == e.site) bad_event(i, "link endpoints identical");
        break;
      case FaultKind::server_failure:
        if (e.count <= 0) bad_event(i, "server count must be positive");
        break;
      case FaultKind::site_blackout:
        break;
    }
  }
}

FaultSchedule make_chaos_schedule(const core::VbGraph& graph,
                                  const ChaosConfig& config,
                                  std::uint64_t seed) {
  FaultSchedule schedule;
  if (config.intensity <= 0.0) return schedule;

  const std::size_t n_sites = graph.n_sites();
  const auto n_ticks = static_cast<util::Tick>(graph.n_ticks());
  const double weeks =
      static_cast<double>(n_ticks) /
      static_cast<double>(std::max<util::Tick>(1, config.ticks_per_day) * 7);

  /// Poisson-many windows of exponential duration for one (stream, site).
  const auto windows = [&](std::string_view stream, std::size_t site,
                           double per_week, util::Tick mean_ticks,
                           auto&& emit) {
    util::Rng rng{util::seed_for(seed, stream, site)};
    const std::uint64_t n =
        rng.poisson(per_week * config.intensity * weeks);
    for (std::uint64_t k = 0; k < n; ++k) {
      const auto start =
          static_cast<util::Tick>(rng.below(static_cast<std::uint64_t>(
              std::max<util::Tick>(1, n_ticks))));
      const auto span = std::max<util::Tick>(
          1, static_cast<util::Tick>(std::llround(
                 rng.exponential(static_cast<double>(mean_ticks)))));
      emit(rng, start, std::min(n_ticks, start + span));
    }
  };

  for (std::size_t s = 0; s < n_sites; ++s) {
    windows("chaos-blackout", s, config.blackouts_per_site_week,
            config.blackout_mean_ticks,
            [&](util::Rng&, util::Tick start, util::Tick end) {
              FaultEvent e;
              e.kind = FaultKind::site_blackout;
              e.start = start;
              e.end = end;
              e.site = s;
              schedule.events.push_back(e);
            });
    windows("chaos-brownout", s, config.brownouts_per_site_week,
            config.brownout_mean_ticks,
            [&](util::Rng& rng, util::Tick start, util::Tick end) {
              FaultEvent e;
              e.kind = FaultKind::site_brownout;
              e.start = start;
              e.end = end;
              e.site = s;
              // Jitter around the configured mean, clamped into [0, 0.95].
              e.alpha = std::clamp(
                  rng.normal(config.brownout_alpha, 0.1), 0.0, 0.95);
              schedule.events.push_back(e);
            });
    windows("chaos-forecast", s, config.forecast_errors_per_site_week,
            config.forecast_error_mean_ticks,
            [&](util::Rng& rng, util::Tick start, util::Tick end) {
              FaultEvent e;
              e.kind = FaultKind::forecast_error;
              e.start = start;
              e.end = end;
              e.site = s;
              // Bias direction flips per event: optimistic forecasts hurt
              // differently than pessimistic ones.
              e.alpha = rng.chance(0.5) ? config.forecast_bias
                                        : -config.forecast_bias;
              e.sigma = config.forecast_sigma;
              schedule.events.push_back(e);
            });
    windows("chaos-servers", s, config.server_failures_per_site_week,
            config.server_repair_mean_ticks,
            [&](util::Rng&, util::Tick start, util::Tick end) {
              const int servers = std::max(
                  1, graph.site(s).capacity_cores /
                         std::max(1, config.server_cores));
              FaultEvent e;
              e.kind = FaultKind::server_failure;
              e.start = start;
              e.end = end;
              e.site = s;
              e.count = std::max(
                  1, static_cast<int>(std::llround(
                         servers * config.server_failure_frac)));
              schedule.events.push_back(e);
            });
  }

  // Link flaps: one stream per existing link, indexed by the packed pair
  // (a * n_sites + b) so streams are stable under site reordering of the
  // loop, not of the graph.
  for (std::size_t a = 0; a < n_sites; ++a) {
    for (std::size_t b = a + 1; b < n_sites; ++b) {
      if (!graph.latency().link_exists(a, b)) continue;
      windows("chaos-link", a * n_sites + b, config.link_downs_per_link_week,
              config.link_down_mean_ticks,
              [&](util::Rng&, util::Tick start, util::Tick end) {
                FaultEvent e;
                e.kind = FaultKind::link_down;
                e.start = start;
                e.end = end;
                e.site = a;
                e.peer = b;
                schedule.events.push_back(e);
              });
    }
  }

  std::sort(schedule.events.begin(), schedule.events.end(),
            [](const FaultEvent& lhs, const FaultEvent& rhs) {
              return event_key(lhs) < event_key(rhs);
            });
  schedule.validate(n_sites, graph.n_ticks());
  return schedule;
}

void save_schedule_csv(const FaultSchedule& schedule,
                       const std::string& path) {
  std::ofstream out{path};
  if (!out) {
    throw std::runtime_error{"save_schedule_csv: cannot open " + path};
  }
  out << "kind,start,end,site,peer,alpha,sigma,count\n";
  for (const FaultEvent& e : schedule.events) {
    out << to_string(e.kind) << ',' << e.start << ',' << e.end << ','
        << e.site << ',' << e.peer << ',' << shortest_double(e.alpha) << ','
        << shortest_double(e.sigma) << ',' << e.count << '\n';
  }
}

namespace {

FaultSchedule load_schedule_csv_impl(const std::string& path,
                                     const ScheduleLoadLimits* limits) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error{"load_schedule_csv: cannot open " + path};
  }
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error{"load_schedule_csv: empty file " + path};
  }

  /// Accepted windows per (kind, site, peer), with the line that declared
  /// each — overlap rejection names both rows.
  struct SeenWindow {
    util::Tick start;
    util::Tick end;
    std::size_t line_no;
  };
  std::map<std::tuple<int, std::size_t, std::size_t>,
           std::vector<SeenWindow>>
      seen;

  FaultSchedule schedule;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::stringstream row{line};
    std::string cell;
    std::vector<std::string> cells;
    while (std::getline(row, cell, ',')) cells.push_back(cell);
    if (cells.size() != 8) {
      reject("expected 8 columns, got " + std::to_string(cells.size()),
             line_no, static_cast<int>(cells.size()));
    }
    FaultEvent e;
    e.kind = parse_kind(cells[0], line_no);
    e.start = static_cast<util::Tick>(parse_number(cells[1], line_no, 1));
    e.end = static_cast<util::Tick>(parse_number(cells[2], line_no, 2));
    const double site = parse_number(cells[3], line_no, 3);
    const double peer = parse_number(cells[4], line_no, 4);
    if (site < 0) reject("negative site", line_no, 3);
    if (peer < 0) reject("negative peer", line_no, 4);
    e.site = static_cast<std::size_t>(site);
    e.peer = static_cast<std::size_t>(peer);
    e.alpha = parse_number(cells[5], line_no, 5);
    e.sigma = parse_number(cells[6], line_no, 6);
    e.count = static_cast<int>(parse_number(cells[7], line_no, 7));
    if (e.end <= e.start) reject("end must exceed start", line_no, 2);
    if (e.sigma < 0.0) reject("negative sigma", line_no, 6);

    if (limits != nullptr) {
      if (e.start < 0 ||
          e.start >= static_cast<util::Tick>(limits->n_ticks)) {
        reject("start tick outside [0, " + std::to_string(limits->n_ticks) +
                   ")",
               line_no, 1);
      }
      if (e.end > static_cast<util::Tick>(limits->n_ticks)) {
        reject("end tick past the horizon (" +
                   std::to_string(limits->n_ticks) + ")",
               line_no, 2);
      }
      if (e.site >= limits->n_sites) {
        reject("site outside [0, " + std::to_string(limits->n_sites) + ")",
               line_no, 3);
      }
      if (e.kind == FaultKind::link_down && e.peer >= limits->n_sites) {
        reject("peer outside [0, " + std::to_string(limits->n_sites) + ")",
               line_no, 4);
      }
      if (e.kind == FaultKind::link_down && limits->links != nullptr &&
          !limits->links->link_exists(e.site, e.peer)) {
        reject("no WAN link between sites " + std::to_string(e.site) +
                   " and " + std::to_string(e.peer),
               line_no, 4);
      }
      // Overlap check within the same (kind, site[, peer]) lane. Links are
      // undirected: canonicalize the endpoint pair.
      std::size_t a = e.site;
      std::size_t b = e.kind == FaultKind::link_down ? e.peer : 0;
      if (a > b && e.kind == FaultKind::link_down) std::swap(a, b);
      const auto key = std::make_tuple(static_cast<int>(e.kind), a, b);
      for (const SeenWindow& w : seen[key]) {
        if (e.start < w.end && w.start < e.end) {
          reject("window [" + std::to_string(e.start) + ", " +
                     std::to_string(e.end) + ") overlaps the " +
                     std::string{to_string(e.kind)} + " window from line " +
                     std::to_string(w.line_no) + " on the same site",
                 line_no, 1);
        }
      }
      seen[key].push_back({e.start, e.end, line_no});
    }
    schedule.events.push_back(e);
  }
  return schedule;
}

}  // namespace

FaultSchedule load_schedule_csv(const std::string& path) {
  return load_schedule_csv_impl(path, nullptr);
}

FaultSchedule load_schedule_csv(const std::string& path,
                                const ScheduleLoadLimits& limits) {
  return load_schedule_csv_impl(path, &limits);
}

void validate_chaos_config(const ChaosConfig& config) {
  const auto bad = [](const std::string& field, const std::string& why) {
    throw std::runtime_error{"ChaosConfig: field '" + field + "' " + why};
  };
  if (config.intensity < 0.0) bad("intensity", "must not be negative");
  if (config.ticks_per_day <= 0) bad("ticks_per_day", "must be positive");
  if (config.blackouts_per_site_week < 0.0) {
    bad("blackouts_per_site_week", "must not be negative");
  }
  if (config.blackout_mean_ticks <= 0) {
    bad("blackout_mean_ticks", "must be positive");
  }
  if (config.brownouts_per_site_week < 0.0) {
    bad("brownouts_per_site_week", "must not be negative");
  }
  if (config.brownout_mean_ticks <= 0) {
    bad("brownout_mean_ticks", "must be positive");
  }
  if (config.brownout_alpha < 0.0 || config.brownout_alpha >= 1.0) {
    bad("brownout_alpha", "must lie in [0, 1)");
  }
  if (config.forecast_errors_per_site_week < 0.0) {
    bad("forecast_errors_per_site_week", "must not be negative");
  }
  if (config.forecast_error_mean_ticks <= 0) {
    bad("forecast_error_mean_ticks", "must be positive");
  }
  if (config.forecast_bias < -1.0) {
    bad("forecast_bias", "must not fall below -1");
  }
  if (config.forecast_sigma < 0.0) {
    bad("forecast_sigma", "must not be negative");
  }
  if (config.link_downs_per_link_week < 0.0) {
    bad("link_downs_per_link_week", "must not be negative");
  }
  if (config.link_down_mean_ticks <= 0) {
    bad("link_down_mean_ticks", "must be positive");
  }
  if (config.server_failures_per_site_week < 0.0) {
    bad("server_failures_per_site_week", "must not be negative");
  }
  if (config.server_repair_mean_ticks <= 0) {
    bad("server_repair_mean_ticks", "must be positive");
  }
  if (config.server_failure_frac <= 0.0 || config.server_failure_frac > 1.0) {
    bad("server_failure_frac", "must lie in (0, 1]");
  }
  if (config.server_cores <= 0) bad("server_cores", "must be positive");
}

}  // namespace vbatt::fault
