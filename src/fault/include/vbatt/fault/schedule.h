// Deterministic, typed fault schedules.
//
// A FaultSchedule is a validated list of timed fault events — what the
// schedule constructor of StreamInjector (stream.h) bakes, and what the
// service receives as fault reports. Schedules come from two places: the
// seeded chaos generator (make_chaos_schedule, per-(kind, site) child RNG
// streams so adding a fault kind never perturbs the others) or a CSV on
// disk (load_schedule_csv, trace_io-style validation that names the
// offending row and column). Either way the schedule is plain data:
// replaying the same schedule yields the same faults, bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vbatt/core/vb_graph.h"
#include "vbatt/util/time.h"

namespace vbatt::fault {

enum class FaultKind {
  /// Site power forced to 0 over [start, end): grid/inverter failure.
  site_blackout,
  /// Site power derated (x alpha in [0, 1)) over [start, end).
  site_brownout,
  /// Forecast corruption over [start, end): every lead's forecast is scaled
  /// by (1 + alpha) and perturbed with N(0, sigma) noise. Actuals are
  /// untouched — the fleet runs on real power but plans on lies.
  forecast_error,
  /// WAN link (site, peer) severed over [start, end); flaps are just short
  /// windows. Only existing links can go down.
  link_down,
  /// `count` servers at `site` fail at `start` and are repaired at `end`.
  server_failure,
};

/// Human-readable kind name (CSV token); inverse of parse in the loader.
const char* to_string(FaultKind kind) noexcept;

struct FaultEvent {
  FaultKind kind = FaultKind::site_blackout;
  util::Tick start = 0;
  /// Exclusive end tick (repair happens at the top of this tick).
  util::Tick end = 0;
  std::size_t site = 0;
  /// link_down only: the other endpoint.
  std::size_t peer = 0;
  /// site_brownout: derating factor in [0, 1). forecast_error: relative
  /// bias (forecast *= 1 + alpha).
  double alpha = 0.0;
  /// forecast_error only: stddev of additive noise on normalized forecasts.
  double sigma = 0.0;
  /// server_failure only: servers taken down.
  int count = 0;
};

struct FaultSchedule {
  std::vector<FaultEvent> events;

  bool empty() const noexcept { return events.empty(); }

  /// Reject malformed schedules with a std::runtime_error naming the event
  /// index and field: bad site/peer, start >= end, out-of-range alpha /
  /// sigma / count for the kind.
  void validate(std::size_t n_sites, std::size_t n_ticks) const;
};

/// Knobs of the chaos generator. Rates are expected events per site (or
/// per link) per week of simulated time, all scaled by `intensity`;
/// intensity 0 yields the empty schedule.
struct ChaosConfig {
  double intensity = 1.0;
  /// Ticks per day of the driven trace (96 = 15-minute ticks).
  util::Tick ticks_per_day = 96;

  double blackouts_per_site_week = 0.5;
  util::Tick blackout_mean_ticks = 8;

  double brownouts_per_site_week = 1.0;
  util::Tick brownout_mean_ticks = 24;
  double brownout_alpha = 0.5;

  double forecast_errors_per_site_week = 1.0;
  util::Tick forecast_error_mean_ticks = 48;
  double forecast_bias = 0.3;
  double forecast_sigma = 0.1;

  double link_downs_per_link_week = 0.5;
  util::Tick link_down_mean_ticks = 12;

  double server_failures_per_site_week = 1.0;
  util::Tick server_repair_mean_ticks = 96;
  /// Fraction of a site's servers taken down per failure event.
  double server_failure_frac = 0.05;
  /// Cores per server (sizes the server count off capacity_cores).
  int server_cores = 40;
};

/// Draw a schedule for `graph` under `config`, seeded by `seed`. Events
/// are emitted sorted by (start, kind, site) so equal seeds give equal
/// schedules regardless of generation order. The result is validated.
FaultSchedule make_chaos_schedule(const core::VbGraph& graph,
                                  const ChaosConfig& config,
                                  std::uint64_t seed);

/// CSV round-trip: header `kind,start,end,site,peer,alpha,sigma,count`.
void save_schedule_csv(const FaultSchedule& schedule, const std::string& path);

/// Load and validate a schedule CSV. Every rejection (unknown kind,
/// non-numeric cell, missing column, range violation) names the line and
/// column, trace_io-style. Structural validation against a graph happens
/// later via FaultSchedule::validate.
FaultSchedule load_schedule_csv(const std::string& path);

/// Structural limits for strict CSV loading. Operator-facing paths (CLI
/// --chaos-csv, the control-plane service) know the graph they will replay
/// against, so the loader can reject what FaultSchedule::validate would
/// only catch later — but with the line and column of the offending row.
struct ScheduleLoadLimits {
  std::size_t n_sites = 0;
  std::size_t n_ticks = 0;
};

/// Strict variant: everything the plain loader rejects, plus sites/peers
/// >= limits.n_sites, start/end ticks outside [0, n_ticks], and windows of
/// the same kind overlapping on the same site (same endpoint pair for
/// link_down) — an operator schedule with two blackouts covering the same
/// (site, tick) is almost certainly a typo, and silently compounding
/// overlapping brownouts is worse. Errors name line and column; overlap
/// errors also name the line of the earlier window.
FaultSchedule load_schedule_csv(const std::string& path,
                                const ScheduleLoadLimits& limits);

/// Reject out-of-range ChaosConfig fields (negative intensity or rates,
/// non-positive durations, alpha/sigma/fraction outside their domains)
/// with a std::runtime_error naming the offending field. Shared by every
/// surface that accepts operator-supplied chaos knobs (CLI flags, service
/// reconfigure commands) so the message is identical everywhere.
void validate_chaos_config(const ChaosConfig& config);

}  // namespace vbatt::fault
