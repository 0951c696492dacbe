#include "vbatt/svc/config.h"

#include <stdexcept>

#include "vbatt/core/mip_scheduler.h"
#include "vbatt/fault/stream.h"
#include "vbatt/svc/scenario.h"

namespace vbatt::svc {

namespace {

[[noreturn]] void bad_field(const std::string& field, const std::string& why) {
  throw std::runtime_error{"ServiceConfig: field '" + field + "' " + why};
}

bool parse_bool(const std::string& field, std::string_view value) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  bad_field(field, "must be true/false, got '" + std::string{value} + "'");
}

util::Tick parse_tick(const std::string& field, std::string_view value) {
  try {
    std::size_t used = 0;
    const std::string s{value};
    const long long v = std::stoll(s, &used);
    if (used != s.size()) throw std::invalid_argument{"trailing"};
    return static_cast<util::Tick>(v);
  } catch (const std::exception&) {
    bad_field(field, "must be an integer, got '" + std::string{value} + "'");
  }
}

}  // namespace

void validate_service_config(const ServiceConfig& config) {
  if (config.policy != "greedy" && config.policy != "mip" &&
      config.policy != "mip24h" && config.policy != "mippeak") {
    bad_field("policy", "must be greedy|mip|mip24h|mippeak, got '" +
                            config.policy + "'");
  }
  const HealthConfig& h = config.health;
  if (h.suspect_after <= 0) {
    bad_field("health.suspect_after",
              "must be > 0, got " + std::to_string(h.suspect_after));
  }
  if (h.dead_after <= h.suspect_after) {
    bad_field("health.dead_after",
              "must exceed health.suspect_after (" +
                  std::to_string(h.suspect_after) + "), got " +
                  std::to_string(h.dead_after));
  }
  if (h.recovering_ticks < 0) {
    bad_field("health.recovering_ticks",
              "must be >= 0, got " + std::to_string(h.recovering_ticks));
  }
  if (config.retry.max_attempts <= 0) {
    bad_field("retry.max_attempts",
              "must be > 0, got " + std::to_string(config.retry.max_attempts));
  }
  if (config.power_model.cores_per_server <= 0) {
    bad_field("power_model.cores_per_server",
              "must be > 0, got " +
                  std::to_string(config.power_model.cores_per_server));
  }
}

void apply_reconfigure(ServiceConfig& config, std::string_view spec) {
  // Stage the edit so a bad key/value leaves `config` untouched.
  ServiceConfig staged = config;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view pair = spec.substr(pos, end - pos);
    pos = end + 1;
    if (pair.empty()) continue;

    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error{
          "ServiceConfig: reconfigure entry '" + std::string{pair} +
          "' is not key=value"};
    }
    const std::string key{pair.substr(0, eq)};
    const std::string_view value = pair.substr(eq + 1);

    if (key == "health.enabled") {
      staged.health.enabled = parse_bool(key, value);
    } else if (key == "health.suspect_after") {
      staged.health.suspect_after = parse_tick(key, value);
    } else if (key == "health.dead_after") {
      staged.health.dead_after = parse_tick(key, value);
    } else if (key == "health.recovering_ticks") {
      staged.health.recovering_ticks = parse_tick(key, value);
    } else if (key == "replan_on_fault") {
      staged.replan_on_fault = parse_bool(key, value);
    } else if (key == "policy" || key == "noise_seed") {
      bad_field(key, "cannot be changed by reconfigure");
    } else {
      bad_field(key, "is not a reconfigurable field");
    }
  }
  validate_service_config(staged);
  config = std::move(staged);
}

std::unique_ptr<core::Scheduler> make_service_scheduler(
    const std::string& policy) {
  if (policy == "greedy") {
    return std::make_unique<core::GreedyScheduler>();
  }
  if (policy == "mip24h") {
    return std::make_unique<core::MipScheduler>(core::make_mip24h_config());
  }
  if (policy == "mippeak") {
    return std::make_unique<core::MipScheduler>(core::make_mip_peak_config());
  }
  if (policy == "mip") {
    return std::make_unique<core::MipScheduler>(core::make_mip_config());
  }
  bad_field("policy",
            "must be greedy|mip|mip24h|mippeak, got '" + policy + "'");
}

core::SimResult run_batch_engine(const Scenario& scenario,
                                 const ServiceConfig& config) {
  fault::StreamInjector injector{scenario.graph, config.noise_seed,
                                 scenario.schedule};
  const std::unique_ptr<core::Scheduler> scheduler =
      make_service_scheduler(config.policy);
  const core::FaultConfig faults{&injector, config.retry};
  // The service receives batch entities as submission events; the batch
  // engine gets the identical workload attached up front.
  core::ScenarioExtensions ext;
  if (!scenario.batch.empty()) ext.batch = &scenario.batch;
  return core::run_simulation(injector.graph(), scenario.apps, *scheduler,
                              config.power_model, &faults, &ext);
}

}  // namespace vbatt::svc
