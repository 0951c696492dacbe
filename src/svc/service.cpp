#include "vbatt/svc/service.h"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "vbatt/core/mip_scheduler.h"
#include "vbatt/core/scheduler.h"
#include "vbatt/util/wire.h"

namespace vbatt::svc {

namespace {

constexpr std::uint64_t kSnapshotVersion = 1;

[[noreturn]] void reject(const std::string& what) {
  throw std::runtime_error{"ControlPlane: " + what};
}

void save_config(util::wire::Writer& w, const ServiceConfig& c) {
  w.str(c.policy);
  w.u8(c.health.enabled ? 1 : 0);
  w.i64(c.health.suspect_after);
  w.i64(c.health.dead_after);
  w.i64(c.health.recovering_ticks);
  w.u64(c.noise_seed);
  w.u8(c.replan_on_fault ? 1 : 0);
  w.i64(c.retry.base_backoff_ticks);
  w.i64(c.retry.max_backoff_ticks);
  w.i64(c.retry.max_attempts);
  w.i64(c.power_model.cores_per_server);
  w.f64(c.power_model.server_idle_watts);
  w.f64(c.power_model.watts_per_active_core);
}

ServiceConfig load_config(util::wire::Reader& r) {
  ServiceConfig c;
  c.policy = r.str();
  c.health.enabled = r.u8() != 0;
  c.health.suspect_after = r.i64();
  c.health.dead_after = r.i64();
  c.health.recovering_ticks = r.i64();
  c.noise_seed = r.u64();
  c.replan_on_fault = r.u8() != 0;
  c.retry.base_backoff_ticks = r.i64();
  c.retry.max_backoff_ticks = r.i64();
  c.retry.max_attempts = static_cast<int>(r.i64());
  c.power_model.cores_per_server = static_cast<int>(r.i64());
  c.power_model.server_idle_watts = r.f64();
  c.power_model.watts_per_active_core = r.f64();
  return c;
}

}  // namespace

std::string ServiceStatus::to_string() const {
  std::ostringstream out;
  out << "tick=" << tick << " seq=" << last_seq << " applied=" << applied_events
      << " paused=" << (paused ? "yes" : "no") << "\n"
      << "health: alive=" << sites_alive << " suspect=" << sites_suspect
      << " dead=" << sites_dead << " recovering=" << sites_recovering
      << " draining=" << sites_draining << "\n"
      << "faults: accepted=" << accepted_faults
      << " topology_epoch=" << topology_epoch << "\n"
      << "fleet: apps_placed=" << apps_placed
      << " planned_migrations=" << planned_migrations
      << " fallback_activations=" << fallback_activations
      << " pending_arrivals=" << pending_arrivals
      << " pending_departures=" << pending_departures;
  return out.str();
}

ControlPlane::ControlPlane(const core::VbGraph& graph,
                           const ServiceConfig& config)
    : config_{(validate_service_config(config), config)},
      injector_{std::make_unique<fault::StreamInjector>(graph,
                                                        config.noise_seed)},
      scheduler_{make_service_scheduler(config.policy)},
      fault_config_{injector_.get(), config.retry},
      stepper_{std::make_unique<core::SimStepper>(
          injector_->graph(), *scheduler_, config.power_model,
          &fault_config_)},
      health_{graph.n_sites(), config.health} {}

std::uint64_t ControlPlane::submit(Event e) {
  if (finished_) reject("service already finished");
  apply(e);  // throws on reject, before any sequence number is burned
  e.seq = ++seq_;
  ++applied_;
  if (log_) log_->append(encode_event(e));
  return e.seq;
}

std::uint64_t ControlPlane::replay(const std::vector<std::string>& records) {
  if (finished_) reject("service already finished");
  std::uint64_t n = 0;
  for (const std::string& record : records) {
    const Event e = decode_event(record);
    if (e.seq <= seq_) continue;  // covered by the snapshot
    if (e.seq != seq_ + 1) {
      reject("replay: sequence gap (expected " + std::to_string(seq_ + 1) +
             ", log has " + std::to_string(e.seq) + ")");
    }
    apply(e);
    seq_ = e.seq;
    ++applied_;
    ++n;
  }
  return n;
}

void ControlPlane::attach_log(std::unique_ptr<EventLogWriter> log) {
  log_ = std::move(log);
}

void ControlPlane::check_site(std::size_t site, const char* what) const {
  if (site >= n_sites()) {
    reject(std::string{what} + ": site " + std::to_string(site) +
           " out of range (fleet has " + std::to_string(n_sites()) +
           " sites)");
  }
}

void ControlPlane::apply(const Event& e) {
  switch (e.kind) {
    case EventKind::tick_advance:
      advance_one_tick();
      break;
    case EventKind::power_reading:
      injector_->set_power(e.site, e.tick, e.values, now());
      break;
    case EventKind::forecast_update:
      injector_->set_forecast(e.site, e.lead, e.tick, e.values, now());
      break;
    case EventKind::vm_arrival: {
      const workload::Application& a = e.app;
      if (a.shape.cores <= 0) {
        reject("vm_arrival: field 'shape.cores' not positive");
      }
      if (a.n_stable < 0 || a.n_degradable < 0 || a.total_vms() <= 0) {
        reject("vm_arrival: vm counts must be non-negative and sum > 0");
      }
      if (a.arrival > now() + 1) {
        reject("vm_arrival: arrival tick " + std::to_string(a.arrival) +
               " posted too early (next tick is " + std::to_string(now() + 1) +
               ")");
      }
      pending_arrivals_.push_back(a);
      break;
    }
    case EventKind::vm_departure:
      pending_departures_.push_back(e.app_id);
      break;
    case EventKind::fault_report:
      injector_->inject(e.fault, now());
      if (config_.replan_on_fault) replan_trigger_ = true;
      break;
    case EventKind::heartbeat:
      check_site(e.site, "heartbeat");
      // Stamped at the tick about to be simulated: a beat that arrives
      // between tick t and t+1 proves liveness *for* t+1.
      health_.heartbeat(e.site, now() + 1);
      break;
    case EventKind::drain_site:
      check_site(e.site, "drain_site");
      injector_->drain(e.site, now() + 1);
      break;
    case EventKind::undrain_site:
      check_site(e.site, "undrain_site");
      injector_->undrain(e.site, now() + 1);
      break;
    case EventKind::pause:
      paused_ = true;
      break;
    case EventKind::resume:
      paused_ = false;
      break;
    case EventKind::reconfigure:
      apply_reconfigure(config_, e.text);
      health_.set_config(config_.health);
      break;
    case EventKind::batch_job: {
      const workload::DeadlineJob& j = e.job;
      if (j.cores <= 0 || j.work_core_ticks <= 0) {
        reject("batch_job: cores and work_core_ticks must be positive");
      }
      if (j.arrival < 0 || j.deadline <= j.arrival) {
        reject("batch_job: deadline must follow a non-negative arrival");
      }
      stepper_->submit_batch_job(j);
      break;
    }
    case EventKind::harvest_task: {
      const workload::HarvestTask& t = e.task;
      if (t.cores <= 0 || t.work_core_ticks <= 0) {
        reject("harvest_task: cores and work_core_ticks must be positive");
      }
      if (t.arrival < 0 || t.deadline <= t.arrival) {
        reject("harvest_task: deadline must follow a non-negative arrival");
      }
      if (t.resume_latency_ticks < 0) {
        reject("harvest_task: resume_latency_ticks must be non-negative");
      }
      stepper_->submit_harvest_task(t);
      break;
    }
  }
}

void ControlPlane::advance_one_tick() {
  if (paused_) {
    reject("tick_advance while paused (resume first)");
  }
  const util::Tick t = now() + 1;
  if (static_cast<std::size_t>(t) >= n_ticks()) {
    reject("tick_advance past the horizon (" + std::to_string(n_ticks()) +
           " ticks)");
  }

  // Health decays before the tick is simulated, so a death at t zeroes the
  // site for t itself (the admin window opens at t).
  for (const HealthTracker::Transition& tr : health_.advance(t)) {
    if (tr.to == SiteHealth::dead) {
      injector_->admin_down(tr.site, t);
      if (config_.replan_on_fault) replan_trigger_ = true;
    } else if (tr.from == SiteHealth::recovering &&
               tr.to == SiteHealth::alive) {
      injector_->admin_up(tr.site, t);
    }
  }

  stepper_->begin_tick(t);
  stepper_->process_departures();
  for (const std::int64_t id : pending_departures_) stepper_->depart_now(id);
  pending_departures_.clear();

  if (replan_trigger_ || scheduler_->replans_at(t)) {
    const double build0 = scheduler_->model_build_ms();
    const auto t0 = std::chrono::steady_clock::now();
    stepper_->force_replan();
    replan_trigger_ = false;
    const auto t1 = std::chrono::steady_clock::now();
    replan_ms_.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    // Model construction inside this replan, from the scheduler's own
    // cumulative meter: solve time is replan_ms - build.
    replan_build_ms_.push_back(scheduler_->model_build_ms() - build0);
  }

  for (const workload::Application& app : pending_arrivals_) {
    stepper_->arrive(app);
  }
  pending_arrivals_.clear();

  stepper_->execute_due_moves();
  stepper_->enforce_and_meter();
}

ServiceStatus ControlPlane::status() const {
  ServiceStatus s;
  s.tick = now();
  s.last_seq = seq_;
  s.applied_events = applied_;
  s.paused = paused_;
  s.pending_arrivals = pending_arrivals_.size();
  s.pending_departures = pending_departures_.size();
  s.accepted_faults = injector_->accepted_events();
  s.topology_epoch = injector_->topology_epoch();
  for (std::size_t i = 0; i < n_sites(); ++i) {
    switch (health_.state(i)) {
      case SiteHealth::alive:
        ++s.sites_alive;
        break;
      case SiteHealth::suspect:
        ++s.sites_suspect;
        break;
      case SiteHealth::dead:
        ++s.sites_dead;
        break;
      case SiteHealth::recovering:
        ++s.sites_recovering;
        break;
    }
    if (injector_->is_draining(i)) ++s.sites_draining;
  }
  s.apps_placed = stepper_->result().apps_placed;
  s.planned_migrations = stepper_->result().planned_migrations;
  s.fallback_activations = stepper_->fallback_activations();
  return s;
}

core::SimResult ControlPlane::finish() {
  if (finished_) reject("service already finished");
  finished_ = true;
  return stepper_->take_result();
}

std::string ControlPlane::snapshot_bytes() const {
  if (finished_) reject("service already finished");
  // Frame in place: magic, a length/CRC placeholder, then the body,
  // patched once the body is complete — no second copy of the payload.
  // The buffer is sized once from the previous snapshot (plus 1/8 slack
  // for a grown state), so the body is written without regrowth copies.
  util::wire::Writer out;
  out.reserve(snapshot_size_hint_ + snapshot_size_hint_ / 8);
  out.bytes(kSnapshotMagic.data(), kSnapshotMagic.size());
  const std::size_t header_at = out.size();
  out.u64(0);
  const std::size_t body_at = out.size();
  out.u64(kSnapshotVersion);
  out.u64(seq_);
  out.u64(applied_);
  out.u8(paused_ ? 1 : 0);
  out.u8(replan_trigger_ ? 1 : 0);
  save_config(out, config_);
  out.u64(pending_arrivals_.size());
  for (const workload::Application& a : pending_arrivals_) {
    out.i64(a.app_id);
    out.i64(a.arrival);
    out.i64(a.lifetime_ticks);
    out.i64(a.shape.cores);
    out.f64(a.shape.memory_gb);
    out.i64(a.n_stable);
    out.i64(a.n_degradable);
  }
  out.vec_i64(pending_departures_);
  health_.save(out);
  injector_->save(out);
  stepper_->save(out);

  const std::size_t body_size = out.size() - body_at;
  out.patch_u32(header_at, util::wire::frame_length(body_size));
  out.patch_u32(header_at + 4,
                util::wire::crc32(out.data().data() + body_at, body_size));
  snapshot_size_hint_ = out.size();
  return out.take();
}

void ControlPlane::restore_snapshot(std::string_view bytes) {
  if (applied_ != 0 || seq_ != 0) {
    reject("restore_snapshot requires a freshly constructed service");
  }
  if (bytes.size() < kSnapshotMagic.size() + 8 ||
      bytes.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    reject("restore_snapshot: not a snapshot (bad magic)");
  }
  util::wire::Reader frame{bytes.substr(kSnapshotMagic.size())};
  const std::uint32_t length = frame.u32();
  const std::uint32_t crc = frame.u32();
  const std::string_view payload =
      bytes.substr(kSnapshotMagic.size() + 8);
  if (payload.size() != length) {
    reject("restore_snapshot: truncated snapshot (body " +
           std::to_string(payload.size()) + " bytes, header says " +
           std::to_string(length) + ")");
  }
  if (util::wire::crc32(payload.data(), payload.size()) != crc) {
    reject("restore_snapshot: CRC mismatch (corrupt snapshot)");
  }

  util::wire::Reader r{payload};
  const std::uint64_t version = r.u64();
  if (version != kSnapshotVersion) {
    reject("restore_snapshot: unsupported snapshot version " +
           std::to_string(version));
  }
  seq_ = r.u64();
  applied_ = r.u64();
  paused_ = r.u8() != 0;
  replan_trigger_ = r.u8() != 0;
  ServiceConfig snap_config = load_config(r);
  validate_service_config(snap_config);
  if (snap_config.policy != config_.policy) {
    reject("restore_snapshot: snapshot policy '" + snap_config.policy +
           "' does not match constructed policy '" + config_.policy + "'");
  }
  config_ = std::move(snap_config);
  health_.set_config(config_.health);

  const std::uint64_t n_arrivals = r.u64();
  pending_arrivals_.clear();
  pending_arrivals_.reserve(static_cast<std::size_t>(n_arrivals));
  for (std::uint64_t i = 0; i < n_arrivals; ++i) {
    workload::Application a;
    a.app_id = r.i64();
    a.arrival = r.i64();
    a.lifetime_ticks = r.i64();
    a.shape.cores = static_cast<int>(r.i64());
    a.shape.memory_gb = r.f64();
    a.n_stable = static_cast<int>(r.i64());
    a.n_degradable = static_cast<int>(r.i64());
    pending_arrivals_.push_back(a);
  }
  pending_departures_ = r.vec_i64();
  health_.restore(r);
  injector_->restore(r);
  stepper_->restore(r);
  if (!r.done()) {
    reject("restore_snapshot: trailing bytes after snapshot body");
  }
  snapshot_size_hint_ = bytes.size();
}

}  // namespace vbatt::svc
