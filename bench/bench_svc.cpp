// Control-plane service bench: streaming ingest, replan latency, recovery.
//
// Three questions a resident control plane must answer with numbers:
//   ingest    how many events/second the single-threaded apply-then-log
//             path sustains over a full scripted scenario (log attached,
//             fsync-per-record included);
//   replan    p50/p99 wall-clock of the scheduler replans triggered by
//             tick cadence while the stream runs;
//   recovery  time to rebuild state from snapshot + log-suffix replay, as
//             a function of how many records the suffix holds (the knob an
//             operator turns with --snapshot-every);
//   snapshot  median wall-clock and size of snapshot_bytes() over the
//             snapshots the ingest run takes (the wire codec's encode +
//             CRC path).
// `--json <path>` writes the sweep for CI to archive as BENCH_svc.json.
// The binary exits non-zero if any recovered state diverges from the live
// run — a perf bench that silently benchmarks a broken recovery would be
// worse than none.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "vbatt/svc/event_log.h"
#include "vbatt/svc/scenario.h"
#include "vbatt/svc/service.h"

namespace {

using namespace vbatt;

constexpr std::size_t kDays = 3;
constexpr double kChaosIntensity = 1.0;

struct PolicyRow {
  std::string policy;
  std::size_t events = 0;
  std::size_t ticks = 0;
  double ingest_ms = 0.0;
  double events_per_sec = 0.0;
  std::size_t replans = 0;
  double replan_p50_ms = 0.0;
  double replan_p99_ms = 0.0;
  // Model construction inside the replans, metered by the scheduler:
  // replan latency decomposes into build + solve, and the incremental
  // builder should make the build share near-zero after the first replan.
  double replan_build_p50_ms = 0.0;
  double replan_build_p99_ms = 0.0;
  double snapshot_ms = 0.0;
  std::size_t snapshot_bytes = 0;
  struct Recovery {
    std::size_t replayed_records = 0;
    double ms = 0.0;
  };
  std::vector<Recovery> recovery;
};

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

svc::ServiceConfig service_config(const std::string& policy) {
  svc::ServiceConfig config;
  config.policy = policy;
  return config;
}

PolicyRow run_policy(const svc::Scenario& scenario, const std::string& policy,
                     bool& recovery_ok) {
  const std::vector<svc::Event> events = svc::scenario_events(scenario);
  const auto log_path = std::filesystem::temp_directory_path() /
                        ("bench_svc_" + policy + ".evlog");

  PolicyRow row;
  row.policy = policy;
  row.events = events.size();
  row.ticks = scenario.graph.n_ticks();

  // Ingest + replan latency: one full streamed run with the log attached.
  // Snapshots are captured at fractions of the stream so the recovery
  // sweep below can replay suffixes of different lengths.
  const std::vector<std::size_t> fractions = {0, 50, 90, 99};
  std::vector<std::pair<std::size_t, std::string>> snapshots;
  svc::ControlPlane live{scenario.graph, service_config(policy)};
  live.attach_log(
      std::make_unique<svc::EventLogWriter>(log_path.string(), true));
  std::vector<double> snapshot_ms;
  std::vector<std::size_t> snapshot_bytes;
  std::size_t next_fraction = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < events.size(); ++i) {
    while (next_fraction < fractions.size() &&
           i == events.size() * fractions[next_fraction] / 100) {
      const auto s0 = std::chrono::steady_clock::now();
      snapshots.emplace_back(i, live.snapshot_bytes());
      snapshot_ms.push_back(ms_since(s0));
      snapshot_bytes.push_back(snapshots.back().second.size());
      ++next_fraction;
    }
    svc::Event copy = events[i];
    live.submit(std::move(copy));
  }
  row.ingest_ms = ms_since(t0);
  row.events_per_sec =
      1000.0 * static_cast<double>(row.events) / row.ingest_ms;
  row.replans = live.replan_latencies_ms().size();
  row.replan_p50_ms = percentile(live.replan_latencies_ms(), 50.0);
  row.replan_p99_ms = percentile(live.replan_latencies_ms(), 99.0);
  row.replan_build_p50_ms = percentile(live.replan_build_latencies_ms(), 50.0);
  row.replan_build_p99_ms = percentile(live.replan_build_latencies_ms(), 99.0);
  const auto s0 = std::chrono::steady_clock::now();
  const std::string reference = live.snapshot_bytes();
  snapshot_ms.push_back(ms_since(s0));
  snapshot_bytes.push_back(reference.size());
  row.snapshot_ms = percentile(snapshot_ms, 50.0);
  std::sort(snapshot_bytes.begin(), snapshot_bytes.end());
  row.snapshot_bytes = snapshot_bytes[snapshot_bytes.size() / 2];
  live.attach_log(nullptr);

  // Recovery sweep: restore each snapshot, replay the full log (records
  // up to the snapshot are skipped by sequence number), compare bytes.
  const svc::EventLogContents log = svc::read_event_log(log_path.string());
  for (const auto& [taken_at, bytes] : snapshots) {
    const auto r0 = std::chrono::steady_clock::now();
    svc::ControlPlane revived{scenario.graph, service_config(policy)};
    revived.restore_snapshot(bytes);
    revived.replay(log.records);
    PolicyRow::Recovery rec;
    rec.ms = ms_since(r0);
    rec.replayed_records = log.records.size() - taken_at;
    row.recovery.push_back(rec);
    if (revived.snapshot_bytes() != reference) {
      std::fprintf(stderr,
                   "FAIL: %s recovery from snapshot@%zu diverged from the "
                   "live run\n",
                   policy.c_str(), taken_at);
      recovery_ok = false;
    }
  }
  std::filesystem::remove(log_path);
  return row;
}

bool write_json(const std::string& path, const svc::Scenario& scenario,
                const std::vector<PolicyRow>& rows) {
  std::ofstream out{path};
  if (!out) return false;
  bench::JsonWriter json{out};
  json.begin_object();
  json.field("bench", "svc");
  json.field("sites", scenario.graph.n_sites());
  json.field("days", kDays);
  json.field("apps", scenario.apps.size());
  json.field("fault_events", scenario.schedule.events.size());
  json.field("chaos_intensity", kChaosIntensity);
  json.begin_array("results");
  for (const PolicyRow& row : rows) {
    json.begin_object();
    json.field("policy", row.policy);
    json.field("events", row.events);
    json.field("ticks", row.ticks);
    json.field("ingest_ms", row.ingest_ms);
    json.field("events_per_sec", row.events_per_sec);
    json.field("replans", row.replans);
    json.field("replan_p50_ms", row.replan_p50_ms);
    json.field("replan_p99_ms", row.replan_p99_ms);
    json.field("replan_build_p50_ms", row.replan_build_p50_ms);
    json.field("replan_build_p99_ms", row.replan_build_p99_ms);
    json.field("snapshot_ms", row.snapshot_ms);
    json.field("snapshot_bytes", row.snapshot_bytes);
    json.begin_array("recovery");
    for (const PolicyRow::Recovery& rec : row.recovery) {
      json.begin_object();
      json.field("replayed_records", rec.replayed_records);
      json.field("ms", rec.ms);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json out.json]\n", argv[0]);
      return 2;
    }
  }

  svc::ScenarioConfig scenario_config;
  scenario_config.days = kDays;
  scenario_config.chaos_intensity = kChaosIntensity;
  const svc::Scenario scenario = svc::make_scenario(scenario_config);

  bool recovery_ok = true;
  std::vector<PolicyRow> rows;
  for (const char* policy : {"greedy", "mip24h"}) {
    rows.push_back(run_policy(scenario, policy, recovery_ok));
    const PolicyRow& row = rows.back();
    std::printf("%-7s %6zu events in %8.1f ms (%9.0f ev/s)  replans=%zu "
                "p50=%.1f ms p99=%.1f ms (build p50=%.2f ms p99=%.2f ms)\n"
                "        snapshot: p50 %.2f ms, median %zu bytes\n",
                row.policy.c_str(), row.events, row.ingest_ms,
                row.events_per_sec, row.replans, row.replan_p50_ms,
                row.replan_p99_ms, row.replan_build_p50_ms,
                row.replan_build_p99_ms, row.snapshot_ms, row.snapshot_bytes);
    for (const PolicyRow::Recovery& rec : row.recovery) {
      std::printf("        recovery: %6zu records replayed in %8.1f ms\n",
                  rec.replayed_records, rec.ms);
    }
  }

  if (!json_path.empty()) {
    if (!write_json(json_path, scenario, rows)) {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("json -> %s\n", json_path.c_str());
  }
  return recovery_ok ? 0 : 1;
}
