#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "vbatt/util/rng.h"
#include "vbatt/util/thread_pool.h"

namespace e2e {

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// The metric sets declared in BENCHMARK.json (the self-test keeps the two
// in step). Every run prints all of one set: end-to-end metrics untraced,
// per-layer metrics traced. A layer a workload never calls reports 0.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricName kPerLayer[] = {
    // set-up
    {"energy.fleet_gen_ms", "ms"},
    {"energy.signal_gen_ms", "ms"},
    {"core.graph_build_ms", "ms"},
    {"workload.gen_ms", "ms"},
    {"workload.apps", "count"},
    {"workload.vms", "count"},
    {"svc.scenario_build_ms", "ms"},
    {"svc.events_build_ms", "ms"},
    // scheduler decorator
    {"core.sched.place_calls", "count"},
    {"core.sched.place_ms", "ms"},
    {"core.sched.place_p50_ms", "ms"},
    {"core.sched.place_tail_ms", "ms"},
    {"core.sched.replan_calls", "count"},
    {"core.sched.replan_ms", "ms"},
    {"core.sched.replan_p50_ms", "ms"},
    {"core.sched.moves", "count"},
    // MipScheduler counters
    {"core.mip.solve_count", "count"},
    {"core.mip.model_build_ms", "ms"},
    {"core.mip.model_builds", "count"},
    {"core.mip.model_patches", "count"},
    {"core.mip.cache_invalidations", "count"},
    {"core.mip.basis_hint_hit_ratio", "ratio"},
    {"core.mip.fallbacks", "count"},
    {"solver.solve_and_rank_ms", "ms"},
    // schedule quality (deterministic per seed)
    {"core.migration_total_gb", "GB"},
    {"core.migration_peak_gb", "GB"},
    // engines
    {"core.sim.self_ms", "ms"},
    {"core.fleet.self_ms", "ms"},
    {"core.fleet.site_ticks_per_s", "1/s"},
    {"core.fleet.serial_ms", "ms"},
    {"util.pool.speedup", "x"},
    {"core.fleet.vm_migrations", "count"},
    {"core.fleet.fragmentation_failures", "count"},
    {"core.fleet.powered_server_ticks", "count"},
    {"workload.batch.jobs_completed", "count"},
    {"workload.batch.jobs_missed", "count"},
    {"workload.batch.harvest_goodput_ratio", "ratio"},
    // control plane, write path
    {"svc.tick_p50_ms", "ms"},
    {"svc.tick_tail_ms", "ms"},
    {"svc.heartbeat_p50_us", "us"},
    {"svc.arrival_p50_us", "us"},
    {"svc.reading_p50_us", "us"},
    {"svc.snapshot_ms", "ms"},
    {"svc.snapshot_bytes", "bytes"},
    {"svc.encode_us", "us"},
    {"svc.log_append_us", "us"},
    {"svc.log_bytes", "bytes"},
    {"svc.replan_calls", "count"},
    {"svc.replan_p50_ms", "ms"},
    {"svc.replan_tail_ms", "ms"},
    {"svc.replan_build_p50_ms", "ms"},
    {"svc.rejected_events", "count"},
    // control plane, read path
    {"svc.recovery_ms", "ms"},
    {"svc.log_read_ms", "ms"},
    {"svc.restore_ms", "ms"},
    {"svc.decode_us", "us"},
    {"svc.replay_ms", "ms"},
    {"svc.replay_records", "count"},
    // the tracer itself
    {"unattributed_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

template <std::size_t N>
const MetricName* find(const MetricName (&set)[N], const std::string& name) {
  for (const MetricName& m : set) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

void json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  return vbatt::util::splitmix64(state);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

Tail tail_of(std::vector<double> xs) {
  Tail tail;
  tail.samples = xs.size();
  if (xs.empty()) return tail;
  std::sort(xs.begin(), xs.end());
  if (xs.size() <= 10) {
    tail.value = xs.back();
    return tail;
  }
  tail.value = xs[xs.size() - 11];
  tail.percentile = 100.0 * static_cast<double>(xs.size() - 10) /
                    static_cast<double>(xs.size());
  return tail;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t count_vms(const std::vector<vbatt::workload::Application>& apps) {
  std::int64_t vms = 0;
  for (const vbatt::workload::Application& app : apps) {
    vms += app.n_stable + app.n_degradable;
  }
  return vms;
}

std::int32_t Tracer::open(std::string_view name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  stack_.pop_back();
}

double Tracer::total_ms(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return 1e-6 * static_cast<double>(ns);
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[i] += s.end_ns - s.start_ns;
    // Children of one span never overlap (single thread, strict nesting),
    // so subtracting their durations removes exactly the covered part.
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[std::string{spans_[i].name}] += 1e-6 * static_cast<double>(self[i]);
  }
  return by_name;
}

bool Tracer::write_json(const std::filesystem::path& path) const {
  std::ofstream out{path};
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%" PRId32 "}}%s\n",
                  static_cast<int>(s.name.size()), s.name.data(),
                  1e-3 * static_cast<double>(s.start_ns),
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                  s.parent, i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

void Report::add(Metrics& metrics, const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, m] : metrics) {
    if (n == name) {
      m.samples.push_back(value);
      return;
    }
  }
  metrics.push_back({name, Metric{unit, {value}}});
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  add(e2e_, name, value, unit);
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  add(layer_, name, value, unit);
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
  notes_.push_back(std::string{ok ? "check ok:   " : "check FAIL: "} + what);
}

int Report::finish(const Options& options) const {
  std::vector<std::string> problems = failures_;
  // Resolve the metric set this run must print, in declaration order.
  struct Out {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Out> out;
  const auto resolve = [&](const auto& declared, const Metrics& recorded,
                           bool zero_if_missing, auto estimate) {
    for (const MetricName& m : declared) {
      const Metric* found = nullptr;
      for (const auto& [n, metric] : recorded) {
        if (n == m.name) found = &metric;
      }
      if (found == nullptr && !zero_if_missing) {
        problems.push_back(std::string{"metric not measured: "} + m.name);
      }
      if (found != nullptr && found->unit != m.unit) {
        problems.push_back(std::string{"unit mismatch: "} + m.name);
      }
      const double v = found != nullptr ? estimate(found->samples) : 0.0;
      if (!std::isfinite(v)) {
        problems.push_back(std::string{"non-finite metric: "} + m.name);
      }
      out.push_back({m.name, m.unit, std::isfinite(v) ? v : 0.0});
    }
  };
  for (const auto& [n, metric] : e2e_) {
    if (find(kEndToEnd, n) == nullptr) problems.push_back("undeclared " + n);
  }
  for (const auto& [n, metric] : layer_) {
    if (find(kPerLayer, n) == nullptr) problems.push_back("undeclared " + n);
  }

  std::printf("== %s seed=%llu seconds=%g trace=%d threads=%zu%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0,
              vbatt::util::ThreadPool::default_threads(),
              options.tiny ? " (tiny)" : "");
  for (const std::string& line : notes_) std::printf("  %s\n", line.c_str());

  if (!attributions_.empty()) {
    // The median traced repetition: its rows sum to its run time.
    std::vector<const Attribution*> sorted;
    for (const Attribution& a : attributions_) sorted.push_back(&a);
    std::sort(sorted.begin(), sorted.end(),
              [](const Attribution* a, const Attribution* b) {
                return a->run_ms < b->run_ms;
              });
    const Attribution& a = *sorted[sorted.size() / 2];
    std::printf("  per-layer self time, median traced repetition "
                "(%zu traced):\n",
                attributions_.size());
    double sum = 0.0;
    for (const auto& [name, ms] : a.rows) {
      std::printf("    %-28s %12.3f ms %6.1f%%\n", name.c_str(), ms,
                  100.0 * ms / a.run_ms);
      sum += ms;
    }
    std::printf("    %-28s %12.3f ms (the repetition took %.3f ms)\n",
                "= sum", sum, a.run_ms);
  }

  if (options.trace) {
    resolve(kPerLayer, layer_, true, median);
    for (const auto& [n, metric] : e2e_) {
      std::printf("  (end-to-end) %-32s %14.6g %s\n", n.c_str(),
                  mean(metric.samples), metric.unit.c_str());
    }
  } else {
    resolve(kEndToEnd, e2e_, false, mean);
  }
  for (const Out& o : out) {
    std::printf("  %-45s %14.6g %s", o.name.c_str(), o.value,
                o.unit.c_str());
    const Metrics& recorded = options.trace ? layer_ : e2e_;
    for (const auto& [n, metric] : recorded) {
      if (n != o.name || metric.samples.size() < 2) continue;
      const auto [lo, hi] = std::minmax_element(metric.samples.begin(),
                                                metric.samples.end());
      if (options.trace) {
        std::printf("  (median of %zu; %.6g .. %.6g)", metric.samples.size(),
                    *lo, *hi);
      } else {
        std::printf("  (mean of %zu; fastest %.6g, median %.6g, slowest "
                    "%.6g)\n   ",
                    metric.samples.size(), *lo, median(metric.samples), *hi);
        for (const double v : metric.samples) std::printf(" %.6g", v);
      }
    }
    std::printf("\n");
  }
  const std::int64_t failed =
      failed_ + static_cast<std::int64_t>(problems.size() - failures_.size());
  const std::int64_t attempted = std::max<std::int64_t>(1, attempted_);
  std::printf("  ops_failed_frac = %lld/%lld = %.6g\n",
              static_cast<long long>(failed),
              static_cast<long long>(attempted),
              static_cast<double>(failed) / static_cast<double>(attempted));
  for (std::size_t i = failures_.size(); i < problems.size(); ++i) {
    std::printf("  FAIL: %s\n", problems[i].c_str());
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json_string(json, out[i].name);
    json += ": {\"value\": " + json_number(out[i].value) + ", \"unit\": ";
    json_string(json, out[i].unit);
    json += "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace e2e
