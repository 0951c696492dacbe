// Shared machinery of the end-to-end benchmark: options, timing helpers,
// the in-memory span tracer and the report that prints every metric.
//
// Each workload builds its inputs from the run seed, times repetitions of
// one user-facing call, checks the outputs and records metrics into a
// Report. Timings are recorded once per repetition. An end-to-end time is
// reported as the mean over the run's repetitions: the benchmark shares a
// host whose speed shifts by up to 1.5x for seconds at a time, and the
// mean over the whole run moved least between runs (see README.md).
// Per-layer metrics are reported as the median.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "vbatt/workload/app.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  /// Length of the timed phase; repetitions run until it has elapsed.
  double seconds = 10.0;
  /// Traced run: per-layer spans and counters instead of end-to-end
  /// metrics.
  bool trace = false;
  /// Self-test size: the same flows on a few sites and days.
  bool tiny = false;
  /// Self-test hook: damage one output before it is checked, so the
  /// self-test can prove the checks fire.
  bool corrupt = false;
  /// Scratch directory for logs, snapshots and span dumps.
  std::filesystem::path scratch;
};

/// Independent generator seed for one input stream of a run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

double median(std::vector<double> xs);
/// The arithmetic mean (0 when there is no sample).
double mean(const std::vector<double>& xs);

/// The highest percentile that still has at least ten samples beyond it
/// (the 11th largest sample), with the percentile and sample count it
/// was taken at. Falls back to the maximum below eleven samples.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> xs);

/// Peak resident set size of this process so far, MB.
double peak_rss_mb();

/// VMs (stable + degradable) over all applications of a trace.
std::int64_t count_vms(const std::vector<vbatt::workload::Application>& apps);

/// One timed call: name, start and end (ns since the tracer's epoch) and
/// the index of the enclosing span (-1 at the root).
struct Span {
  std::string_view name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

/// Single-threaded span recorder. Spans are kept in memory and written
/// out after the timed call.
class Tracer {
 public:
  std::int32_t open(std::string_view name);
  void close(std::int32_t id);
  void clear() {
    spans_.clear();
    stack_.clear();
  }

  /// Summed duration of every span called `name`, ms.
  double total_ms(std::string_view name) const;
  /// Per span name: summed duration minus the part covered by child
  /// spans, ms.
  std::map<std::string, double> self_ms() const;
  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool write_json(const std::filesystem::path& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span; a null tracer records nothing and costs one branch.
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name)
      : tracer_{tracer}, id_{tracer != nullptr ? tracer->open(name) : -1} {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Run `fn()` inside a span named `name` and return its result.
template <typename Fn>
auto traced(Tracer* tracer, std::string_view name, Fn&& fn) {
  const Scope span{tracer, name};
  return fn();
}

/// Run `fn` until `seconds` have elapsed and at least `min_reps` calls
/// finished; `fn` records its own timings.
template <typename Fn>
void repeat_for(double seconds, int min_reps, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < min_reps || ms_since(start) < 1000.0 * seconds;
       ++rep) {
    fn();
  }
}

/// Per-layer attribution of one traced repetition: rows whose sum plus
/// `unattributed_ms` equals `run_ms`.
struct Attribution {
  std::vector<std::pair<std::string, double>> rows;
  double run_ms = 0.0;
};

class Report {
 public:
  /// Record one sample of an end-to-end / per-layer metric; the reported
  /// value is the mean of the end-to-end samples / the median of the
  /// per-layer ones.
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);

  /// Count operations the workload attempted and ones the program refused.
  void attempted(std::int64_t n) { attempted_ += n; }
  void rejected(std::int64_t n) { failed_ += n; }
  /// An output check: counts as one operation, failing ones as failed.
  void check(bool ok, const std::string& what);

  void note(const std::string& line) { notes_.push_back(line); }
  void attribution(const Attribution& a) { attributions_.push_back(a); }

  /// Print the human-readable report and the final JSON line; returns
  /// the process exit code (non-zero when any check failed).
  int finish(const Options& options) const;

 private:
  struct Metric {
    std::string unit;
    std::vector<double> samples;
  };
  using Metrics = std::vector<std::pair<std::string, Metric>>;
  static void add(Metrics& metrics, const std::string& name, double value,
                  const std::string& unit);

  Metrics e2e_;
  Metrics layer_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  std::vector<Attribution> attributions_;
};

/// Build a workload's inputs `reps` times, recording setup_s for each
/// build and, when tracing, each set-up span's self time as
/// `<span>_ms`. Only one build is alive at a time; returns the last.
template <typename Build>
auto set_up(const Options& options, Report& report, int reps,
            Build&& build) {
  Tracer tracer;
  Tracer* const spans = options.trace ? &tracer : nullptr;
  std::optional<decltype(build(spans))> inputs;
  for (int rep = 0; rep < reps; ++rep) {
    inputs.reset();
    tracer.clear();
    const Clock::time_point t0 = Clock::now();
    inputs.emplace(build(spans));
    report.e2e("setup_s", ms_since(t0) / 1000.0, "s");
    for (const auto& [name, ms] : tracer.self_ms()) {
      report.layer(name + "_ms", ms, "ms");
    }
  }
  return std::move(*inputs);
}

/// Build the inputs once more, untimed by run_s, and record the build as
/// one more setup_s sample; the copy is dropped. Workloads whose inputs
/// build in well under a second call this after each untraced repetition,
/// so their setup_s samples span the same stretch of host speed as run_s
/// instead of the first second of the run.
template <typename Build>
void resample_set_up(Report& report, Build&& build) {
  const Clock::time_point t0 = Clock::now();
  const auto inputs = build(nullptr);
  report.e2e("setup_s", ms_since(t0) / 1000.0, "s");
}

/// The timed phase: call `rep(trace)`, which returns its run time in ms,
/// for `options.seconds` and at least `min_reps` times. A traced run
/// spends half the time untraced and half traced and records
/// trace.overhead_ms. Returns the median untraced run time, ms.
template <typename Rep>
double timed_phase(const Options& options, Report& report, int min_reps,
                   Rep&& rep) {
  std::vector<double> untraced;
  std::vector<double> traced;
  if (!options.trace) {
    repeat_for(options.seconds, min_reps,
               [&] { untraced.push_back(rep(false)); });
    return median(untraced);
  }
  const int half = (min_reps + 1) / 2;
  repeat_for(options.seconds / 2, half,
             [&] { untraced.push_back(rep(false)); });
  repeat_for(options.seconds / 2, half, [&] { traced.push_back(rep(true)); });
  report.layer("trace.overhead_ms", median(traced) - median(untraced), "ms");
  return median(untraced);
}

// Workloads (one per translation unit).
void run_schedule_mip(const Options& options, Report& report);
void run_fleet_vm(const Options& options, Report& report);
void run_svc_stream(const Options& options, Report& report);

}  // namespace e2e
