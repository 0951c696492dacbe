// vbatt_e2e — end-to-end benchmark.
//
//   vbatt_e2e --workload NAME --seed N --seconds S --trace 0|1
//             --scratch DIR [--tiny] [--corrupt]
//
// Workloads: schedule_mip, fleet_vm, svc_stream (see
// e2ebench/README.md). Prints a human-readable report and, as the last
// line of stdout, one JSON object with the keys correct, attempted,
// failed and metrics. Exits 1 when an output check fails, 2 on bad
// arguments or an unexpected error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: vbatt_e2e --workload "
               "schedule_mip|fleet_vm|svc_stream --seed N "
               "--seconds S --trace 0|1 --scratch DIR [--tiny] "
               "[--corrupt]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--workload" && has_value) {
        options.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        options.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        options.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        options.trace = std::string{argv[++i]} == "1";
      } else if (arg == "--scratch" && has_value) {
        options.scratch = argv[++i];
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--corrupt") {
        options.corrupt = true;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  void (*workload)(const e2e::Options&, e2e::Report&) = nullptr;
  if (options.workload == "schedule_mip") workload = e2e::run_schedule_mip;
  if (options.workload == "fleet_vm") workload = e2e::run_fleet_vm;
  if (options.workload == "svc_stream") workload = e2e::run_svc_stream;
  if (workload == nullptr || options.scratch.empty() ||
      !(options.seconds > 0.0)) {
    return usage();
  }

  // Thread budget, fixed before anything touches ThreadPool::shared().
  // Every flow but fleet_vm runs on one thread, as its production entry
  // point does. The pooled fleet engine gets half the host's cores (2 to
  // 4 lanes): it meets at a barrier every phase, so with a lane on every
  // core one busy core stalls the whole run — on a shared 4-core host
  // some 4-lane runs took twice their median.
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const unsigned lanes =
      options.workload == "fleet_vm" ? std::clamp(hardware / 2, 2u, 4u) : 1u;
  setenv("VBATT_THREADS", std::to_string(lanes).c_str(), 1);

  try {
    std::filesystem::create_directories(options.scratch);
    e2e::Report report;
    workload(options, report);
    return report.finish(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbatt_e2e: %s\n", e.what());
    return 2;
  }
}
