// The first-read forecast fill of VbGraph: a graph builds no forecast at
// construction, fills the whole lead set exactly once on the first read,
// and whatever the route (plain read, concurrent reads, a read inside a
// pool chunk, a copy, a move, a fault injector) the bytes are those of the
// eager bulk Forecaster call.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include "vbatt/core/fleet_sim.h"
#include "vbatt/core/forecast_cache.h"
#include "vbatt/core/scheduler.h"
#include "vbatt/core/simulation.h"
#include "vbatt/core/vb_graph.h"
#include "vbatt/energy/site.h"
#include "vbatt/fault/schedule.h"
#include "vbatt/fault/stream.h"
#include "vbatt/testkit/forecast_reference.h"
#include "vbatt/util/thread_pool.h"

namespace vbatt::core {
namespace {

using Series = std::vector<std::vector<double>>;

energy::Fleet small_fleet(std::size_t ticks = 96 * 3) {
  energy::FleetConfig config;
  config.n_solar = 2;
  config.n_wind = 3;
  config.region_km = 500.0;
  return energy::generate_fleet(config, util::TimeAxis{15}, ticks);
}

VbGraphConfig graph_config() {
  VbGraphConfig config;
  config.cores_per_mw = 5.0;
  return config;
}

/// What the eager build computed: the bulk forecast of every trace.
std::vector<Series> eager_forecasts(const energy::Fleet& fleet,
                                    const VbGraphConfig& config) {
  util::ThreadPool serial{0};
  return energy::Forecaster{config.forecaster}.forecast(
      testkit::forecast_inputs(fleet.traces), fleet.axis,
      config.forecast_leads_hours, serial);
}

bool same_bytes(const Series& a, const Series& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t l = 0; l < a.size(); ++l) {
    if (a[l].size() != b[l].size()) return false;
    for (std::size_t t = 0; t < a[l].size(); ++t) {
      if (std::bit_cast<std::uint64_t>(a[l][t]) !=
          std::bit_cast<std::uint64_t>(b[l][t])) {
        return false;
      }
    }
  }
  return true;
}

void expect_forecasts(const VbGraph& graph, const std::vector<Series>& want) {
  ASSERT_EQ(graph.n_sites(), want.size());
  for (std::size_t s = 0; s < graph.n_sites(); ++s) {
    EXPECT_TRUE(same_bytes(graph.forecast_norm(s), want[s])) << "site " << s;
  }
  EXPECT_TRUE(graph.forecasts_built());
}

std::vector<workload::Application> apps_of(int count) {
  std::vector<workload::Application> apps;
  for (int i = 0; i < count; ++i) {
    workload::Application app;
    app.app_id = i;
    app.arrival = i * 5;
    app.lifetime_ticks = 96;
    app.shape = {4, 16.0};
    app.n_stable = 4;
    app.n_degradable = 2;
    apps.push_back(app);
  }
  return apps;
}

TEST(ForecastFill, AFreshGraphHasNoForecasts) {
  const VbGraph graph{small_fleet(), graph_config()};
  EXPECT_FALSE(graph.forecasts_built());
  // Power, capacity, latency and past-target reads are not forecast reads.
  for (std::size_t s = 0; s < graph.n_sites(); ++s) {
    (void)graph.available_cores(s, 10);
    (void)graph.forecast_cores(s, 10, 20);
    EXPECT_FALSE(graph.site(s).power_norm.empty());
  }
  (void)graph.latency().edge_count();
  EXPECT_FALSE(graph.forecasts_built());

  (void)graph.forecast_cores(0, 30, 20);
  EXPECT_TRUE(graph.forecasts_built());
}

TEST(ForecastFill, EveryReaderFillsTheEagerBytes) {
  const energy::Fleet fleet = small_fleet();
  const std::vector<Series> want = eager_forecasts(fleet, graph_config());
  const auto n_ticks = static_cast<util::Tick>(fleet.traces.front().size());

  const VbGraph by_norm{fleet, graph_config()};
  (void)by_norm.forecast_norm(1);
  expect_forecasts(by_norm, want);

  const VbGraph by_series{fleet, graph_config()};
  (void)by_series.forecast_series(0, 0, 0, n_ticks);
  expect_forecasts(by_series, want);

  const VbGraph by_cache{fleet, graph_config()};
  ForecastCache cache;
  cache.refresh(by_cache, 0, 0, n_ticks, util::ThreadPool::shared());
  expect_forecasts(by_cache, want);

  VbGraph by_mutable{fleet, graph_config()};
  (void)by_mutable.mutable_sites();
  expect_forecasts(by_mutable, want);

  const VbGraph up_front{fleet, graph_config()};
  up_front.build_forecasts();
  expect_forecasts(up_front, want);
}

// Greedy and the fleet engine read no forecast, so they must not pay for
// one: this guards against a stray read bringing the cost back.
TEST(ForecastFill, GreedyRunsLeaveTheGraphUnfilled) {
  const VbGraph graph{small_fleet(), graph_config()};
  const std::vector<workload::Application> apps = apps_of(30);

  GreedyScheduler greedy;
  const SimResult app_level = run_simulation(graph, apps, greedy);
  EXPECT_GT(app_level.apps_placed, 0);
  EXPECT_FALSE(graph.forecasts_built());

  GreedyScheduler fleet_greedy;
  const VmLevelResult vm_level =
      run_fleet_simulation(graph, apps, fleet_greedy);
  EXPECT_GT(vm_level.base.apps_placed, 0);
  EXPECT_FALSE(graph.forecasts_built());
}

TEST(ForecastFill, ConcurrentFirstReadsAllSeeTheEagerBytes) {
  const energy::Fleet fleet = small_fleet();
  const std::vector<Series> want = eager_forecasts(fleet, graph_config());
  const VbGraph graph{fleet, graph_config()};
  constexpr int kThreads = 4;
  std::latch start{kThreads};
  std::vector<std::vector<Series>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      std::vector<Series>& mine = seen[static_cast<std::size_t>(i)];
      mine.resize(graph.n_sites());
      start.arrive_and_wait();
      for (std::size_t k = 0; k < graph.n_sites(); ++k) {
        // Each thread starts at a different site.
        const std::size_t s = (k + static_cast<std::size_t>(i)) %
                              graph.n_sites();
        mine[s] = graph.forecast_norm(s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    for (std::size_t s = 0; s < graph.n_sites(); ++s) {
      EXPECT_TRUE(same_bytes(seen[static_cast<std::size_t>(i)][s], want[s]))
          << "thread " << i << " site " << s;
    }
  }
  expect_forecasts(graph, want);
}

// A first read inside one of the shared pool's chunks, where the fill's
// own parallel_for nests, fills inline: no throw, no deadlock, the same
// bytes, on the caller's lane and on a worker's.
TEST(ForecastFill, AFirstReadInsideAPoolChunkFillsInline) {
  const energy::Fleet fleet = small_fleet();
  const std::vector<Series> want = eager_forecasts(fleet, graph_config());
  util::ThreadPool& shared = util::ThreadPool::shared();

  const VbGraph in_chunk{fleet, graph_config()};
  std::vector<Series> seen(in_chunk.n_sites());
  EXPECT_NO_THROW(shared.parallel_for(
      in_chunk.n_sites(), [&](std::size_t first, std::size_t last) {
        for (std::size_t s = first; s < last; ++s) {
          seen[s] = in_chunk.forecast_norm(s);
        }
      }));
  for (std::size_t s = 0; s < seen.size(); ++s) {
    EXPECT_TRUE(same_bytes(seen[s], want[s])) << "site " << s;
  }

  // The caller's lane holds its chunk until a worker has made the first
  // read, so the read lands on a worker whenever the pool has one.
  if (shared.size() > 0) {
    const VbGraph on_worker{fleet, graph_config()};
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> read{false};
    EXPECT_NO_THROW(shared.parallel_for(2, [&](std::size_t, std::size_t) {
      if (std::this_thread::get_id() == caller) {
        while (!read.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        return;
      }
      // Set even if the read throws, so the caller's lane cannot hang.
      struct SetOnExit {
        std::atomic<bool>& flag;
        ~SetOnExit() { flag.store(true, std::memory_order_release); }
      } done{read};
      (void)on_worker.forecast_norm(0);
    }));
    expect_forecasts(on_worker, want);
  }

  // Workers of another pool fill over the shared one.
  const VbGraph other_pool{fleet, graph_config()};
  util::ThreadPool pool{3};
  EXPECT_NO_THROW(pool.parallel_for(
      other_pool.n_sites(), [&](std::size_t first, std::size_t last) {
        for (std::size_t s = first; s < last; ++s) {
          (void)other_pool.forecast_cores(s, 50, 0);
        }
      }));
  expect_forecasts(other_pool, want);
}

TEST(ForecastFill, CopiesOfAnUnfilledGraphFillIndependently) {
  const energy::Fleet fleet = small_fleet();
  const std::vector<Series> want = eager_forecasts(fleet, graph_config());
  const VbGraph original{fleet, graph_config()};

  const VbGraph copy{original};
  EXPECT_FALSE(copy.forecasts_built());
  expect_forecasts(copy, want);
  EXPECT_FALSE(original.forecasts_built());

  // A copy taken before the original fills keeps no link to it: it is
  // still unfilled afterwards, and fills on its own first read.
  const VbGraph early{original};
  expect_forecasts(original, want);
  EXPECT_FALSE(early.forecasts_built());
  expect_forecasts(early, want);

  VbGraph assigned{fleet, graph_config()};
  assigned.build_forecasts();
  const VbGraph unfilled{fleet, graph_config()};
  assigned = unfilled;
  EXPECT_FALSE(assigned.forecasts_built());
  expect_forecasts(assigned, want);
  EXPECT_FALSE(unfilled.forecasts_built());
}

TEST(ForecastFill, CopiesOfAFilledGraphCarryItsForecasts) {
  const energy::Fleet fleet = small_fleet();
  const std::vector<Series> want = eager_forecasts(fleet, graph_config());
  const VbGraph original{fleet, graph_config()};
  original.build_forecasts();

  const VbGraph copy{original};
  EXPECT_TRUE(copy.forecasts_built());
  expect_forecasts(copy, want);

  VbGraph assigned{fleet, graph_config()};
  assigned = original;
  EXPECT_TRUE(assigned.forecasts_built());
  expect_forecasts(assigned, want);
}

TEST(ForecastFill, MovesKeepTheFillState) {
  const energy::Fleet fleet = small_fleet();
  const std::vector<Series> want = eager_forecasts(fleet, graph_config());

  VbGraph unfilled{fleet, graph_config()};
  const VbGraph moved_unfilled{std::move(unfilled)};
  EXPECT_FALSE(moved_unfilled.forecasts_built());
  expect_forecasts(moved_unfilled, want);

  VbGraph filled{fleet, graph_config()};
  filled.build_forecasts();
  const VbGraph moved_filled{std::move(filled)};
  EXPECT_TRUE(moved_filled.forecasts_built());
  expect_forecasts(moved_filled, want);

  VbGraph source{fleet, graph_config()};
  VbGraph target{fleet, graph_config()};
  target.build_forecasts();
  target = std::move(source);
  EXPECT_FALSE(target.forecasts_built());
  expect_forecasts(target, want);
}

// mutable_sites() fills before it hands the power series out, so a fault
// baked into power can never feed the forecasts.
TEST(ForecastFill, APowerBakeNeverFeedsTheFill) {
  const energy::Fleet fleet = small_fleet();
  const std::vector<Series> want = eager_forecasts(fleet, graph_config());
  VbGraph graph{fleet, graph_config()};
  for (VbSite& site : graph.mutable_sites()) {
    std::fill(site.power_norm.begin(), site.power_norm.end(), 0.0);
  }
  expect_forecasts(graph, want);
}

TEST(ForecastFill, OracleGraphsFillWithTheActualSeries) {
  VbGraphConfig config = graph_config();
  config.oracle_forecasts = true;
  const VbGraph graph{small_fleet(), config};
  EXPECT_FALSE(graph.forecasts_built());
  for (std::size_t s = 0; s < graph.n_sites(); ++s) {
    const Series& forecast = graph.forecast_norm(s);
    ASSERT_EQ(forecast.size(), config.forecast_leads_hours.size());
    for (const std::vector<double>& lead : forecast) {
      EXPECT_EQ(lead, graph.site(s).power_norm) << "site " << s;
    }
  }
  EXPECT_TRUE(graph.forecasts_built());
}

// The injector copies the forecasts as its baseline; built on an unfilled
// graph it fills its own copy and must bake exactly what it bakes on a
// filled one, leaving the caller's graph unfilled.
TEST(ForecastFill, AnInjectorOnAnUnfilledGraphBakesTheSameGraph) {
  const energy::Fleet fleet = small_fleet();
  const VbGraph unfilled{fleet, graph_config()};
  const VbGraph filled{fleet, graph_config()};
  filled.build_forecasts();

  fault::ChaosConfig chaos;
  chaos.intensity = 3.0;
  const fault::FaultSchedule schedule =
      fault::make_chaos_schedule(filled, chaos, 5);
  const fault::StreamInjector a{unfilled, 9, schedule};
  const fault::StreamInjector b{filled, 9, schedule};
  EXPECT_FALSE(unfilled.forecasts_built());
  EXPECT_TRUE(a.graph().forecasts_built());
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    EXPECT_EQ(a.graph().site(s).power_norm, b.graph().site(s).power_norm)
        << "site " << s;
    EXPECT_TRUE(
        same_bytes(a.graph().forecast_norm(s), b.graph().forecast_norm(s)))
        << "site " << s;
  }
}

}  // namespace
}  // namespace vbatt::core
