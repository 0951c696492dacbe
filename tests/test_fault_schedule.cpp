#include "vbatt/fault/schedule.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "vbatt/energy/site.h"

namespace vbatt::fault {
namespace {

core::VbGraph small_graph(std::size_t ticks = 96 * 2) {
  energy::FleetConfig config;
  config.n_solar = 2;
  config.n_wind = 2;
  config.region_km = 500.0;
  core::VbGraphConfig graph_config;
  graph_config.cores_per_mw = 5.0;
  return core::VbGraph{
      energy::generate_fleet(config, util::TimeAxis{15}, ticks),
      graph_config};
}

TEST(FaultSchedule, ChaosIsDeterministicInSeed) {
  const core::VbGraph graph = small_graph();
  const ChaosConfig config;
  const FaultSchedule a = make_chaos_schedule(graph, config, 42);
  const FaultSchedule b = make_chaos_schedule(graph, config, 42);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].start, b.events[i].start);
    EXPECT_EQ(a.events[i].end, b.events[i].end);
    EXPECT_EQ(a.events[i].site, b.events[i].site);
    EXPECT_DOUBLE_EQ(a.events[i].alpha, b.events[i].alpha);
  }
  // A different seed shifts the draw.
  const FaultSchedule c = make_chaos_schedule(graph, config, 43);
  EXPECT_FALSE(a.events.size() == c.events.size() &&
               (a.events.empty() ||
                (a.events[0].start == c.events[0].start &&
                 a.events[0].site == c.events[0].site &&
                 a.events.back().start == c.events.back().start)));
}

TEST(FaultSchedule, ZeroIntensityIsEmpty) {
  const core::VbGraph graph = small_graph();
  ChaosConfig config;
  config.intensity = 0.0;
  EXPECT_TRUE(make_chaos_schedule(graph, config, 42).empty());
}

TEST(FaultSchedule, IntensityScalesEventCount) {
  const core::VbGraph graph = small_graph();
  ChaosConfig low;
  low.intensity = 0.5;
  ChaosConfig high;
  high.intensity = 4.0;
  EXPECT_LT(make_chaos_schedule(graph, low, 42).events.size(),
            make_chaos_schedule(graph, high, 42).events.size());
}

TEST(FaultSchedule, ValidateRejectsMalformedEvents) {
  FaultSchedule s;
  FaultEvent e;
  e.kind = FaultKind::site_blackout;
  e.site = 9;  // out of range for a 4-site graph
  e.start = 0;
  e.end = 4;
  s.events.push_back(e);
  EXPECT_THROW(s.validate(4, 100), std::runtime_error);

  s.events[0].site = 1;
  s.events[0].end = 0;  // end <= start
  EXPECT_THROW(s.validate(4, 100), std::runtime_error);

  s.events[0].end = 4;
  s.events[0].kind = FaultKind::site_brownout;
  s.events[0].alpha = 1.5;  // derating must be < 1
  EXPECT_THROW(s.validate(4, 100), std::runtime_error);

  s.events[0].kind = FaultKind::link_down;
  s.events[0].peer = 1;  // same as site
  EXPECT_THROW(s.validate(4, 100), std::runtime_error);

  s.events[0].peer = 2;
  EXPECT_NO_THROW(s.validate(4, 100));
}

class ScheduleCsvTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "vbatt_fault_schedule.csv";
  void TearDown() override { std::remove(path_.c_str()); }

  std::string load_error() {
    try {
      load_schedule_csv(path_);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return {};
  }
};

TEST_F(ScheduleCsvTest, RoundTrip) {
  const core::VbGraph graph = small_graph();
  const FaultSchedule original =
      make_chaos_schedule(graph, ChaosConfig{}, 7);
  ASSERT_FALSE(original.empty());
  save_schedule_csv(original, path_);
  const FaultSchedule loaded = load_schedule_csv(path_);
  ASSERT_EQ(loaded.events.size(), original.events.size());
  for (std::size_t i = 0; i < loaded.events.size(); ++i) {
    EXPECT_EQ(loaded.events[i].kind, original.events[i].kind);
    EXPECT_EQ(loaded.events[i].start, original.events[i].start);
    EXPECT_EQ(loaded.events[i].end, original.events[i].end);
    EXPECT_EQ(loaded.events[i].site, original.events[i].site);
    EXPECT_EQ(loaded.events[i].peer, original.events[i].peer);
    EXPECT_NEAR(loaded.events[i].alpha, original.events[i].alpha, 1e-5);
    EXPECT_EQ(loaded.events[i].count, original.events[i].count);
  }
  EXPECT_NO_THROW(loaded.validate(graph.n_sites(), graph.n_ticks()));
}

TEST_F(ScheduleCsvTest, RejectsUnknownKindNamingLine) {
  {
    std::ofstream out{path_};
    out << "kind,start,end,site,peer,alpha,sigma,count\n";
    out << "site_blackout,0,4,1,0,0,0,0\n";
    out << "meteor_strike,0,4,1,0,0,0,0\n";
  }
  const std::string what = load_error();
  EXPECT_NE(what.find("unknown fault kind"), std::string::npos) << what;
  EXPECT_NE(what.find("line 3"), std::string::npos) << what;
}

TEST_F(ScheduleCsvTest, RejectsNonNumericCellNamingColumn) {
  {
    std::ofstream out{path_};
    out << "kind,start,end,site,peer,alpha,sigma,count\n";
    out << "site_blackout,zero,4,1,0,0,0,0\n";
  }
  const std::string what = load_error();
  EXPECT_NE(what.find("non-numeric"), std::string::npos) << what;
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  EXPECT_NE(what.find("column 1"), std::string::npos) << what;
}

TEST_F(ScheduleCsvTest, RejectsMissingColumns) {
  {
    std::ofstream out{path_};
    out << "kind,start,end,site,peer,alpha,sigma,count\n";
    out << "site_blackout,0,4,1\n";
  }
  EXPECT_NE(load_error().find("expected 8 columns"), std::string::npos);
}

TEST_F(ScheduleCsvTest, RejectsInvertedWindow) {
  {
    std::ofstream out{path_};
    out << "kind,start,end,site,peer,alpha,sigma,count\n";
    out << "site_blackout,8,4,1,0,0,0,0\n";
  }
  EXPECT_NE(load_error().find("end must exceed start"), std::string::npos);
}

class StrictScheduleCsvTest : public ScheduleCsvTest {
 protected:
  ScheduleLoadLimits limits_{4, 96};

  std::string strict_error() {
    try {
      load_schedule_csv(path_, limits_);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return {};
  }
};

TEST_F(StrictScheduleCsvTest, AcceptsDisjointWindows) {
  {
    std::ofstream out{path_};
    out << "kind,start,end,site,peer,alpha,sigma,count\n";
    out << "site_blackout,0,8,0,0,0,0,0\n";
    out << "site_blackout,8,16,0,0,0,0,0\n";   // adjacent, not overlapping
    out << "site_blackout,4,12,1,0,0,0,0\n";   // other site, free to overlap
    out << "site_brownout,4,12,0,0,0.5,0,0\n";  // other kind, same site
  }
  EXPECT_EQ(strict_error(), "");
}

TEST_F(StrictScheduleCsvTest, RejectsOverlappingWindowsNamingBothLines) {
  {
    std::ofstream out{path_};
    out << "kind,start,end,site,peer,alpha,sigma,count\n";
    out << "site_blackout,0,10,2,0,0,0,0\n";
    out << "site_blackout,6,14,2,0,0,0,0\n";
  }
  const std::string what = strict_error();
  EXPECT_NE(what.find("overlaps"), std::string::npos) << what;
  EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  EXPECT_NE(what.find("from line 2"), std::string::npos) << what;
}

TEST_F(StrictScheduleCsvTest, RejectsOutOfRangeTicksAndSites) {
  {
    std::ofstream out{path_};
    out << "kind,start,end,site,peer,alpha,sigma,count\n";
    out << "site_blackout,100,110,0,0,0,0,0\n";  // start past 96-tick trace
  }
  std::string what = strict_error();
  EXPECT_NE(what.find("start tick outside"), std::string::npos) << what;
  EXPECT_NE(what.find("line 2, column 1"), std::string::npos) << what;

  {
    std::ofstream out{path_};
    out << "kind,start,end,site,peer,alpha,sigma,count\n";
    out << "site_blackout,90,110,0,0,0,0,0\n";  // end past the horizon
  }
  what = strict_error();
  EXPECT_NE(what.find("end tick past the horizon"), std::string::npos) << what;

  {
    std::ofstream out{path_};
    out << "kind,start,end,site,peer,alpha,sigma,count\n";
    out << "site_blackout,0,8,7,0,0,0,0\n";  // site 7 of a 4-site fleet
  }
  what = strict_error();
  EXPECT_NE(what.find("site outside [0, 4)"), std::string::npos) << what;
  EXPECT_NE(what.find("column 3"), std::string::npos) << what;

  {
    std::ofstream out{path_};
    out << "kind,start,end,site,peer,alpha,sigma,count\n";
    out << "link_down,0,8,1,6,0,0,0\n";  // peer 6 of a 4-site fleet
  }
  what = strict_error();
  EXPECT_NE(what.find("peer outside [0, 4)"), std::string::npos) << what;
  EXPECT_NE(what.find("column 4"), std::string::npos) << what;
}

// The CLI's default fleet (4 solar + 6 wind over 2500 km, 7 days) has no
// WAN link between sites 1 and 2; with the graph's links in the limits the
// row is rejected where it stands, not later by the injector.
TEST_F(StrictScheduleCsvTest, RejectsALinkDownOnAPairWithNoLink) {
  energy::FleetConfig config;
  config.n_solar = 4;
  config.n_wind = 6;
  config.region_km = 2500.0;
  core::VbGraphConfig graph_config;
  graph_config.cores_per_mw = 20.0;
  const core::VbGraph graph{
      energy::generate_fleet(config, util::TimeAxis{15}, 96 * 7),
      graph_config};
  ASSERT_FALSE(graph.latency().link_exists(1, 2));
  limits_ = ScheduleLoadLimits{graph.n_sites(), graph.n_ticks(),
                               &graph.latency()};
  {
    std::ofstream out{path_};
    out << "kind,start,end,site,peer,alpha,sigma,count\n";
    out << "link_down,10,20,1,2,0,0,0\n";
  }
  const std::string what = strict_error();
  EXPECT_NE(what.find("no WAN link between sites 1 and 2"), std::string::npos)
      << what;
  EXPECT_NE(what.find("line 2, column 4"), std::string::npos) << what;

  // Without the link set the loader cannot tell, as before.
  limits_.links = nullptr;
  EXPECT_EQ(strict_error(), "");
}

TEST(ChaosConfigValidation, NamesTheOffendingField) {
  EXPECT_NO_THROW(validate_chaos_config(ChaosConfig{}));

  const auto expect_field = [](ChaosConfig config, const char* field) {
    try {
      validate_chaos_config(config);
      FAIL() << "config with bad " << field << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(std::string{"'"} + field + "'"),
                std::string::npos)
          << e.what();
    }
  };

  ChaosConfig config;
  config.intensity = -0.5;
  expect_field(config, "intensity");

  config = ChaosConfig{};
  config.ticks_per_day = 0;
  expect_field(config, "ticks_per_day");

  config = ChaosConfig{};
  config.brownout_alpha = 1.0;  // derating must stay below total blackout
  expect_field(config, "brownout_alpha");

  config = ChaosConfig{};
  config.blackout_mean_ticks = -4;
  expect_field(config, "blackout_mean_ticks");

  config = ChaosConfig{};
  config.forecast_sigma = -0.1;
  expect_field(config, "forecast_sigma");

  config = ChaosConfig{};
  config.server_failure_frac = 1.5;
  expect_field(config, "server_failure_frac");
}

}  // namespace
}  // namespace vbatt::fault
