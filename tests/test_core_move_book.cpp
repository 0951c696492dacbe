// Directed tests of core::MoveBook, the proactive-move book both
// simulators share (tick_parts.h): backoff and abandonment, replan
// supersession, departed apps, and the snapshot encoding. A stand-in
// engine keeps each app's home in a map and records every executed move.
#include "vbatt/core/tick_parts.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <tuple>
#include <vector>

namespace vbatt::core {
namespace {

/// Three sites 10 km apart, all pairwise connected.
net::LatencyGraph line_of_three() {
  return net::LatencyGraph{{{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}},
                           net::RttModel{}, 100.0};
}

/// Site s is down while t < down_until[s]. Records the tick of every
/// site_down query, which the book makes once per move attempt.
class FakeHooks : public FaultHooks {
 public:
  std::map<std::size_t, util::Tick> down_until;
  mutable std::vector<util::Tick> asked;

  void begin_tick(util::Tick) override {}
  bool site_down(std::size_t s, util::Tick t) const override {
    asked.push_back(t);
    const auto it = down_until.find(s);
    return it != down_until.end() && t < it->second;
  }
  bool site_degraded(std::size_t, util::Tick) const override { return false; }
  std::vector<ServerOutage> server_outages_at(util::Tick) override {
    return {};
  }
  void on_tick_end(const TickSnapshot&) override {}
};

constexpr util::Tick kNever = 1'000'000;

/// The engine side: app homes, and the (tick, app, target) of each
/// executed move.
struct World {
  std::map<std::int64_t, std::size_t> home;
  std::vector<std::tuple<util::Tick, std::int64_t, std::size_t>> executed;

  void step(MoveBook& book, util::Tick from, util::Tick to,
            SimResult& counts) {
    for (util::Tick t = from; t <= to; ++t) {
      book.execute_due(
          t, counts,
          [&](std::int64_t app_id) -> std::optional<std::size_t> {
            const auto it = home.find(app_id);
            if (it == home.end()) return std::nullopt;
            return it->second;
          },
          [&](std::int64_t app_id, const Move& move) {
            executed.emplace_back(t, app_id, move.to_site);
            home[app_id] = move.to_site;
          });
    }
  }
};

TEST(MoveBook, ExecutesEachMoveAtItsTickInOrder) {
  const net::LatencyGraph latency = line_of_three();
  MoveBook book{latency, nullptr, MoveRetryPolicy{}};
  SimResult counts{3, 64};
  World world;
  world.home[5] = 0;
  world.home[6] = 2;
  book.schedule(5, {Move{5, 1, 3}, Move{5, 2, 6}});
  book.schedule(6, {Move{6, 2, 3}});  // already there: skipped
  world.step(book, 0, 20, counts);
  using E = std::tuple<util::Tick, std::int64_t, std::size_t>;
  EXPECT_EQ(world.executed, (std::vector<E>{{3, 5, 1}, {6, 5, 2}}));
  EXPECT_EQ(counts.retried_moves, 0);
  EXPECT_EQ(counts.abandoned_moves, 0);
}

TEST(MoveBook, BlockedMoveBacksOffThenIsAbandoned) {
  const net::LatencyGraph latency = line_of_three();
  FakeHooks hooks;
  hooks.down_until[1] = kNever;
  MoveRetryPolicy retry;  // backoff 2, doubling, capped at 16
  retry.max_attempts = 6;
  MoveBook book{latency, &hooks, retry};
  SimResult counts{3, 64};
  World world;
  world.home[7] = 0;
  book.schedule(7, {Move{7, 1, 3}});
  world.step(book, 0, 63, counts);
  // Attempts at 3, then +2, +4, +8, +16, +16; the 6th is abandoned.
  EXPECT_EQ(hooks.asked, (std::vector<util::Tick>{3, 5, 9, 17, 33, 49}));
  EXPECT_EQ(counts.retried_moves, 5);
  EXPECT_EQ(counts.abandoned_moves, 1);
  EXPECT_TRUE(world.executed.empty());
}

TEST(MoveBook, RetryExecutesOnceTheTargetIsBack) {
  const net::LatencyGraph latency = line_of_three();
  FakeHooks hooks;
  hooks.down_until[1] = 7;
  MoveBook book{latency, &hooks, MoveRetryPolicy{}};
  SimResult counts{3, 64};
  World world;
  world.home[7] = 0;
  book.schedule(7, {Move{7, 1, 3}});
  world.step(book, 0, 63, counts);
  EXPECT_EQ(hooks.asked, (std::vector<util::Tick>{3, 5, 9}));
  using E = std::tuple<util::Tick, std::int64_t, std::size_t>;
  EXPECT_EQ(world.executed, (std::vector<E>{{9, 7, 1}}));
  EXPECT_EQ(counts.retried_moves, 2);
  EXPECT_EQ(counts.abandoned_moves, 0);
}

TEST(MoveBook, SeveredLinkBlocksAMove) {
  net::LatencyGraph latency = line_of_three();
  latency.set_edge_up(0, 2, false);
  FakeHooks hooks;
  MoveBook book{latency, &hooks, MoveRetryPolicy{}};
  SimResult counts{3, 64};
  World world;
  world.home[1] = 0;
  world.home[2] = 1;
  book.schedule(1, {Move{1, 2, 3}});  // 0 -> 2: severed
  book.schedule(2, {Move{2, 2, 3}});  // 1 -> 2: up
  world.step(book, 0, 4, counts);
  using E = std::tuple<util::Tick, std::int64_t, std::size_t>;
  EXPECT_EQ(world.executed, (std::vector<E>{{3, 2, 2}}));
  EXPECT_EQ(counts.retried_moves, 1);
}

TEST(MoveBook, ReplanDropsQueuedRetries) {
  const net::LatencyGraph latency = line_of_three();
  FakeHooks hooks;
  hooks.down_until[1] = 4;  // back up before the retry at 5 would run
  MoveBook book{latency, &hooks, MoveRetryPolicy{}};
  SimResult counts{3, 64};
  World world;
  world.home[7] = 0;
  world.home[8] = 0;
  book.schedule(7, {Move{7, 1, 3}});
  book.schedule(8, {Move{8, 2, 10}});
  world.step(book, 0, 3, counts);
  EXPECT_EQ(counts.retried_moves, 1);
  book.supersede({});  // the replan emits nothing
  world.step(book, 4, 63, counts);
  EXPECT_EQ(hooks.asked, (std::vector<util::Tick>{3}));
  EXPECT_TRUE(world.executed.empty());  // neither the retry nor app 8
  EXPECT_EQ(counts.retried_moves, 1);
  EXPECT_EQ(counts.abandoned_moves, 0);
}

TEST(MoveBook, DepartedAppsMovesNeverExecute) {
  const net::LatencyGraph latency = line_of_three();
  FakeHooks hooks;
  hooks.down_until[1] = 4;
  MoveBook book{latency, &hooks, MoveRetryPolicy{}};
  SimResult counts{3, 64};
  World world;
  for (const std::int64_t id : {1, 2, 3, 4}) world.home[id] = 0;
  book.schedule(1, {Move{1, 2, 5}});  // dropped and gone before it is due
  book.schedule(2, {Move{2, 2, 5}});  // gone, never dropped
  book.schedule(3, {Move{3, 1, 3}});  // blocked, then gone before its retry
  book.schedule(4, {Move{4, 2, 5}});  // stays: executes
  world.step(book, 0, 3, counts);
  book.drop(1);
  world.home.erase(1);
  world.home.erase(2);
  book.drop(3);
  world.home.erase(3);
  world.step(book, 4, 63, counts);
  using E = std::tuple<util::Tick, std::int64_t, std::size_t>;
  EXPECT_EQ(world.executed, (std::vector<E>{{5, 4, 2}}));
  EXPECT_EQ(hooks.asked, (std::vector<util::Tick>{3, 5}));  // 3's, 4's
  EXPECT_EQ(counts.retried_moves, 1);
  EXPECT_EQ(counts.abandoned_moves, 0);
}

TEST(MoveBook, SaveRestoreSaveIsIdentical) {
  const net::LatencyGraph latency = line_of_three();
  FakeHooks hooks;
  hooks.down_until[1] = 8;
  MoveBook book{latency, &hooks, MoveRetryPolicy{}};
  SimResult counts{3, 64};
  World world;
  world.home[1] = 0;
  world.home[2] = 0;
  world.home[3] = 2;
  book.supersede({Move{1, 1, 3}, Move{1, 2, 20}, Move{2, 1, 4},
                  Move{3, 0, 12}});
  world.step(book, 0, 4, counts);  // 1 and 2 blocked: retries at 5 and 6
  ASSERT_EQ(counts.retried_moves, 2);

  util::wire::Writer first;
  book.save(first);
  MoveBook restored{latency, &hooks, MoveRetryPolicy{}};
  util::wire::Reader reader{first.data()};
  restored.restore(reader);
  util::wire::Writer second;
  restored.save(second);
  EXPECT_EQ(first.data(), second.data());

  // The restored book also carries on exactly as the original does.
  World world_a = world;
  World world_b = world;
  SimResult counts_a = counts;
  SimResult counts_b = counts;
  world_a.step(book, 5, 63, counts_a);
  world_b.step(restored, 5, 63, counts_b);
  using E = std::tuple<util::Tick, std::int64_t, std::size_t>;
  EXPECT_EQ(world_a.executed,
            (std::vector<E>{{9, 1, 1}, {10, 2, 1}, {12, 3, 0}, {20, 1, 2}}));
  EXPECT_EQ(world_a.executed, world_b.executed);
  EXPECT_EQ(counts_a.retried_moves, counts_b.retried_moves);
  EXPECT_EQ(counts_a.abandoned_moves, counts_b.abandoned_moves);
}

}  // namespace
}  // namespace vbatt::core
