#include "vbatt/core/tick_parts.h"

#include <algorithm>

namespace vbatt::core {

namespace {

void save_move(util::wire::Writer& w, const Move& m) {
  w.i64(m.app_id);
  w.u64(m.to_site);
  w.i64(m.at_tick);
}

Move load_move(util::wire::Reader& r) {
  Move m;
  m.app_id = r.i64();
  m.to_site = static_cast<std::size_t>(r.u64());
  m.at_tick = r.i64();
  return m;
}

}  // namespace

void MoveBook::supersede(const std::vector<Move>& moves) {
  pending_.clear();
  due_.clear();
  retries_.clear();
  for (const Move& move : moves) {
    due_[move.at_tick].insert(move.app_id);
    pending_[move.app_id].push_back(move);
  }
}

void MoveBook::schedule(std::int64_t app_id, const std::vector<Move>& moves) {
  if (moves.empty()) return;
  for (const Move& move : moves) due_[move.at_tick].insert(app_id);
  pending_[app_id] = moves;
}

void MoveBook::defer(util::Tick t, const Move& move, int prior_attempts,
                     SimResult& counts) {
  const int attempts = prior_attempts + 1;
  if (attempts >= retry_.max_attempts) {
    ++counts.abandoned_moves;
    return;
  }
  util::Tick backoff = retry_.base_backoff_ticks;
  for (int a = 1; a < attempts && backoff < retry_.max_backoff_ticks; ++a) {
    backoff *= 2;
  }
  backoff = std::min(backoff, retry_.max_backoff_ticks);
  Move again = move;
  again.at_tick = t + backoff;
  retries_[again.at_tick].push_back({again, attempts});
  ++counts.retried_moves;
}

void MoveBook::save(util::wire::Writer& w) const {
  w.u64(pending_.size());
  for (const auto& [id, moves] : pending_) {
    w.i64(id);
    w.u64(moves.size());
    for (const Move& m : moves) save_move(w, m);
  }
  w.u64(due_.size());
  for (const auto& [tick, ids] : due_) {
    w.i64(tick);
    w.u64(ids.size());
    for (const std::int64_t id : ids) w.i64(id);
  }
  w.u64(retries_.size());
  for (const auto& [tick, batch] : retries_) {
    w.i64(tick);
    w.u64(batch.size());
    for (const PendingRetry& pr : batch) {
      save_move(w, pr.move);
      w.i64(pr.attempts);
    }
  }
}

void MoveBook::restore(util::wire::Reader& r) {
  pending_.clear();
  const std::uint64_t n_pending = r.u64();
  for (std::uint64_t i = 0; i < n_pending; ++i) {
    const std::int64_t id = r.i64();
    const std::uint64_t n_moves = r.u64();
    std::vector<Move>& moves = pending_[id];
    for (std::uint64_t k = 0; k < n_moves; ++k) {
      moves.push_back(load_move(r));
    }
  }
  due_.clear();
  const std::uint64_t n_due = r.u64();
  for (std::uint64_t i = 0; i < n_due; ++i) {
    const util::Tick tick = r.i64();
    const std::uint64_t n_ids = r.u64();
    std::set<std::int64_t>& ids = due_[tick];
    for (std::uint64_t k = 0; k < n_ids; ++k) ids.insert(r.i64());
  }
  retries_.clear();
  const std::uint64_t n_retry = r.u64();
  for (std::uint64_t i = 0; i < n_retry; ++i) {
    const util::Tick tick = r.i64();
    const std::uint64_t n_batch = r.u64();
    std::vector<PendingRetry>& batch = retries_[tick];
    for (std::uint64_t k = 0; k < n_batch; ++k) {
      const Move move = load_move(r);
      batch.push_back({move, static_cast<int>(r.i64())});
    }
  }
}

}  // namespace vbatt::core
