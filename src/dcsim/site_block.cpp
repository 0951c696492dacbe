#include "vbatt/dcsim/site_block.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace vbatt::dcsim {

namespace {

constexpr std::size_t kWordBits = 64;

}  // namespace

SiteBlock::SiteBlock(const std::vector<SiteConfig>& configs) {
  if (configs.empty()) return;  // a block over zero sites is inert
  const ServerSpec spec = configs.front().server;
  if (spec.cores <= 0 || spec.memory_gb <= 0.0) {
    throw std::invalid_argument{"SiteBlock: non-positive server capacity"};
  }
  top_ = spec.cores;
  server_memory_gb_ = spec.memory_gb;

  std::size_t total_servers = 0;
  std::size_t total_words = 0;
  sites_.reserve(configs.size());
  for (const SiteConfig& config : configs) {
    if (config.n_servers <= 0) {
      throw std::invalid_argument{"SiteBlock: non-positive server count"};
    }
    if (config.server.cores != spec.cores ||
        config.server.memory_gb != spec.memory_gb) {
      throw std::invalid_argument{
          "SiteBlock: all sites must share one ServerSpec"};
    }
    const auto n = static_cast<std::size_t>(config.n_servers);
    SiteState site;
    site.n_servers = config.n_servers;
    site.server_base = total_servers;
    site.n_words = (n + kWordBits - 1) / kWordBits;
    site.word_base = total_words;
    site.count_base = (&config - configs.data()) *
                      (static_cast<std::size_t>(top_) + 1);
    sites_.push_back(site);
    total_servers += n;
    total_words += site.n_words * (static_cast<std::size_t>(top_) + 1);
  }

  free_cores_.assign(total_servers, top_);
  free_memory_gb_.assign(total_servers, spec.memory_gb);
  vm_count_.assign(total_servers, 0);
  occupied_.assign((total_servers + kWordBits - 1) / kWordBits, 0);
  failed_.assign(total_servers, 0);
  victims_.assign(total_servers, {});
  bucket_words_.assign(total_words, 0);
  bucket_count_.assign(sites_.size() * (static_cast<std::size_t>(top_) + 1),
                       0);
  mask_words_ = (static_cast<std::size_t>(top_) + 1 + 63) / 64;
  bucket_mask_.assign(sites_.size() * mask_words_, 0);

  // Every server starts empty: all of them live in the top (all-free)
  // bucket of their site.
  for (SiteState& site : sites_) {
    std::uint64_t* const words = bucket(site, top_);
    for (std::size_t i = 0; i < static_cast<std::size_t>(site.n_servers);
         ++i) {
      words[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
    }
    bucket_count(site, top_) = site.n_servers;
    update_mask(static_cast<std::size_t>(&site - sites_.data()), top_, true);
  }
}

int SiteBlock::next_nonempty(std::size_t s_index, int from, int limit) const {
  if (from >= limit) return limit;
  const std::uint64_t* const mask = bucket_mask_.data() + s_index * mask_words_;
  auto w = static_cast<std::size_t>(from) / 64;
  std::uint64_t bits = mask[w] & (~std::uint64_t{0}
                                  << (static_cast<std::size_t>(from) % 64));
  for (;;) {
    if (bits != 0) {
      const int b = static_cast<int>(w * 64 +
                                     static_cast<std::size_t>(
                                         std::countr_zero(bits)));
      return b < limit ? b : limit;
    }
    if (++w >= mask_words_) return limit;
    bits = mask[w];
  }
}

int SiteBlock::prev_nonempty(std::size_t s_index, int from, int limit) const {
  if (from < limit) return limit - 1;
  const std::uint64_t* const mask = bucket_mask_.data() + s_index * mask_words_;
  auto w = static_cast<std::size_t>(from) / 64;
  std::uint64_t bits =
      mask[w] & (~std::uint64_t{0} >>
                 (63 - static_cast<std::size_t>(from) % 64));
  for (;;) {
    if (bits != 0) {
      const int b = static_cast<int>(
          w * 64 + (63 - static_cast<std::size_t>(std::countl_zero(bits))));
      return b >= limit ? b : limit - 1;
    }
    if (w == 0) return limit - 1;
    bits = mask[--w];
  }
}

void SiteBlock::move_bucket(const SiteState& site, int server, int old_free,
                            int new_free) {
  // Clamp defensively: a shape larger than a server must not index out
  // of range.
  const auto from = std::clamp(old_free, 0, top_);
  const auto to = std::clamp(new_free, 0, top_);
  if (from == to) return;
  const auto i = static_cast<std::size_t>(server);
  const std::uint64_t bit = std::uint64_t{1} << (i % kWordBits);
  bucket(site, from)[i / kWordBits] &= ~bit;
  bucket(site, to)[i / kWordBits] |= bit;
  const auto s_index = static_cast<std::size_t>(&site - sites_.data());
  if (--bucket_count_[site.count_base + static_cast<std::size_t>(from)] ==
      0) {
    update_mask(s_index, from, false);
  }
  if (++bucket_count_[site.count_base + static_cast<std::size_t>(to)] == 1) {
    update_mask(s_index, to, true);
  }
}

void SiteBlock::attach(SiteState& site, int server, std::int64_t vm_id,
                       int cores, double memory_gb, bool degradable) {
  const std::size_t idx = site.server_base + static_cast<std::size_t>(server);
  const int old_free = free_cores_[idx];
  const bool was_top_used = old_free == top_ && vm_count_[idx] > 0;
  free_cores_[idx] -= cores;
  free_memory_gb_[idx] -= memory_gb;
  if (++vm_count_[idx] == 1) {
    ++site.powered_servers;
    occupied_[idx / kWordBits] |= std::uint64_t{1} << (idx % kWordBits);
  }
  site.top_used +=
      static_cast<int>(free_cores_[idx] == top_ && vm_count_[idx] > 0) -
      static_cast<int>(was_top_used);
  move_bucket(site, server, old_free, free_cores_[idx]);
  site.allocated_cores += cores;
  site.allocated_memory_gb += memory_gb;
  std::vector<Victim>& order = victims_[idx];
  const Victim entry{degradable ? 0 : 1, vm_id, cores, memory_gb};
  const auto pos = std::lower_bound(
      order.begin(), order.end(), entry, [](const Victim& a, const Victim& b) {
        return a.rank != b.rank ? a.rank < b.rank : a.vm_id < b.vm_id;
      });
  order.insert(pos, entry);
}

void SiteBlock::detach(SiteState& site, int server, const Victim& entry) {
  const std::size_t idx = site.server_base + static_cast<std::size_t>(server);
  const int old_free = free_cores_[idx];
  const bool was_top_used = old_free == top_ && vm_count_[idx] > 0;
  free_cores_[idx] += entry.cores;
  free_memory_gb_[idx] += entry.memory_gb;
  if (--vm_count_[idx] == 0) {
    --site.powered_servers;
    occupied_[idx / kWordBits] &= ~(std::uint64_t{1} << (idx % kWordBits));
  }
  site.top_used +=
      static_cast<int>(free_cores_[idx] == top_ && vm_count_[idx] > 0) -
      static_cast<int>(was_top_used);
  move_bucket(site, server, old_free, free_cores_[idx]);
  std::vector<Victim>& order = victims_[idx];
  const auto pos = std::lower_bound(
      order.begin(), order.end(), entry, [](const Victim& a, const Victim& b) {
        return a.rank != b.rank ? a.rank < b.rank : a.vm_id < b.vm_id;
      });
  order.erase(pos);
  site.allocated_cores -= entry.cores;
  site.allocated_memory_gb -= entry.memory_gb;
}

int SiteBlock::place(std::size_t s, std::int64_t vm_id, int cores,
                     double memory_gb, bool degradable, BlockPolicy policy) {
  SiteState& site = sites_[s];
  int server = -1;
  switch (policy) {
    case BlockPolicy::first_fit:
      server = choose_first_fit(site, cores, memory_gb);
      break;
    case BlockPolicy::best_fit:
      server = choose_best_fit(site, cores, memory_gb);
      break;
    case BlockPolicy::worst_fit:
      server = choose_worst_fit(site, cores, memory_gb);
      break;
  }
  if (server < 0) return -1;
  attach(site, server, vm_id, cores, memory_gb, degradable);
  return server;
}

void SiteBlock::remove(std::size_t s, int server, std::int64_t vm_id,
                       int cores, double memory_gb, bool degradable) {
  detach(sites_[s], server, Victim{degradable ? 0 : 1, vm_id, cores,
                                   memory_gb});
}

int SiteBlock::next_occupied(const SiteState& site, int from,
                             int limit) const {
  if (from >= limit) return limit;
  const std::size_t base = site.server_base;
  const std::size_t end = base + static_cast<std::size_t>(limit);
  std::size_t i = base + static_cast<std::size_t>(from);
  std::size_t w = i / kWordBits;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (i % kWordBits));
  for (;;) {
    if (bits != 0) {
      i = w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
      return i < end ? static_cast<int>(i - base) : limit;
    }
    if (++w * kWordBits >= end) return limit;
    bits = occupied_[w];
  }
}

void SiteBlock::evict_from(SiteState& site, int server, int available_cores,
                           std::vector<Evicted>& out) {
  std::vector<Victim>& order =
      victims_[site.server_base + static_cast<std::size_t>(server)];
  while (!order.empty() && site.allocated_cores > available_cores) {
    const Victim entry = order.front();
    out.push_back(Evicted{entry.vm_id, entry.cores, entry.memory_gb, server,
                          entry.rank == 0});
    detach(site, server, entry);  // also pops the victim entry
  }
}

void SiteBlock::shrink_to(std::size_t s, int available_cores,
                          std::vector<Evicted>& out) {
  SiteState& site = sites_[s];
  if (site.allocated_cores <= available_cores) return;

  // Round-robin over servers from the persistent cursor — [cursor, n),
  // then [0, cursor) — visiting only occupied ones (an empty server has
  // nothing to evict); within a server the victim order (degradable
  // first, then vm_id) is already maintained by attach/detach.
  const int n = site.n_servers;
  const int cursor = site.eviction_cursor;
  for (int server = next_occupied(site, cursor, n);
       server < n && site.allocated_cores > available_cores;
       server = next_occupied(site, server + 1, n)) {
    evict_from(site, server, available_cores, out);
  }
  for (int server = next_occupied(site, 0, cursor);
       server < cursor && site.allocated_cores > available_cores;
       server = next_occupied(site, server + 1, cursor)) {
    evict_from(site, server, available_cores, out);
  }
  site.eviction_cursor = (cursor + 1) % n;
}

void SiteBlock::fail_servers(std::size_t s, int count,
                             std::vector<Evicted>& out) {
  SiteState& site = sites_[s];
  const int n = site.n_servers;
  for (int i = 0; i < n && count > 0; ++i) {
    const std::size_t idx = site.server_base + static_cast<std::size_t>(i);
    if (failed_[idx]) continue;
    --count;
    // Evict residents in the per-server victim order (degradable first,
    // then vm_id — the same priority-class order a power shrink uses).
    std::vector<Victim>& order = victims_[idx];
    while (!order.empty()) {
      const Victim entry = order.front();
      out.push_back(
          Evicted{entry.vm_id, entry.cores, entry.memory_gb, i,
                  entry.rank == 0});
      detach(site, i, entry);  // also pops the victim entry
    }
    // The server is empty now (all cores free): pull it out of the
    // bucket index so no choose query can see it until repair.
    const int b = free_cores_[idx];
    bucket(site, b)[static_cast<std::size_t>(i) / kWordBits] &=
        ~(std::uint64_t{1} << (static_cast<std::size_t>(i) % kWordBits));
    if (--bucket_count(site, b) == 0) {
      update_mask(s, b, false);
    }
    failed_[idx] = 1;
    ++site.failed_servers;
  }
}

void SiteBlock::repair_servers(std::size_t s, int count) {
  SiteState& site = sites_[s];
  const int n = site.n_servers;
  for (int i = 0; i < n && count > 0; ++i) {
    const std::size_t idx = site.server_base + static_cast<std::size_t>(i);
    if (!failed_[idx]) continue;
    --count;
    const int b = free_cores_[idx];
    bucket(site, b)[static_cast<std::size_t>(i) / kWordBits] |=
        std::uint64_t{1} << (static_cast<std::size_t>(i) % kWordBits);
    if (++bucket_count(site, b) == 1) {
      update_mask(s, b, true);
    }
    failed_[idx] = 0;
    --site.failed_servers;
  }
}

int SiteBlock::first_fit_in_bucket(const SiteState& site, int b, int cores,
                                   double memory_gb) const {
  const std::uint64_t* const words = bucket(site, b);
  for (std::size_t w = 0; w < site.n_words; ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const auto i = w * kWordBits +
                     static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const std::size_t idx = site.server_base + i;
      if (free_cores_[idx] >= cores && free_memory_gb_[idx] >= memory_gb) {
        return static_cast<int>(i);
      }
    }
  }
  return -1;
}

int SiteBlock::choose_first_fit(const SiteState& site, int cores,
                                double memory_gb) const {
  const int lo = std::clamp(cores, 0, top_ + 1);
  if (lo > top_) return -1;
  // Lowest server id across every viable bucket: merge the buckets word
  // by word so ids come out in index order.
  for (std::size_t w = 0; w < site.n_words; ++w) {
    std::uint64_t merged = 0;
    for (int b = lo; b <= top_; ++b) {
      if (bucket_count(site, b) > 0) merged |= bucket(site, b)[w];
    }
    while (merged != 0) {
      const auto i = w * kWordBits +
                     static_cast<std::size_t>(std::countr_zero(merged));
      merged &= merged - 1;
      const std::size_t idx = site.server_base + i;
      if (free_cores_[idx] >= cores && free_memory_gb_[idx] >= memory_gb) {
        return static_cast<int>(i);
      }
    }
  }
  return -1;
}

int SiteBlock::choose_best_fit(const SiteState& site, int cores,
                               double memory_gb) const {
  const int lo = std::clamp(cores, 0, top_ + 1);
  const auto s_index = static_cast<std::size_t>(&site - sites_.data());
  // Buckets below the top hold only partially-used servers (an empty
  // server has every core free), so the first fit there is the answer.
  for (int b = next_nonempty(s_index, lo, top_); b < top_;
       b = next_nonempty(s_index, b + 1, top_)) {
    const int hit = first_fit_in_bucket(site, b, cores, memory_gb);
    if (hit >= 0) return hit;
  }
  if (lo > top_ || bucket_count(site, top_) == 0) return -1;
  // Top bucket: prefer a server already hosting VMs (never start an empty
  // server if a partially-used one fits) — only zero-core VMs can put a
  // used server here. With none present (the overwhelmingly common case,
  // tracked by top_used), every candidate is a factory-empty server with
  // identical capacity: answer with the first set bit instead of sweeping
  // per-server columns.
  if (site.top_used == 0) {
    if (cores > top_ || memory_gb > server_memory_gb_) return -1;
    const std::uint64_t* const words = bucket(site, top_);
    for (std::size_t w = 0; w < site.n_words; ++w) {
      if (words[w] != 0) {
        return static_cast<int>(w * kWordBits +
                                static_cast<std::size_t>(
                                    std::countr_zero(words[w])));
      }
    }
    return -1;  // unreachable: bucket_count(top_) > 0
  }
  int first_empty = -1;
  const std::uint64_t* const words = bucket(site, top_);
  for (std::size_t w = 0; w < site.n_words; ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const auto i = w * kWordBits +
                     static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const std::size_t idx = site.server_base + i;
      if (free_cores_[idx] < cores || free_memory_gb_[idx] < memory_gb) {
        continue;
      }
      if (vm_count_[idx] > 0) return static_cast<int>(i);
      if (first_empty < 0) first_empty = static_cast<int>(i);
    }
  }
  return first_empty;
}

int SiteBlock::choose_worst_fit(const SiteState& site, int cores,
                                double memory_gb) const {
  const int lo = std::clamp(cores, 0, top_ + 1);
  if (lo > top_) return -1;
  const auto s_index = static_cast<std::size_t>(&site - sites_.data());
  for (int b = prev_nonempty(s_index, top_, lo); b >= lo;
       b = prev_nonempty(s_index, b - 1, lo)) {
    const int hit = first_fit_in_bucket(site, b, cores, memory_gb);
    if (hit >= 0) return hit;
  }
  return -1;
}

}  // namespace vbatt::dcsim
