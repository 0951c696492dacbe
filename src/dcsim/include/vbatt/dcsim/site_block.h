// SoA container for a contiguous block of sites — the one site container.
// The fleet engine runs one block per shard; simulate_site (site_sim.h)
// runs a one-site block. It models §3's site: power down unallocated cores
// first, then evict VMs from servers in round-robin order.
//
// State lives in flat parallel arrays shared by every site in the block —
// server free-resource columns, one contiguous free-cores bucket-bitset
// region, per-server victim lists (degradable first, then vm_id) that
// carry the victim's shape inline — so a shard's tick touches a few dense
// arrays instead of chasing pointers, and shrink_to never rebuilds or
// sorts. testkit::RefSite (vbatt/testkit/ref_site.h) is the frozen
// linear-scan oracle: tests/test_dcsim_site_block.cpp and the
// dcsim.placement_diff fuzz property demand identical answers from both.
// SiteBlock keeps no departure calendar and no per-VM records: callers own
// VM identity (the fleet engine in its SoA arrays, simulate_site in its VM
// table) and their own calendars; SiteBlock only needs each resident's
// shape, which its victim entries carry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vbatt::dcsim {

struct ServerSpec {
  int cores = 40;
  double memory_gb = 512.0;
};

struct SiteConfig {
  int n_servers = 700;
  ServerSpec server{};
};

/// The allocation policies the VM-level engines use (a strategy object is
/// pointless here: the block answers choose queries itself).
enum class BlockPolicy { first_fit, best_fit, worst_fit };

class SiteBlock {
 public:
  /// A VM evicted by shrink_to or fail_servers. Shape and class ride
  /// along so the caller needs no side lookup to detach its bookkeeping.
  struct Evicted {
    std::int64_t vm_id = 0;
    std::int32_t cores = 0;
    double memory_gb = 0.0;
    std::int32_t server = -1;
    bool degradable = false;
  };

  /// One config per site in the block (empty = inert block). All sites
  /// must share one ServerSpec (the VM-level engines size every site from
  /// the same config.server); throws std::invalid_argument otherwise.
  explicit SiteBlock(const std::vector<SiteConfig>& configs);

  std::size_t n_sites() const noexcept { return sites_.size(); }
  int n_servers(std::size_t s) const { return sites_[s].n_servers; }
  int allocated_cores(std::size_t s) const { return sites_[s].allocated_cores; }
  double allocated_memory_gb(std::size_t s) const {
    return sites_[s].allocated_memory_gb;
  }
  int powered_servers(std::size_t s) const { return sites_[s].powered_servers; }
  /// Cores in use on powered servers — equals allocated cores, since only
  /// VMs allocate and only VM-hosting servers are powered.
  int active_cores(std::size_t s) const { return sites_[s].allocated_cores; }
  int failed_servers(std::size_t s) const { return sites_[s].failed_servers; }

  /// Choose a server under `policy` and commit the placement. Returns the
  /// hosting server id or -1 when no healthy server fits. Best fit prefers
  /// a server already hosting VMs over an empty one (zero-core VMs can
  /// leave a used server with every core free), then the least free cores;
  /// every policy breaks remaining ties to the lowest index.
  int place(std::size_t s, std::int64_t vm_id, int cores, double memory_gb,
            bool degradable, BlockPolicy policy);

  /// Detach one resident VM (departure or migration). The caller names
  /// the hosting server and the VM's shape/class exactly as placed.
  void remove(std::size_t s, int server, std::int64_t vm_id, int cores,
              double memory_gb, bool degradable);

  /// Evict round-robin until allocated cores <= available_cores,
  /// appending victims to `out` in eviction order (servers from the
  /// cursor onward, wrapping; per server degradable first, then vm_id —
  /// degradable VMs absorb the hit, per §3.1). The persistent cursor
  /// advances only when the site was over budget on entry.
  void shrink_to(std::size_t s, int available_cores,
                 std::vector<Evicted>& out);

  /// Take `count` healthy servers offline (lowest index first), evicting
  /// their residents into `out` in per-server victim order. No policy can
  /// choose a failed server until repair.
  void fail_servers(std::size_t s, int count, std::vector<Evicted>& out);

  /// Return `count` failed servers to service (lowest index first).
  void repair_servers(std::size_t s, int count);

 private:
  /// Victim-order entry: sorted by (rank, vm_id); rank 0 = degradable,
  /// 1 = stable (degradable VMs are evicted first). Shape rides along so
  /// evictions never consult caller state.
  struct Victim {
    std::int32_t rank = 0;
    std::int64_t vm_id = 0;
    std::int32_t cores = 0;
    double memory_gb = 0.0;
  };

  /// Per-site header over the flat server/bucket columns.
  struct SiteState {
    std::int32_t n_servers = 0;
    std::size_t server_base = 0;  // index into server columns / victims_
    std::size_t word_base = 0;    // index into bucket_words_, per bucket
    std::size_t n_words = 0;      // bitset words per bucket at this site
    std::size_t count_base = 0;   // index into bucket_count_
    int allocated_cores = 0;
    double allocated_memory_gb = 0.0;
    int powered_servers = 0;
    int failed_servers = 0;
    int eviction_cursor = 0;
    /// Servers in the top (all-cores-free) bucket that still host VMs —
    /// only zero-core VMs can create them. While 0, best-fit's "prefer a
    /// used server" sweep over the top bucket is provably empty, so the
    /// query short-circuits to the first set bit (every candidate is a
    /// factory-empty server with identical capacity).
    int top_used = 0;
  };

  void move_bucket(const SiteState& site, int server, int old_free,
                   int new_free);
  void attach(SiteState& site, int server, std::int64_t vm_id, int cores,
              double memory_gb, bool degradable);
  /// Pops the victim entry and restores free resources; `entry` must be a
  /// current victim of `server`.
  void detach(SiteState& site, int server, const Victim& entry);

  int choose_first_fit(const SiteState& site, int cores,
                       double memory_gb) const;
  int choose_best_fit(const SiteState& site, int cores,
                      double memory_gb) const;
  int choose_worst_fit(const SiteState& site, int cores,
                       double memory_gb) const;
  /// Lowest-index fitting server in bucket `b` of `site`; -1 if none.
  int first_fit_in_bucket(const SiteState& site, int b, int cores,
                          double memory_gb) const;

  std::uint64_t* bucket(const SiteState& site, int b) {
    return bucket_words_.data() + site.word_base +
           static_cast<std::size_t>(b) * site.n_words;
  }
  const std::uint64_t* bucket(const SiteState& site, int b) const {
    return bucket_words_.data() + site.word_base +
           static_cast<std::size_t>(b) * site.n_words;
  }
  int& bucket_count(const SiteState& site, int b) {
    return bucket_count_[site.count_base + static_cast<std::size_t>(b)];
  }
  int bucket_count(const SiteState& site, int b) const {
    return bucket_count_[site.count_base + static_cast<std::size_t>(b)];
  }

  int top_ = 0;  // server cores; bucket ids run 0..top_
  double server_memory_gb_ = 0.0;
  std::vector<SiteState> sites_;

  // Server columns, all indexed by site.server_base + local server id.
  std::vector<std::int32_t> free_cores_;
  std::vector<double> free_memory_gb_;
  std::vector<std::int32_t> vm_count_;
  /// One bit per server of the block (at server_base + local id), set
  /// while vm_count_ > 0, so shrink_to visits only occupied servers.
  std::vector<std::uint64_t> occupied_;
  std::vector<std::uint8_t> failed_;
  std::vector<std::vector<Victim>> victims_;

  /// All bucket bitsets of the whole block, one contiguous region:
  /// site s, bucket b lives at [word_base + b*n_words, +n_words).
  std::vector<std::uint64_t> bucket_words_;
  /// Population per (site, bucket), flat at bucket_count_base + b.
  std::vector<int> bucket_count_;
  /// One bit per bucket, set while the bucket is nonempty, so choose
  /// queries skip empty fill levels with a bit scan instead of walking
  /// the count array. Site s's mask starts at s * mask_words_.
  std::vector<std::uint64_t> bucket_mask_;
  std::size_t mask_words_ = 0;

  void update_mask(std::size_t s_index, int b, bool nonempty) {
    const std::size_t w =
        s_index * mask_words_ + static_cast<std::size_t>(b) / 64;
    const std::uint64_t bit = std::uint64_t{1}
                              << (static_cast<std::size_t>(b) % 64);
    if (nonempty) {
      bucket_mask_[w] |= bit;
    } else {
      bucket_mask_[w] &= ~bit;
    }
  }
  /// Lowest occupied local server id of `site` in [from, limit), or
  /// `limit` if none.
  int next_occupied(const SiteState& site, int from, int limit) const;
  /// Evict `server`'s residents (victim order) into `out` while the site
  /// is over `available_cores`.
  void evict_from(SiteState& site, int server, int available_cores,
                  std::vector<Evicted>& out);
  /// Lowest nonempty bucket id in [from, limit), or `limit` if none.
  int next_nonempty(std::size_t s_index, int from, int limit) const;
  /// Highest nonempty bucket id in [limit, from], or limit - 1 if none.
  int prev_nonempty(std::size_t s_index, int from, int limit) const;
};

}  // namespace vbatt::dcsim
