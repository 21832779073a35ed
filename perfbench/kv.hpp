#ifndef STAPL_PERFBENCH_KV_HPP
#define STAPL_PERFBENCH_KV_HPP

#include "common.hpp"

#include "containers/p_associative.hpp"

namespace perfbench {

struct kv_params {
  /// The `lookup` workload: finds only, on a map without load balancing
  /// (static hashed resolution), one sub-round per round, no waves.
  bool read_only = false;
  std::size_t keys = std::size_t{1} << 17;  ///< preloaded key space
  std::size_t ops_per_sub_round = 1024;     ///< per client
  /// Fresh keys per client.  Inserts past the cap re-insert the client's
  /// earlier fresh keys (a no-op on a unique map), so the map stops growing
  /// early in a run and the peak RSS does not track the throughput.
  std::size_t fresh_per_client = 8192;
};

/// Zipf(s=1) over [0, n) by inverse-CDF lookup; the caller owns the state.
class zipf_sampler {
 public:
  explicit zipf_sampler(std::size_t n);
  [[nodiscard]] std::size_t operator()(std::uint64_t& state) const;

 private:
  std::vector<double> m_cdf;
};

/// A find of a preloaded key must hit a value of at least 1.
[[nodiscard]] inline bool find_ok(std::pair<long, bool> const& r)
{
  return r.second && r.first >= 1;
}

/// One location's client and its share of the map.  Construction preloads
/// the key space (collective).
struct kv_state {
  kv_params const& p;
  zipf_sampler const& zipf;
  std::uint64_t seed;
  std::uint64_t rng;
  stapl::p_hash_map<long, long> map;
  std::uint64_t subs = 0;  ///< sub-rounds run (drives the hotspot drift)
  std::uint64_t finds = 0, bad_finds = 0, applies = 0, inserts = 0;
  /// Distinct fresh keys this client inserted.
  [[nodiscard]] std::uint64_t fresh() const
  {
    return std::min<std::uint64_t>(inserts, p.fresh_per_client);
  }

  kv_state(kv_params const& p, zipf_sampler const& zipf, std::uint64_t seed);

  /// Issues this client's ops of one sub-round, then fences.  Find
  /// latencies are recorded into `lat` when non-null.  Collective.
  void sub_round(latency_histogram* lat);
  /// Two sub-rounds and a rebalance wave (read-only: one sub-round).
  /// Collective.
  void round(latency_histogram* lat);
  /// Final size / value-sum checks; returns the number failed.  Collective.
  [[nodiscard]] std::uint64_t check_totals();
};

} // namespace perfbench

#endif
