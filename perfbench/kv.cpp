// Workload `kv`: a closed loop of 4 clients (one per location, no think
// time) over a load-balanced p_hash_map.  The key space is preloaded with
// value 1; keys are drawn from Zipf(1) with a hotspot that drifts every
// round.  Mix: 70% find_val (timed by the caller), 20% apply_async(+1),
// 10% insert_async of fresh keys from a disjoint range, so the map grows
// (up to a cap of fresh keys per client; see kv_params).
// A round is two sub-rounds, each ended by a fence; the second is followed
// by a collective rebalance().
//
// Workload `lookup` is kv's read path alone: the same clients and Zipf
// drift over 2^20 keys, but 100% find_val on a map without load balancing
// (static hashed resolution), one fenced sub-round of 256 finds per client per
// round and no waves.  Every find is a synchronous round trip, so no
// message is left in flight when a round's fence runs.
//
// Checks: every find of a preloaded key hits with a value >= 1; after the
// final fence the map holds exactly preload + fresh keys and its values
// sum to preload + applies + fresh (exactly-once delivery under
// migration).

#include "kv.hpp"

#include "core/load_balancer.hpp"

#include <functional>

namespace perfbench {

using namespace stapl;

zipf_sampler::zipf_sampler(std::size_t n) : m_cdf(n)
{
  double sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    m_cdf[r] = sum;
  }
  for (auto& c : m_cdf)
    c /= sum;
}

std::size_t zipf_sampler::operator()(std::uint64_t& state) const
{
  state = mix(state);
  double const u =
      static_cast<double>(state >> 11) * (1.0 / 9007199254740992.0);
  return static_cast<std::size_t>(
      std::lower_bound(m_cdf.begin(), m_cdf.end(), u) - m_cdf.begin());
}

kv_state::kv_state(kv_params const& p_, zipf_sampler const& zipf_,
                   std::uint64_t seed_)
    : p(p_), zipf(zipf_), seed(seed_),
      rng(mix(seed_ ^ (0xA5A5A5A5ull * (this_location() + 1))))
{
  load_balancer_config lb;
  lb.imbalance_threshold = 1.10; // migrate eagerly: waves should move keys
  lb.hot_k = 256;
  if (!p.read_only)
    map.enable_load_balancing(lb);
  for (std::size_t k = this_location(); k < p.keys; k += num_locations()) {
    PB_SPAN("containers", "insert_async", async);
    map.insert_async(static_cast<long>(k), 1);
  }
  fence();
}

void kv_state::sub_round(latency_histogram* lat)
{
  // The Zipf head drifts across the key space every sub-round.
  std::size_t const hot_base =
      static_cast<std::size_t>(mix(seed + subs++) % p.keys);
  for (std::size_t i = 0; i < p.ops_per_sub_round; ++i) {
    rng = mix(rng);
    std::uint64_t const dice = p.read_only ? 0 : rng % 10;
    long const key =
        static_cast<long>((hot_base + zipf(rng)) % p.keys);
    if (dice < 7) {
      std::uint64_t const t0 = now_ns();
      std::pair<long, bool> r;
      {
        PB_SPAN("containers", "find_val", sync);
        r = map.find_val(key);
      }
      if (lat != nullptr)
        lat->record(now_ns() - t0);
      ++finds;
      bad_finds += !find_ok(r);
    } else if (dice < 9) {
      PB_SPAN("containers", "apply_async", async);
      map.apply_async(key, [](long& v) { v += 1; });
      ++applies;
    } else {
      long const fresh = static_cast<long>(
          p.keys + this_location() +
          num_locations() * (inserts % p.fresh_per_client));
      PB_SPAN("containers", "insert_async", async);
      map.insert_async(fresh, 1);
      ++inserts;
    }
  }
  fence();
}

void kv_state::round(latency_histogram* lat)
{
  sub_round(lat);
  if (p.read_only)
    return;
  sub_round(lat);
  PB_SPAN("load_balancer", "rebalance", collective);
  (void)map.rebalance();
}

std::uint64_t kv_state::check_totals()
{
  fence();
  std::uint64_t local_n = 0, local_sum = 0;
  map.for_each_local([&](long, long& v) {
    ++local_n;
    local_sum += static_cast<std::uint64_t>(v);
  });
  std::uint64_t const n = sum_all(local_n);
  std::uint64_t const total = sum_all(local_sum);
  std::uint64_t const ins = sum_all(fresh());
  std::uint64_t const app = sum_all(applies);
  std::uint64_t bad = 0;
  bad += n != p.keys + ins;
  bad += map.size() != p.keys + ins;
  bad += total != p.keys + app + ins;
  return bad;
}

void run_kv(options const& opt, report& rep, bool read_only)
{
  kv_params params;
  if (read_only) {
    params.read_only = true;
    // A larger key space makes the preload (set-up) long enough that a
    // host stall of a few ms does not dominate it.
    params.keys = std::size_t{1} << 20;
    // Short rounds: a location descheduled by the host stalls every find
    // sent to it, and the median of many short rounds leaves those stalls
    // out while the throughput keeps them.
    params.ops_per_sub_round = 256;
  }
  zipf_sampler const zipf(params.keys);
  std::vector<latency_histogram> lat(locations);
  auto const r = run_rounds<kv_state>(
      opt, read_only ? 400 : 40,
      [&] { return std::make_unique<kv_state>(params, zipf, opt.seed); },
      [&](kv_state& st, bool measured) {
        std::uint64_t const t0 = now_ns();
        st.round(measured ? &lat[this_location()] : nullptr);
        return max_all(seconds_since(t0));
      },
      [&](kv_state& st) {
        std::uint64_t const bad_finds = sum_all(st.bad_finds);
        std::uint64_t const finds = sum_all(st.finds);
        std::uint64_t const bad_totals = st.check_totals();
        if (this_location() == 0) {
          rep.add_checks(finds, bad_finds,
                         "kv: find of a preloaded key missed");
          rep.add_checks(3, bad_totals, "kv: final size / value sum");
        }
      });

  report_rounds(opt, r, rep);
  // Every round issues the same number of operations.
  double const ops_per_round = static_cast<double>(
      locations * params.ops_per_sub_round * (read_only ? 1 : 2));
  rep.set("ops_per_s", windowed_rate(r.round_end, ops_per_round));
  rep.set("mean_ops_per_s", ops_per_round *
                                static_cast<double>(r.round_s.size()) /
                                r.measured_s);
  latency_histogram all;
  for (auto const& h : lat)
    all.merge(h);
  rep.set("find.p50_us", 1e-3 * all.quantile(0.5));
  rep.set("find.p99_us", 1e-3 * all.quantile(0.99));
  rep.set("find.samples", static_cast<double>(all.count()));
}

} // namespace perfbench
