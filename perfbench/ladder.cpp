// Layer cost ladder: ns per element or per operation from tight loops at
// P = 4, one rung per layer of the stack, run on every traced run.
//
//   raw std::vector -> bcontainer -> p_array local get_element -> local RMI
//   -> remote sync get / async set on the queue and direct transports
//   -> cached and cold directory resolve after make_dynamic()
//   -> empty rmi_fence -> allreduce under coll::set_mode(flat) and (tree)
//   -> per-task overhead of the task-graph executor
//   -> issue cost of a p_hash_map apply_async
//   -> rebalance waves of a load-balanced p_hash_map whose traffic all
//      lands on location 0 (the load_balancer.* metrics)
//   -> churn and incremental PageRank rounds on a small dynamic_forwarding
//      p_graph (the graph.* metrics, unless the graph workload ran).
//
// Each rung runs on all locations at once and reports the slowest
// location's cost, as the median of several repetitions.

#include "common.hpp"
#include "graph.hpp"

#include "containers/p_array.hpp"
#include "containers/p_associative.hpp"
#include "core/load_balancer.hpp"
#include "runtime/collectives.hpp"
#include "runtime/task_graph.hpp"

#include <atomic>
#include <functional>

namespace perfbench {

using namespace stapl;

namespace {

constexpr std::size_t reps = 5;

/// Median over `reps` of the slowest location's ns per op of `body`,
/// which performs `ops` operations.  Collective.
template <typename Body>
[[nodiscard]] double per_op_ns(std::size_t ops, Body&& body)
{
  std::vector<double> v;
  for (std::size_t r = 0; r < reps; ++r) {
    rmi_fence();
    std::uint64_t const t0 = now_ns();
    body();
    double const ns = static_cast<double>(now_ns() - t0) /
                      static_cast<double>(ops);
    v.push_back(max_all(ns));
  }
  return median(v);
}

/// Stores v on location 0's behalf into the report.
void put(report& rep, std::string const& name, double v)
{
  if (this_location() == 0)
    rep.set(name, v);
}

struct local_counter : p_object {
  long value = 0;
};

/// Keeps measured loops from being optimized away.
std::atomic<long> g_sink{0};

void sink(long v) { g_sink.store(v, std::memory_order_relaxed); }

void storage_rungs(report& rep)
{
  execute(locations, [&] {
    std::size_t const n = std::size_t{1} << 20;
    std::vector<long> raw(n, 1);
    put(rep, "ladder.raw_ns", per_op_ns(n, [&] {
      long s = 0;
      for (std::size_t i = 0; i < n; ++i)
        s += raw[i];
      sink(s);
    }));

    p_array<long> pa(n * num_locations(), 1);
    put(rep, "ladder.bcontainer_ns", per_op_ns(n, [&] {
      long s = 0;
      for (auto& [bcid, bc] : pa.get_location_manager())
        for (std::size_t i = 0, m = bc->size(); i < m; ++i)
          s += bc->at(i);
      sink(s);
    }));

    auto const locals = pa.local_gids();
    put(rep, "ladder.local_get_ns", per_op_ns(locals.size(), [&] {
      long s = 0;
      for (auto g : locals)
        s += pa.get_element(g);
      sink(s);
    }));

    local_counter obj;
    rmi_fence();
    std::size_t const calls = 1 << 18;
    put(rep, "ladder.local_rmi_ns", per_op_ns(calls, [&] {
      for (std::size_t i = 0; i < calls; ++i)
        async_rmi<local_counter>(this_location(), obj.get_handle(),
                                 [](local_counter& c) { ++c.value; });
    }));
    rmi_fence();
  });
}

void remote_rungs(report& rep, transport_kind tk, char const* suffix)
{
  runtime_config cfg;
  cfg.num_locations = locations;
  cfg.transport = tk;
  execute(cfg, [&] {
    std::size_t const per = 4096;
    p_array<long> pa(per * num_locations(), 1);
    gid1d const base = per * ((this_location() + 1) % num_locations());
    std::size_t const gets = 2000;
    put(rep, std::string("ladder.remote_get_") + suffix + "_ns",
        per_op_ns(gets, [&] {
          long s = 0;
          for (std::size_t i = 0; i < gets; ++i)
            s += pa.get_element(base + i % per);
          sink(s);
          rmi_fence(); // peers keep serving until everyone is done
        }));
    std::size_t const sets = 1 << 16;
    put(rep, std::string("ladder.remote_set_") + suffix + "_ns",
        per_op_ns(sets, [&] {
          for (std::size_t i = 0; i < sets; ++i)
            pa.set_element(base + i % per, static_cast<long>(i));
          rmi_fence();
        }));
  });
}

void directory_rungs(report& rep)
{
  execute(locations, [&] {
    std::size_t const n = 1024 * num_locations();
    p_array<long> pa(n, 0);
    pa.make_dynamic();
    auto& dir = pa.get_directory();
    // Targets neither owned nor homed here: a cold resolve is a full
    // synchronous round trip to a remote home.
    std::vector<std::size_t> targets;
    for (std::size_t g = 0; g < n && targets.size() < 256; ++g)
      if (!dir.owns(g) && dir.home_of(g) != this_location())
        targets.push_back(g);
    long s = 0;
    std::size_t const cold_rounds = 8;
    put(rep, "ladder.resolve_cold_ns",
        per_op_ns(cold_rounds * targets.size(), [&] {
          for (std::size_t r = 0; r < cold_rounds; ++r) {
            dir.clear_cache();
            for (auto g : targets)
              s += static_cast<long>(dir.resolve(g));
          }
          rmi_fence();
        }));
    std::size_t const warm_rounds = 200;
    put(rep, "ladder.resolve_cached_ns",
        per_op_ns(warm_rounds * targets.size(), [&] {
          for (std::size_t r = 0; r < warm_rounds; ++r)
            for (auto g : targets)
              s += static_cast<long>(dir.resolve(g));
        }));
    sink(s);
    rmi_fence();
  });
}

void collective_rungs(report& rep)
{
  execute(locations, [&] {
    std::size_t const fences = 2000;
    put(rep, "ladder.fence_ns", per_op_ns(fences, [&] {
      for (std::size_t i = 0; i < fences; ++i)
        rmi_fence();
    }));
    auto const saved = coll::get_mode();
    for (auto [m, name] : {std::pair{coll::mode::flat, "flat"},
                           std::pair{coll::mode::tree, "tree"}}) {
      location_barrier();
      if (this_location() == 0)
        coll::set_mode(m);
      location_barrier();
      std::size_t const ops = 4000;
      put(rep, std::string("ladder.allreduce_") + name + "_ns",
          per_op_ns(ops, [&] {
            long s = 0;
            for (std::size_t i = 0; i < ops; ++i)
              s += allreduce(static_cast<long>(i), std::plus<>{});
            sink(s);
          }));
    }
    location_barrier();
    if (this_location() == 0)
      coll::set_mode(saved);
    location_barrier();
  });
}

void task_rung(report& rep)
{
  execute(locations, [&] {
    std::size_t const per = 2048;
    put(rep, "ladder.task_ns", per_op_ns(per, [&] {
      task_graph<long> tg;
      for (std::size_t i = 0; i < per * num_locations(); ++i)
        (void)tg.add_task(static_cast<location_id>(i % num_locations()),
                          [](std::vector<long> const&, char const&) {
                            return 0L;
                          });
      tg.execute();
    }));
  });
}

void async_issue_rung(report& rep)
{
  execute(locations, [&] {
    std::size_t const keys = 1 << 14;
    p_hash_map<long, long> map;
    for (std::size_t k = this_location(); k < keys; k += num_locations())
      map.insert_async(static_cast<long>(k), 0);
    rmi_fence();
    std::size_t const ops = 1 << 16;
    std::uint64_t rng = mix(this_location() + 1);
    // Issue cost only: the fence that completes the ops is outside the
    // timed loop.
    std::vector<double> v;
    for (std::size_t r = 0; r < reps; ++r) {
      rmi_fence();
      std::uint64_t const t0 = now_ns();
      for (std::size_t i = 0; i < ops; ++i) {
        rng = mix(rng);
        map.apply_async(static_cast<long>(rng % keys),
                        [](long& x) { x += 1; });
      }
      double const ns = static_cast<double>(now_ns() - t0) /
                        static_cast<double>(ops);
      rmi_fence();
      v.push_back(max_all(ns));
    }
    put(rep, "containers.async_issue_ns", median(v));
  });
}

void load_balancer_rung(report& rep)
{
  std::vector<long> hot; // location 0's first keys, read by every location
  execute(locations, [&] {
    std::size_t const keys = 1 << 12;
    p_hash_map<long, long> map;
    load_balancer_config lb;
    lb.imbalance_threshold = 1.10;
    lb.hot_k = 64;
    map.enable_load_balancing(lb);
    for (std::size_t k = this_location(); k < keys; k += num_locations())
      map.insert_async(static_cast<long>(k), 0);
    rmi_fence();
    if (this_location() == 0) {
      hot = map.local_gids();
      hot.resize(std::min<std::size_t>(hot.size(), 128));
    }
    location_barrier();
    auto const before = metrics::global_snapshot();
    double wave_s = 0;
    std::size_t const waves = 4, ops = 1 << 14;
    for (std::size_t w = 0; w < waves; ++w) {
      for (std::size_t i = 0; i < ops; ++i)
        map.apply_async(hot[i % hot.size()], [](long& x) { x += 1; });
      rmi_fence();
      std::uint64_t const t0 = now_ns();
      (void)map.rebalance();
      wave_s += max_all(seconds_since(t0));
    }
    rmi_fence();
    auto const delta = snapshot_delta(before);
    if (this_location() == 0) {
      auto const get = [&](char const* k) {
        auto const it = delta.find(k);
        return it == delta.end() ? 0.0 : it->second;
      };
      rep.set("load_balancer.waves", get("lb.waves"));
      rep.set("load_balancer.migrations", get("lb.moves"));
      rep.set("load_balancer.rebalance_s", wave_s);
    }
  });
}

void graph_rung(report& rep, std::uint64_t seed)
{
  if (rep.metrics.count("graph.drains") != 0)
    return;  // the graph workload measured these itself
  graph_params p;
  p.vertices = std::size_t{1} << 12;
  execute(locations, [&] {
    graph_state st(p, seed);
    (void)st.drain_all();
    double churn = 0, recompute = 0, drains = 0;
    for (int r = 0; r < 10; ++r) {
      graph_round const x = st.round();
      churn += x.churn_s;
      recompute += x.recompute_s;
      drains += static_cast<double>(x.drains);
    }
    std::uint64_t const bad = st.check();
    if (this_location() == 0) {
      rep.check(bad == 0, "ladder: graph edge count / rank mass");
      rep.set("graph.churn_s", churn);
      rep.set("graph.recompute_s", recompute);
      rep.set("graph.drains", drains);
    }
  });
}

} // namespace

void run_ladder(report& rep, std::uint64_t seed)
{
  storage_rungs(rep);
  remote_rungs(rep, transport_kind::queue, "queue");
  remote_rungs(rep, transport_kind::direct, "direct");
  directory_rungs(rep);
  collective_rungs(rep);
  task_rung(rep);
  async_issue_rung(rep);
  load_balancer_rung(rep);
  graph_rung(rep, seed);
}

} // namespace perfbench
