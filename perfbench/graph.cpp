// Workload `graph`: a dynamic_forwarding p_graph with
// dynamic_pagerank_property, built by generate_random and drained once.
// Each round every location rewires `churn` of its vertices' out-edges
// (rewire_edge_async: one routed visit each), kicks residual mass into
// them, and re-runs page_rank_incremental from exactly those vertices
// until the ranks have re-converged.
//
// Checks after every round: the edge count is unchanged (rewiring moves
// edges, never adds or drops them) and the push-PageRank mass identity
//   sum(rank) + sum(residual) / (1 - d) == 1 + kicked / (1 - d)
// holds, i.e. rank plus undrained residual matches the injected mass.

#include "graph.hpp"

#include "algorithms/graph_algorithms.hpp"
#include "containers/graph_generators.hpp"

#include <cmath>

namespace perfbench {

using namespace stapl;

graph_state::graph_state(graph_params const& p_, std::uint64_t seed_)
    : p(p_), seed(seed_), g(graph_partition_kind::dynamic_forwarding),
      rng(mix(seed_ ^ (0x5DEECE66Dull * (this_location() + 1))))
{
  {
    PB_SPAN("graph", "generate_random", collective);
    generate_random(g, p.vertices, p.degree, static_cast<unsigned>(seed));
  }
  {
    PB_SPAN("graph", "page_rank_push_init", collective);
    page_rank_push_init(g, damping);
  }
  locals = g.local_gids();
  edges = g.get_num_edges();
}

std::size_t graph_state::drain_all()
{
  PB_SPAN("graph", "page_rank_incremental", collective);
  return page_rank_incremental(g, locals, p.max_rounds, damping, p.epsilon);
}

graph_round graph_state::round()
{
  graph_round out;
  std::uint64_t const t0 = now_ns();
  std::vector<vertex_descriptor> touched;
  {
    PB_SPAN("graph", "churn", phase);
    for (std::size_t i = 0; i < p.churn && !locals.empty(); ++i) {
      rng = mix(rng);
      vertex_descriptor const v = locals[rng % locals.size()];
      std::vector<vertex_descriptor> targets;
      {
        PB_SPAN("graph", "out_edges", sync);
        targets = g.out_edges(v);
      }
      if (targets.empty())
        continue;
      rng = mix(rng);
      vertex_descriptor const old = targets[rng % targets.size()];
      // A new target that is neither v nor already adjacent, so the rewire
      // keeps the out-degree (and with it the rank-mass identity) exact.
      vertex_descriptor w = v;
      while (w == v ||
             std::find(targets.begin(), targets.end(), w) != targets.end()) {
        rng = mix(rng);
        w = rng % p.vertices;
      }
      {
        PB_SPAN("graph", "rewire_edge_async", async);
        g.rewire_edge_async(v, old, w);
      }
      {
        PB_SPAN("graph", "apply_vertex", async);
        g.apply_vertex(v, [kick = p.kick](auto& rec) {
          rec.property.residual += kick;
        });
      }
      kicked += p.kick;
      touched.push_back(v);
      // Later picks of the same vertex this round read its new adjacency
      // only after the fence, so rewire each vertex at most once a round.
      std::swap(*std::find(locals.begin(), locals.end(), v), locals.back());
      locals.pop_back();
      parked.push_back(v);
    }
    fence();
  }
  locals.insert(locals.end(), parked.begin(), parked.end());
  parked.clear();
  std::uint64_t const t1 = now_ns();
  {
    PB_SPAN("graph", "page_rank_incremental", collective);
    out.drains = page_rank_incremental(g, touched, p.max_rounds, damping,
                                       p.epsilon);
  }
  out.churn_s = max_all(static_cast<double>(t1 - t0) * 1e-9);
  out.update_s = max_all(seconds_since(t0));
  out.recompute_s = out.update_s - out.churn_s;
  return out;
}

std::uint64_t graph_state::check()
{
  std::uint64_t bad = 0;
  std::size_t e = 0;
  {
    PB_SPAN("graph", "get_num_edges", collective);
    e = g.get_num_edges();
  }
  bad += e != edges;
  double rank = 0, residual = 0;
  g.for_each_local_vertex([&](vertex_descriptor, auto& rec) {
    rank += rec.property.rank;
    residual += rec.property.residual;
  });
  fence();
  double const mass = sum_all(rank) + sum_all(residual) / (1.0 - damping);
  double const injected = 1.0 + sum_all(kicked) / (1.0 - damping);
  bad += !(std::fabs(mass - injected) <= 1e-9 * injected);
  return bad;
}

void run_graph(options const& opt, report& rep)
{
  graph_params const params;
  std::vector<graph_round> rounds;  // measured rounds, location 0
  std::size_t initial_drains = 0;
  std::uint64_t checks = 0, bad = 0;
  auto const r = run_rounds<graph_state>(
      opt, 40,
      [&] { return std::make_unique<graph_state>(params, opt.seed); },
      [&](graph_state& st, bool measured) {
        if (st.drains == 0) { // the warm-up starts with one full drain
          st.drains = st.drain_all();
          if (this_location() == 0)
            initial_drains = st.drains;
        }
        graph_round const x = st.round();
        std::uint64_t const b = st.check();
        if (this_location() == 0) {
          bad += b;
          checks += 2;
          if (measured)
            rounds.push_back(x);
        }
        return x.update_s;
      },
      [](graph_state&) {});

  rep.add_checks(checks, bad, "graph: edge count / rank mass");
  report_rounds(opt, r, rep);
  double churn = 0, recompute = 0, drains = 0;
  for (auto const& x : rounds) {
    churn += x.churn_s;
    recompute += x.recompute_s;
    drains += static_cast<double>(x.drains);
  }
  rep.set("ops_per_s", drains / recompute);
  rep.set("graph.initial_drains", static_cast<double>(initial_drains));
  if (opt.trace) {
    rep.set("graph.churn_s", churn);
    rep.set("graph.recompute_s", recompute);
    rep.set("graph.drains", drains);
  }
}

} // namespace perfbench
