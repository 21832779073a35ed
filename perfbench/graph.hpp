#ifndef STAPL_PERFBENCH_GRAPH_HPP
#define STAPL_PERFBENCH_GRAPH_HPP

#include "common.hpp"

#include "algorithms/graph_algorithms.hpp"
#include "containers/p_graph.hpp"

namespace perfbench {

struct graph_params {
  std::size_t vertices = std::size_t{1} << 15;
  std::size_t degree = 4;
  std::size_t churn = 16;        ///< rewired vertices per location per round
  double kick = 1e-5;            ///< residual injected per rewired vertex
  double epsilon = 1e-7;         ///< residual left undrained
  std::size_t max_rounds = 1000; ///< drain rounds cap (never reached)
};

struct graph_round {
  double churn_s = 0, recompute_s = 0, update_s = 0;
  std::size_t drains = 0;
};

using bench_graph = stapl::p_graph<stapl::DIRECTED, stapl::NONMULTI,
                                   stapl::dynamic_pagerank_property,
                                   stapl::no_property>;

/// One location's share of the graph.  Construction builds and seeds it
/// (collective).
struct graph_state {
  static constexpr double damping = 0.85;
  graph_params const& p;
  std::uint64_t seed;
  bench_graph g;
  std::uint64_t rng;
  std::vector<stapl::vertex_descriptor> locals, parked;
  std::size_t edges = 0;
  double kicked = 0;  ///< residual this location injected
  std::size_t drains = 0;  ///< of the first full drain (0 before it)

  graph_state(graph_params const& p, std::uint64_t seed);

  /// Drains every vertex to convergence; returns the drain count.
  std::size_t drain_all();
  /// Churn then incremental recompute.  Collective.
  graph_round round();
  /// Edge-count and rank-mass checks; returns the number failed.
  [[nodiscard]] std::uint64_t check();
};

} // namespace perfbench

#endif
