// Self-test of the output checks: each workload's checks must pass on a
// clean output and fail on a deliberately corrupted one.  Run with
// `python3 perfbench/run.py --self-test`; exits non-zero on a miss.

#include "dense.hpp"
#include "graph.hpp"
#include "kv.hpp"

#include "algorithms/p_sort.hpp"

#include <atomic>

namespace perfbench {

using namespace stapl;

namespace {

std::atomic<int> g_missed{0};

/// Location 0 prints one case; `failures` must be 0 when `clean`, else > 0.
void expect(char const* what, bool clean, std::uint64_t failures)
{
  if (this_location() != 0)
    return;
  bool const ok = clean ? failures == 0 : failures != 0;
  std::printf("%-58s %s\n", what,
              ok ? (clean ? "passes" : "caught") : "MISSED");
  if (!ok)
    ++g_missed;
}

void dense_cases()
{
  dense_input const in(std::size_t{1} << 14, 7);
  execute(locations, [&] {
    dense_state st(in);
    report rep;
    (void)st.iterate(&rep);
    expect("dense: clean pipeline", true, rep.failed);

    long const good = in.s2 + 2 * in.s1 + static_cast<long>(in.n);
    expect("dense: map_reduce closed form (clean)", true,
           st.check_map_reduce(good, 1));
    expect("dense: map_reduce result off by one", false,
           st.check_map_reduce(good + 1, 1));

    if (this_location() == 0)
      st.ps.set_element(in.n / 3, -1);
    fence();
    expect("dense: one partial_sum value corrupted", false,
           st.check_partial_sum(1));

    std::uint64_t fp[3];
    st.refill_sort(2);
    st.sort_fingerprint(fp);
    p_sample_sort(st.s);
    expect("dense: sort output (clean)", true, st.check_sort(fp));
    // Swap two elements: still a permutation, no longer sorted.
    if (this_location() == 0) {
      long const x = st.s.get_element(0), y = st.s.get_element(in.n - 1);
      st.s.set_element(0, y);
      st.s.set_element(in.n - 1, x);
    }
    fence();
    expect("dense: sort output with two elements swapped", false,
           st.check_sort(fp));
    if (this_location() == 0) {
      long const x = st.s.get_element(0), y = st.s.get_element(in.n - 1);
      st.s.set_element(0, y);
      st.s.set_element(in.n - 1, x);
      // Sorted, but one element duplicated over its successor.
      st.s.set_element(in.n / 2 + 1, st.s.get_element(in.n / 2));
    }
    fence();
    expect("dense: sorted output that is not a permutation", false,
           st.check_sort(fp));
  });
}

void kv_cases()
{
  kv_params p;
  p.keys = 1024;
  p.ops_per_sub_round = 256;
  zipf_sampler const zipf(p.keys);
  execute(locations, [&] {
    kv_state st(p, zipf, 7);
    st.round(nullptr);
    st.round(nullptr);
    expect("kv: finds of preloaded keys (clean)", true, sum_all(st.bad_finds));
    expect("kv: final size / value sum (clean)", true, st.check_totals());
    std::uint64_t const missed = find_ok(st.map.find_val(-5)) ? 0 : 1;
    expect("kv: a find that misses", false, sum_all(missed));
    if (this_location() == 0)
      st.map.apply_async(3, [](long& v) { v += 1; }); // uncounted update
    fence();
    expect("kv: one update delivered twice", false, st.check_totals());
    if (this_location() == 0)
      st.map.apply_async(3, [](long& v) { v -= 1; });
    fence();
    expect("kv: size / value sum after undoing it (clean)", true,
           st.check_totals());
    if (this_location() == 0)
      st.map.insert_async(-7, 0); // uncounted key, value sum unchanged
    fence();
    expect("kv: one extra key", false, st.check_totals());
  });
}

void graph_cases()
{
  graph_params p;
  p.vertices = 1024;
  p.churn = 4;
  execute(locations, [&] {
    graph_state st(p, 7);
    (void)st.drain_all();
    (void)st.round();
    expect("graph: edge count / rank mass (clean)", true, st.check());
    if (this_location() == 0) {
      // An edge to a vertex v is not yet adjacent to.
      auto const t = st.g.out_edges(0);
      std::size_t w = 1;
      while (std::find(t.begin(), t.end(), w) != t.end())
        ++w;
      st.g.add_edge_async(0, w);
    }
    fence();
    expect("graph: one extra edge", false, st.check());
    if (this_location() == 0) {
      auto const t = st.g.out_edges(0);
      st.g.delete_edge(0, t.back());
    }
    fence();
    expect("graph: after removing it again (clean)", true, st.check());
    if (this_location() == 0)
      st.g.apply_vertex(1, [](auto& rec) { rec.property.residual += 1e-3; });
    fence();
    expect("graph: uncounted residual mass", false, st.check());
  });
}

} // namespace

int run_selftest()
{
  dense_cases();
  kv_cases();
  graph_cases();
  std::printf("%d check(s) missed a corruption\n", g_missed.load());
  return g_missed.load() == 0 ? 0 : 1;
}

} // namespace perfbench
