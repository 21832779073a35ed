// Workload `dense`: a pipeline over static p_arrays of 2^21 elements.
// Every iteration runs p_for_each, map_reduce, p_partial_sum and
// p_sample_sort, each timed with the Fig. 24 kernel (fence, call, fence,
// maximum over locations), and checks all four outputs:
//
//   * a[i] = f(i) + t after t for_each passes, so map_reduce(x*x) has the
//     closed form S2 + 2 t S1 + n t^2;
//   * partial_sum(a)[i] = F(i) + (i + 1) t with F the serial prefix of f;
//   * the sort output is globally sorted and keeps the input's checksum.

#include "common.hpp"
#include "dense.hpp"

#include "algorithms/p_algorithms.hpp"
#include "algorithms/p_sort.hpp"
#include "containers/p_array.hpp"
#include "views/views.hpp"

#include <functional>

namespace perfbench {

using namespace stapl;

namespace {

/// Sortedness + permutation fingerprint of a (sorted or unsorted) array.
struct fingerprint {
  std::uint64_t sum = 0, sq = 0, hx = 0;
};

[[nodiscard]] fingerprint local_fingerprint(p_array<long>& s)
{
  fingerprint f;
  s.for_each_local([&](gid1d, long& x) {
    auto const u = static_cast<std::uint64_t>(x);
    f.sum += u;
    f.sq += u * u;
    f.hx ^= mix(u);
  });
  return f;
}

[[nodiscard]] fingerprint global_fingerprint(p_array<long>& s)
{
  return allreduce(local_fingerprint(s), [](fingerprint a, fingerprint b) {
    return fingerprint{a.sum + b.sum, a.sq + b.sq, a.hx ^ b.hx};
  });
}

} // namespace

dense_input::dense_input(std::size_t n_, std::uint64_t seed_)
    : n(n_), seed(seed_), f(n_), prefix(n_)
{
  long run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    f[i] = static_cast<long>(mix(seed ^ (i * 0x100000001B3ull)) % 1000);
    run += f[i];
    prefix[i] = run;
    s1 += f[i];
    s2 += f[i] * f[i];
  }
}

long dense_input::sort_value(std::size_t t, std::size_t i) const
{
  return static_cast<long>(mix(seed * 31 + t * 0x9E3779B97F4A7C15ull + i) >>
                           24);
}

dense_state::dense_state(dense_input const& in_)
    : in(in_), a(in_.n), ps(in_.n), s(in_.n)
{
  a.for_each_local([this](gid1d g, long& x) { x = in.f[g]; });
  fence();
}

void dense_state::refill_sort(std::size_t t)
{
  s.for_each_local([this, t](gid1d g, long& x) { x = in.sort_value(t, g); });
  fence();
}

std::uint64_t dense_state::check_map_reduce(long got, std::size_t t) const
{
  long const tt = static_cast<long>(t);
  long const n = static_cast<long>(in.n);
  return got == in.s2 + 2 * tt * in.s1 + n * tt * tt ? 0 : 1;
}

std::uint64_t dense_state::check_partial_sum(std::size_t t)
{
  std::uint64_t bad = 0;
  ps.for_each_local([&](gid1d g, long& x) {
    bad += x != in.prefix[g] + static_cast<long>((g + 1) * t);
  });
  return sum_all(bad);
}

std::uint64_t dense_state::check_sort(std::uint64_t const* expect_fp)
{
  // Local order, then the boundary between consecutive locations.
  struct edge {
    long first = 0, last = 0;
    bool empty = true;
  };
  edge e;
  std::uint64_t bad = 0;
  long prev = 0;
  s.for_each_local([&](gid1d, long& x) {
    if (!e.empty && x < prev)
      ++bad;
    if (e.empty)
      e.first = x;
    e.empty = false;
    prev = x;
  });
  e.last = prev;
  auto const edges = allgather(e);
  if (this_location() == 0) {
    bool have = false;
    long last = 0;
    for (auto const& x : edges) {
      if (x.empty)
        continue;
      if (have && x.first < last)
        ++bad;
      have = true;
      last = x.last;
    }
  }
  fingerprint const fp = global_fingerprint(s);
  bad = sum_all(bad);
  if (fp.sum != expect_fp[0] || fp.sq != expect_fp[1] || fp.hx != expect_fp[2])
    ++bad;
  return bad;
}

void dense_state::sort_fingerprint(std::uint64_t* out)
{
  fingerprint const fp = global_fingerprint(s);
  out[0] = fp.sum;
  out[1] = fp.sq;
  out[2] = fp.hx;
}

dense_times dense_state::iterate(report* rep)
{
  std::size_t const t = ++iteration;
  dense_times tm;
  array_1d_view va(a);
  {
    PB_SPAN("algorithms", "p_for_each", collective);
    tm.for_each = timed_collective(
        [&] { p_for_each(va, [](long& x) { x += 1; }); });
  }
  long sum = 0;
  {
    PB_SPAN("algorithms", "map_reduce", collective);
    tm.map_reduce = timed_collective([&] {
      auto const r = map_reduce(va, [](long x) { return x * x; },
                                std::plus<>{});
      sum = r ? *r : 0;
    });
  }
  {
    PB_SPAN("algorithms", "p_partial_sum", collective);
    tm.partial_sum = timed_collective([&] { p_partial_sum(a, ps); });
  }
  refill_sort(t);
  std::uint64_t fp[3];
  sort_fingerprint(fp);
  {
    PB_SPAN("algorithms", "p_sample_sort", collective);
    tm.sample_sort = timed_collective([&] { p_sample_sort(s); });
  }

  std::uint64_t const bad_mr = check_map_reduce(sum, t);
  std::uint64_t const bad_ps = check_partial_sum(t);
  std::uint64_t const bad_sort = check_sort(fp);
  if (rep != nullptr && this_location() == 0) {
    rep->check(bad_mr == 0, "dense: map_reduce != closed form");
    rep->add_checks(in.n, bad_ps, "dense: partial_sum values");
    rep->check(bad_sort == 0, "dense: sort output unsorted or not a "
                              "permutation of its input");
  }
  return tm;
}

void run_dense(options const& opt, report& rep)
{
  std::size_t const n = std::size_t{1} << 21;
  dense_input const in(n, opt.seed);
  std::vector<dense_times> times;  // measured rounds, location 0
  auto const r = run_rounds<dense_state>(
      opt, 6, [&] { return std::make_unique<dense_state>(in); },
      [&](dense_state& st, bool measured) {
        dense_times const x = st.iterate(&rep);
        if (measured && this_location() == 0)
          times.push_back(x);
        return x.total();
      },
      [](dense_state&) {});

  report_rounds(opt, r, rep);
  // Element visits per second of pipeline time (four passes per round).
  rep.set("ops_per_s", 4.0 * static_cast<double>(n) *
                           static_cast<double>(r.round_s.size()) /
                           sum_of(r.round_s));
  auto med = [&](double dense_times::*f) {
    std::vector<double> v;
    for (auto const& x : times)
      v.push_back(x.*f);
    return median(v);
  };
  rep.set("dense.for_each_s", med(&dense_times::for_each));
  rep.set("dense.map_reduce_s", med(&dense_times::map_reduce));
  rep.set("dense.partial_sum_s", med(&dense_times::partial_sum));
  rep.set("dense.sample_sort_s", med(&dense_times::sample_sort));
}

} // namespace perfbench
