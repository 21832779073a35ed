// Native references of the four dense algorithms on the same n and the
// same seeded inputs: serial std:: (raw.*) and OpenMP with 4 threads
// (omp.*), next to the library at P = 4 (algorithms.*).  The native
// fraction is the OpenMP ceiling's time over the library's (1 = as fast as
// native).  The raw.* and omp.* rows never change with the library: they
// detect drift of the machine.  Their outputs are checked like the
// library's.

#include "dense.hpp"

#include <algorithm>
#include <numeric>

#include <omp.h>

namespace perfbench {

using namespace stapl;

namespace {

constexpr int threads = 4;
constexpr std::size_t reps = 5;

struct native_times {
  std::vector<double> for_each, map_reduce, partial_sum, sample_sort;
};

template <typename F>
double timed(F&& f)
{
  std::uint64_t const t0 = now_ns();
  f();
  return seconds_since(t0);
}

/// Inclusive scan over 4 threads: per-block sums, a serial carry pass, then
/// per-block rescans.
void omp_partial_sum(std::vector<long> const& in, std::vector<long>& out)
{
  std::size_t const n = in.size();
  long carry[threads + 1] = {};
#pragma omp parallel num_threads(threads)
  {
    int const t = omp_get_thread_num();
    std::size_t const lo = n * t / threads, hi = n * (t + 1) / threads;
    long s = 0;
    for (std::size_t i = lo; i < hi; ++i)
      s += in[i];
    carry[t + 1] = s;
#pragma omp barrier
#pragma omp single
    for (int k = 1; k <= threads; ++k)
      carry[k] += carry[k - 1];
    s = carry[t];
    for (std::size_t i = lo; i < hi; ++i)
      out[i] = s += in[i];
  }
}

/// Per-thread sort of quarters, then two rounds of pairwise merges.
void omp_sort(std::vector<long>& v)
{
  std::size_t const n = v.size();
  auto cut = [n](int k) {
    return static_cast<std::ptrdiff_t>(n * static_cast<std::size_t>(k) /
                                       threads);
  };
#pragma omp parallel for num_threads(threads)
  for (int t = 0; t < threads; ++t)
    std::sort(v.begin() + cut(t), v.begin() + cut(t + 1));
#pragma omp parallel for num_threads(2)
  for (int t = 0; t < threads; t += 2)
    std::inplace_merge(v.begin() + cut(t), v.begin() + cut(t + 1),
                       v.begin() + cut(t + 2));
  std::inplace_merge(v.begin(), v.begin() + cut(2), v.end());
}

void run_native(dense_input const& in, bool omp, native_times& out,
                report& rep)
{
  std::size_t const n = in.n;
  std::vector<long> a = in.f, ps(n), s(n);
  long bad = 0;
  for (std::size_t t = 1; t <= reps; ++t) {
    long const tt = static_cast<long>(t);
    out.for_each.push_back(timed([&] {
      if (omp) {
#pragma omp parallel for num_threads(threads)
        for (std::size_t i = 0; i < n; ++i)
          a[i] += 1;
      } else {
        std::for_each(a.begin(), a.end(), [](long& x) { x += 1; });
      }
    }));
    long sum = 0;
    out.map_reduce.push_back(timed([&] {
      if (omp) {
        long acc = 0;
#pragma omp parallel for num_threads(threads) reduction(+ : acc)
        for (std::size_t i = 0; i < n; ++i)
          acc += a[i] * a[i];
        sum = acc;
      } else {
        sum = std::transform_reduce(a.begin(), a.end(), 0L, std::plus<>{},
                                    [](long x) { return x * x; });
      }
    }));
    bad += sum != in.s2 + 2 * tt * in.s1 + static_cast<long>(n) * tt * tt;
    out.partial_sum.push_back(timed([&] {
      if (omp)
        omp_partial_sum(a, ps);
      else
        std::partial_sum(a.begin(), a.end(), ps.begin());
    }));
    for (std::size_t i = 0; i < n; ++i)
      bad += ps[i] != in.prefix[i] + static_cast<long>(i + 1) * tt;
    for (std::size_t i = 0; i < n; ++i)
      s[i] = in.sort_value(t, i);
    out.sample_sort.push_back(timed([&] {
      if (omp)
        omp_sort(s);
      else
        std::sort(s.begin(), s.end());
    }));
    bad += !std::is_sorted(s.begin(), s.end());
  }
  rep.check(bad == 0, omp ? "omp reference outputs" : "raw reference outputs");
}

} // namespace

void run_references(std::uint64_t seed, report& rep)
{
  dense_input const in(std::size_t{1} << 21, seed);

  // The library first, at P = 4, with the dense workload's own pipeline.
  std::vector<double> lib[4];
  execute(locations, [&] {
    dense_state st(in);
    (void)st.iterate(nullptr);
    for (std::size_t i = 0; i < reps; ++i) {
      dense_times const x = st.iterate(&rep);
      if (this_location() == 0) {
        lib[0].push_back(x.for_each);
        lib[1].push_back(x.map_reduce);
        lib[2].push_back(x.partial_sum);
        lib[3].push_back(x.sample_sort);
      }
    }
  });

  native_times raw, omp;
  run_native(in, false, raw, rep);
  run_native(in, true, omp, rep);

  char const* names[4] = {"for_each", "map_reduce", "partial_sum",
                          "sample_sort"};
  std::vector<double> const* raws[4] = {&raw.for_each, &raw.map_reduce,
                                        &raw.partial_sum, &raw.sample_sort};
  std::vector<double> const* omps[4] = {&omp.for_each, &omp.map_reduce,
                                        &omp.partial_sum, &omp.sample_sort};
  for (int k = 0; k < 4; ++k) {
    std::string const nm = names[k];
    double const l = median(lib[k]), o = median(*omps[k]);
    rep.set("algorithms." + nm + "_s", l);
    rep.set("raw." + nm + "_s", median(*raws[k]));
    rep.set("omp." + nm + "_s", o);
    rep.set("algorithms." + nm + "_native_frac", o / l);
  }
}

} // namespace perfbench
