#ifndef STAPL_PERFBENCH_DENSE_HPP
#define STAPL_PERFBENCH_DENSE_HPP

#include "common.hpp"

#include "containers/p_array.hpp"

namespace perfbench {

/// The seeded inputs of the dense pipeline and their serial references.
struct dense_input {
  std::size_t n;
  std::uint64_t seed;
  std::vector<long> f;       ///< initial a[i]
  std::vector<long> prefix;  ///< inclusive prefix sums of f
  long s1 = 0, s2 = 0;       ///< sum f, sum f^2

  dense_input(std::size_t n, std::uint64_t seed);
  /// The value sorted at position i of iteration t, before sorting.
  [[nodiscard]] long sort_value(std::size_t t, std::size_t i) const;
};

struct dense_times {
  double for_each = 0, map_reduce = 0, partial_sum = 0, sample_sort = 0;
  [[nodiscard]] double total() const
  {
    return for_each + map_reduce + partial_sum + sample_sort;
  }
};

/// The pipeline's containers on one location.  Construction populates them
/// (collective).
struct dense_state {
  dense_input const& in;
  stapl::p_array<long> a;   ///< for_each / map_reduce / partial_sum input
  stapl::p_array<long> ps;  ///< partial_sum output
  stapl::p_array<long> s;   ///< sorted in place
  std::size_t iteration = 0;  ///< for_each passes applied to `a`

  explicit dense_state(dense_input const& in);

  /// One pipeline iteration; `rep` receives the output checks on location
  /// 0 when non-null.  Collective.
  dense_times iterate(report* rep);

  // Output checks, each collective and returning the number of failures.
  void refill_sort(std::size_t t);
  void sort_fingerprint(std::uint64_t* out);
  [[nodiscard]] std::uint64_t check_map_reduce(long got, std::size_t t) const;
  [[nodiscard]] std::uint64_t check_partial_sum(std::size_t t);
  [[nodiscard]] std::uint64_t check_sort(std::uint64_t const* expect_fp);
};

} // namespace perfbench

#endif
