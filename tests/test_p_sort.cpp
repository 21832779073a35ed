// Tests for parallel sample sort (the Ch. VI bucket kernel) across
// distributions, input patterns, location counts and both transports, and
// for the set_elements range write its write-back phase is built on.

#include "algorithms/p_algorithms.hpp"
#include "algorithms/p_sort.hpp"
#include "containers/p_array.hpp"
#include "containers/p_vector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>

namespace {

using namespace stapl;

/// Container the sort runs on.
enum class layout {
  balanced, ///< p_array, one balanced block per location
  vector,   ///< p_vector (dynamic-size indexed container)
  uneven,   ///< p_array over blocked_partition(137): 8 uneven blocks at
            ///< P=4, so owner boundaries fall inside buckets
  dynamic,  ///< p_array after make_dynamic(), a few elements migrated
};

struct sort_case {
  unsigned locations;
  std::size_t n;
  int pattern; // 0 = random, 1 = sorted, 2 = reverse, 3 = constant
  layout where = layout::balanced;
};

std::string transport_name(transport_kind t)
{
  return t == transport_kind::queue ? "queue" : "direct";
}

runtime_config config(unsigned p, transport_kind t)
{
  runtime_config cfg;
  cfg.num_locations = p;
  cfg.transport = t;
  return cfg;
}

long input_value(std::size_t g, std::size_t n, int pattern)
{
  switch (pattern) {
    case 0: return static_cast<long>((g * 2654435761u) % 1000);
    case 1: return static_cast<long>(g);
    case 2: return static_cast<long>(n - g);
    default: return 42;
  }
}

/// Fills `c` with the pattern, sorts it, and checks every element against
/// the serially sorted reference: each location compares the elements it
/// stores, and the stored counts must add up to n.
template <typename C>
void sort_and_check(C& c, std::size_t n, int pattern)
{
  std::vector<long> ref(n);
  for (gid1d g = 0; g < n; ++g) {
    ref[g] = input_value(g, n, pattern);
    if (c.is_local(g))
      c.local_element(g) = ref[g];
  }
  rmi_fence();

  p_sample_sort(c);
  EXPECT_TRUE(p_is_sorted(c));

  std::sort(ref.begin(), ref.end());
  std::size_t stored = 0;
  std::size_t wrong = 0;
  c.for_each_local([&](gid1d g, long const& x) {
    stored += 1;
    if (g >= n || x != ref[g])
      wrong += 1;
  });
  EXPECT_EQ(wrong, 0u) << "location " << this_location();
  EXPECT_EQ(allreduce(stored, std::plus<>{}), n);
  rmi_fence();
}

class SampleSortTest
    : public ::testing::TestWithParam<std::tuple<sort_case, transport_kind>> {
};

TEST_P(SampleSortTest, SortsAndPreservesMultiset)
{
  auto const [sc, transport] = GetParam();
  execute(config(sc.locations, transport), [sc = sc] {
    switch (sc.where) {
      case layout::balanced: {
        p_array<long> pa(sc.n);
        sort_and_check(pa, sc.n, sc.pattern);
        break;
      }
      case layout::vector: {
        p_vector<long> pv(sc.n);
        sort_and_check(pv, sc.n, sc.pattern);
        break;
      }
      case layout::uneven: {
        p_array<long, blocked_partition> pa(sc.n, blocked_partition(137));
        sort_and_check(pa, sc.n, sc.pattern);
        break;
      }
      case layout::dynamic: {
        p_array<long> pa(sc.n);
        pa.make_dynamic();
        if (this_location() == 0)
          for (gid1d g : {gid1d{1}, sc.n / 2, sc.n - 1})
            pa.migrate(g, static_cast<location_id>(
                              (pa.lookup(g) + 1) % num_locations()));
        rmi_fence();
        sort_and_check(pa, sc.n, sc.pattern);
        break;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SampleSortTest,
    ::testing::Combine(
        ::testing::Values(
            sort_case{1, 100, 0}, sort_case{2, 128, 0}, sort_case{4, 1000, 0},
            sort_case{8, 2048, 0}, sort_case{4, 777, 1},
            sort_case{4, 777, 2}, sort_case{4, 500, 3}, sort_case{3, 97, 0},
            sort_case{4, 4096, 3}, sort_case{4, 1000, 0, layout::vector},
            sort_case{3, 777, 2, layout::vector},
            sort_case{4, 1000, 0, layout::uneven},
            sort_case{4, 1000, 3, layout::uneven},
            sort_case{4, 1000, 0, layout::dynamic},
            sort_case{4, 4096, 3, layout::dynamic}),
        ::testing::Values(transport_kind::queue, transport_kind::direct)),
    [](auto const& info) {
      return std::to_string(info.index / 2) + "_" +
             transport_name(std::get<1>(info.param));
    });

TEST(SampleSort, DescendingComparator)
{
  execute(4, [] {
    p_array<int> pa(256);
    p_for_each_gid(array_1d_view(pa), [](gid1d g, int& x) {
      x = static_cast<int>((g * 37) % 97);
    });
    p_sample_sort(pa, std::greater<>{});
    EXPECT_TRUE(p_is_sorted(pa, std::greater<>{}));
    rmi_fence();
  });
}

TEST(SampleSort, DirectTransportBucketsNeedLocks)
{
  // The Ch. VI claim: bucket insertion is correct under concurrent access
  // as long as bucket-level atomicity holds — exercised by the direct
  // transport where RMIs run on caller threads.
  execute(config(4, transport_kind::direct), [] {
    p_array<long> pa(512);
    p_for_each_gid(array_1d_view(pa), [](gid1d g, long& x) {
      x = static_cast<long>((g * 48271) % 701);
    });
    p_sample_sort(pa);
    EXPECT_TRUE(p_is_sorted(pa));
    long const sum = p_accumulate(array_1d_view(pa), 0L);
    long expect = 0;
    for (std::size_t g = 0; g < 512; ++g)
      expect += static_cast<long>((g * 48271) % 701);
    EXPECT_EQ(sum, expect); // multiset preserved
    rmi_fence();
  });
}

class SortTransportTest : public ::testing::TestWithParam<transport_kind> {};

std::uint64_t rmis_sent()
{
  return metrics::global_snapshot()["rmi.rmis_sent"];
}

/// Mechanism of the write-back: the sorted buckets go back as one range
/// write per owner, so the RMIs a sort sends do not grow with n.  A
/// per-element write-back sends about (P-1)/P * n of them.
TEST_P(SortTransportTest, WriteBackSendsNoPerElementRmis)
{
  std::size_t const n = std::size_t{1} << 16;
  execute(config(4, GetParam()), [n] {
    p_array<long> pa(n);
    std::mt19937_64 gen(7 + this_location());
    pa.for_each_local([&](gid1d, long& x) {
      x = static_cast<long>(gen() % 1000003);
    });
    rmi_fence();

    auto const before = rmis_sent();
    p_sample_sort(pa);
    auto const sent = rmis_sent() - before;
    EXPECT_LT(sent, n / 64) << "RMIs sent by one sort of " << n;
    EXPECT_TRUE(p_is_sorted(pa));
    rmi_fence();
  });
}

/// Initial value of every element in the set_elements cases.
constexpr long untouched = -1;

/// Runs `write` on every location and fences, then checks every element:
/// those in [first, first + count) must read 1000 + gid, the rest
/// `untouched`.  Returns the RMIs sent in between.
template <typename Write>
std::uint64_t check_range_write(p_array<long>& pa, std::size_t first,
                                std::size_t count, Write write)
{
  auto const before = rmis_sent();
  write();
  rmi_fence();
  auto const sent = rmis_sent() - before;
  std::size_t wrong = 0;
  pa.for_each_local([&](gid1d g, long const& x) {
    bool const in = g >= first && g < first + count;
    if (x != (in ? 1000 + static_cast<long>(g) : untouched))
      wrong += 1;
  });
  EXPECT_EQ(wrong, 0u) << "location " << this_location();
  rmi_fence();
  return sent;
}

std::vector<long> range_values(std::size_t first, std::size_t count)
{
  std::vector<long> v(count);
  for (std::size_t i = 0; i != count; ++i)
    v[i] = 1000 + static_cast<long>(first + i);
  return v;
}

TEST_P(SortTransportTest, SetElementsAcrossThreeOwners)
{
  execute(config(4, GetParam()), [] {
    p_array<long> pa(400, untouched); // 100 elements per location
    auto const sent = check_range_write(pa, 50, 200, [&] {
      if (this_location() == 0)
        pa.set_elements(50, range_values(50, 200));
    });
    EXPECT_EQ(sent, 2u); // one per remote owner (locations 1 and 2)
  });
}

TEST_P(SortTransportTest, SetElementsFullyLocal)
{
  execute(config(4, GetParam()), [] {
    p_array<long> pa(400, untouched);
    auto const sent = check_range_write(pa, 10, 80, [&] {
      if (this_location() == 0)
        pa.set_elements(10, range_values(10, 80));
    });
    EXPECT_EQ(sent, 0u);
  });
}

TEST_P(SortTransportTest, SetElementsEmptyRange)
{
  execute(config(4, GetParam()), [] {
    p_array<long> pa(400, untouched);
    auto const sent = check_range_write(pa, 0, 0, [&] {
      pa.set_elements(150, {});
    });
    EXPECT_EQ(sent, 0u);
  });
}

TEST_P(SortTransportTest, SetElementsReroutesMigratedGids)
{
  execute(config(4, GetParam()), [] {
    p_array<long> pa(400, untouched);
    pa.make_dynamic();
    if (this_location() == 0) {
      pa.migrate(120, 3); // closed-form owner 1
      pa.migrate(60, 2);  // closed-form owner 0: the sender's own run
    }
    rmi_fence();
    (void)check_range_write(pa, 50, 200, [&] {
      if (this_location() == 0)
        pa.set_elements(50, range_values(50, 200));
    });
    EXPECT_EQ(pa.get_element(120), 1120);
    EXPECT_EQ(pa.get_element(60), 1060);
    EXPECT_EQ(pa.lookup(120), 3u);
    rmi_fence();
  });
}

INSTANTIATE_TEST_SUITE_P(Transports, SortTransportTest,
                         ::testing::Values(transport_kind::queue,
                                           transport_kind::direct),
                         [](auto const& info) {
                           return transport_name(info.param);
                         });

} // namespace
