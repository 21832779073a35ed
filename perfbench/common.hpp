#ifndef STAPL_PERFBENCH_COMMON_HPP
#define STAPL_PERFBENCH_COMMON_HPP

// Shared plumbing of the repository benchmark: options, the result sink
// (metrics + output checks), wall-clock helpers, the span recorder used by
// the traced run, and the metrics-snapshot delta helper.
//
// Spans are recorded only from the benchmark's own code, around each call
// into one of the library's layers (task_graph, runtime, collectives,
// directory, load_balancer, containers, graph).  They live in per-location
// in-memory vectors and are written out once, at the end of the run, as a
// binary file read by perfbench/spans.py.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"

namespace perfbench {

/// P = 4 thread locations on the default (queue) transport.
inline constexpr unsigned locations = 4;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

[[nodiscard]] inline std::uint64_t now_ns() noexcept
{
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t t0) noexcept
{
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// splitmix64: every generator of the benchmark derives its values from
/// the workload seed through this mixer.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t x) noexcept
{
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

[[nodiscard]] inline double median(std::vector<double> v)
{
  if (v.empty())
    return 0;
  std::sort(v.begin(), v.end());
  std::size_t const m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank quantile, q in [0, 1].
template <typename T>
[[nodiscard]] T quantile(std::vector<T> v, double q)
{
  if (v.empty())
    return T{};
  std::sort(v.begin(), v.end());
  auto const rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

/// Fixed-size latency histogram: 64 linear sub-buckets per power of two,
/// so a quantile is within 1/64 of the true value, and memory does not grow
/// with the number of samples (the peak RSS must not track throughput).
class latency_histogram {
 public:
  void record(std::uint64_t ns) noexcept
  {
    ++m_counts[bucket_of(ns)];
    ++m_total;
  }

  void merge(latency_histogram const& o) noexcept
  {
    for (std::size_t i = 0; i < buckets; ++i)
      m_counts[i] += o.m_counts[i];
    m_total += o.m_total;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return m_total; }

  /// Lower edge of the bucket holding the q-quantile, in ns.
  [[nodiscard]] double quantile(double q) const noexcept
  {
    if (m_total == 0)
      return 0;
    auto const target = static_cast<std::uint64_t>(
        q * static_cast<double>(m_total - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets; ++i) {
      seen += m_counts[i];
      if (seen > target)
        return static_cast<double>(lower_edge(i));
    }
    return static_cast<double>(lower_edge(buckets - 1));
  }

 private:
  static constexpr std::size_t sub = 64;
  static constexpr std::size_t octaves = 40;
  static constexpr std::size_t buckets = sub * octaves;

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t ns) noexcept
  {
    if (ns < sub)
      return static_cast<std::size_t>(ns);
    std::size_t const top =
        63 - static_cast<std::size_t>(__builtin_clzll(ns));  // >= 6
    std::size_t const oct = top - 5;
    std::size_t const frac = static_cast<std::size_t>(ns >> (top - 6)) - sub;
    return std::min(oct * sub + frac, buckets - 1);
  }

  [[nodiscard]] static std::uint64_t lower_edge(std::size_t b) noexcept
  {
    std::size_t const oct = b / sub, frac = b % sub;
    if (oct == 0)
      return frac;
    return static_cast<std::uint64_t>(sub + frac) << (oct - 1);
  }

  std::vector<std::uint64_t> m_counts = std::vector<std::uint64_t>(buckets);
  std::uint64_t m_total = 0;
};

/// Named metric values plus the output checks of one run.  Written by
/// location 0 (or outside any SPMD region) only.
struct report {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(std::string const& name, double v) { metrics[name] = v; }

  /// Records one output check; a failed one is described on stderr.
  void check(bool ok, char const* what)
  {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 20)
        std::fprintf(stderr, "perfbench: check failed: %s\n", what);
    }
  }

  /// Folds a batch of per-location checks (counted on every location,
  /// summed by the caller) into the totals.
  void add_checks(std::uint64_t n_attempted, std::uint64_t n_failed,
                  char const* what)
  {
    attempted += n_attempted;
    failed += n_failed;
    if (n_failed != 0)
      std::fprintf(stderr, "perfbench: %llu of %llu checks failed: %s\n",
                   static_cast<unsigned long long>(n_failed),
                   static_cast<unsigned long long>(n_attempted), what);
  }
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

namespace spans {

/// How a span's callers wait: a collective blocks until the slowest
/// location arrives, a sync call blocks on a remote reply, an async call
/// only issues work, a phase groups calls.  The span reader derives
/// waiting time from this.
enum class kind : std::uint32_t { collective = 1, sync = 2, async = 3,
                                  phase = 4 };

struct site {
  char const* layer;
  char const* name;
  kind k;
  std::uint32_t id;
  site(char const* layer, char const* name, kind k);
};

struct record {
  std::uint32_t site;
  std::int32_t parent;  ///< index of the enclosing span on this location
  std::uint64_t t0, t1;
};

struct state {
  std::atomic<bool> enabled{false};
  std::mutex m;
  std::vector<site const*> sites;
  std::vector<std::vector<record>> per_location =
      std::vector<std::vector<record>>(locations);
};

[[nodiscard]] inline state& global()
{
  static state s;
  return s;
}

inline site::site(char const* l, char const* n, kind kk)
    : layer(l), name(n), k(kk)
{
  auto& g = global();
  std::lock_guard lock(g.m);
  id = static_cast<std::uint32_t>(g.sites.size());
  g.sites.push_back(this);
}

[[nodiscard]] inline std::int32_t& open_span() noexcept
{
  thread_local std::int32_t top = -1;
  return top;
}

/// RAII span around one call into a layer.  One branch when tracing is off.
class scope {
 public:
  explicit scope(site const& s) noexcept
  {
    if (!global().enabled.load(std::memory_order_relaxed))
      return;
    m_rec = &global().per_location[stapl::this_location()];
    m_idx = static_cast<std::int32_t>(m_rec->size());
    m_rec->push_back({s.id, open_span(), now_ns(), 0});
    m_parent = open_span();
    open_span() = m_idx;
  }
  ~scope()
  {
    if (m_rec == nullptr)
      return;
    (*m_rec)[static_cast<std::size_t>(m_idx)].t1 = now_ns();
    open_span() = m_parent;
  }
  scope(scope const&) = delete;
  scope& operator=(scope const&) = delete;

 private:
  std::vector<record>* m_rec = nullptr;
  std::int32_t m_idx = -1;
  std::int32_t m_parent = -1;
};

/// Writes `<prefix>.json` (site table) and `<prefix>.bin` (records:
/// u32 location, u32 site, i32 parent, u32 pad, u64 t0, u64 t1).
bool write(std::string const& prefix);

} // namespace spans

#define PB_CAT2(a, b) a##b
#define PB_CAT(a, b) PB_CAT2(a, b)
/// Opens a span named `name` in layer `layer` until the end of the block.
#define PB_SPAN(layer, name, k)                                              \
  static ::perfbench::spans::site const PB_CAT(pb_site_, __LINE__){         \
      layer, name, ::perfbench::spans::kind::k};                             \
  ::perfbench::spans::scope PB_CAT(pb_scope_, __LINE__){PB_CAT(pb_site_,    \
                                                               __LINE__)}

/// The benchmark's calls into the runtime and collectives layers, each
/// under its span.
inline void fence()
{
  PB_SPAN("runtime", "rmi_fence", collective);
  stapl::rmi_fence();
}

template <typename T>
[[nodiscard]] T max_all(T const& v)
{
  PB_SPAN("collectives", "allreduce", collective);
  return stapl::allreduce(v,
                          [](T const& a, T const& b) { return a < b ? b : a; });
}

template <typename T>
[[nodiscard]] T sum_all(T const& v)
{
  PB_SPAN("collectives", "allreduce", collective);
  return stapl::allreduce(v, [](T const& a, T const& b) { return a + b; });
}

/// Location 0's decision, on every location: whether to run another round.
[[nodiscard]] inline bool keep_going(std::uint64_t start, double seconds)
{
  PB_SPAN("collectives", "broadcast", collective);
  int const go = seconds_since(start) < seconds;
  return stapl::broadcast(0, go) != 0;
}

/// Stops and starts span recording between two barriers.  Collective.
inline void set_tracing(bool on)
{
  stapl::location_barrier();
  if (stapl::this_location() == 0)
    spans::global().enabled.store(on);
  stapl::location_barrier();
}

/// Fig. 24 kernel: fence, body, fence, then the maximum elapsed seconds
/// over locations.  Collective.
template <typename Body>
[[nodiscard]] double timed_collective(Body&& body)
{
  fence();
  std::uint64_t const t0 = now_ns();
  body();
  fence();
  return max_all(seconds_since(t0));
}

[[nodiscard]] inline double sum_of(std::vector<double> const& v)
{
  double s = 0;
  for (double x : v)
    s += x;
  return s;
}

/// Collective: the change of every always-on metrics counter since `before`
/// (a previous global_snapshot()).
[[nodiscard]] inline std::map<std::string, double>
snapshot_delta(stapl::metrics::counter_map const& before)
{
  std::map<std::string, double> out;
  for (auto const& [k, v] : stapl::metrics::global_snapshot()) {
    auto const it = before.find(k);
    std::uint64_t const b = it == before.end() ? 0 : it->second;
    // Gauges (high-water marks) are reported as read, not differenced.
    bool const gauge = !stapl::metrics::sums_on_merge(k);
    out[k] = gauge ? static_cast<double>(v)
                   : static_cast<double>(v >= b ? v - b : 0);
  }
  return out;
}

/// What the round harness measured (filled on location 0).
struct rounds_result {
  std::vector<double> setup_s;  ///< one per set-up
  std::vector<double> round_s;  ///< measured rounds (traced ones if traced)
  std::vector<double> round_end;  ///< their end times from the loop's start
  double measured_s = 0;        ///< wall seconds of the measured rounds
  double overhead = 0;          ///< traced / untraced median round - 1
  std::map<std::string, double> counters;  ///< metrics delta, traced rounds
};

/// The measurement every workload shares.  Sets `State` up nine times,
/// each in a fresh P = 4 execute from entering it until `make()` returns
/// (the last set-up is kept); runs one warm-up round; then, untraced,
/// rounds until opt.seconds have passed, or, traced, `traced_rounds`
/// untraced rounds followed by as many traced ones, so that counters cover
/// a fixed amount of work.  `round(st, measured)` runs one collective round
/// and returns its seconds (`measured` is false for the warm-up and the
/// untraced half of a traced run); `finish(st)` runs last, on every
/// location, with the state still alive.
template <typename State, typename Make, typename Round, typename Finish>
[[nodiscard]] rounds_result run_rounds(options const& opt,
                                       std::size_t traced_rounds, Make make,
                                       Round round, Finish finish)
{
  constexpr unsigned setups = 9;
  rounds_result out;
  for (unsigned k = 0; k < setups; ++k) {
    bool const last = k + 1 == setups;
    std::uint64_t const t0 = now_ns();
    stapl::execute(locations, [&] {
      std::unique_ptr<State> const st = make();
      double const su = max_all(seconds_since(t0));
      bool const root = stapl::this_location() == 0;
      if (root)
        out.setup_s.push_back(su);
      if (!last)
        return;

      (void)round(*st, false); // warm-up: first touch, allocator growth
      if (!opt.trace) {
        std::uint64_t const start = now_ns();
        do {
          double const s = round(*st, true);
          if (root) {
            out.round_s.push_back(s);
            out.round_end.push_back(seconds_since(start));
          }
        } while (keep_going(start, opt.seconds));
        if (root)
          out.measured_s = seconds_since(start);
      } else {
        std::vector<double> plain, traced;
        for (std::size_t i = 0; i < traced_rounds; ++i)
          plain.push_back(round(*st, false));
        auto const before = stapl::metrics::global_snapshot();
        set_tracing(true);
        std::uint64_t const start = now_ns();
        std::vector<double> ends;
        for (std::size_t i = 0; i < traced_rounds; ++i) {
          traced.push_back(round(*st, true));
          ends.push_back(seconds_since(start));
        }
        double const traced_s = seconds_since(start);
        set_tracing(false);
        auto const delta = snapshot_delta(before);
        if (root) {
          out.counters = delta;
          out.round_s = traced;
          out.round_end = ends;
          out.measured_s = traced_s;
          out.overhead = median(traced) / median(plain) - 1.0;
        }
      }
      finish(*st);
    });
  }
  return out;
}

/// Work completed per second: the median over the whole one-second windows
/// of the measured loop, each round's work spread evenly over its span, so
/// a stall of a few seconds lowers the windows it falls in, not the
/// result.  Loops shorter than a second fall back to the mean.
[[nodiscard]] inline double windowed_rate(std::vector<double> const& ends,
                                          double work_per_round)
{
  if (ends.empty())
    return 0;
  auto const windows = static_cast<std::size_t>(ends.back());
  if (windows == 0)
    return work_per_round * static_cast<double>(ends.size()) / ends.back();
  std::vector<double> rates;
  std::size_t first = 0;  // first round ending inside the current window
  for (std::size_t w = 0; w < windows; ++w) {
    double const lo = static_cast<double>(w), hi = lo + 1.0;
    while (ends[first] <= lo)
      ++first;
    double work = 0;
    for (std::size_t i = first; i < ends.size(); ++i) {
      double const b = i == 0 ? 0.0 : ends[i - 1], e = ends[i];
      if (b >= hi)
        break;
      work += work_per_round * (std::min(e, hi) - std::max(b, lo)) / (e - b);
    }
    rates.push_back(work);
  }
  return median(rates);
}

/// Reports what every workload reports from its rounds_result.
inline void report_rounds(options const& opt, rounds_result const& r,
                          report& rep)
{
  rep.set("setup_s", median(r.setup_s));
  rep.set("round_s", median(r.round_s));
  rep.set("round_p90_s", quantile(r.round_s, 0.9));
  rep.set("rounds", static_cast<double>(r.round_s.size()));
  if (!opt.trace)
    return;
  rep.set("trace.overhead_frac", r.overhead);
  for (auto const& [k, v] : r.counters)
    rep.set("counter." + k, v);
}

/// Per-workload entry points (each fills `rep`).
void run_dense(options const& opt, report& rep);
/// `kv`, or with `read_only` the `lookup` workload.
void run_kv(options const& opt, report& rep, bool read_only);
void run_graph(options const& opt, report& rep);
/// Layer cost ladder (traced run only); `seed` feeds its graph rung.
void run_ladder(report& rep, std::uint64_t seed);
/// Serial and OpenMP references next to the library algorithms.
void run_references(std::uint64_t seed, report& rep);
/// Corrupts each workload's output and asserts its check catches it.
int run_selftest();

} // namespace perfbench

#endif
