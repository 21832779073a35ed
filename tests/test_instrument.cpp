// Tests for the runtime instrumentation layer (runtime/instrument.hpp):
// the disabled tracer records nothing and the metrics registry matches the
// legacy per-family accessors field-for-field; an enabled P=4 steal run
// yields probe→grant→run chains with monotonic timestamps per location;
// ring overflow reports an exact drop count; the Chrome trace-event
// exporter's output round-trips through a JSON parser; and
// metrics::global_snapshot() surfaces all four stats families plus the
// byte counters in one map.

#include "algorithms/p_algorithms.hpp"
#include "containers/p_array.hpp"
#include "runtime/task_graph.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

namespace {

using namespace stapl;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// A file name in the working directory unique to this process, so that
/// concurrent runs of this binary do not overwrite each other's traces.
std::string per_process_path(std::string const& stem)
{
  return stem + "." + std::to_string(::getpid()) + ".json";
}

/// Leaves tracing off and all rings released, whatever the test did.
struct trace_guard {
  ~trace_guard()
  {
    trace::disable();
    trace::clear();
  }
};

/// An imbalanced stealable graph: every work task starts on location 0 and
/// sleeps, so idle peers have ample time to pull chunks over (the same
/// regime as the task-graph stealing tests).
void run_imbalanced_steal_graph(int tasks)
{
  task_graph<long> tg;
  tg.set_stealing(true);
  using tid = task_graph<long>::task_id;
  task_options stealable;
  stealable.stealable = true;
  std::vector<tid> work;
  for (int i = 0; i < tasks; ++i) {
    work.push_back(tg.add_task(
        0,
        [i](std::vector<long> const&, char const&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          return static_cast<long>(i);
        },
        {}, stealable));
  }
  tid const sink = tg.add_task(
      0, [](std::vector<long> const& ins, char const&) {
        return std::accumulate(ins.begin(), ins.end(), 0L);
      });
  for (tid const t : work)
    tg.add_dependence(t, sink);
  tg.execute();
  EXPECT_EQ(tg.global_stats().tasks_run,
            static_cast<std::uint64_t>(tasks) + 1u);
  EXPECT_GT(tg.global_stats().tasks_stolen, 0u);
}

/// Minimal recursive-descent JSON acceptor, enough to round-trip the
/// exporter's output (no external JSON dependency in the image).
class json_parser {
 public:
  explicit json_parser(std::string_view s) : m_s(s) {}

  /// Whole input is exactly one JSON value (plus whitespace).
  [[nodiscard]] bool accept()
  {
    if (!value())
      return false;
    ws();
    return m_i == m_s.size();
  }

 private:
  void ws()
  {
    while (m_i < m_s.size() &&
           (m_s[m_i] == ' ' || m_s[m_i] == '\t' || m_s[m_i] == '\n' ||
            m_s[m_i] == '\r'))
      ++m_i;
  }

  bool eat(char c)
  {
    ws();
    if (m_i < m_s.size() && m_s[m_i] == c) {
      ++m_i;
      return true;
    }
    return false;
  }

  bool literal(std::string_view lit)
  {
    if (m_s.substr(m_i, lit.size()) != lit)
      return false;
    m_i += lit.size();
    return true;
  }

  bool string_lit()
  {
    if (!eat('"'))
      return false;
    while (m_i < m_s.size() && m_s[m_i] != '"') {
      if (m_s[m_i] == '\\')
        ++m_i; // skip the escaped character
      ++m_i;
    }
    return m_i < m_s.size() && m_s[m_i++] == '"';
  }

  bool number()
  {
    std::size_t const start = m_i;
    if (m_i < m_s.size() && m_s[m_i] == '-')
      ++m_i;
    while (m_i < m_s.size() &&
           (std::isdigit(static_cast<unsigned char>(m_s[m_i])) != 0 ||
            m_s[m_i] == '.' || m_s[m_i] == 'e' || m_s[m_i] == 'E' ||
            m_s[m_i] == '+' || m_s[m_i] == '-'))
      ++m_i;
    return m_i > start;
  }

  bool object()
  {
    if (eat('}'))
      return true;
    do {
      if (!string_lit() || !eat(':') || !value())
        return false;
    } while (eat(','));
    return eat('}');
  }

  bool array()
  {
    if (eat(']'))
      return true;
    do {
      if (!value())
        return false;
    } while (eat(','));
    return eat(']');
  }

  bool value()
  {
    ws();
    if (m_i >= m_s.size())
      return false;
    switch (m_s[m_i]) {
      case '{': ++m_i; return object();
      case '[': ++m_i; return array();
      case '"': return string_lit();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default:  return number();
    }
  }

  std::string_view m_s;
  std::size_t m_i = 0;
};

// ---------------------------------------------------------------------------
// Disabled tracer + registry/legacy equivalence
// ---------------------------------------------------------------------------

TEST(InstrumentTest, DisabledTracerRecordsNothing)
{
  trace_guard guard;
  ASSERT_FALSE(trace::enabled());
  execute(4, [] {
    p_array<long> pa(1'000 * num_locations());
    gid1d const remote = 1'000 * ((this_location() + 1) % num_locations());
    for (std::size_t i = 0; i < 500; ++i)
      pa.set_element(remote + i % 1'000, 1);
    rmi_fence();
  });
  EXPECT_EQ(trace::total_events(), 0u);
  EXPECT_EQ(trace::total_dropped(), 0u);
  EXPECT_TRUE(trace::traced_locations().empty());
}

TEST(InstrumentTest, SnapshotMatchesLegacyStatsFieldForField)
{
  execute(4, [] {
    p_array<long> pa(1'000 * num_locations());
    gid1d const remote = 1'000 * ((this_location() + 1) % num_locations());
    for (std::size_t i = 0; i < 200; ++i)
      pa.set_element(remote + i % 1'000, 1);
    long volatile sink = pa.get_element(remote); // a sync RMI as well
    (void)sink;
    rmi_fence();

    auto const snap = metrics::snapshot();
    location_stats const& s = my_stats();
    auto at = [&snap](char const* k) {
      auto const it = snap.find(k);
      return it == snap.end() ? std::uint64_t{0} : it->second;
    };
    EXPECT_EQ(at("rmi.rmis_sent"), s.rmis_sent);
    EXPECT_EQ(at("rmi.rmis_executed"), s.rmis_executed);
    EXPECT_EQ(at("rmi.local_rmis"), s.local_rmis);
    EXPECT_EQ(at("rmi.msgs_sent"), s.msgs_sent);
    EXPECT_EQ(at("rmi.sync_rmis"), s.sync_rmis);
    EXPECT_EQ(at("rmi.fences"), s.fences);
    EXPECT_EQ(at("rmi.rmi_bytes"), s.rmi_bytes);
    EXPECT_EQ(at("rmi.msg_bytes"), s.msg_bytes);
    // Remote traffic happened, so the new byte counters are live.
    EXPECT_GT(s.rmis_sent, 0u);
    EXPECT_GT(s.rmi_bytes, 0u);

    // reset_all() goes through the same contributor hooks: the legacy
    // accessor observes the reset too.
    metrics::reset_all();
    EXPECT_EQ(my_stats().rmis_sent, 0u);
    EXPECT_EQ(my_stats().rmi_bytes, 0u);
    auto const zeroed = metrics::snapshot();
    auto const it = zeroed.find("rmi.rmis_sent");
    ASSERT_NE(it, zeroed.end());
    EXPECT_EQ(it->second, 0u);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Enabled P=4 steal run: probe→grant→run chains, monotonic per location
// ---------------------------------------------------------------------------

TEST(InstrumentTest, EnabledStealRunHasProbeGrantRunChains)
{
  trace_guard guard;
  trace::enable();
  execute(4, [] { run_imbalanced_steal_graph(24); });

  auto const locs = trace::traced_locations();
  ASSERT_EQ(locs.size(), 4u);
  EXPECT_GT(trace::total_events(), 0u);
  EXPECT_EQ(trace::total_dropped(), 0u);

  std::uint64_t probes = 0, grants = 0, runs = 0;
  for (location_id const loc : locs) {
    auto const evs = trace::events(loc);
    ASSERT_FALSE(evs.empty()) << "location " << loc << " recorded nothing";
    // Events are recorded in emission order; an event's completion time
    // (ts for instants, ts + dur for scopes) is its emission time, so the
    // completion times must be monotonic per location.
    std::uint64_t prev_end = 0;
    std::uint64_t last_probe = 0, last_grant = 0;
    bool saw_probe = false, saw_grant = false, run_after_grant = false;
    for (auto const& e : evs) {
      EXPECT_EQ(e.loc, loc);
      std::uint64_t const end = e.ts_us + e.dur_us;
      EXPECT_GE(end, prev_end) << "timestamps ran backwards on location "
                               << loc << " (" << trace::name_of(e.kind)
                               << ")";
      prev_end = end;
      switch (e.kind) {
        case trace::event_kind::steal_probe:
          probes += 1;
          saw_probe = true;
          last_probe = end;
          break;
        case trace::event_kind::steal_grant:
          grants += 1;
          // A grant answers a probe this thief sent earlier.
          EXPECT_TRUE(saw_probe)
              << "steal_grant before any steal_probe on location " << loc;
          EXPECT_GE(end, last_probe);
          saw_grant = true;
          last_grant = end;
          break;
        case trace::event_kind::task_run:
          runs += 1;
          if (saw_grant && end >= last_grant)
            run_after_grant = true;
          break;
        default:
          break;
      }
    }
    if (saw_grant)
      EXPECT_TRUE(run_after_grant)
          << "location " << loc << " was granted work but never ran a task "
             "afterwards";
  }
  // The all-on-location-0 layout with sleeping chunks guarantees steals.
  EXPECT_GT(probes, 0u);
  EXPECT_GT(grants, 0u);
  EXPECT_EQ(runs, 25u) << "24 work tasks + 1 sink, each traced exactly once";
}

// ---------------------------------------------------------------------------
// Ring overflow: exact drop counts
// ---------------------------------------------------------------------------

TEST(InstrumentTest, RingOverflowReportsExactDropCount)
{
  trace_guard guard;
  trace::enable(8);
  trace::attach(0);
  for (std::uint64_t i = 0; i < 20; ++i)
    trace::emit(trace::event_kind::rmi_send, i);
  trace::detach();

  EXPECT_EQ(trace::events(0).size(), 8u);
  EXPECT_EQ(trace::dropped(0), 12u);
  EXPECT_EQ(trace::total_dropped(), 12u);
  // The ring keeps the *first* capacity events; the drops are the tail.
  auto const evs = trace::events(0);
  for (std::size_t i = 0; i < evs.size(); ++i)
    EXPECT_EQ(evs[i].arg, i);
}

TEST(InstrumentTest, KeepLastRingRetainsTrailingWindowWithExactDrops)
{
  trace_guard guard;
  trace::enable(8, /*keep_last=*/true);
  trace::attach(0);
  for (std::uint64_t i = 0; i < 20; ++i)
    trace::emit(trace::event_kind::rmi_send, i);
  trace::detach();

  // Circular mode keeps the *last* capacity events, oldest first; every
  // overwritten event counts as a drop — still exact.
  EXPECT_EQ(trace::events(0).size(), 8u);
  EXPECT_EQ(trace::total_events(), 8u);
  EXPECT_EQ(trace::dropped(0), 12u);
  EXPECT_EQ(trace::total_dropped(), 12u);
  auto const evs = trace::events(0);
  for (std::size_t i = 0; i < evs.size(); ++i)
    EXPECT_EQ(evs[i].arg, 12 + i);
}

TEST(InstrumentTest, KeepLastRingBelowCapacityDropsNothing)
{
  trace_guard guard;
  trace::enable(8, /*keep_last=*/true);
  trace::attach(0);
  for (std::uint64_t i = 0; i < 5; ++i)
    trace::emit(trace::event_kind::rmi_send, i);
  trace::detach();

  EXPECT_EQ(trace::events(0).size(), 5u);
  EXPECT_EQ(trace::dropped(0), 0u);
  auto const evs = trace::events(0);
  for (std::size_t i = 0; i < evs.size(); ++i)
    EXPECT_EQ(evs[i].arg, i);
}

// ---------------------------------------------------------------------------
// Exporter output round-trips through a JSON parser
// ---------------------------------------------------------------------------

TEST(InstrumentTest, DumpRoundTripsThroughJsonParser)
{
  trace_guard guard;
  trace::enable(64);
  trace::attach(0);
  trace::emit(trace::event_kind::rmi_send, 48);
  trace::emit(trace::event_kind::steal_probe, 1);
  trace::emit_complete(trace::event_kind::fence, 10, 25, 0);
  trace::emit_complete(trace::event_kind::task_run, 40, 5, 7);
  trace::detach();
  // A second lane, so the exporter emits multiple thread_name records.
  trace::attach(1);
  trace::emit(trace::event_kind::epoch_advance, 2);
  trace::detach();

  std::string const path = per_process_path("test_instrument_trace");
  ASSERT_TRUE(trace::dump(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  std::string const text = buf.str();
  std::remove(path.c_str());

  EXPECT_TRUE(json_parser(text).accept()) << "exporter wrote invalid JSON";
  // Structure: the trace-event envelope, one lane per attached location,
  // scopes as complete events and instants as instants.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("\"location 0\""), std::string::npos);
  EXPECT_NE(text.find("\"location 1\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"task_run\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Kind-mask filtering at emit
// ---------------------------------------------------------------------------

TEST(InstrumentTest, KindMaskRecordsOnlyMaskedKinds)
{
  trace_guard guard;
  trace::enable(64, /*keep_last=*/false,
                trace::kind_bit(trace::event_kind::fence) |
                    trace::kind_bit(trace::event_kind::rebalance_wave));
  trace::attach(0);
  for (std::uint64_t i = 0; i < 10; ++i)
    trace::emit(trace::event_kind::rmi_send, i); // filtered out
  trace::emit_complete(trace::event_kind::fence, 10, 5, 0);
  trace::emit_complete(trace::event_kind::rebalance_wave, 20, 7, 3);
  trace::emit(trace::event_kind::steal_probe, 1); // filtered out
  trace::detach();

  auto const evs = trace::events(0);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].kind, trace::event_kind::fence);
  EXPECT_EQ(evs[1].kind, trace::event_kind::rebalance_wave);
  // Filtered events are skipped at emit, not dropped-by-overflow.
  EXPECT_EQ(trace::total_dropped(), 0u);

  // trace_scope consults the mask at construction: a masked-out scope
  // records nothing either.
  trace::attach(0);
  {
    trace::trace_scope masked_out(trace::event_kind::task_run, 1);
  }
  {
    trace::trace_scope recorded(trace::event_kind::fence, 2);
  }
  trace::detach();
  EXPECT_EQ(trace::events(0).size(), 3u);
  EXPECT_EQ(trace::events(0).back().kind, trace::event_kind::fence);
}

TEST(InstrumentTest, DefaultMaskRecordsEveryKind)
{
  trace_guard guard;
  trace::enable(64);
  for (unsigned k = 0;
       k < static_cast<unsigned>(trace::event_kind::kind_count_); ++k)
    EXPECT_TRUE(trace::recording(static_cast<trace::event_kind>(k)));
}

// ---------------------------------------------------------------------------
// Streaming sink: incremental flush to disk, no dump-at-end
// ---------------------------------------------------------------------------

TEST(InstrumentTest, StreamingSinkFlushesRetiredRingsIncrementally)
{
  trace_guard guard;
  std::string const path = per_process_path("test_instrument_stream");
  trace::enable(8); // tiny ring: forces many mid-run flushes
  ASSERT_TRUE(trace::stream_to(path));
  EXPECT_TRUE(trace::streaming());

  trace::attach(0);
  for (std::uint64_t i = 0; i < 100; ++i)
    trace::emit(trace::event_kind::rmi_send, i);
  // 100 events through an 8-slot ring: at least 96 already retired to disk
  // *during* the run — the opposite of dump-at-end.
  EXPECT_GE(trace::streamed_events(), 96u);
  EXPECT_EQ(trace::total_dropped(), 0u) << "no drops while streaming";
  trace::detach();

  // The file is valid JSON even before close (sealed after every flush).
  {
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_TRUE(json_parser(buf.str()).accept())
        << "mid-run streamed file is not well-formed JSON";
  }

  trace::stream_close();
  EXPECT_FALSE(trace::streaming());
  EXPECT_EQ(trace::streamed_events(), 100u)
      << "stream_close must flush the residual ring contents";

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  std::string const text = buf.str();
  std::remove(path.c_str());

  EXPECT_TRUE(json_parser(text).accept()) << "streamed file is invalid JSON";
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("\"rmi_send\""), std::string::npos);
  // All 100 events are on disk: count the event objects by their arg key.
  std::size_t occurrences = 0;
  for (std::size_t pos = 0;
       (pos = text.find("\"rmi_send\"", pos)) != std::string::npos; ++pos)
    occurrences += 1;
  EXPECT_EQ(occurrences, 100u);
}

TEST(InstrumentTest, StreamedServeStyleRunKeepsEventsUnderKindMask)
{
  trace_guard guard;
  std::string const path = per_process_path("test_instrument_stream_masked");
  trace::enable(16, /*keep_last=*/false,
                trace::kind_bit(trace::event_kind::fence) |
                    trace::kind_bit(trace::event_kind::rebalance_wave) |
                    trace::kind_bit(trace::event_kind::migration));
  ASSERT_TRUE(trace::stream_to(path));

  execute(4, [] {
    p_array<long> pa(256 * num_locations(), 0);
    load_balancer_config lb_cfg;
    lb_cfg.imbalance_threshold = 1.05;
    pa.enable_load_balancing(lb_cfg);
    // Hammer location 0's elements so the wave migrates something.
    for (std::size_t i = 0; i < 400; ++i)
      pa.apply_set(i % 64, [](long& v) { v += 1; });
    rmi_fence();
    (void)pa.rebalance();
    rmi_fence();
  });

  trace::stream_close();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  std::string const text = buf.str();
  std::remove(path.c_str());

  EXPECT_TRUE(json_parser(text).accept());
  EXPECT_NE(text.find("\"fence\""), std::string::npos);
  EXPECT_NE(text.find("\"rebalance_wave\""), std::string::npos);
  // The flood kinds were filtered at emit.
  EXPECT_EQ(text.find("\"rmi_send\""), std::string::npos);
  EXPECT_EQ(text.find("\"task_run\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Global snapshot: all four families + byte counters in one map
// ---------------------------------------------------------------------------

TEST(InstrumentTest, GlobalSnapshotSurfacesAllFamilies)
{
  execute(4, [] {
    metrics::reset_all();

    // rmi.* and dir.*: remote element traffic through a pArray.
    p_array<long> pa(1'000 * num_locations(), 0);
    load_balancer_config lb_cfg;
    pa.enable_load_balancing(lb_cfg);
    gid1d const remote = 1'000 * ((this_location() + 1) % num_locations());
    for (std::size_t i = 0; i < 200; ++i)
      pa.apply_set(remote + i % 1'000, [](long& v) { v += 1; });
    rmi_fence();

    // tg.*: an imbalanced stealable graph.
    run_imbalanced_steal_graph(24);

    // lb.*: one rebalance wave (triggered or not, the wave is counted).
    (void)pa.rebalance();

    auto g = metrics::global_snapshot();
    for (char const* key :
         {"rmi.rmis_sent", "rmi.rmis_executed", "rmi.msgs_sent",
          "rmi.rmi_bytes", "rmi.msg_bytes", "idle.spins", "idle.sleeps",
          "idle.nap_us", "tg.tasks_run", "tg.tasks_stolen", "tg.steal_grants",
          "tg.spawn_bytes", "dir.local_hits", "dir.home_routed",
          "dir.forwards", "dir.owner_accesses", "lb.waves"}) {
      EXPECT_TRUE(g.count(key) != 0) << "missing counter: " << key;
    }
    // The reduce is over all four locations: totals, not one location's view.
    EXPECT_EQ(g["tg.tasks_run"], 25u); // 24 work tasks + 1 sink
    // Every location counts the collective wave it took part in.
    EXPECT_EQ(g["lb.waves"], static_cast<std::uint64_t>(num_locations()));
    EXPECT_GT(g["rmi.rmis_sent"], 0u);
    EXPECT_GT(g["rmi.rmi_bytes"], 0u);
    EXPECT_GT(g["rmi.msg_bytes"], 0u); // queue transport aggregates messages
    EXPECT_GT(g["dir.owner_accesses"], 0u);
    rmi_fence();
  });
}

} // namespace
