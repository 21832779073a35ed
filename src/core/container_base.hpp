#ifndef STAPL_CORE_CONTAINER_BASE_HPP
#define STAPL_CORE_CONTAINER_BASE_HPP

// The pContainer base hierarchy and the shared-object-view machinery
// (dissertation Ch. V, Figs. 7/8/17, Tables XI-XIV).
//
// Every stapl pContainer derives (through CRTP chains mirroring the PCF
// taxonomy of Fig. 5) from p_container_base, which owns the location
// manager, the data-distribution information (partition + partition mapper)
// and the thread-safety manager, and implements the generic `invoke` method
// skeleton: resolve the GID to a (bCID, location); execute locally under the
// thread-safety hooks, forward to the owner location, or — when resolution
// is incomplete — migrate the request toward a location that knows more
// (method forwarding).
//
// Module map of the core layer:
//   domains.hpp          GID/domain concepts (1D, 2D, dynamic GIDs)
//   partitions.hpp       domain -> sub-domain (bCID) decompositions
//   mappers.hpp          bCID -> location placement
//   base_containers.hpp  per-location storage units (bContainers)
//   location_manager.hpp the bContainers of one location
//   directory.hpp        distributed GID -> owner registry: home-location
//                        records, per-location owner caches with
//                        invalidation, request forwarding (invoke_where),
//                        owner-side access tracking (bounded hot-GID sketch)
//   migration.hpp        element-granularity handoff between bContainers,
//                        driven through the directory
//   load_balancer.hpp    epoch-based hot-element redistribution on top of
//                        migrate(), driven by the directory's access stats
//   thread_safety.hpp    Ch. VI locking managers + policy tables
//   redistribution.hpp   whole-bContainer repartitioning
//   composition.hpp      nested pContainer support
//   container_base.hpp   this file: the CRTP method-execution skeleton,
//                        switching between closed-form resolution (static
//                        distributions) and the directory (dynamic ones)

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "../runtime/locality.hpp"
#include "../runtime/runtime.hpp"
#include "directory.hpp"
#include "load_balancer.hpp"
#include "location_manager.hpp"
#include "mappers.hpp"
#include "migration.hpp"
#include "partitions.hpp"
#include "thread_safety.hpp"

namespace stapl {

/// Result of pContainer address resolution (Fig. 7).  When `resolved` the
/// pair (bcid, loc) is final; otherwise `loc` is a location that may know
/// more about the GID's mapping (forwarding target).
struct resolution {
  bcid_type bcid = invalid_bcid;
  location_id loc = invalid_location;
  bool resolved = false;

  [[nodiscard]] static resolution at(bcid_type b, location_id l) noexcept
  {
    return {b, l, true};
  }
  [[nodiscard]] static resolution forward_to(location_id l) noexcept
  {
    return {invalid_bcid, l, false};
  }
};

namespace detail {

/// Bundles the user-facing template arguments (T, Partition, Traits) into the
/// single traits pack consumed by the p_container_base chain.
template <typename T, typename Partition, typename Traits>
struct indexed_traits_bundle {
  using value_type = T;
  using partition_type = Partition;
  using mapper_type = typename Traits::mapper_type;
  using bcontainer_type = typename Traits::bcontainer_type;
  using ths_manager_type = typename Traits::ths_manager_type;
};

} // namespace detail

// ---------------------------------------------------------------------------
// p_container_base (Table XI)
// ---------------------------------------------------------------------------

template <typename Derived, typename Traits>
class p_container_base : public p_object {
 public:
  using traits_type = Traits;
  using value_type = typename Traits::value_type;
  using partition_type = typename Traits::partition_type;
  using mapper_type = typename Traits::mapper_type;
  using bcontainer_type = typename Traits::bcontainer_type;
  using ths_manager_type = typename Traits::ths_manager_type;
  using gid_type = typename partition_type::gid_type;
  using location_manager_type = location_manager<bcontainer_type>;

  [[nodiscard]] partition_type const& partition() const noexcept
  {
    return m_partition;
  }
  [[nodiscard]] partition_type& partition() noexcept { return m_partition; }
  [[nodiscard]] mapper_type const& mapper() const noexcept { return m_mapper; }
  [[nodiscard]] mapper_type& mapper() noexcept { return m_mapper; }
  [[nodiscard]] location_manager_type& get_location_manager() noexcept
  {
    return m_lm;
  }
  [[nodiscard]] location_manager_type const& get_location_manager()
      const noexcept
  {
    return m_lm;
  }
  [[nodiscard]] locking_policy_table& policies() noexcept { return m_policies; }

  /// Default address resolution: closed-form partition query followed by the
  /// partition mapper (static distributions).  Dynamic containers override.
  [[nodiscard]] resolution resolve(gid_type const& g) const
  {
    bcid_type const b = m_partition.get_info(g);
    return resolution::at(b, m_mapper.map(b));
  }

  /// True when the element lives in a local bContainer.
  [[nodiscard]] bool is_local(gid_type const& g) const
  {
    if (m_dynamic)
      return m_directory->owns(g);
    auto const r = derived().resolve(g);
    return r.resolved && r.loc == get_location_id();
  }

  /// Location that owns (or may know more about) the GID.
  [[nodiscard]] location_id lookup(gid_type const& g) const
  {
    if (m_dynamic) {
      if (auto const o = m_directory->try_resolve(g))
        return *o;
      return m_directory->resolve(g);
    }
    return derived().resolve(g).loc;
  }

  // -------------------------------------------------------------------------
  // Directory-backed (dynamic) resolution
  // -------------------------------------------------------------------------

  using directory_type = directory<gid_type>;

  /// The container's directory representative.  Only valid after the
  /// container switched to dynamic resolution (make_dynamic(), or dynamic
  /// from birth); static containers never construct one.
  [[nodiscard]] directory_type& get_directory() noexcept
  {
    assert(m_directory && "get_directory(): container is not dynamic");
    return *m_directory;
  }
  [[nodiscard]] directory_type const& get_directory() const noexcept
  {
    assert(m_directory && "get_directory(): container is not dynamic");
    return *m_directory;
  }

  /// True when element methods resolve through the directory instead of the
  /// closed-form partition arithmetic.
  [[nodiscard]] bool is_dynamic() const noexcept { return m_dynamic; }

  /// Collective: switches the container to directory-backed resolution.
  /// Every location takes local ownership of its current elements;
  /// afterwards elements may migrate between locations (see migrate()).
  /// The closed-form owner is installed as the directory's default, so no
  /// home records are materialized up front: elements that never move
  /// resolve lazily to the same owner, and fresh GIDs are adopted by
  /// their arithmetic owner.
  void make_dynamic()
  {
    if (m_dynamic) {
      rmi_fence();
      return;
    }
    // Snapshot the closed-form bView before flipping to dynamic
    // resolution: once m_dynamic is set, local_gids() filters by directory
    // ownership, which is exactly what the loop below seeds.
    auto const seed_gids = derived().local_gids();
    enable_directory_resolution([this](gid_type const& g) {
      return m_mapper.map(m_partition.get_info(g));
    });
    for (auto const& g : seed_gids)
      m_directory->seed_ownership(g);
    rmi_fence();
  }

  /// Moves the element of `gid` to `dest` (asynchronous, complete at the
  /// next fence).  Requires directory-backed resolution.
  void migrate(gid_type const& gid, location_id dest)
  {
    stapl::migrate(derived(), gid, dest);
  }

  // -------------------------------------------------------------------------
  // Load balancing (core/load_balancer.hpp): hot-element redistribution on
  // top of migrate(), driven by the directory's owner-side access stats.
  // -------------------------------------------------------------------------

  /// Collective: switches to directory-backed resolution (if not already)
  /// and starts tracking owner-side accesses, making the container eligible
  /// for rebalance()/advance_epoch().
  void enable_load_balancing(load_balancer_config cfg = {})
  {
    m_lb_cfg = cfg;
    derived().make_dynamic(); // no-op fence when already dynamic
    m_directory->enable_access_tracking(cfg.hot_k, cfg.access_sample);
    m_lb_enabled = true;
    m_lb_interval = std::max(1u, cfg.epoch_interval);
    if (cfg.auto_epoch)
      m_lb_interval = std::clamp(m_lb_interval, cfg.min_epoch_interval,
                                 cfg.max_epoch_interval);
    m_lb_countdown = cfg.epoch_interval == 0 ? 0 : m_lb_interval;
    rmi_fence(); // tracking live everywhere before anyone measures
  }

  [[nodiscard]] bool load_balancing_enabled() const noexcept
  {
    return m_lb_enabled;
  }
  [[nodiscard]] load_balancer_config const& lb_config() const noexcept
  {
    return m_lb_cfg;
  }

  /// Collective: one rebalance wave (measure -> plan -> batched migrations);
  /// see stapl::rebalance.  Every location returns the same report.
  rebalance_report rebalance()
  {
    assert(m_lb_enabled && "rebalance(): enable_load_balancing() first");
    return stapl::rebalance(derived(), m_lb_cfg);
  }

  /// Collective: marks the end of one computation epoch; runs a rebalance
  /// wave when the epoch interval elapses.  With cfg.auto_epoch the
  /// interval self-tunes from the imbalance drift observed between
  /// consecutive waves' load summaries: a triggered wave or fast drift
  /// halves it (re-measure soon — placement is in flux), a quiet stable
  /// wave doubles it (stop paying measurement fences), clamped to
  /// [min_epoch_interval, max_epoch_interval].  The reports are identical
  /// on every location, so the tuned interval stays SPMD-consistent.
  /// Returns the report when a wave ran.  Call from the application's
  /// iteration loop.
  std::optional<rebalance_report> advance_epoch()
  {
    if (!m_lb_enabled)
      return std::nullopt; // epochs only count once balancing is live, so
                           // the first wave fires a full interval after
                           // enable_load_balancing(), not at an arbitrary
                           // phase of the app's iteration count
    m_lb_epoch += 1;
    STAPL_TRACE(trace::event_kind::epoch_advance, m_lb_epoch);
    if (m_lb_countdown == 0 || --m_lb_countdown != 0)
      return std::nullopt;
    auto const rep = rebalance();
    if (m_lb_cfg.auto_epoch) {
      double const drift =
          std::abs(rep.imbalance_before - m_lb_last_imbalance);
      m_lb_last_imbalance = rep.imbalance_before;
      if (rep.triggered || drift > m_lb_cfg.auto_drift)
        m_lb_interval =
            std::max(m_lb_cfg.min_epoch_interval, m_lb_interval / 2);
      else
        m_lb_interval =
            std::min(m_lb_cfg.max_epoch_interval, m_lb_interval * 2);
    }
    m_lb_countdown = m_lb_interval;
    return rep;
  }

  /// Effective advance_epoch() interval (after auto-tuning).
  [[nodiscard]] unsigned epoch_interval() const noexcept
  {
    return m_lb_interval;
  }

  // -------------------------------------------------------------------------
  // Locality pipeline (runtime/locality.hpp): per-container feedback state
  // shared between the views (which produce chunk descriptors), the
  // task-graph executor (which reports where chunks ran and how much they
  // moved) and the load balancer (which folds the executor's counters into
  // its load model).
  // -------------------------------------------------------------------------

  /// Chunking grain for this container: the executor's default scaled by
  /// the adaptive factor fed back from previous graphs' steal/idle
  /// counters.  Views forward their tuned_grain here.
  [[nodiscard]] std::size_t tuned_grain(std::size_t base) const
  {
    std::lock_guard lock(m_locality_mutex);
    return m_grain.apply(base);
  }

  /// Current adaptive grain multiplier (1.0 until feedback arrives).
  [[nodiscard]] double grain_factor() const
  {
    std::lock_guard lock(m_locality_mutex);
    return m_grain.factor();
  }

  /// Executor feedback: adapts the grain factor and accumulates the
  /// epoch's task-graph counters — the load balancer's second signal
  /// alongside the directory's access counts.
  void note_task_graph_stats(task_graph_stats const& s)
  {
    std::lock_guard lock(m_locality_mutex);
    m_grain.note(s);
    m_tg_epoch += s;
  }

  /// Task-graph counters accumulated since the last reset_task_stats().
  [[nodiscard]] task_graph_stats epoch_task_stats() const
  {
    std::lock_guard lock(m_locality_mutex);
    return m_tg_epoch;
  }

  /// Ends the task-stats measurement epoch (rebalance() calls this next to
  /// directory::reset_epoch, so both signals measure the same window).
  void reset_task_stats()
  {
    std::lock_guard lock(m_locality_mutex);
    m_tg_epoch = {};
  }

  /// Placement feedback: a chunk covering GID digests [lo, hi] executed at
  /// `where` in the previous graph — its data is warm there.
  void note_chunk_placement(std::uint64_t lo, std::uint64_t hi,
                            location_id where)
  {
    std::lock_guard lock(m_locality_mutex);
    m_affinity.note(lo, hi, where);
  }

  /// Cached-at hint for chunks covering [lo, hi] (invalid_location when no
  /// placement has been observed).  Views stamp descriptors with this.
  [[nodiscard]] location_id chunk_affinity(std::uint64_t lo,
                                           std::uint64_t hi) const
  {
    std::lock_guard lock(m_locality_mutex);
    return m_affinity.lookup(lo, hi);
  }

  /// Same lookup off a descriptor's wire form — the digest bounds peers
  /// and the executor's placement feedback actually see, so the hint a
  /// view stamps and the hint a thief's victim ranking reads cannot
  /// diverge.
  [[nodiscard]] location_id chunk_affinity(chunk_wire const& w) const
  {
    return w.has_digest ? chunk_affinity(w.digest_lo, w.digest_hi)
                        : invalid_location;
  }

  /// Framework-internal: drops the dynamic-resolution bookkeeping of an
  /// erased element (directory ownership + home record, overflow entries).
  /// Called by container erase methods at the owner; no-op when static.
  void dyn_forget(gid_type const& g)
  {
    if (!m_dynamic)
      return;
    m_directory->unregister_gid(g);
    m_dyn_index.erase(g);
    m_migrated.erase(g);
  }

  /// Local bCID holding `g`'s element.  Default: migrated-in overflow
  /// index, then the closed-form partition answer.  Containers with
  /// non-arithmetic partitions (e.g. dynamic pGraph) override.
  [[nodiscard]] bcid_type dyn_local_bcid(gid_type const& g) const
  {
    auto const it = m_dyn_index.find(g);
    if (it != m_dyn_index.end())
      return it->second;
    return m_partition.get_info(g);
  }

  /// Local bContainer shortcut.
  [[nodiscard]] bcontainer_type& bc(bcid_type b)
  {
    return m_lm.get_bcontainer(b);
  }
  [[nodiscard]] bcontainer_type const& bc(bcid_type b) const
  {
    return m_lm.get_bcontainer(b);
  }

  // -------------------------------------------------------------------------
  // Generic method execution (Fig. 8 / Fig. 17).  Framework interface: used
  // by derived containers to implement their element-wise methods.
  // -------------------------------------------------------------------------

  /// Asynchronous execution: route `action(container, bcid)` to the owner of
  /// `gid` and run it under the thread-safety hooks.  Returns immediately.
  template <typename Action>
  void invoke(std::size_t method, gid_type gid, Action action)
  {
    // For async routes this measures the initiation (resolve + enqueue)
    // cost; completion latency is covered by the rmi.sync / serve.op
    // families.
    latency::timed_op lat_scope(latency::op::container_apply);
    if (m_dynamic) {
      rmi_handle const h = this->get_handle();
      m_directory->invoke_where(
          gid, [h, method, gid,
                action = std::move(action)](location_id owner) mutable {
            // Resolved at execution time so the action reaches the
            // representative the directory routed it to (under the direct
            // transport that is not the calling thread's location).
            auto* c = get_registered_object_at<Derived>(owner, h);
            c->dyn_execute(method, gid, std::move(action));
          });
      return;
    }
    ths_info ti{method, invalid_bcid};
    m_ths.metadata_access_pre(ti);
    auto const info = derived().resolve(gid);
    m_ths.metadata_access_post(ti);

    if (info.resolved && info.loc == get_location_id()) {
      note_local_invocation();
      ti.bcid = info.bcid;
      m_ths.data_access_pre(ti);
      action(derived(), info.bcid);
      m_ths.data_access_post(ti);
      return;
    }
    if (!info.resolved && info.loc == get_location_id()) {
      // Resolution metadata not here yet (directory registration in
      // flight): park the request behind pending traffic and retry.
      Derived* self = &derived();
      post_to_self([self, method, gid, action = std::move(action)]() mutable {
        self->invoke(method, gid, std::move(action));
      });
      return;
    }
    // Forward (computation migration) and re-evaluate on the target.
    async_rmi<Derived>(info.loc, this->get_handle(),
                       [method, gid, action](Derived& c) mutable {
                         c.invoke(method, gid, std::move(action));
                       });
  }

  /// Split-phase execution: returns a future for `action`'s result; the
  /// request migrates through forwarding hops and fulfils the future at the
  /// owner (Ch. VII.F "split phase reads").
  template <typename Action>
  [[nodiscard]] auto invoke_split(std::size_t method, gid_type gid,
                                  Action action)
  {
    using result_type =
        std::invoke_result_t<Action&, Derived&, bcid_type>;
    auto st = std::make_shared<typename pc_future<result_type>::state>();
    route_with_result<result_type>(method, gid, std::move(action), st);
    return pc_future<result_type>(st);
  }

  /// Synchronous execution: blocks until the result is available
  /// (Ch. VII.F "synchronous reads").  Local accesses take a direct path
  /// without future allocation.
  template <typename Action>
  [[nodiscard]] auto invoke_ret(std::size_t method, gid_type gid,
                                Action action)
  {
    latency::timed_op lat_scope(latency::op::container_apply);
    if (m_dynamic) {
      {
        dyn_guard guard(*this);
        if (m_directory->owns(gid)) {
          note_local_invocation();
          m_directory->note_access(gid);
          ths_info ti{method, derived().dyn_local_bcid(gid)};
          m_ths.data_access_pre(ti);
          auto result = action(derived(), ti.bcid);
          m_ths.data_access_post(ti);
          return result;
        }
      }
      return invoke_split(method, gid, std::move(action)).get();
    }
    ths_info ti{method, invalid_bcid};
    m_ths.metadata_access_pre(ti);
    auto const info = derived().resolve(gid);
    m_ths.metadata_access_post(ti);

    if (info.resolved && info.loc == get_location_id()) {
      note_local_invocation();
      ti.bcid = info.bcid;
      m_ths.data_access_pre(ti);
      auto result = action(derived(), info.bcid);
      m_ths.data_access_post(ti);
      return result;
    }
    return invoke_split(method, gid, std::move(action)).get();
  }

  /// Framework-internal: executes locally or migrates, carrying the shared
  /// response state.  Public because forwarded re-invocations re-enter it on
  /// other representatives.
  template <typename R, typename Action>
  void route_with_result(std::size_t method, gid_type gid, Action action,
                         std::shared_ptr<typename pc_future<R>::state> st)
  {
    if (m_dynamic) {
      rmi_handle const h = this->get_handle();
      m_directory->invoke_where(
          gid, [h, method, gid, action = std::move(action),
                st](location_id owner) mutable {
            auto* c = get_registered_object_at<Derived>(owner, h);
            c->template dyn_execute_result<R>(method, gid, std::move(action),
                                              std::move(st));
          });
      return;
    }
    ths_info ti{method, invalid_bcid};
    m_ths.metadata_access_pre(ti);
    auto const info = derived().resolve(gid);
    m_ths.metadata_access_post(ti);

    if (info.resolved && info.loc == get_location_id()) {
      ti.bcid = info.bcid;
      m_ths.data_access_pre(ti);
      st->value.emplace(action(derived(), info.bcid));
      m_ths.data_access_post(ti);
      st->ready.store(true, std::memory_order_release);
      return;
    }
    if (!info.resolved && info.loc == get_location_id()) {
      Derived* self = &derived();
      post_to_self(
          [self, method, gid, action = std::move(action), st]() mutable {
            self->template route_with_result<R>(method, gid,
                                                std::move(action), st);
          });
      return;
    }
    async_rmi<Derived>(info.loc, this->get_handle(),
                       [method, gid, action = std::move(action),
                        st](Derived& c) mutable {
                         c.template route_with_result<R>(method, gid,
                                                         std::move(action), st);
                       });
  }

  /// Framework-internal: runs a routed action on the owner's
  /// representative.  Re-verifies ownership — under the direct transport
  /// (or with a migration racing the route) the element may have departed
  /// between the directory's check and this call; the action then re-enters
  /// the routing machinery via post_to_self instead of touching gone data.
  template <typename Action>
  void dyn_execute(std::size_t method, gid_type gid, Action action)
  {
    {
      dyn_guard guard(*this);
      if (m_directory->owns(gid)) {
        note_local_invocation();
        m_directory->note_access(gid);
        ths_info ti{method, derived().dyn_local_bcid(gid)};
        m_ths.data_access_pre(ti);
        action(derived(), ti.bcid);
        m_ths.data_access_post(ti);
        return;
      }
    }
    // Ownership left between routing and execution (migration race):
    // re-enter the routing machinery from the polling location.
    rmi_handle const h = this->get_handle();
    post_to_self([h, method, gid, action = std::move(action)]() mutable {
      auto* c = get_registered_object<Derived>(h);
      c->invoke(method, gid, std::move(action));
    });
  }

  /// dyn_execute for value-returning routes (split-phase/synchronous).
  template <typename R, typename Action>
  void dyn_execute_result(std::size_t method, gid_type gid, Action action,
                          std::shared_ptr<typename pc_future<R>::state> st)
  {
    {
      dyn_guard guard(*this);
      if (m_directory->owns(gid)) {
        m_directory->note_access(gid);
        ths_info ti{method, derived().dyn_local_bcid(gid)};
        m_ths.data_access_pre(ti);
        st->value.emplace(action(derived(), ti.bcid));
        m_ths.data_access_post(ti);
        st->ready.store(true, std::memory_order_release);
        return;
      }
    }
    rmi_handle const h = this->get_handle();
    post_to_self(
        [h, method, gid, action = std::move(action), st]() mutable {
          auto* c = get_registered_object<Derived>(h);
          c->template route_with_result<R>(method, gid, std::move(action),
                                           std::move(st));
        });
  }

  // -------------------------------------------------------------------------
  // Migration protocol steps (driven by migration.hpp's migrate()).
  // -------------------------------------------------------------------------

  /// Owner-side step: extracts the element and ships it to `dest`, leaving
  /// a forwarding hint behind.  Re-routes the whole migration if ownership
  /// moved before this step executed.
  void migrate_out(gid_type gid, location_id dest)
  {
    using payload_type = decltype(derived().extract_element(gid));
    std::optional<payload_type> payload;
    std::uint32_t seq = 0;
    {
      dyn_guard guard(*this);
      if (m_directory->owns(gid)) {
        if (dest == get_location_id())
          return; // already here — a no-op only while we still own it
        payload.emplace(derived().extract_element(gid));
        seq = m_directory->migration_departed(gid, dest);
      }
    }
    if (!payload) {
      rmi_handle const h = this->get_handle();
      post_to_self([h, gid, dest] {
        auto* c = get_registered_object<Derived>(h);
        c->migrate(gid, dest);
      });
      return;
    }
    // The payload travels with its hop number so the home can order this
    // move's record update against updates of neighbouring hops.
    async_rmi<Derived>(dest, this->get_handle(),
                       [gid, seq,
                        payload = std::move(*payload)](Derived& c) mutable {
                         c.migrate_in(gid, std::move(payload), seq + 1);
                       });
  }

  /// Destination-side step: stores the payload and takes ownership (the
  /// directory then updates the home record, invalidating stale caches).
  template <typename Payload>
  void migrate_in(gid_type gid, Payload payload, std::uint32_t seq)
  {
    {
      dyn_guard guard(*this);
      derived().insert_migrated(gid, std::move(payload));
    }
    m_directory->migration_arrived(gid, seq);
  }

  /// Runs `f(container)` on every location of the container (one-sided
  /// broadcast of work); completion at the next fence.
  template <typename F>
  void for_all_locations(F f)
  {
    for (location_id l = 0; l < num_locations(); ++l) {
      if (l == get_location_id())
        f(derived());
      else
        async_rmi<Derived>(l, this->get_handle(), f);
    }
  }

  /// Memory footprint of the local representative: (metadata, data) bytes
  /// (Ch. IX.F memory study).
  [[nodiscard]] memory_report memory_size() const
  {
    auto r = m_lm.memory_size();
    r.first += sizeof(Derived) + m_ths.memory_size();
    return r;
  }

  /// Aggregated (metadata, data) over all locations.  Collective.
  [[nodiscard]] memory_report global_memory_size() const
  {
    auto const local = memory_size();
    auto const meta = allreduce(local.first, std::plus<>{});
    auto const data = allreduce(local.second, std::plus<>{});
    return {meta, data};
  }

 protected:
  [[nodiscard]] Derived& derived() noexcept
  {
    return static_cast<Derived&>(*this);
  }
  [[nodiscard]] Derived const& derived() const noexcept
  {
    return static_cast<Derived const&>(*this);
  }

  /// Enables directory-backed resolution with the given fallback owner
  /// function (nullable: unknown GIDs then park until registered).  Used by
  /// make_dynamic() and by containers that are directory-backed from birth
  /// (dynamic pGraph).
  void enable_directory_resolution(
      std::function<location_id(gid_type const&)> default_owner)
  {
    if (!m_directory)
      m_directory = std::make_unique<directory_type>(); // collective ctor
    m_directory->set_default_owner(std::move(default_owner));
    m_dynamic = true;
  }

  /// Serializes this representative's dynamic dispatch (ownership check +
  /// local bCID computation + element access) against the migration steps
  /// under the direct transport, where both run on arbitrary caller
  /// threads.  No-op under the queue transport (single thread per
  /// location).  Recursive so an element action may nest local operations
  /// on the same container; element actions must not perform *remote*
  /// container operations under the direct transport (Ch. VI discipline).
  struct dyn_guard {
    explicit dyn_guard(p_container_base const& c)
        : m(current_transport() == transport_kind::direct ? &c.m_dyn_mutex
                                                          : nullptr)
    {
      if (m)
        m->lock();
    }
    ~dyn_guard()
    {
      if (m)
        m->unlock();
    }
    dyn_guard(dyn_guard const&) = delete;
    dyn_guard& operator=(dyn_guard const&) = delete;

   private:
    std::recursive_mutex* m;
  };

  partition_type m_partition;
  mapper_type m_mapper;
  location_manager_type m_lm;
  locking_policy_table m_policies;
  ths_manager_type m_ths{&m_policies};
  /// Constructed lazily (and collectively) when the container switches to
  /// dynamic resolution — static containers stay directory-free.
  std::unique_ptr<directory_type> m_directory;
  bool m_dynamic = false;
  /// Load-balancing state (enable_load_balancing / advance_epoch).
  load_balancer_config m_lb_cfg;
  bool m_lb_enabled = false;
  std::uint64_t m_lb_epoch = 0;
  unsigned m_lb_interval = 1;    ///< effective interval (auto-tuned)
  unsigned m_lb_countdown = 0;   ///< epochs until the next wave (0 = never)
  double m_lb_last_imbalance = 1.0;
  /// Locality-pipeline feedback state (guarded: executor feedback may run
  /// on caller threads under the direct transport).
  mutable std::mutex m_locality_mutex;
  grain_tuner m_grain;
  task_graph_stats m_tg_epoch;
  chunk_affinity_table m_affinity;
  mutable std::recursive_mutex m_dyn_mutex;
  /// bCID of migrated-in elements that do not belong to a local bContainer
  /// per the closed-form partition (value == migrated_bcid when the element
  /// lives in m_migrated).
  std::unordered_map<gid_type, bcid_type> m_dyn_index;
  /// Overflow store of migrated-in elements for contiguously indexed
  /// containers whose bContainers cannot host foreign GIDs.
  std::unordered_map<gid_type, value_type> m_migrated;
};

// ---------------------------------------------------------------------------
// p_container_static (Table XII)
// ---------------------------------------------------------------------------

template <typename Derived, typename Traits>
class p_container_static : public p_container_base<Derived, Traits> {
  using base = p_container_base<Derived, Traits>;

 public:
  using typename base::gid_type;

  /// Number of elements in local bContainers.
  [[nodiscard]] std::size_t local_size() const
  {
    return this->m_lm.local_size();
  }
  [[nodiscard]] bool local_empty() const { return local_size() == 0; }

  /// Global size: closed form from the partition's domain (static
  /// containers never change size).
  [[nodiscard]] std::size_t size() const
  {
    return this->m_partition.domain().size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
};

// ---------------------------------------------------------------------------
// p_container_dynamic (Table XIII)
// ---------------------------------------------------------------------------

template <typename Derived, typename Traits>
class p_container_dynamic : public p_container_base<Derived, Traits> {
  using base = p_container_base<Derived, Traits>;

 public:
  [[nodiscard]] std::size_t local_size() const
  {
    return this->m_lm.local_size();
  }
  [[nodiscard]] bool local_empty() const { return local_size() == 0; }

  /// Global size.  One-sided: queries every location's local size
  /// (Ch. VII.G discusses the cost trade-offs; the cached-size variant is
  /// refreshed by post_execute in the view layer).
  [[nodiscard]] std::size_t size() const
  {
    std::size_t total = 0;
    for (location_id l = 0; l < num_locations(); ++l) {
      if (l == this->get_location_id())
        total += local_size();
      else
        total += sync_rmi<Derived>(l, this->get_handle(),
                                   [](Derived const& c) {
                                     return c.local_size();
                                   });
    }
    return total;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Removes all elements on every location.  Collective: the leading fence
  /// lets in-flight element methods (and one-sided size queries) complete
  /// before any location starts destroying state.
  void clear()
  {
    rmi_fence();
    for (auto& [bcid, bcptr] : this->m_lm)
      bcptr->clear();
    rmi_fence();
  }
};

// ---------------------------------------------------------------------------
// Element proxy (shared-object operator[] support)
// ---------------------------------------------------------------------------

/// Reference-like proxy to a (possibly remote) element: reads resolve via
/// get_element, writes via set_element.
template <typename Container>
class element_proxy {
 public:
  using value_type = typename Container::value_type;
  using gid_type = typename Container::gid_type;

  element_proxy(Container& c, gid_type g) noexcept : m_c(&c), m_gid(g) {}

  operator value_type() const { return m_c->get_element(m_gid); } // NOLINT

  element_proxy& operator=(value_type const& v)
  {
    m_c->set_element(m_gid, v);
    return *this;
  }
  element_proxy& operator=(element_proxy const& o)
  {
    return *this = static_cast<value_type>(o);
  }

  [[nodiscard]] value_type value() const { return m_c->get_element(m_gid); }
  [[nodiscard]] gid_type gid() const noexcept { return m_gid; }

 private:
  Container* m_c;
  gid_type m_gid;
};

// ---------------------------------------------------------------------------
// p_container_indexed (Table XIV)
// ---------------------------------------------------------------------------

/// Indexed interface over any container whose partition provides
/// local_index(gid): set/get/split-phase element access, apply_get/apply_set
/// and operator[].  Base of pArray, pMatrix and pVector.
template <typename Derived, typename Traits,
          template <typename, typename> class SizeBase = p_container_static>
class p_container_indexed : public SizeBase<Derived, Traits> {
  using base = SizeBase<Derived, Traits>;

 public:
  using typename base::gid_type;
  using typename base::value_type;
  using reference = element_proxy<Derived>;

  /// Reference to the element of `gid` stored under bCID `b` — either a
  /// partition-assigned bContainer slot or the migrated-element overflow
  /// store.  The accessor every indexed element method funnels through, so
  /// methods work unchanged after the element migrates.
  [[nodiscard]] value_type& element_at(gid_type gid, bcid_type b)
  {
    if (b == migrated_bcid)
      return this->m_migrated.at(gid);
    return this->bc(b).at(this->partition().local_index(gid));
  }

  /// Removes the element of `gid` from local storage and returns it
  /// (migration protocol hook).  Partition-assigned slots stay allocated —
  /// contiguous storage cannot drop one index — and simply become stale;
  /// resolution never routes to them again until the element returns.
  [[nodiscard]] value_type extract_element(gid_type gid)
  {
    auto const it = this->m_dyn_index.find(gid);
    if (it != this->m_dyn_index.end() && it->second == migrated_bcid) {
      auto node = this->m_migrated.extract(gid);
      this->m_dyn_index.erase(it);
      return std::move(node.mapped());
    }
    return element_at(gid, this->partition().get_info(gid));
  }

  /// Stores a migrated-in element (migration protocol hook).  An element
  /// returning to the location its partition assigns it to lands back in
  /// its original slot; foreign elements go to the overflow store.
  void insert_migrated(gid_type gid, value_type v)
  {
    bcid_type const b = this->partition().get_info(gid);
    if (this->m_lm.has(b)) {
      this->bc(b).set(this->partition().local_index(gid), std::move(v));
      this->m_dyn_index.erase(gid);
      this->m_migrated.erase(gid);
      return;
    }
    this->m_migrated[gid] = std::move(v);
    this->m_dyn_index[gid] = migrated_bcid;
  }

  /// Owner-side store of one element: what every indexed write performs at
  /// the owner.  Containers whose storage can lag their index snapshot
  /// hide it with their own (p_vector clamps to the live block size).
  void write_local(gid_type gid, bcid_type b, value_type val)
  {
    element_at(gid, b) = std::move(val);
  }

  /// Asynchronous write (no return value — Ch. V.B asynchronous methods).
  void set_element(gid_type gid, value_type val)
  {
    this->invoke(MP_SET_ELEMENT, gid,
                 [gid, val = std::move(val)](Derived& c, bcid_type b) {
                   c.write_local(gid, b, val);
                 });
  }

  /// Asynchronous range write: `values[i]` becomes the element of GID
  /// `first + i`; complete by the next rmi_fence, like set_element.  The
  /// range is cut into per-owner runs by resolve() (closed form, no
  /// directory round trip), each remote owner receives one RMI carrying
  /// its runs and values, and the local runs are written in place.  Every
  /// element is stored through write_local, under one data_access_pre/post
  /// per run.  After make_dynamic() a GID that has migrated away from its
  /// closed-form owner falls back to the routed set_element.
  void set_elements(gid_type first, std::vector<value_type> values)
    requires std::is_integral_v<gid_type>
  {
    location_id const p = num_locations();
    std::vector<std::vector<gid_run>> runs(p);
    std::vector<std::vector<value_type>> vals(p);
    ths_info ti{MP_SET_ELEMENT, invalid_bcid};
    this->m_ths.metadata_access_pre(ti);
    bcid_type run_bcid = invalid_bcid;
    location_id run_loc = invalid_location;
    for (std::size_t i = 0; i != values.size(); ++i) {
      gid_type const g = first + static_cast<gid_type>(i);
      auto const r = this->derived().resolve(g);
      assert(r.loc < p && "set_elements: GID outside the domain");
      if (r.bcid != run_bcid || r.loc != run_loc) {
        run_bcid = r.bcid;
        run_loc = r.loc;
        runs[r.loc].push_back({static_cast<std::uint64_t>(g), 0});
      }
      runs[r.loc].back().count += 1;
      vals[r.loc].push_back(std::move(values[i]));
    }
    this->m_ths.metadata_access_post(ti);

    for (location_id l = 0; l != p; ++l) {
      if (runs[l].empty())
        continue;
      if (l == this->get_location_id())
        write_runs(runs[l], std::move(vals[l]));
      else
        async_rmi<Derived>(
            l, this->get_handle(),
            [](Derived& c, auto&& rs, auto&& vs) {
              c.write_runs(rs, std::move(vs));
            },
            std::move(runs[l]), std::move(vals[l]));
    }
  }

  /// Framework-internal: owner side of set_elements.  `values` holds the
  /// runs' elements back to back.  Elements this location does not own
  /// (migrated away, or a snapshot that disagrees with the sender's) are
  /// re-sent through the routed set_element from a later poll.
  void write_runs(std::vector<gid_run> const& runs,
                  std::vector<value_type> values)
  {
    std::vector<std::pair<gid_type, value_type>> missed;
    std::size_t v = 0;
    for (gid_run const& run : runs) {
      auto const g0 = static_cast<gid_type>(run.first);
      if (this->is_dynamic()) {
        typename base::dyn_guard guard(*this);
        ths_info ti{MP_SET_ELEMENT, this->partition().get_info(g0)};
        this->m_ths.data_access_pre(ti);
        for (std::uint64_t i = 0; i != run.count; ++i, ++v) {
          gid_type const g = g0 + static_cast<gid_type>(i);
          if (this->get_directory().owns(g)) {
            this->get_directory().note_access(g);
            this->derived().write_local(g, this->derived().dyn_local_bcid(g),
                                        std::move(values[v]));
          } else {
            missed.emplace_back(g, std::move(values[v]));
          }
        }
        this->m_ths.data_access_post(ti);
        continue;
      }
      auto const r = this->derived().resolve(g0);
      if (!r.resolved || r.loc != this->get_location_id()) {
        for (std::uint64_t i = 0; i != run.count; ++i, ++v)
          missed.emplace_back(g0 + static_cast<gid_type>(i),
                              std::move(values[v]));
        continue;
      }
      ths_info ti{MP_SET_ELEMENT, r.bcid};
      this->m_ths.data_access_pre(ti);
      for (std::uint64_t i = 0; i != run.count; ++i, ++v)
        this->derived().write_local(g0 + static_cast<gid_type>(i), r.bcid,
                                    std::move(values[v]));
      this->m_ths.data_access_post(ti);
    }
    if (missed.empty())
      return;
    rmi_handle const h = this->get_handle();
    post_to_self([h, missed = std::move(missed)]() mutable {
      auto* c = get_registered_object<Derived>(h);
      for (auto& [g, x] : missed)
        c->set_element(g, std::move(x));
    });
  }

  /// Synchronous write: returns only after the write has been applied at the
  /// owner.  Using only synchronous methods restores sequential consistency
  /// (Ch. VII.E Claim 3).
  void set_element_sync(gid_type gid, value_type val)
  {
    (void)this->invoke_ret(MP_SET_ELEMENT, gid,
                           [gid, val = std::move(val)](Derived& c,
                                                       bcid_type b) {
                             c.write_local(gid, b, val);
                             return true;
                           });
  }

  /// Synchronous read.
  [[nodiscard]] value_type get_element(gid_type gid)
  {
    return this->invoke_ret(MP_GET_ELEMENT, gid,
                            [gid](Derived& c, bcid_type b) {
                              return c.element_at(gid, b);
                            });
  }

  /// Split-phase read: returns a future immediately (Ch. V.B).
  [[nodiscard]] pc_future<value_type> split_phase_get_element(gid_type gid)
  {
    return this->invoke_split(MP_GET_ELEMENT, gid,
                              [gid](Derived& c, bcid_type b) {
                                return c.element_at(gid, b);
                              });
  }

  /// Applies functor `f` to the element; returns f's result (synchronous).
  template <typename F>
  [[nodiscard]] auto apply_get(gid_type gid, F f)
  {
    return this->invoke_ret(MP_APPLY, gid,
                            [gid, f = std::move(f)](Derived& c,
                                                    bcid_type b) mutable {
                              return f(c.element_at(gid, b));
                            });
  }

  /// Applies functor `f` to the element asynchronously (no return).
  template <typename F>
  void apply_set(gid_type gid, F f)
  {
    this->invoke(MP_APPLY, gid,
                 [gid, f = std::move(f)](Derived& c, bcid_type b) mutable {
                   f(c.element_at(gid, b));
                 });
  }

  [[nodiscard]] reference operator[](gid_type gid)
  {
    return reference(this->derived(), gid);
  }

  /// Direct reference to a *local* element (native-view fast path).
  [[nodiscard]] value_type& local_element(gid_type gid)
  {
    if (this->is_dynamic()) {
      typename base::dyn_guard guard(*this); // vs concurrent migrate_out
      assert(this->get_directory().owns(gid));
      return element_at(gid, this->derived().dyn_local_bcid(gid));
    }
    auto const r = this->derived().resolve(gid);
    assert(r.resolved && r.loc == this->get_location_id());
    return this->bc(r.bcid).at(this->partition().local_index(gid));
  }

  /// Pointer to a local element, or nullptr when the element is remote
  /// (lets views/algorithms take the direct path when possible).  The
  /// lookup itself is guarded against concurrent migration; the returned
  /// pointer, like any native-view reference, is only stable within a
  /// computation phase (no concurrent migration of the same element).
  [[nodiscard]] value_type* local_element_ptr(gid_type gid)
  {
    if (this->is_dynamic()) {
      typename base::dyn_guard guard(*this);
      if (!this->get_directory().owns(gid))
        return nullptr;
      return &element_at(gid, this->derived().dyn_local_bcid(gid));
    }
    auto const r = this->derived().resolve(gid);
    if (!r.resolved || r.loc != this->get_location_id())
      return nullptr;
    return &this->bc(r.bcid).at(this->partition().local_index(gid));
  }

  /// Applies `f(gid, element&)` to every element stored on this location,
  /// bContainer by bContainer in partition order (the native traversal).
  /// After make_dynamic() the traversal follows current *ownership*:
  /// partition-assigned slots whose element migrated away are skipped, and
  /// adopted elements living in the overflow store are visited (ascending
  /// GID order) — so bView iteration and task-graph chunks cover exactly
  /// the elements this location owns.  Runs under the dynamic-dispatch
  /// guard; like any element action, `f` must not perform remote container
  /// operations under the direct transport (Ch. VI discipline).
  template <typename F>
  void for_each_local(F&& f)
  {
    if (!this->is_dynamic()) {
      for (auto& [bcid, bcptr] : this->m_lm) {
        std::size_t const n = bcptr->size();
        for (std::size_t i = 0; i != n; ++i)
          f(this->partition().gid_of(bcid, i), bcptr->at(i));
      }
      return;
    }
    typename base::dyn_guard guard(*this);
    auto const owned = this->get_directory().owned_snapshot();
    for (auto& [bcid, bcptr] : this->m_lm) {
      std::size_t const n = bcptr->size();
      for (std::size_t i = 0; i != n; ++i) {
        gid_type const g = this->partition().gid_of(bcid, i);
        if (owned.count(g) != 0)
          f(g, bcptr->at(i));
      }
    }
    for (gid_type const& g : adopted_gids_sorted())
      f(g, this->m_migrated.at(g));
  }

  /// GIDs of all locally stored elements, in partition order.  Dynamic
  /// containers list the elements this location currently *owns*: migrated
  /// -away slots are excluded and adopted overflow elements appended in
  /// ascending GID order (ROADMAP PR-1 follow-up).
  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    std::vector<gid_type> out;
    out.reserve(this->m_lm.local_size());
    if (!this->is_dynamic()) {
      for (auto const& [bcid, bcptr] : this->m_lm) {
        std::size_t const n = bcptr->size();
        for (std::size_t i = 0; i != n; ++i)
          out.push_back(this->partition().gid_of(bcid, i));
      }
      return out;
    }
    typename base::dyn_guard guard(*this);
    auto const owned = this->get_directory().owned_snapshot();
    for (auto const& [bcid, bcptr] : this->m_lm) {
      std::size_t const n = bcptr->size();
      for (std::size_t i = 0; i != n; ++i) {
        gid_type const g = this->partition().gid_of(bcid, i);
        if (owned.count(g) != 0)
          out.push_back(g);
      }
    }
    auto const adopted = adopted_gids_sorted();
    out.insert(out.end(), adopted.begin(), adopted.end());
    return out;
  }

 private:
  /// GIDs living in the migrated-element overflow store, ascending (a
  /// deterministic traversal order for adopted elements).
  [[nodiscard]] std::vector<gid_type> adopted_gids_sorted() const
  {
    std::vector<gid_type> adopted;
    adopted.reserve(this->m_migrated.size());
    for (auto const& [g, v] : this->m_migrated)
      adopted.push_back(g);
    std::sort(adopted.begin(), adopted.end());
    return adopted;
  }
};

} // namespace stapl

#endif
