#ifndef STAPL_CORE_DIRECTORY_HPP
#define STAPL_CORE_DIRECTORY_HPP

// Distributed directory (dissertation Ch. V.C.3 / Ch. XI.F.2).
//
// The directory is the mechanism that frees a pContainer from purely
// arithmetic GID resolution: each GID has a hash-determined *home location*
// holding its authoritative owner record, so elements can be registered,
// found and *moved* at run time without replicating global metadata.
//
// Per-location state of one directory:
//   * m_registry — authoritative owner records of the GIDs *homed* here,
//     each with the copyset of locations that cached the answer;
//   * m_owned    — the GIDs whose element currently lives on this location;
//   * m_away     — forwarding hints left behind by outbound migrations
//     (requests that still arrive here chase the hint, Ch. XI.F.2
//     "dynamic with forwarding"); bounded by home-driven reclamation:
//     each record update retires the hints of all but the most recent
//     former owner;
//   * m_cache    — owner cache filled by cold home lookups and by the home
//     piggybacking answers onto forwarded work; invalidated by the home
//     when the owner record changes (migration, re-registration, erase).
//
// Work routing (`invoke_where`) migrates the *request* to the data: caller
// -> (cache | home) -> owner, with at most one hop added per stale level.
// When metadata is still in flight (registration or migration racing the
// request), the request parks via post_to_self and is retried once per
// poll round — it stays visible to rmi_fence's termination detection, so a
// fence cannot pass over forwarded-but-unexecuted work.
//
// All inter-representative traffic uses the existing ARMI primitives; the
// per-representative mutex exists for the `direct` transport, where
// handlers execute on caller threads (Ch. VI metadata locking).

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "../runtime/runtime.hpp"

namespace stapl {

/// Performance counters of one location's directory representative.
struct directory_stats {
  std::uint64_t local_hits = 0;      ///< resolved on the owner, no traffic
  std::uint64_t cache_hits = 0;      ///< resolved from the owner cache
  std::uint64_t home_routed = 0;     ///< requests routed through the home
  std::uint64_t cold_lookups = 0;    ///< synchronous home lookups
  std::uint64_t forwards = 0;        ///< forwarding hops taken by work items
  std::uint64_t stale_bounces = 0;   ///< work that hit a stale owner
  std::uint64_t invalidations = 0;   ///< cache entries dropped on update
  std::uint64_t retries = 0;         ///< requests parked for in-flight metadata
  std::uint64_t migrations_in = 0;   ///< elements that arrived here
  std::uint64_t migrations_out = 0;  ///< elements that departed from here
  std::uint64_t owner_accesses = 0;  ///< accesses executed here as owner
  std::uint64_t hints_reclaimed = 0; ///< forwarding hints retired by the home
};

/// Bounded top-k frequency sketch (space-saving, Metwally et al.): at most
/// `capacity` candidates are tracked; when full, the minimum-count candidate
/// is evicted and its count is inherited by the newcomer as an error bound.
/// Counts overestimate by at most the inherited error — exactly the guarantee
/// a greedy migration planner needs: a candidate with a large tracked count
/// is certainly hot, and the map can never grow past the configured capacity
/// no matter how many distinct GIDs are accessed.
template <typename GID, typename Hash = std::hash<GID>>
class space_saving_tracker {
 public:
  struct entry {
    std::uint64_t count = 0;  ///< estimated access count (upper bound)
    std::uint64_t error = 0;  ///< maximum overestimation (inherited)
  };

  void set_capacity(std::size_t k) { m_capacity = k; }
  [[nodiscard]] std::size_t capacity() const noexcept { return m_capacity; }
  [[nodiscard]] std::size_t size() const noexcept { return m_entries.size(); }

  /// Records `weight` observed accesses of `g` (weight > 1 compensates a
  /// sampled caller: 1-in-N sampling with weight N keeps the count
  /// estimates unbiased).
  void note(GID const& g, std::uint64_t weight = 1)
  {
    auto it = m_entries.find(g);
    if (it != m_entries.end()) {
      it->second.count += weight;
      return;
    }
    if (m_entries.size() < m_capacity) {
      m_entries.emplace(g, entry{weight, 0});
      return;
    }
    if (m_capacity == 0)
      return;
    // O(capacity) eviction scan: only on sketch misses, and the balancer
    // uses small capacities (tens).  Swap in a stream-summary bucket list
    // if hot_k ever grows to thousands.
    auto victim = m_entries.begin();
    for (auto e = m_entries.begin(); e != m_entries.end(); ++e)
      if (e->second.count < victim->second.count)
        victim = e;
    entry const inherited{victim->second.count + weight,
                          victim->second.count};
    m_entries.erase(victim);
    m_entries.emplace(g, inherited);
  }

  /// Tracked candidates with their count estimates, hottest first.
  [[nodiscard]] std::vector<std::pair<GID, std::uint64_t>> top() const
  {
    std::vector<std::pair<GID, std::uint64_t>> out;
    out.reserve(m_entries.size());
    for (auto const& [g, e] : m_entries)
      out.emplace_back(g, e.count);
    std::sort(out.begin(), out.end(), [](auto const& a, auto const& b) {
      return a.second > b.second;
    });
    return out;
  }

  void clear() { m_entries.clear(); }

 private:
  std::size_t m_capacity = 0;
  std::unordered_map<GID, entry, Hash> m_entries;
};

/// Distributed GID -> owner-location directory.  One representative per
/// location (collective construction, like any p_object).
///
/// The element *owner* is the location whose bContainer currently stores
/// the element; the *home* of a GID is the hash-determined location holding
/// its owner record.  Owners register/unregister; anyone may resolve or
/// route work; migration updates the record and invalidates stale caches.
template <typename GID, typename Hash = std::hash<GID>>
class directory : public p_object {
 public:
  using gid_type = GID;
  /// Type-erased work item routed to the owner of a GID.  Invoked with the
  /// location of the representative it executes against — under the direct
  /// transport that is not the calling thread's location, so work must use
  /// the argument (not this_location()) to find its container.
  using work_item = std::function<void(location_id)>;

  directory()
      : m_metrics_id(metrics::register_contributor(
            [this](metrics::counter_map& m) {
              directory_stats const s = stats();
              m["dir.local_hits"] += s.local_hits;
              m["dir.cache_hits"] += s.cache_hits;
              m["dir.home_routed"] += s.home_routed;
              m["dir.cold_lookups"] += s.cold_lookups;
              m["dir.forwards"] += s.forwards;
              m["dir.stale_bounces"] += s.stale_bounces;
              m["dir.invalidations"] += s.invalidations;
              m["dir.retries"] += s.retries;
              m["dir.migrations_in"] += s.migrations_in;
              m["dir.migrations_out"] += s.migrations_out;
              m["dir.owner_accesses"] += s.owner_accesses;
              m["dir.hints_reclaimed"] += s.hints_reclaimed;
            },
            [this] {
              std::lock_guard lock(m_mutex);
              m_stats = {};
              m_owner_accesses.store(0, std::memory_order_relaxed);
            }))
  {}

  ~directory() override { metrics::unregister_contributor(m_metrics_id); }

  /// Installs the fallback owner function consulted by the home for GIDs
  /// without a record (e.g. the closed-form partition+mapper owner of a
  /// container).  Without it, requests for unknown GIDs park until a
  /// registration arrives.
  void set_default_owner(std::function<location_id(GID const&)> f)
  {
    m_default_owner = std::move(f);
  }

  /// Selects between the two Ch. XI.F.2 translation modes: with forwarding
  /// (default) unresolved work migrates through the home; without, the
  /// requester synchronously fetches the owner first (two round trips).
  void set_forwarding(bool enable) noexcept { m_forwarding = enable; }

  /// Home location of a GID's owner record (golden-ratio mix of the hash so
  /// clustered GIDs spread over all locations).
  [[nodiscard]] location_id home_of(GID const& g) const noexcept
  {
    auto const h = static_cast<std::uint64_t>(Hash{}(g));
    return static_cast<location_id>((h * 0x9E3779B97F4A7C15ull >> 32) %
                                    get_num_locations());
  }

  /// True when this location currently owns the element of `g`.
  [[nodiscard]] bool owns(GID const& g) const
  {
    std::lock_guard lock(m_mutex);
    return m_owned.count(g) != 0;
  }

  /// Copy of this location's owned-GID set under one lock acquisition —
  /// for bulk traversals that would otherwise pay a mutex round trip per
  /// element (container local_gids()/for_each_local).
  [[nodiscard]] std::unordered_set<GID, Hash> owned_snapshot() const
  {
    std::lock_guard lock(m_mutex);
    return m_owned;
  }

  /// Point-in-time snapshot (by value: the owner-access counter lives
  /// outside the mutex on the note_access hot path, so a reference into
  /// shared state cannot be handed out race-free).
  [[nodiscard]] directory_stats stats() const
  {
    std::lock_guard lock(m_mutex);
    directory_stats s = m_stats;
    s.owner_accesses = m_owner_accesses.load(std::memory_order_relaxed);
    return s;
  }

  /// Number of owner records homed on this location.
  [[nodiscard]] std::size_t local_registry_size() const
  {
    std::lock_guard lock(m_mutex);
    return m_registry.size();
  }

  /// Drops this location's owner cache (bench/test support).
  void clear_cache()
  {
    std::lock_guard lock(m_mutex);
    m_cache.clear();
  }

  /// Outstanding forwarding hints held on this location.  Home-driven
  /// reclamation (see handle_record_owner) bounds this at one live hint per
  /// migrating GID system-wide, however many times the element moves.
  [[nodiscard]] std::size_t hint_count() const
  {
    std::lock_guard lock(m_mutex);
    return m_away.size();
  }

  // -------------------------------------------------------------------------
  // Access tracking (load-balancing support; see core/load_balancer.hpp)
  // -------------------------------------------------------------------------

  /// Starts counting owner-side element accesses into a per-epoch load
  /// counter and a bounded hot-GID tracker of capacity `top_k`.  Intended to
  /// be called collectively (same capacity everywhere) at a quiesce point.
  /// `sample_every` sets the sketch sampling rate of note_access: 1 notes
  /// every access (exact counts, but each one takes the mutex); N > 1
  /// notes ~1-in-N (weight-compensated), so the hot path stays a single
  /// relaxed atomic increment.
  void enable_access_tracking(std::size_t top_k, unsigned sample_every = 1)
  {
    std::lock_guard lock(m_mutex);
    m_hot.set_capacity(top_k);
    m_hot.clear();
    m_epoch_accesses.store(0, std::memory_order_relaxed);
    m_sample_every = sample_every == 0 ? 1 : sample_every;
    m_track_accesses.store(true, std::memory_order_release);
  }

  void disable_access_tracking()
  {
    std::lock_guard lock(m_mutex);
    m_track_accesses.store(false, std::memory_order_release);
  }

  [[nodiscard]] bool access_tracking_enabled() const noexcept
  {
    return m_track_accesses.load(std::memory_order_acquire);
  }

  /// Records one element access executed on this location as the owner.
  /// Called by the container's dynamic dispatch; no-op unless tracking is
  /// enabled, so undisturbed workloads pay a single atomic load.
  ///
  /// The measurement no longer serializes the owner hot path it measures:
  /// the load counters are relaxed atomics, and the mutex-guarded sketch
  /// update runs for ~1-in-sample_every accesses only (weight-compensated
  /// so count estimates stay unbiased).  The sampling decision mixes the
  /// counter value — a fixed stride (n % N) would alias with periodic
  /// access patterns like a round-robin sweep of a hot block.
  void note_access(GID const& g)
  {
    if (!m_track_accesses.load(std::memory_order_relaxed))
      return;
    auto const n =
        m_epoch_accesses.fetch_add(1, std::memory_order_relaxed) + 1;
    m_owner_accesses.fetch_add(1, std::memory_order_relaxed);
    unsigned const every = m_sample_every;
    if (every > 1 && !sampled(n, every))
      return;
    std::lock_guard lock(m_mutex);
    m_hot.note(g, every);
  }

  /// Owner-side accesses recorded since the last reset_epoch().
  [[nodiscard]] std::uint64_t epoch_accesses() const
  {
    return m_epoch_accesses.load(std::memory_order_acquire);
  }

  /// Sketch sampling rate in effect (see enable_access_tracking).
  [[nodiscard]] unsigned access_sample_every() const noexcept
  {
    return m_sample_every;
  }

  /// Tracked hot GIDs with space-saving count estimates, hottest first.
  [[nodiscard]] std::vector<std::pair<GID, std::uint64_t>> hot_elements() const
  {
    std::lock_guard lock(m_mutex);
    return m_hot.top();
  }

  /// Ends the measurement epoch: zeroes the load counter and the tracker so
  /// the next epoch observes only fresh traffic.
  void reset_epoch()
  {
    std::lock_guard lock(m_mutex);
    m_epoch_accesses.store(0, std::memory_order_relaxed);
    m_hot.clear();
  }

  // -------------------------------------------------------------------------
  // Registration (asynchronous; complete at the next rmi_fence)
  // -------------------------------------------------------------------------

  /// Takes local ownership of `g` without creating a home record.  Only
  /// valid when the installed default owner already resolves `g` to this
  /// location (e.g. a container seeding its current elements in
  /// make_dynamic): the home then materializes an identical record lazily
  /// on first use, so no registration traffic is needed.
  void seed_ownership(GID const& g)
  {
    std::lock_guard lock(m_mutex);
    m_owned.insert(g);
    m_owned_seq.erase(g);
    m_away.erase(g);
    m_retired.erase(g);
    m_cache.erase(g);
  }

  /// Declares this location the owner of `g` and records it at the home.
  void register_gid(GID const& g)
  {
    {
      std::lock_guard lock(m_mutex);
      m_owned.insert(g);
      m_owned_seq.erase(g); // a fresh incarnation restarts the hop chain
      m_away.erase(g);
      m_retired.erase(g);
    }
    update_home_record(g);
  }

  /// Removes `g` from this location and erases its home record.
  void unregister_gid(GID const& g)
  {
    {
      std::lock_guard lock(m_mutex);
      m_owned.erase(g);
      m_owned_seq.erase(g);
      m_away.erase(g);
      m_retired.erase(g);
      m_cache.erase(g);
    }
    location_id const home = home_of(g);
    if (home == get_location_id()) {
      handle_erase_record(g);
      return;
    }
    async_rmi<directory>(home, this->get_handle(),
                         [g](directory& d) { d.handle_erase_record(g); });
  }

  // -------------------------------------------------------------------------
  // Resolution
  // -------------------------------------------------------------------------

  /// Owner of `g` using only location-local knowledge (ownership, home
  /// record, cache); nullopt when answering would need communication.
  [[nodiscard]] std::optional<location_id> try_resolve(GID const& g) const
  {
    std::lock_guard lock(m_mutex);
    if (m_owned.count(g))
      return get_location_id();
    if (home_of(g) == get_location_id()) {
      auto it = m_registry.find(g);
      if (it != m_registry.end())
        return it->second.owner;
      return std::nullopt;
    }
    auto it = m_cache.find(g);
    if (it != m_cache.end())
      return it->second;
    return std::nullopt;
  }

  /// Blocking owner lookup: answers locally when possible, otherwise asks
  /// the home synchronously, subscribing this location to invalidations.
  /// The home pushes the answer into this location's cache as a separate
  /// message ordered against its invalidations, so a migration racing the
  /// lookup cannot strand a stale entry here; the return value is the
  /// point-in-time owner.  Returns invalid_location for unknown GIDs on a
  /// directory without a default owner.
  [[nodiscard]] location_id resolve(GID const& g)
  {
    latency::timed_op lat_scope(latency::op::dir_resolve);
    {
      std::lock_guard lock(m_mutex);
      if (m_owned.count(g)) {
        m_stats.local_hits += 1;
        return get_location_id();
      }
      auto it = m_cache.find(g);
      if (it != m_cache.end()) {
        m_stats.cache_hits += 1;
        return it->second;
      }
    }
    location_id const home = home_of(g);
    if (home == get_location_id())
      return handle_lookup(g, invalid_location);
    location_id const me = get_location_id();
    {
      std::lock_guard lock(m_mutex);
      m_stats.cold_lookups += 1;
    }
    return sync_rmi<directory>(
        home, this->get_handle(),
        [g, me](directory& d) { return d.handle_lookup(g, me); });
  }

  // -------------------------------------------------------------------------
  // Work routing (request forwarding)
  // -------------------------------------------------------------------------

  /// Routes `f` to the location currently owning `g` and executes it there
  /// exactly once.  Asynchronous: completion is guaranteed by the next
  /// rmi_fence even when the route crosses stale caches or an in-flight
  /// migration.  `f` must reach state it needs through registered handles
  /// (it executes on another location's thread under the queue transport).
  template <typename F>
  void invoke_where(GID const& g, F f)
  {
    {
      std::unique_lock lock(m_mutex);
      if (m_owned.count(g)) {
        m_stats.local_hits += 1;
        lock.unlock();
        f(get_location_id());
        return;
      }
    }
    route_work(g, work_item(std::move(f)), get_location_id());
  }

  // -------------------------------------------------------------------------
  // Migration protocol hooks (driven by migration.hpp)
  // -------------------------------------------------------------------------

  /// Owner-side step: the element of `g` has been extracted and is on its
  /// way to `dest`.  Leaves a forwarding hint so requests that still arrive
  /// here chase the element.  Returns the element's migration sequence
  /// number — its position on the (linear) chain of ownership transfers —
  /// which must be handed, incremented, to the destination's
  /// migration_arrived so the home can order record updates that race each
  /// other over different channels.
  [[nodiscard]] std::uint32_t migration_departed(GID const& g,
                                                 location_id dest)
  {
    std::lock_guard lock(m_mutex);
    m_owned.erase(g);
    m_away[g] = dest;
    m_stats.migrations_out += 1;
    STAPL_TRACE(trace::event_kind::migration,
                static_cast<std::uint64_t>(Hash{}(g)));
    auto const it = m_owned_seq.find(g);
    if (it == m_owned_seq.end())
      return 0;
    auto const s = it->second;
    m_owned_seq.erase(it);
    return s;
  }

  /// Destination-side step: the element of `g` has been stored locally.
  /// Takes ownership and updates the home record (asynchronously), which
  /// invalidates stale caches.  `seq` is the departure's sequence number
  /// plus one.
  void migration_arrived(GID const& g, std::uint32_t seq)
  {
    {
      std::lock_guard lock(m_mutex);
      m_owned.insert(g);
      m_owned_seq[g] = seq;
      m_away.erase(g);
      m_retired.erase(g);
      m_cache.erase(g);
      m_stats.migrations_in += 1;
      STAPL_TRACE(trace::event_kind::migration,
                  static_cast<std::uint64_t>(Hash{}(g)));
    }
    update_home_record(g, seq);
  }

  // -------------------------------------------------------------------------
  // Message handlers (public: they execute on remote representatives via
  // the ARMI primitives; not part of the user-facing interface)
  // -------------------------------------------------------------------------

  /// At the home: installs/overwrites the owner record of `g` and
  /// invalidates every copyset member that cached a different owner — the
  /// new owner included: a cache update the home pushed to it before it
  /// took ownership can land after the element left it again.
  /// Invalidations are issued while the record lock is held, so they
  /// serialize against the cache updates of concurrent lookups: a cache
  /// can never end up holding an owner the home has already replaced.
  ///
  /// Updates carry the element's migration sequence number, because they
  /// arrive over per-sender channels that do not order hops of the same
  /// element against each other: a straggler from hop k must not overwrite
  /// the record of hop k+1 — a regressed record would route new work at a
  /// location whose hint the reclamation below may already have retired.
  /// Stale updates are dropped (seq <= rec.seq); `seq == 0` marks an
  /// explicit registration, which always supersedes the current record.
  ///
  /// Home-driven hint reclamation: once the record names a new owner, only
  /// the hint at the location that just departed is still on a fast path
  /// (the one-hop chase for requests already heading there).  Hints at
  /// older former owners are only reachable through knowledge this update
  /// invalidates, and a hint-less stale location falls back to
  /// park-and-re-route through this never-regressing record — so retiring
  /// them is safe and keeps m_away bounded at one live hint per migrating
  /// GID instead of growing with the migration history.
  void handle_record_owner(GID const& g, location_id owner,
                           std::uint32_t seq = 0)
  {
    std::lock_guard lock(m_mutex);
    auto& rec = m_registry[g];
    if (seq == 0) {
      // Explicit registration: a fresh incarnation of the GID, starting a
      // new sequence space (incarnations are separated by a fence, like
      // any erase/re-insert flow).  Its migrations resume from seq 1.
      rec.seq = 0;
    } else if (seq <= rec.seq) {
      // Straggler of an already-superseded hop.  Its sender's ownership
      // era is provably over, so its forwarding hint — which the era that
      // won the race never learned about — is retired here instead of
      // leaking forever.
      if (owner != rec.owner)
        reclaim_hint_locked(g, owner);
      return;
    } else {
      rec.seq = seq;
    }
    if (rec.owner != owner) {
      std::vector<location_id> stale;
      stale.swap(rec.copyset);
      invalidate_copies_locked(g, stale);
      location_id prev = rec.owner;
      if (prev == invalid_location && m_default_owner) {
        // First update the home ever sees: the element departed a seeded
        // owner (make_dynamic) that never registered.  Its hint lives at
        // the closed-form location, which therefore counts as the
        // previous owner for reclamation purposes.
        location_id const def = m_default_owner(g);
        if (def != owner)
          prev = def;
      }
      std::vector<location_id> reclaim;
      reclaim.swap(rec.former);
      if (prev != invalid_location)
        rec.former.push_back(prev);
      for (location_id l : reclaim) {
        if (l == prev || l == owner)
          continue; // prev keeps its fresh hint; the new owner holds none
        reclaim_hint_locked(g, l);
      }
    }
    rec.owner = owner;
    rec.synthesized = false; // a real owner registered: adoption is over
  }

  /// At the home: erases the record of `g` and invalidates all copies.
  void handle_erase_record(GID const& g)
  {
    std::lock_guard lock(m_mutex);
    auto it = m_registry.find(g);
    if (it == m_registry.end())
      return;
    std::vector<location_id> stale;
    stale.swap(it->second.copyset);
    std::vector<location_id> former;
    former.swap(it->second.former);
    bool const synthesized = it->second.synthesized;
    m_registry.erase(it);
    if (m_default_owner && !synthesized) {
      // The default owner may hold an m_retired mark for the dead
      // incarnation (see retire_hint_here_locked).
      location_id const def = m_default_owner(g);
      if (std::find(former.begin(), former.end(), def) == former.end())
        former.push_back(def);
    }
    invalidate_copies_locked(g, stale);
    for (location_id l : former) {
      if (l == get_location_id()) {
        m_away.erase(g);
        m_retired.erase(g);
        continue;
      }
      queued_rmi<directory>(l, this->get_handle(),
                            [g](directory& d) { d.handle_clear_hint(g); });
    }
  }

  /// At the home: owner of `g`, subscribing `requester` to invalidations
  /// and pushing the answer into its cache (both under the record lock,
  /// ordered against invalidations).  Installs the default owner for
  /// unknown GIDs when available.
  [[nodiscard]] location_id handle_lookup(GID const& g, location_id requester)
  {
    std::lock_guard lock(m_mutex);
    auto it = m_registry.find(g);
    if (it == m_registry.end()) {
      if (!m_default_owner)
        return invalid_location;
      home_record rec;
      rec.owner = m_default_owner(g);
      rec.synthesized = true;
      it = m_registry.emplace(g, std::move(rec)).first;
    }
    location_id const owner = it->second.owner;
    if (requester != invalid_location && requester != owner &&
        requester != get_location_id()) {
      subscribe(it->second, requester);
      // Queued (never inline): sent under m_mutex, and an inline send
      // would lock the requester's representative while we hold ours —
      // two homes servicing each other would deadlock.
      queued_rmi<directory>(requester, this->get_handle(),
                            [g, owner](directory& d) {
                              d.handle_cache_update(g, owner);
                            });
    }
    return owner;
  }

  /// At the home: routes `f` toward the recorded owner of `g`.  Unknown
  /// GIDs either adopt the default owner or park until registration
  /// arrives; records pointing at an in-flight element park as well.
  void handle_home_exec(GID g, location_id requester, work_item f)
  {
    if (try_home_route(g, requester, f))
      return;
    park_retry(g, requester, std::move(f));
  }

  /// At a presumed owner: executes `f` if the element is here, chases the
  /// forwarding hint if the element left, and otherwise adopts the GID
  /// when `designated` — i.e. the home's current record is *synthesized*
  /// from the default-owner function and names this location.  Adoption is
  /// safe exactly then: no registration or migration ever produced the
  /// record, so no live element exists anywhere and this location is the
  /// GID's rightful closed-form creator.  For registered records the
  /// empty state is always a transient race (record update, hint
  /// reclamation or migration payload still in flight), so the request
  /// parks and re-routes instead — adopting would fork ownership.  A
  /// request that finds this location stale tells the requester to drop
  /// its cache entry, so the next access resolves fresh instead of
  /// re-bouncing here.
  void handle_forward_exec(GID g, work_item f, bool designated,
                           location_id requester)
  {
    {
      std::unique_lock lock(m_mutex);
      if (m_owned.count(g)) {
        lock.unlock();
        f(get_location_id());
        return;
      }
      auto hint = m_away.find(g);
      if (hint != m_away.end()) {
        // The element lived here and left: chase it.  The chase does not
        // inherit designation — only the home's record confers it.
        location_id const next = hint->second;
        m_stats.forwards += 1;
        lock.unlock();
        notify_stale(g, requester);
        send_forward(next, g, std::move(f), false, requester);
        return;
      }
      if (designated && !m_retired.count(g)) {
        m_owned.insert(g);
        lock.unlock();
        f(get_location_id());
        return;
      }
      m_stats.stale_bounces += 1;
    }
    // Stale knowledge (cache pointed here, or the record outran an
    // in-flight migration): park and re-route from scratch next poll.
    notify_stale(g, requester);
    park_retry(g, requester, std::move(f));
  }

  /// Cache maintenance messages.
  void handle_cache_update(GID const& g, location_id owner)
  {
    std::lock_guard lock(m_mutex);
    if (!m_owned.count(g))
      m_cache[g] = owner;
  }
  void handle_cache_invalidate(GID const& g)
  {
    std::lock_guard lock(m_mutex);
    m_cache.erase(g);
    m_stats.invalidations += 1;
  }

  /// The GID's record was erased: any forwarding hint held here belongs
  /// to a dead incarnation.
  void handle_clear_hint(GID const& g)
  {
    std::lock_guard lock(m_mutex);
    m_away.erase(g);
    m_retired.erase(g);
  }

  /// The home retired this location's forwarding hint for `g` (a newer
  /// owner record supersedes it; see handle_record_owner).
  void handle_reclaim_hint(GID const& g)
  {
    std::lock_guard lock(m_mutex);
    retire_hint_here_locked(g);
  }

 private:
  struct home_record {
    location_id owner = invalid_location;
    /// Position of `owner` on the element's chain of ownership transfers.
    /// Updates whose seq does not advance this are stragglers of
    /// superseded hops and are dropped, so the record never regresses
    /// (the per-sender channels do not order different hops of the same
    /// element against each other).
    std::uint32_t seq = 0;
    /// True when the record was materialized lazily from the default-owner
    /// function instead of an explicit registration.  Only such records
    /// confer the *adopt* privilege on forwarded work: their owner may
    /// legitimately hold neither element nor hint (a fresh GID the
    /// container creates on first touch).  A registered/migrated owner
    /// always holds one or the other, so an empty designated location is a
    /// transient race (e.g. a reclaimed hint outrunning the next record
    /// update) and must park instead of adopting — adoption there would
    /// fork ownership.
    bool synthesized = false;
    /// Locations whose cache holds this record's answer.
    std::vector<location_id> copyset;
    /// Former owners (they hold forwarding hints for this GID); their
    /// hints are cleared when the record is erased, so chains from dead
    /// incarnations cannot persist.
    std::vector<location_id> former;
  };

  /// Points `g`'s home record at this location (registration and
  /// migration-arrival share this step; seq 0 marks a registration).
  void update_home_record(GID const& g, std::uint32_t seq = 0)
  {
    location_id const home = home_of(g);
    location_id const owner = get_location_id();
    if (home == owner) {
      handle_record_owner(g, owner, seq);
      return;
    }
    async_rmi<directory>(home, this->get_handle(),
                         [g, owner, seq](directory& d) {
                           d.handle_record_owner(g, owner, seq);
                         });
  }

  void subscribe(home_record& rec, location_id requester)
  {
    for (location_id l : rec.copyset)
      if (l == requester)
        return;
    rec.copyset.push_back(requester);
  }

  /// Requires m_mutex held.  Retires the forwarding hint for `g` at `l`
  /// (locally, or via a queued message — never inline, same deadlock
  /// argument as invalidate_copies_locked).
  void reclaim_hint_locked(GID const& g, location_id l)
  {
    if (l == invalid_location)
      return;
    if (l == get_location_id()) {
      retire_hint_here_locked(g);
      return;
    }
    queued_rmi<directory>(l, this->get_handle(),
                          [g](directory& d) { d.handle_reclaim_hint(g); });
  }

  /// Requires m_mutex held.  Drops this location's forwarding hint for `g`.
  /// The default owner remembers that the element left (m_retired): a
  /// forward the home designated from a synthesized record may still be
  /// on its way here — under the direct transport it can arrive after this
  /// reclaim — and must re-route instead of adopting the GID.
  void retire_hint_here_locked(GID const& g)
  {
    if (m_away.erase(g) == 0)
      return;
    m_stats.hints_reclaimed += 1;
    if (m_default_owner && m_default_owner(g) == get_location_id())
      m_retired.insert(g);
  }

  /// Requires m_mutex held.  Sends are queued, never inline: an inline
  /// send would take the target representative's mutex while this one is
  /// held (cross-location deadlock under the direct transport).  Queued
  /// delivery preserves push order, which is all the coherence argument
  /// needs: updates and invalidations reach each location in the order
  /// the home's record lock emitted them.
  void invalidate_copies_locked(GID const& g,
                                std::vector<location_id> const& targets)
  {
    for (location_id l : targets) {
      if (l == get_location_id()) {
        m_cache.erase(g);
        m_stats.invalidations += 1;
        continue;
      }
      queued_rmi<directory>(l, this->get_handle(),
                            [g](directory& d) { d.handle_cache_invalidate(g); });
    }
  }

  void send_forward(location_id dest, GID const& g, work_item f, bool adopt,
                    location_id requester)
  {
    STAPL_FAULT_POINT(fault::site::dir_forward);
    if (dest == get_location_id()) {
      handle_forward_exec(g, std::move(f), adopt, requester);
      return;
    }
    async_rmi<directory>(
        dest, this->get_handle(),
        [g, f = std::move(f), adopt, requester](directory& d) mutable {
          d.handle_forward_exec(g, std::move(f), adopt, requester);
        });
  }

  /// Tells `requester` that the knowledge which routed a request here was
  /// stale (no-op for anonymous or local requesters).
  void notify_stale(GID const& g, location_id requester)
  {
    if (requester == invalid_location)
      return;
    if (requester == get_location_id()) {
      handle_cache_invalidate(g);
      return;
    }
    queued_rmi<directory>(requester, this->get_handle(),
                          [g](directory& d) { d.handle_cache_invalidate(g); });
  }

  /// Routes `f` from this location: hint and cache first, then the home
  /// (forwarding mode) or a synchronous lookup (no-forwarding mode).
  void route_work(GID const& g, work_item f, location_id requester)
  {
    {
      std::unique_lock lock(m_mutex);
      auto hint = m_away.find(g);
      if (hint != m_away.end()) {
        location_id const next = hint->second;
        m_stats.forwards += 1;
        lock.unlock();
        send_forward(next, g, std::move(f), false, requester);
        return;
      }
      auto it = m_cache.find(g);
      if (it != m_cache.end()) {
        location_id const owner = it->second;
        m_stats.cache_hits += 1;
        lock.unlock();
        send_forward(owner, g, std::move(f), false, requester);
        return;
      }
    }
    location_id const home = home_of(g);
    if (home == get_location_id()) {
      handle_home_exec(g, requester, std::move(f));
      return;
    }
    if (!m_forwarding) {
      // Ch. XI.F.2 "dynamic without forwarding": fetch the owner first.
      location_id const owner = resolve(g);
      if (owner == invalid_location) {
        park_retry(g, requester, std::move(f));
        return;
      }
      send_forward(owner, g, std::move(f), false, requester);
      return;
    }
    {
      std::lock_guard lock(m_mutex);
      m_stats.home_routed += 1;
    }
    async_rmi<directory>(home, this->get_handle(),
                         [g, requester, f = std::move(f)](directory& d) mutable {
                           d.handle_home_exec(g, requester, std::move(f));
                         });
  }

  /// Home-side routing step; false when no progress is possible yet (`f`
  /// not consumed).
  [[nodiscard]] bool try_home_route(GID const& g, location_id requester,
                                    work_item& f)
  {
    location_id owner;
    bool adoptable = false;
    {
      std::lock_guard lock(m_mutex);
      auto it = m_registry.find(g);
      if (it == m_registry.end()) {
        if (!m_default_owner)
          return false; // registration still in flight: park
        home_record rec;
        rec.owner = m_default_owner(g);
        rec.synthesized = true;
        it = m_registry.emplace(g, std::move(rec)).first;
      }
      owner = it->second.owner;
      adoptable = it->second.synthesized;
      if (requester != invalid_location && requester != owner &&
          requester != get_location_id()) {
        // Piggyback the answer so the requester's next access skips the
        // home; sent under the record lock so it orders against
        // invalidations from concurrent ownership changes.
        subscribe(it->second, requester);
        queued_rmi<directory>(requester, this->get_handle(),
                              [g, owner](directory& d) {
                                d.handle_cache_update(g, owner);
                              });
      }
    }
    if (owner != get_location_id()) {
      // The forward carries the adopt privilege only for synthesized
      // records: their designated owner may legitimately hold neither
      // element nor hint (fresh GID).  A registered owner found empty is a
      // transient race and must park instead (see home_record).
      send_forward(owner, g, std::move(f), adoptable, requester);
      return true;
    }
    // The record points at the home itself: same rules, applied locally.
    {
      std::unique_lock lock(m_mutex);
      if (m_owned.count(g)) {
        lock.unlock();
        work_item body = std::move(f);
        body(get_location_id());
        return true;
      }
      auto hint = m_away.find(g);
      if (hint != m_away.end()) {
        location_id const next = hint->second;
        m_stats.forwards += 1;
        lock.unlock();
        send_forward(next, g, std::move(f), false, requester);
        return true;
      }
      if (!adoptable || m_retired.count(g))
        return false; // record outran an in-flight move: park and retry
      m_owned.insert(g); // synthesized record with no element/hint: adopt
      lock.unlock();
      work_item body = std::move(f);
      body(get_location_id());
      return true;
    }
  }

  /// Parks `f` on this location's inbox (counted as pending traffic, so
  /// rmi_fence cannot terminate over it) and retries once per poll round
  /// until the route makes progress — the metadata it lacks travels as
  /// ordinary RMI traffic and lands between polls.
  void park_retry(GID const& g, location_id requester, work_item f)
  {
    {
      std::lock_guard lock(m_mutex);
      m_stats.retries += 1;
    }
    rmi_handle const h = this->get_handle();
    post_to_self([h, g, requester, f = std::move(f)]() mutable -> bool {
      auto* d = get_registered_object<directory>(h);
      assert(d != nullptr && "directory destroyed with parked work");
      return d->retry_route(g, requester, f);
    });
  }

  /// Re-evaluates a parked request on the polling location's representative.
  /// False keeps it parked for the next poll round.
  [[nodiscard]] bool retry_route(GID const& g, location_id requester,
                                 work_item& f)
  {
    {
      std::unique_lock lock(m_mutex);
      if (m_owned.count(g)) {
        lock.unlock();
        work_item body = std::move(f);
        body(get_location_id());
        return true;
      }
      auto hint = m_away.find(g);
      if (hint != m_away.end()) {
        location_id const next = hint->second;
        m_stats.forwards += 1;
        lock.unlock();
        send_forward(next, g, std::move(f), false, requester);
        return true;
      }
    }
    if (home_of(g) == get_location_id())
      return try_home_route(g, requester, f);
    // Not the home: push the request back onto the home once; the home
    // parks it again if its record is still in flight.
    route_work(g, std::move(f), requester);
    return true;
  }

  std::function<location_id(GID const&)> m_default_owner;
  bool m_forwarding = true;

  mutable std::mutex m_mutex;
  std::unordered_map<GID, home_record, Hash> m_registry;
  std::unordered_set<GID, Hash> m_owned;
  /// Migration sequence number of locally owned elements that have moved
  /// at least once (absent == 0): travels with the element and orders the
  /// home's record updates.  One entry per live migrated element, dropped
  /// on departure/erase — not a per-history map.
  std::unordered_map<GID, std::uint32_t, Hash> m_owned_seq;
  std::unordered_map<GID, location_id, Hash> m_away;
  /// GIDs whose default owner is this location and whose element left it
  /// with its forwarding hint since reclaimed (retire_hint_here_locked):
  /// never adopted on a designated forward.
  std::unordered_set<GID, Hash> m_retired;
  std::unordered_map<GID, location_id, Hash> m_cache;
  directory_stats m_stats;
  /// Load-balancing support: owner-side access counting (note_access).
  /// The counters are relaxed atomics so the owner hot path never takes
  /// m_mutex for them; the sketch (m_hot) stays mutex-guarded but is only
  /// touched for sampled accesses.
  std::atomic<bool> m_track_accesses{false};
  std::atomic<std::uint64_t> m_epoch_accesses{0};
  std::atomic<std::uint64_t> m_owner_accesses{0};
  unsigned m_sample_every = 1;
  space_saving_tracker<GID, Hash> m_hot;
  metrics::contributor_id m_metrics_id = 0;

  /// Mixed (splitmix64-style) 1-in-`every` sampling decision for access n.
  [[nodiscard]] static bool sampled(std::uint64_t n, unsigned every) noexcept
  {
    std::uint64_t z = n + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return z % every == 0;
  }
};

} // namespace stapl

#endif
