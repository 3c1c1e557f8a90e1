// Query interning: one immutable instance per distinct query.
//
// Every layer of the index used to pass queries around by value -- builder to
// service, service to per-node stores, node stores to the shortcut caches --
// so a popular query existed as thousands of deep copies, each re-deriving
// its canonical string and DHT key. A QueryInterner is an arena that stores
// exactly one immutable Query per canonical form; everything downstream keeps
// `const Query*` refs instead of copies, and pointer equality coincides with
// query equality for pointers produced by the same interner.
//
// A query's canonical string and signature are built with it; only its DHT
// key is lazy. Interned queries are returned with the key pre-computed, so
// concurrent readers never race on that cache, and are never freed before
// the interner itself: erasing an index entry leaves the
// interned query behind (refs held elsewhere -- shortcut caches, replies in
// flight, audit snapshots -- stay valid for the interner's lifetime).
//
// Not thread-safe: each simulation cell owns its world (and therefore its
// interner); nothing concurrent ever writes one. The sharded build (DESIGN.md
// section 12) leans on exactly that split: concurrent produce-phase workers
// may *probe* the pool (find_existing), and only the driver's serial intern
// sub-phase ever grows it. That contract is expressed as a capability below
// (`intern_phase_`), so the DHTIDX_THREAD_SAFETY build statically rejects any
// new code path that writes the pool without declaring it runs in the serial
// phase.
#pragma once

#include <unordered_set>
#include <utility>

#include "common/thread_annotations.hpp"
#include "query/query.hpp"

namespace dhtidx::query {

/// Arena of canonical query instances.
class QueryInterner {
 public:
  QueryInterner() = default;
  QueryInterner(QueryInterner&&) = default;
  QueryInterner& operator=(QueryInterner&&) = default;
  QueryInterner(const QueryInterner&) = delete;
  QueryInterner& operator=(const QueryInterner&) = delete;

  /// The canonical instance equal to `q`, created on first sight. The
  /// returned query has its DHT key (its one lazy field) pre-computed.
  /// Probes before copying: re-interning an already-pooled query (the steady
  /// state of republish and shortcut-refresh traffic) costs one hash lookup,
  /// no Query copy.
  const Query* intern(const Query& q) {
    const Query* existing = find_existing(q);
    return existing != nullptr ? existing : intern(Query{q});
  }
  const Query* intern(Query&& q) {
    // Writers run in the serial intern phase (or a single-threaded cell): the
    // capability is structural, asserted rather than locked.
    intern_phase_.assert_exclusive();
    const auto [it, inserted] = pool_.insert(std::move(q));
    if (inserted) it->key();  // pre-warm: interned queries never race on the lazy key
    return &*it;
  }

  /// The canonical instance equal to `q` when one exists, nullptr otherwise.
  /// Probe-only: never grows the pool (lookups of absent queries must not
  /// leak arena memory), so concurrent produce-phase workers may call it
  /// while the pool is frozen between serial intern sub-phases.
  const Query* find_existing(const Query& q) const {
    intern_phase_.assert_shared();  // reads are safe: pool frozen outside the serial phase
    const auto it = pool_.find(q);
    return it == pool_.end() ? nullptr : &*it;
  }

  /// Number of distinct queries interned.
  std::size_t size() const {
    intern_phase_.assert_shared();
    return pool_.size();
  }

 private:
  /// The serial-intern-phase contract as a capability: the pool only grows
  /// while exactly one thread runs intern (single-threaded cells trivially;
  /// the sharded build's driver between produce barriers), and is read-only
  /// frozen whenever workers run concurrently.
  PhaseCapability intern_phase_;

  // One node per query, hashed and compared by canonical form. Nodes never
  // move, so refs stay valid across rehashes; iteration order is never
  // observed, so determinism is unaffected.
  std::unordered_set<Query, QueryHasher> pool_ DHTIDX_GUARDED_BY(intern_phase_);
};

}  // namespace dhtidx::query
