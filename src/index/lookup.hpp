// Lookup engine (Sections IV-B and IV-C).
//
// resolve() simulates one user session: starting from an initial (usually
// broad) query, the user iteratively asks the index service for more specific
// queries, picking at each step the result that matches the article they are
// after, until the MSD is reached and the file fetched. Along the way the
// engine
//   - consults the shortcut caches and "jumps" on a hit,
//   - falls back to generalization when the query is not indexed
//     ("locating non-indexed data", the source of Table I's error counts),
//   - creates shortcut entries after success, per the configured policy.
//
// A session resolves its initial query and MSD to their interned instances
// once, at the start, and then compares pointers: a cache hit is one probe of
// the (query, MSD) pair, whatever the size of the query's bucket, and target
// selection and the index probe take the interned query. Only an MSD nobody
// published is compared by value, at the final step (DESIGN.md section 10).
//
// The engine never mutates a shortcut cache itself: every touch, install and
// invalidation goes to a CacheDeltaRecorder, and apply_cache_delta applies
// it -- at once by default, or in the feed engine's apply sub-phase
// (sim/sharded.hpp).
//
// search_all() is the automated mode: it exhaustively explores the index
// below a query and returns every reachable MSD, for applications that want
// full result sets rather than a directed walk.
#pragma once

#include <cstdint>
#include <vector>

#include "common/id.hpp"
#include "index/cache.hpp"
#include "index/service.hpp"
#include "query/query.hpp"
#include "storage/dht_store.hpp"

namespace dhtidx::index {

/// What one shortcut-cache delta does.
enum class CacheDeltaKind : std::uint8_t {
  kTouch,       ///< a hit promoted the entry to most recently used
  kInstall,     ///< shortcut creation after a successful session
  kInvalidate,  ///< a failed jump dropped the stale entry
};

/// The one shortcut-cache apply rule. `state` is `node`'s partition, which
/// the caller resolves (state_at when serial, find_state in the sharded apply
/// sub-phase); `source` and `target` are interned. Touching or erasing a gone
/// entry is a no-op. An install that creates an entry charges source + target
/// + kMessageOverheadBytes to the active cache ledger and, on bus worlds,
/// posts its kShortcut frame. (An invalidation's notice is charged and posted
/// when the session records it.)
void apply_cache_delta(IndexService& service, const Id& node, IndexNodeState& state,
                       CacheDeltaKind kind, const query::Query* source,
                       const query::Query* target);

/// Receives every shortcut-cache delta of LookupEngine::resolve and decides
/// when apply_cache_delta runs. The queries live for the call only.
class CacheDeltaRecorder {
 public:
  virtual ~CacheDeltaRecorder() = default;
  virtual void record(CacheDeltaKind kind, const Id& node, const query::Query& source,
                      const query::Query& target) = 0;
};

/// Every LookupEngine's default recorder: applies each delta when the
/// session reports it (the feed engine's epoch-length-1 case). Serial only.
class ImmediateCacheApply final : public CacheDeltaRecorder {
 public:
  explicit ImmediateCacheApply(IndexService& service) : service_(service) {}
  void record(CacheDeltaKind kind, const Id& node, const query::Query& source,
              const query::Query& target) override;

 private:
  IndexService& service_;
};

/// Lookup behaviour configuration.
struct LookupConfig {
  CachePolicy policy = CachePolicy::kNone;
  /// Hard bound on user-system interactions before giving up.
  int max_interactions = 32;
};

/// What happened during one resolve() session.
struct LookupOutcome {
  bool found = false;
  int interactions = 0;        ///< user-system rounds, including the file fetch
  bool cache_hit = false;      ///< a shortcut ended the search
  int cache_hit_position = 0;  ///< 1-based index of the hit node in the chain
  bool non_indexed = false;    ///< the initial query was not in any index
  int generalization_steps = 0;  ///< extra interactions spent generalizing
  std::vector<Id> visited_nodes;  ///< nodes contacted, in order (incl. storage)

  // Failure bookkeeping (zeros on a healthy network). `found == false` alone
  // conflates three distinct endings; the flags below separate them:
  // a clean miss (all false), an exhausted interaction budget (gave_up), and
  // a node with no reachable replica (unreachable).
  int rpc_failures = 0;       ///< delivery attempts that failed along the walk
  bool degraded = false;      ///< at least one failed attempt (session still ran)
  bool gave_up = false;       ///< max_interactions exhausted before finding
  bool unreachable = false;   ///< a required key had no reachable replica
  int stale_shortcuts = 0;    ///< shortcuts invalidated after a failed jump
};

/// Directed and exhaustive lookups over a distributed index.
class LookupEngine {
 public:
  /// All references must outlive the engine.
  LookupEngine(IndexService& service, storage::DhtStore& store, LookupConfig config)
      : service_(service), store_(store), config_(config), immediate_(service) {}

  // Not copyable: recorder_ may point at this engine's own immediate_.
  LookupEngine(const LookupEngine&) = delete;
  LookupEngine& operator=(const LookupEngine&) = delete;

  const LookupConfig& config() const { return config_; }

  /// Resolves the article whose MSD is `target_msd`, starting from `initial`.
  /// `initial` must cover `target_msd` (the user's query matches the article
  /// they want); otherwise the lookup fails cleanly with found == false.
  LookupOutcome resolve(const query::Query& initial, const query::Query& target_msd);

  /// Routes later cache deltas to `recorder` (nullptr: apply them at once).
  /// The feed engine attaches one per worker for epochs longer than one
  /// session, whose apply sub-phase replays them.
  void set_cache_recorder(CacheDeltaRecorder* recorder) {
    recorder_ = recorder != nullptr ? recorder : &immediate_;
  }

  /// Failure bookkeeping for one exhaustive search. When branches of the
  /// index tree sat on unreachable nodes the result set is partial
  /// (`complete == false`) instead of the search throwing mid-walk.
  struct SearchStats {
    int rpc_failures = 0;
    int unreachable_nodes = 0;
    bool complete = true;
  };

  /// Exhaustive search: every MSD reachable from `initial` through the index
  /// (automated mode: "the system recursively explores the indexes and
  /// returns all the file descriptors that match the original query").
  /// Non-indexed queries are generalized and the broader result set filtered
  /// back down to the original query. `depth_limit` bounds the recursion.
  /// `stats` (optional) reports failed hops and whether the set is complete.
  std::vector<query::Query> search_all(const query::Query& initial, int depth_limit = 8,
                                       SearchStats* stats = nullptr);

  /// Range search over an integer-valued field: both query logs the paper
  /// studies include publication-date intervals ("published before/after a
  /// given year"). The DHT only supports exact keys, so the range is
  /// expanded client-side into one query per value in [lo, hi], and results
  /// are unioned. `base` provides the other constraints (may be root-only).
  std::vector<query::Query> search_range(const query::Query& base,
                                         std::string_view field_path, long lo, long hi,
                                         int depth_limit = 8);

  /// Maintenance sweep: drops every shortcut whose target MSD no longer has a
  /// stored record on any replica (stale after crashes or removals). Returns
  /// the number of shortcuts dropped. Traffic-free, like rebalance().
  std::size_t purge_stale_shortcuts();

 private:
  /// Generalization candidates for a non-indexed query, best first: drop one
  /// top-level field group at a time, preferring to keep more constraints.
  static std::vector<query::Query> generalization_candidates(const query::Query& q);

  /// The index-walking part of search_all (no generalization fallback).
  std::vector<query::Query> search_tree(const query::Query& initial, int depth_limit,
                                        SearchStats* stats);

  void create_shortcuts(const std::vector<std::pair<Id, const query::Query*>>& asked,
                        const query::Query& target_msd);

  IndexService& service_;
  storage::DhtStore& store_;
  LookupConfig config_;
  ImmediateCacheApply immediate_;
  CacheDeltaRecorder* recorder_ = &immediate_;
};

}  // namespace dhtidx::index
