// The one build pipeline and the one feed engine (DESIGN.md sections 12 and
// 15 have the full rules).
//
// sim::run_simulation is the one simulation entry point: it builds every
// world through build_world, from a materialized biblio::Corpus or a
// streaming biblio::ArticleStream, feeds it through feed_world, and fills
// SimulationResults from the FeedTotals the engine returns.
//
// A streaming world never materializes its workload: articles and queries
// are counter-addressable (item i is a pure function of (config, i)), so peak
// RSS scales with live index state and any partition of the items across S
// workers generates the same items. One IndexService, DhtStore and Ring are
// shared; a shard owns the node ids at its position in the sorted member
// list modulo S, and only the owner mutates a node's state.
//
//  - Build = bulk-synchronous epochs of articles: (produce) S workers emit
//    (vt = article index, seq)-tagged operations into per-(producer,
//    owner-shard) queues; (intern) the calling thread interns the epoch's
//    new queries, the only writes the shared interner sees; (apply) each
//    worker merges its shard's queues by (vt, seq) -- the sequential build's
//    total order, so results are bit-identical for every S -- and places
//    each op with DhtStore::place or IndexService::place, which post the
//    store and publish frames when a bus is attached. A world with a bus
//    builds at S = 1, in IndexBuilder::index_file's order and frames.
//  - Feed = the same pattern in epochs of queries, whose length the world
//    sets: 1 for a materialized world, kFeedEpoch (1,024) for a cached
//    streaming world, the whole feed for a cacheless one. The world's events
//    (churn and chaos) fire at epoch starts. (lookup) S workers serve their
//    sessions into private ledgers. At epoch length 1 each cache delta is
//    applied when its session reports it, the paper's sequential feed.
//    Longer epochs read the caches as a frozen snapshot and record
//    (vt = query index, seq)-tagged deltas; (intern) as in the build;
//    (apply) each worker merges its shard's deltas by (vt, seq) through
//    index::apply_cache_delta, the rule an immediate apply uses. Results are
//    bit-identical for every S, including S = 1.
//  - The build and the feed share their per-worker buffers (a queue per
//    owner shard, the epoch's new queries and their resolved refs, under one
//    phase capability) and one intern -> apply -> reset step; they differ
//    only in the callback that lands an item: place it, or apply the delta.
//
// run_simulation rejects (InvariantError) a streaming world with a non-Ring
// substrate, a wire layer (MessageBus is single-threaded), churn, chaos or a
// shared corpus, shards > 1 without a streaming world, and more shards than
// nodes or kMaxShards.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "biblio/stream.hpp"
#include "index/lookup.hpp"
#include "index/service.hpp"
#include "net/stats.hpp"
#include "sim/metrics.hpp"
#include "sim/simulation.hpp"
#include "storage/dht_store.hpp"
#include "workload/streaming.hpp"

namespace dhtidx::sim {

/// The most shards a world may use: S shards are S threads per phase and S²
/// queues (DESIGN.md section 12).
inline constexpr std::size_t kMaxShards = 256;

/// `shards` as the engine runs it (0 means 1). Throws InvariantError above
/// `nodes` (a shard owns nodes) or kMaxShards; run_simulation, build_world
/// and feed_world call it before any queue or thread exists.
std::size_t shard_count(std::size_t shards, std::size_t nodes);

/// The one build: the full index and record store of a world from its
/// articles, a biblio::Corpus or a biblio::ArticleStream (instantiated for
/// both), using config.shards producers/appliers. `service` and `store` must
/// be empty and share `dht`. A bus on either requires one shard
/// (InvariantError otherwise).
template <typename Articles>
void build_world(const SimulationConfig& config, dht::Dht& dht, index::IndexService& service,
                 storage::DhtStore& store, const Articles& articles);

/// build_world over a streaming world's articles. Exposed so tests and
/// benchmarks can build and audit a sharded world directly.
void build_streaming_world(const SimulationConfig& config, dht::Dht& dht,
                           index::IndexService& service, storage::DhtStore& store,
                           const biblio::ArticleStream& stream);

/// Aggregated feed-phase measurements. The only place session outcomes are
/// summed: every feed worker folds each outcome into its own FeedTotals, and
/// the workers are merged after the final barrier. Integer sums throughout,
/// so merging in any order reproduces a one-worker feed bit for bit.
struct FeedTotals {
  std::uint64_t interactions = 0;
  std::uint64_t generalizations = 0;
  std::uint64_t hits = 0;
  std::uint64_t first_node_hits = 0;
  std::uint64_t rpc_failures = 0;
  std::size_t failed_lookups = 0;
  std::size_t non_indexed = 0;
  std::size_t degraded = 0;
  std::size_t gave_up = 0;
  std::size_t unreachable = 0;
  std::size_t stale_shortcuts = 0;
  std::size_t sessions = 0;
  std::size_t indexed_failures = 0;  ///< failed sessions whose entry query was indexed
  /// Unique-node touch counts per session, summed; iterated in sorted Id
  /// order when the driver derives node_load_fractions.
  // dhtidx-lint: allow(hot-path-map) "one increment per unique node per session; sorted iteration keeps load fractions deterministic"
  std::map<Id, std::uint64_t> node_touches;
  net::TrafficLedger ledger;  ///< all feed traffic (worker + apply charges)

  /// Adds one session's outcome.
  void fold(index::LookupOutcome outcome);
  /// Adds another worker's totals.
  void merge(const FeedTotals& other);
};

/// Session i's request. The engine asks for each session once, and at epoch
/// length 1 in increasing i, so a sequential generator may ignore the index.
using RequestSource = std::function<workload::StreamingRequest(std::size_t)>;

/// The world's events, fired before each epoch with the index of its first
/// session: a materialized world's churn and chaos schedule.
using EpochEvents = std::function<void(std::size_t)>;

/// The one feed engine: runs sessions [first, last) of a built world in
/// epochs whose length the world sets (see the header comment) with
/// config.shards workers, and returns their totals.
FeedTotals feed_world(const SimulationConfig& config, dht::Dht& dht,
                      index::IndexService& service, storage::DhtStore& store,
                      const RequestSource& request_at, const EpochEvents& at_epoch_start,
                      std::size_t first, std::size_t last);

/// feed_world over a whole streaming workload with no events. Exposed so
/// tests can audit the cache state of a sharded cached world directly
/// (run_simulation composes build + feed). config.streaming must be set.
FeedTotals feed_streaming_world(const SimulationConfig& config, dht::Dht& dht,
                                index::IndexService& service,
                                storage::DhtStore& store,
                                const workload::StreamingWorkload& workload);

}  // namespace dhtidx::sim
