// Metrics collected by the evaluation (Section V).
#pragma once

#include <cstdint>
#include <vector>

#include "index/cache.hpp"
#include "index/scheme.hpp"
#include "net/stats.hpp"

namespace dhtidx::sim {

/// Whether the run's RPCs also cross a wire (see net/transport.hpp).
/// kInProcess, the default, means no wire layer: services call each other
/// directly and the wire_* results stay empty. kEventQueue sends every RPC
/// as a serialized frame through the deterministic discrete-event queue and
/// a MessageBus, which measures the wire_* results.
enum class TransportKind { kInProcess, kEventQueue };

const char* to_string(TransportKind transport);

/// Everything one simulation run measures; each field maps to a figure or
/// table of the paper (see DESIGN.md's experiment index).
struct SimulationResults {
  // Configuration echo.
  index::SchemeKind scheme = index::SchemeKind::kSimple;
  index::CachePolicy policy = index::CachePolicy::kNone;
  std::size_t cache_capacity = 0;
  std::size_t nodes = 0;
  std::size_t articles = 0;
  std::size_t queries = 0;

  // Figure 11: user-system interactions.
  double avg_interactions = 0.0;

  // Figure 12: average bytes per query, split like the stacked bars.
  double normal_traffic_per_query = 0.0;
  double cache_traffic_per_query = 0.0;

  // Figure 13: distributed cache hit ratio, plus the share of hits that
  // occurred on the first node of the chain (Section V-E e).
  double hit_ratio = 0.0;
  double first_node_hit_share = 0.0;

  // Figure 14: shortcut storage.
  double avg_cached_keys_per_node = 0.0;
  std::size_t max_cached_keys = 0;
  double full_cache_fraction = 0.0;   ///< bounded policies only
  double empty_cache_fraction = 0.0;

  // Section V-E f: regular keys per node (index keys + stored data keys).
  double avg_regular_keys_per_node = 0.0;

  // Figure 15: fraction of queries that accessed each node, descending.
  std::vector<double> node_load_fractions;

  // Table I / Section V-E h.
  std::size_t non_indexed_queries = 0;
  std::size_t failed_lookups = 0;
  double avg_generalization_steps = 0.0;

  // Section V-B: storage cost.
  std::uint64_t index_bytes = 0;      ///< regular index state
  std::uint64_t data_bytes = 0;       ///< stored article blobs + descriptors
  std::size_t index_mappings = 0;
  std::size_t index_keys = 0;

  // Substrate routing cost during the query phase (zero on the instant
  // Ring; hops and messages on Chord).
  double avg_routing_hops_per_lookup = 0.0;
  std::uint64_t routing_bytes = 0;

  // Availability under churn (all zero / 1.0 when churn is disabled).
  std::size_t replication = 1;          ///< configured index/store copies
  std::size_t crashed_nodes = 0;        ///< nodes crashed at the churn point
  std::size_t joined_nodes = 0;         ///< nodes joined at the churn point
  std::size_t mappings_lost = 0;        ///< index mappings on crashed disks
  std::size_t records_lost = 0;         ///< stored records on crashed disks
  std::size_t sessions_after_churn = 0;
  std::size_t failed_after_churn = 0;
  std::size_t indexed_sessions_after_churn = 0;  ///< entry query was indexed
  std::size_t indexed_failed_after_churn = 0;
  double post_churn_success = 1.0;          ///< over all post-churn sessions
  double post_churn_indexed_success = 1.0;  ///< over indexed-entry sessions
  double avg_interactions_after_churn = 0.0;
  std::uint64_t rpc_failures = 0;       ///< failed delivery attempts, whole feed
  std::size_t degraded_sessions = 0;    ///< sessions that saw a failed attempt
  std::size_t gave_up_sessions = 0;     ///< interaction budget exhausted
  std::size_t unreachable_sessions = 0; ///< a key had no reachable replica
  std::size_t stale_shortcut_invalidations = 0;  ///< dropped on failed jumps
  double retry_backoff_ms = 0.0;        ///< virtual time spent in backoff
  std::size_t repair_moves = 0;         ///< entries/records repaired at end
  std::size_t republish_rounds = 0;

  // Chaos layer (all zero when ChaosConfig is disabled). Frame counts come
  // from the ChaosInjector's fault counters; bus_* mirror the MessageBus's
  // defensive reactions (retransmissions under the timeout budget, duplicate
  // deliveries suppressed by request-id dedup, codec-rejected frames).
  std::size_t partitioned_nodes = 0;          ///< nodes cut off mid-feed
  std::uint64_t chaos_frames_dropped = 0;
  std::uint64_t chaos_frames_duplicated = 0;
  std::uint64_t chaos_frames_reordered = 0;
  std::uint64_t chaos_frames_delayed = 0;
  std::uint64_t chaos_frames_corrupted = 0;
  std::uint64_t bus_timeouts = 0;             ///< retransmissions after a timeout
  std::uint64_t bus_duplicates = 0;           ///< duplicate deliveries suppressed
  std::uint64_t bus_rejected = 0;             ///< frames rejected by the codec
  double convergence_ms = 0.0;  ///< virtual heal-to-repaired time

  // Raw traffic ledger for the query phase (analytic per-message estimates,
  // the paper's accounting).
  net::TrafficLedger ledger;

  // Measured wire traffic for the query phase: serialized codec frame bytes
  // counted by the message bus, category-for-category comparable with
  // `ledger` above. fig12 plots the two side by side. Zero unless the run
  // used the event-queue transport.
  TransportKind transport = TransportKind::kInProcess;
  net::TrafficLedger wire_ledger;
  double wire_normal_traffic_per_query = 0.0;
  double wire_cache_traffic_per_query = 0.0;
  std::uint64_t wire_messages = 0;        ///< frames sent during the feed
  double event_clock_ms = 0.0;            ///< event-queue virtual end time

  // Scale frontier: phase timings and the process memory high-water mark at
  // the end of the run. Machine-dependent by nature, so none of these appear
  // in the per-cell sweep JSON (which must stay bit-identical across runs and
  // across --shards counts); benches report them in their own output.
  double build_wall_s = 0.0;          ///< index construction wall time
  double feed_wall_s = 0.0;           ///< query feed wall time
  std::uint64_t peak_rss_bytes = 0;   ///< process-wide watermark (0 = unavailable)
  /// Heap bytes the build left allocated: heap_in_use_bytes() after it minus
  /// before it (0 = unavailable).
  std::uint64_t build_heap_bytes = 0;
};

/// Convenience percentile over an unsorted copy of `values` (p in [0,100]).
double percentile(std::vector<double> values, double p);

}  // namespace dhtidx::sim
