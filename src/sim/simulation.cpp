#include "sim/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/rss.hpp"
#ifdef DHTIDX_AUDIT
#include "audit/audit.hpp"
#endif
#include "dht/can.hpp"
#include "dht/chord.hpp"
#include "net/bus.hpp"
#include "net/chaos.hpp"
#include "net/transport.hpp"
#include "dht/pastry.hpp"
#include "dht/ring.hpp"
#include "sim/sharded.hpp"
#include "workload/generator.hpp"
#include "workload/streaming.hpp"

namespace dhtidx::sim {

namespace {

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The key-to-node substrate of a run. Built from the config alone, so two
/// overlays built from one config resolve every key to the same nodes.
struct Overlay {
  explicit Overlay(const SimulationConfig& config) {
    switch (config.substrate) {
      case Substrate::kRing:
        ring.emplace(dht::Ring::with_nodes(config.nodes));
        break;
      case Substrate::kChord:
        chord.emplace(config.seed ^ 0xC402D);
        for (std::size_t i = 0; i < config.nodes; ++i) {
          chord->add_node("node-" + std::to_string(i));
          chord->stabilize_round(4);
          chord->stabilize_round(4);
        }
        if (chord->stabilize_until_converged() < 0) {
          throw InvariantError("chord substrate failed to converge");
        }
        break;
      case Substrate::kCan:
        can.emplace(config.seed ^ 0xCA9);
        for (std::size_t i = 0; i < config.nodes; ++i) {
          can->add_node("node-" + std::to_string(i));
        }
        break;
      case Substrate::kPastry:
        pastry.emplace(config.seed ^ 0x9A57);
        for (std::size_t i = 0; i < config.nodes; ++i) {
          pastry->add_node("node-" + std::to_string(i));
        }
        for (int r = 0; r < 3; ++r) pastry->repair_round();
        if (!pastry->leaf_sets_correct()) {
          throw InvariantError("pastry substrate failed to converge");
        }
        break;
    }
  }

  dht::Dht& dht() {
    if (chord) return *chord;
    if (can) return *can;
    if (pastry) return *pastry;
    return *ring;
  }

  /// Routing counters of a protocol substrate; nullptr on the instant Ring.
  net::TrafficStats* routing_stats() {
    if (chord) return &chord->routing_stats();
    if (can) return &can->routing_stats();
    if (pastry) return &pastry->routing_stats();
    return nullptr;
  }

  std::optional<dht::Ring> ring;
  std::optional<dht::ChordNetwork> chord;
  std::optional<dht::CanNetwork> can;
  std::optional<dht::PastryNetwork> pastry;
};

/// Feed positions of the churn and chaos events, as fractions of the feed.
constexpr double kCrashPoint = 0.5;
constexpr double kChaosStartPoint = 0.25;
constexpr double kChaosHealPoint = 0.75;

/// The first session at or past `point` of a feed of `queries` sessions.
std::size_t feed_position(std::size_t queries, double point) {
  return static_cast<std::size_t>(static_cast<double>(queries) * point);
}

/// A deterministic sample of `fraction` of the members, drawn from `seed`:
/// the nodes a churn crash or a chaos partition hits.
std::vector<Id> sample_nodes(const dht::Dht& dht, std::uint64_t seed, double fraction) {
  Rng rng{seed};
  std::vector<Id> members = dht.node_ids();
  std::sort(members.begin(), members.end());
  const auto count =
      static_cast<std::size_t>(fraction * static_cast<double>(members.size()));
  std::vector<Id> sample;
  for (std::size_t k = 0; k < count && !members.empty(); ++k) {
    const std::size_t pick = rng.next_index(members.size());
    sample.push_back(members[pick]);
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return sample;
}

/// Every configuration the driver rejects, checked before anything is built.
void check_config(const SimulationConfig& config, const biblio::Corpus* shared_corpus) {
  // Every per-query average divides by the feed length, and every key needs
  // a node to live on.
  if (config.queries == 0) throw InvariantError("simulation needs at least one query");
  if (config.nodes == 0) throw InvariantError("simulation needs at least one node");
  // A negative fraction would wrap to a huge node count in sample_nodes, and
  // a NaN switches off the schedule it belongs to. Checked whether or not
  // that schedule runs.
  const std::pair<const char*, double> fractions[] = {
      {"churn.crash_fraction", config.churn.crash_fraction},
      {"churn.drop_probability", config.churn.drop_probability},
      {"chaos.drop_probability", config.chaos.drop_probability},
      {"chaos.duplicate_probability", config.chaos.duplicate_probability},
      {"chaos.reorder_probability", config.chaos.reorder_probability},
      {"chaos.corrupt_probability", config.chaos.corrupt_probability},
      {"chaos.delay_probability", config.chaos.delay_probability},
      {"chaos.partition_fraction", config.chaos.partition_fraction},
  };
  for (const auto& [name, value] : fractions) {
    if (!(value >= 0.0 && value <= 1.0)) {
      throw InvariantError(std::string(name) + " must lie in [0, 1], not " +
                           std::to_string(value));
    }
  }
  // The capacity is what makes a cache an LRU one: an unbounded policy with
  // a capacity would evict, and an LRU policy without one would not.
  if (index::bounded_cache(config.policy) && config.cache_capacity == 0) {
    throw InvariantError(index::to_string(config.policy) + " needs a cache capacity > 0");
  }
  if (index::caching_enabled(config.policy) && !index::bounded_cache(config.policy) &&
      config.cache_capacity != 0) {
    throw InvariantError(index::to_string(config.policy) +
                         " is unbounded and takes no cache capacity");
  }
  if (config.chaos.enabled()) {
    if (config.transport != TransportKind::kEventQueue) {
      throw InvariantError(
          "chaos simulation requires the event-queue transport (frame faults "
          "act on queued frames)");
    }
    if (config.substrate != Substrate::kRing) {
      throw InvariantError(
          "chaos simulation requires the ring substrate (like churn, the "
          "protocol substrates have failure handling of their own)");
    }
  }
  if (config.churn.enabled() && config.substrate != Substrate::kRing) {
    throw InvariantError(
        "churn simulation requires the ring substrate (chord/can/pastry have "
        "protocol-level failure handling of their own)");
  }
  if (config.shards > 1 && !config.streaming) {
    throw InvariantError("shards > 1 requires a streaming world (config.streaming)");
  }
  if (!config.streaming) return;
  if (shared_corpus != nullptr) {
    throw InvariantError(
        "streaming runs synthesize their own corpus (shared_corpus must be null)");
  }
  if (config.substrate != Substrate::kRing) {
    throw InvariantError("streaming simulation requires the ring substrate");
  }
  if (config.churn.enabled()) {
    throw InvariantError("streaming simulation does not support churn");
  }
  if (config.transport != TransportKind::kInProcess) {
    throw InvariantError("streaming simulation requires the in-process transport");
  }
}

}  // namespace

SimulationResults run_simulation(const SimulationConfig& config,
                                 const biblio::Corpus* shared_corpus) {
  check_config(config, shared_corpus);

  // --- build the world -----------------------------------------------------
  // Two world sources: a materialized corpus (shared or generated), or the
  // counter-addressable article stream of sim/sharded.hpp.
  std::optional<biblio::Corpus> local_corpus;
  std::optional<biblio::ArticleStream> stream;
  const biblio::Corpus* corpus = shared_corpus;
  if (config.streaming) {
    stream.emplace(config.corpus);
  } else if (corpus == nullptr) {
    corpus = &local_corpus.emplace(biblio::Corpus::generate(config.corpus));
  }
  const std::size_t articles = stream ? stream->size() : corpus->size();

  Overlay overlay{config};
  dht::Dht& ring = overlay.dht();
  net::TrafficLedger ledger;
  storage::DhtStore store{ring, ledger, config.replication};
  index::IndexService service{ring, ledger, config.cache_capacity, config.replication};

  // Wire layer, on event-queue runs only: every RPC also travels as an
  // encoded net::Message, and the bus's measured ledger counts frame bytes
  // next to the analytic estimates in `ledger`. In-process runs, streaming
  // ones included, have none and leave the wire_* results empty.
  std::optional<net::EventQueueTransport> event_queue;
  std::optional<net::MessageBus> bus;
  if (config.transport == TransportKind::kEventQueue) {
    bus.emplace(event_queue.emplace());
    service.set_bus(&*bus);
    store.set_bus(&*bus);
  }

  // One ChaosInjector serves both fault planes: churn uses the inherited
  // crash/drop delivery plane (its coin stream is seeded exactly like the old
  // FailureInjector, so churn-only goldens replay unchanged), chaos adds the
  // frame plane on the event-queue transport.
  const bool chaos_enabled = config.chaos.enabled();
  std::optional<net::ChaosInjector> injector;
  if (config.churn.enabled() || chaos_enabled) {
    injector.emplace(config.seed ^ 0xFA11C0DEull);
    service.set_failures(&*injector);
    store.set_failures(&*injector);
  }
  if (chaos_enabled) event_queue->set_chaos(&*injector);
  // The publisher of churn runs' republish rounds, and the audit's scheme.
  index::IndexBuilder builder{service, store, index::IndexingScheme::make(config.scheme)};

  // One build path for both world sources; on an event-queue world it posts
  // index_file's frames in index_file's order.
  const std::uint64_t heap_before_build = heap_in_use_bytes();
  const auto build_start = std::chrono::steady_clock::now();
  if (stream) {
    build_world(config, ring, service, store, *stream);
  } else {
    build_world(config, ring, service, store, *corpus);
  }
  if (bus) bus->sync();  // flush publish/store frames queued during the build
  const double build_wall_s = wall_seconds_since(build_start);
  const std::uint64_t heap_after_build = heap_in_use_bytes();
#ifdef DHTIDX_AUDIT
  // Phase boundary: the index is fully built, no query has run. Any audit
  // traffic lands before the resets below, so measurements are unaffected.
  // The audit resolves keys on a twin of the substrate: a protocol substrate
  // draws a random origin for every lookup, so audit lookups on the real one
  // would move the feed's routing hops.
  Overlay audit_overlay{config};
  audit::Options audit_options;
  audit_options.scheme = &builder.scheme();
  audit::audit_or_throw("post-build", audit_overlay.dht(), service, store, audit_options);
#endif
  // Index construction traffic is not part of the per-query measurements --
  // neither the analytic estimates nor the measured wire bytes.
  ledger.reset();
  if (bus) bus->measured().reset();
  if (net::TrafficStats* routing = overlay.routing_stats()) routing->reset();

  // --- run the query feed ---------------------------------------------------
  workload::PopularityModel popularity{articles, config.popularity_c,
                                       config.popularity_alpha};
  workload::StructureModel structure =
      config.structure_weights.empty() ? workload::StructureModel{}
                                       : workload::StructureModel{config.structure_weights};

  SimulationResults r;
  r.scheme = config.scheme;
  r.policy = config.policy;
  r.cache_capacity = config.cache_capacity;
  r.nodes = config.nodes;
  r.articles = articles;
  r.queries = config.queries;

  // The feed's requests: counter-addressed from the stream, or drawn in
  // order from the generator (a materialized world feeds at epoch length 1,
  // so the engine asks in order).
  std::optional<workload::StreamingWorkload> streaming_workload;
  std::optional<workload::QueryGenerator> generator;
  RequestSource request_at;
  if (stream) {
    streaming_workload.emplace(*stream, std::move(popularity), std::move(structure),
                               config.seed);
    request_at = [&](std::size_t i) { return streaming_workload->request_at(i); };
  } else {
    generator.emplace(*corpus, std::move(popularity), std::move(structure), config.seed);
    request_at = [&](std::size_t) {
      workload::Request request = generator->next();
      return workload::StreamingRequest{request.article_index, request.structure,
                                        std::move(request.query),
                                        corpus->article(request.article_index).msd()};
    };
  }

  // --- churn and chaos schedule: events at epoch starts ----------------------
  // A materialized world starts an epoch before every session, so each event
  // fires before the first session at or past its point.
  const bool churn_enabled = config.churn.enabled();
  const std::size_t crash_at =
      churn_enabled ? feed_position(config.queries, kCrashPoint) : config.queries;
  bool churned = false;
  std::vector<Id> crashed_ids;
  const std::size_t chaos_start_at =
      chaos_enabled ? feed_position(config.queries, kChaosStartPoint) : config.queries;
  const std::size_t chaos_heal_at =
      chaos_enabled
          ? std::max(chaos_start_at + 1, feed_position(config.queries, kChaosHealPoint))
          : config.queries;
  bool chaos_started = false;
  bool chaos_healed = false;
  double heal_clock_ms = 0.0;
  const auto heal = [&] {
    injector->clear_profile();
    injector->heal();
    chaos_healed = true;
    heal_clock_ms = event_queue->clock_ms();
  };
  const auto republish_all = [&](std::uint64_t now) {
    for (const biblio::Article& article : corpus->articles()) {
      const std::string name = article.file_name();
      builder.republish(article.descriptor(), now, &name, article.file_bytes);
    }
  };
  const auto at_epoch_start = [&](std::size_t i) {
    if (churn_enabled && !churned && i >= crash_at) {
      // Crash a deterministic sample of nodes: their disks (index partition
      // and record store) are gone and RPCs to them fail. Ring membership is
      // left untouched -- the failures are undetected by the substrate, which
      // is exactly what replica failover has to survive.
      for (const Id& victim :
           sample_nodes(ring, config.seed ^ 0x0c11a05ull, config.churn.crash_fraction)) {
        injector->crash(victim);
        r.mappings_lost += service.drop_node(victim);
        r.records_lost += store.drop_node(victim);
        crashed_ids.push_back(victim);
      }
      r.crashed_nodes = crashed_ids.size();
      for (std::size_t j = 0; j < config.churn.joins; ++j) {
        overlay.ring->add(Id::hash("joined-" + std::to_string(j)));
      }
      r.joined_nodes = config.churn.joins;
      injector->set_drop_probability(config.churn.drop_probability);
      churned = true;
    }
    if (churned && config.churn.republish_interval != 0 && i > crash_at &&
        (i - crash_at) % config.churn.republish_interval == 0) {
      // Publisher soft-state refresh: re-announce records and mappings so
      // copies lost in the crash are re-created on the surviving replicas.
      republish_all(i);
      ++r.republish_rounds;
    }
    if (chaos_enabled && !chaos_started && i >= chaos_start_at) {
      // The adversary wakes up: frames start suffering seeded faults and a
      // deterministic node sample is cut off behind an asymmetric partition.
      // Unlike a crash, partitioned nodes keep their disks — the interesting
      // failure mode is the stale state they host until the heal. The delay
      // and reorder window are the profile's own.
      net::ChaosProfile profile;
      profile.drop_probability = config.chaos.drop_probability;
      profile.corrupt_probability = config.chaos.corrupt_probability;
      profile.duplicate_probability = config.chaos.duplicate_probability;
      profile.delay_probability = config.chaos.delay_probability;
      profile.reorder_probability = config.chaos.reorder_probability;
      injector->set_profile(profile);
      if (config.chaos.partition_fraction > 0.0) {
        const std::vector<Id> victims =
            sample_nodes(ring, config.seed ^ 0x9a2717ull, config.chaos.partition_fraction);
        injector->install_partition(victims);
        r.partitioned_nodes = victims.size();
      }
      chaos_started = true;
    }
    if (chaos_started && !chaos_healed && i >= chaos_heal_at) heal();
  };

  // Sessions before the crash point, then the ones from it on: the second
  // totals are the post-churn counters.
  const auto feed_start = std::chrono::steady_clock::now();
  FeedTotals feed =
      feed_world(config, ring, service, store, request_at, at_epoch_start, 0, crash_at);
  const FeedTotals after_churn = feed_world(config, ring, service, store, request_at,
                                            at_epoch_start, crash_at, config.queries);
  feed.merge(after_churn);

  // A feed too short to reach its heal session ends before the scheduled
  // heal; force it so metrics and the post-run audit always see a healed
  // network.
  if (chaos_started && !chaos_healed) heal();

  // --- collect metrics -------------------------------------------------------
  r.build_wall_s = build_wall_s;
  r.feed_wall_s = wall_seconds_since(feed_start);
  r.peak_rss_bytes = dhtidx::peak_rss_bytes();
  r.build_heap_bytes =
      heap_after_build > heap_before_build ? heap_after_build - heap_before_build : 0;
  r.rpc_failures = feed.rpc_failures;
  r.failed_lookups = feed.failed_lookups;
  r.non_indexed_queries = feed.non_indexed;
  r.degraded_sessions = feed.degraded;
  r.gave_up_sessions = feed.gave_up;
  r.unreachable_sessions = feed.unreachable;
  r.stale_shortcut_invalidations = feed.stale_shortcuts;
  // Feed workers charge their own ledgers, which FeedTotals carries back;
  // epoch-start events charge `ledger` directly.
  ledger.merge(feed.ledger);
  const double n_queries = static_cast<double>(config.queries);
  r.avg_interactions = static_cast<double>(feed.interactions) / n_queries;
  r.avg_generalization_steps = static_cast<double>(feed.generalizations) / n_queries;
  r.normal_traffic_per_query = static_cast<double>(ledger.normal_bytes()) / n_queries;
  r.cache_traffic_per_query = static_cast<double>(ledger.cache.bytes()) / n_queries;
  r.hit_ratio = static_cast<double>(feed.hits) / n_queries;
  r.first_node_hit_share =
      feed.hits == 0 ? 0.0
                     : static_cast<double>(feed.first_node_hits) /
                           static_cast<double>(feed.hits);
  r.ledger = ledger;

  // Measured wire traffic: flush any frames still queued from the last
  // session, then snapshot the bus ledger before repair-phase maintenance
  // traffic is generated.
  r.transport = config.transport;
  if (bus) {
    bus->sync();
    r.wire_ledger = bus->measured();
    r.wire_normal_traffic_per_query =
        static_cast<double>(r.wire_ledger.normal_bytes()) / n_queries;
    r.wire_cache_traffic_per_query =
        static_cast<double>(r.wire_ledger.cache.bytes()) / n_queries;
    r.wire_messages = r.wire_ledger.total_messages();
    r.event_clock_ms = event_queue->clock_ms();
  }

  // Availability under churn, over the sessions from the crash point on.
  r.replication = config.replication;
  r.retry_backoff_ms = service.retry_backoff_ms();
  r.sessions_after_churn = after_churn.sessions;
  r.failed_after_churn = after_churn.failed_lookups;
  r.indexed_sessions_after_churn = after_churn.sessions - after_churn.non_indexed;
  r.indexed_failed_after_churn = after_churn.indexed_failures;
  if (r.sessions_after_churn > 0) {
    const double sessions = static_cast<double>(r.sessions_after_churn);
    r.post_churn_success = 1.0 - static_cast<double>(r.failed_after_churn) / sessions;
    r.avg_interactions_after_churn = static_cast<double>(after_churn.interactions) / sessions;
  }
  if (r.indexed_sessions_after_churn > 0) {
    r.post_churn_indexed_success =
        1.0 - static_cast<double>(r.indexed_failed_after_churn) /
                  static_cast<double>(r.indexed_sessions_after_churn);
  }

  // Cache occupancy across *all* nodes, including ones that never stored a
  // shortcut (the paper reports 4.4% completely empty caches).
  std::uint64_t cached_total = 0;
  std::size_t full = 0;
  std::size_t empty = 0;
  std::size_t max_cached = 0;
  const std::vector<Id> nodes = ring.node_ids();
  for (const Id& node : nodes) {
    std::size_t size = 0;
    if (const index::IndexNodeState* state = service.find_state(node); state != nullptr) {
      size = state->cache().size();
    }
    cached_total += size;
    max_cached = std::max(max_cached, size);
    if (size == 0) ++empty;
    if (config.cache_capacity != 0 && size >= config.cache_capacity) ++full;
  }
  const double n_nodes = static_cast<double>(nodes.size());
  r.avg_cached_keys_per_node = static_cast<double>(cached_total) / n_nodes;
  r.max_cached_keys = max_cached;
  r.full_cache_fraction = static_cast<double>(full) / n_nodes;
  r.empty_cache_fraction = static_cast<double>(empty) / n_nodes;

  // Regular keys: index keys plus stored data keys, averaged over all nodes.
  const index::IndexService::Totals totals = service.totals();
  std::size_t stored_keys = 0;
  for (const auto& [node, node_store] : store.node_stores()) {
    stored_keys += node_store.key_count();
  }
  r.avg_regular_keys_per_node =
      static_cast<double>(totals.keys + stored_keys) / n_nodes;
  r.index_keys = totals.keys;
  r.index_mappings = totals.mappings;
  r.index_bytes = totals.bytes;
  r.data_bytes = store.total_bytes();

  if (const net::TrafficStats* routing = overlay.routing_stats()) {
    r.routing_bytes = routing->bytes();
    r.avg_routing_hops_per_lookup =
        feed.interactions == 0
            ? 0.0
            : static_cast<double>(routing->messages()) / static_cast<double>(feed.interactions);
  }

  // Figure 15: per-node share of queries, busiest first.
  r.node_load_fractions.reserve(nodes.size());
  for (const Id& node : nodes) {
    const auto it = feed.node_touches.find(node);
    const double touches =
        it == feed.node_touches.end() ? 0.0 : static_cast<double>(it->second);
    r.node_load_fractions.push_back(touches / n_queries);
  }
  std::sort(r.node_load_fractions.begin(), r.node_load_fractions.end(), std::greater<>());

  // --- repair ----------------------------------------------------------------
  // After the measured feed: the substrate finally detects the crashes,
  // membership is cleaned up, placement is rebalanced and publishers
  // re-announce, so the post-run audit checks a repaired, replica-consistent
  // world. (All maintenance traffic, not part of the measurements above.)
  if (churned || chaos_started) {
    injector->set_drop_probability(0.0);
    for (const Id& dead : crashed_ids) {
      overlay.ring->remove(dead);
      injector->recover(dead);
    }
    r.repair_moves += store.rebalance();
    r.repair_moves += service.rebalance();
    republish_all(config.queries);
    index::LookupEngine{service, store, {config.policy}}.purge_stale_shortcuts();
    if (bus) bus->sync();  // flush republish frames before the world is torn down
  }

  if (chaos_started) {
    r.chaos_frames_dropped = injector->dropped_frames();
    r.chaos_frames_duplicated = injector->duplicated_frames();
    r.chaos_frames_reordered = injector->reordered_frames();
    r.chaos_frames_delayed = injector->delayed_frames();
    r.chaos_frames_corrupted = injector->corrupted_frames();
    r.bus_timeouts = bus->timeouts();
    r.bus_duplicates = bus->duplicates_detected();
    r.bus_rejected = bus->rejected_frames();
    // Virtual time from the heal to the end of repair: how long the network
    // took to re-converge once the adversary stopped.
    r.convergence_ms = event_queue->clock_ms() - heal_clock_ms;
  }

#ifdef DHTIDX_AUDIT
  // Phase boundary: the query feed is done and every metric collected. For a
  // SweepRunner sweep this is the end-of-cell audit -- the whole world is
  // cell-local and about to be destroyed. After a repaired outage the world
  // must actually be quiescent, so invariant 9 is enforced rather than
  // skipped.
  audit_options.chaos = injector ? &*injector : nullptr;
  audit_options.require_quiescent = churned || chaos_started;
  audit::audit_or_throw("post-run", ring, service, store, audit_options);
#endif

  return r;
}

std::string config_label(const SimulationConfig& config) {
  std::string label = index::to_string(config.scheme) + "/" + index::to_string(config.policy);
  if (index::bounded_cache(config.policy)) {
    label += " " + std::to_string(config.cache_capacity);
  }
  if (config.replication > 1) {
    label += " r" + std::to_string(config.replication);
  }
  if (config.churn.enabled()) {
    label += " churn";
  }
  if (config.chaos.enabled()) {
    label += " chaos";
  }
  if (config.transport != TransportKind::kInProcess) {
    label += " ";
    label += to_string(config.transport);
  }
  return label;
}

}  // namespace dhtidx::sim
