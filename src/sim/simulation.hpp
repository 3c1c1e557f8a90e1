// The evaluation driver (Section V-E).
//
// "Our experiments simulate a P2P network of 500 nodes, on top of which a
// distributed bibliographic database storing 10,000 articles is implemented.
// ... Each simulation consists of sequentially feeding the indexing network
// with 50,000 queries from our query generator."
//
// run_simulation is the one simulation driver. It checks the config once,
// builds the world from one of two sources -- a materialized Corpus or the
// streaming ArticleStream -- through the one build pipeline, build_world,
// feeds it through the one feed engine, feed_world (both in
// sim/sharded.hpp), with the churn and chaos schedule as events at epoch
// starts, and fills SimulationResults, every metric of Figures 11-15 and
// Table I, from the FeedTotals the engine returns. IndexBuilder only
// republishes, in churn runs.
#pragma once

#include <optional>

#include "biblio/corpus.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"
#include "sim/metrics.hpp"

namespace dhtidx::sim {

/// Which key-to-node substrate the run uses. The paper's claim (Section V-E)
/// is that this does not affect any indexing metric; kChord exists to verify
/// that and to measure substrate routing cost.
enum class Substrate { kRing, kChord, kCan, kPastry };

/// Mid-run failure schedule (all off by default -- the paper's failure-free
/// runs). At the crash point, halfway through the feed, a deterministic
/// sample of nodes loses its disk and stops answering (the substrate does not
/// notice: lookups fail over to surviving replicas), fresh nodes may join,
/// and links may start dropping messages. After the feed the run repairs
/// placement (rebalance() + a full republish), so the post-run audit sees a
/// repaired, replica-consistent world. Only the Ring substrate supports churn
/// runs; ChordNetwork has its own protocol-level churn tests. Fractions and
/// probabilities must lie in [0, 1].
struct ChurnConfig {
  double crash_fraction = 0.0;    ///< fraction of nodes crashed at the point
  std::size_t joins = 0;          ///< fresh nodes added at the point
  double drop_probability = 0.0;  ///< per-message loss after the point
  /// Queries between publisher soft-state refreshes after the crash point
  /// (re-announce of records + index mappings); 0 = publishers never refresh.
  std::size_t republish_interval = 0;

  bool enabled() const {
    return crash_fraction > 0.0 || joins > 0 || drop_probability > 0.0;
  }
};

/// Mid-run adversarial network schedule (all off by default). From 25% of
/// the feed to 75% of it, frames on the event-queue transport suffer seeded
/// drop/duplicate/reorder/delay/corrupt faults and an optional asymmetric
/// partition isolates a node sample. At the heal point every fault clears and
/// the partition heals; the end-of-feed repair pass then re-converges the
/// index, and convergence_ms measures how much virtual time that took. A
/// delayed frame arrives 25 ms late and a reordered one up to 8 ms late
/// (net::ChaosProfile's delay and window). Chaos runs require the Ring
/// substrate and the event-queue transport (frame faults act on queued
/// frames). Probabilities and fractions must lie in [0, 1].
struct ChaosConfig {
  double drop_probability = 0.0;       ///< per-frame loss
  double duplicate_probability = 0.0;  ///< per-frame duplication
  double reorder_probability = 0.0;    ///< per-frame jitter within the window
  double corrupt_probability = 0.0;    ///< per-frame bit corruption
  double delay_probability = 0.0;      ///< per-frame slow-link episode
  double partition_fraction = 0.0;     ///< fraction of nodes isolated

  bool enabled() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           reorder_probability > 0.0 || corrupt_probability > 0.0 ||
           delay_probability > 0.0 || partition_fraction > 0.0;
  }
};

/// Parameters of one run. Defaults are the paper's setup.
struct SimulationConfig {
  std::size_t nodes = 500;
  std::size_t queries = 50000;
  Substrate substrate = Substrate::kRing;
  index::SchemeKind scheme = index::SchemeKind::kSimple;
  index::CachePolicy policy = index::CachePolicy::kNone;
  /// Shortcuts per node: > 0 for the LRU policies (the paper uses 10/20/30),
  /// 0 for the unbounded ones.
  std::size_t cache_capacity = 0;
  std::uint64_t seed = 7;

  biblio::CorpusConfig corpus;  ///< corpus.articles defaults to 10,000

  /// Popularity power law; defaults to the paper's fit (c=0.063, alpha=0.3).
  double popularity_c = 0.063;
  double popularity_alpha = 0.3;

  /// Query-structure weights; empty = paper defaults.
  std::vector<double> structure_weights;

  /// Copies of every index mapping and stored record (1 = the paper's
  /// single-copy baseline; >= 2 enables replica failover).
  std::size_t replication = 1;

  /// Mid-run failure schedule; disabled by default.
  ChurnConfig churn;

  /// Mid-run adversarial network schedule; disabled by default.
  ChaosConfig chaos;

  /// Wire layer of the run. The default, kInProcess, has none: RPCs are
  /// direct calls and the wire_* results stay empty. kEventQueue also sends
  /// every RPC through a MessageBus over the deterministic discrete-event
  /// transport, which encodes, queues and decodes each frame and measures
  /// the wire_* results. Every other result is the same under both.
  TransportKind transport = TransportKind::kInProcess;

  /// Streaming world: articles and queries are synthesized on demand from
  /// counter-seeded RNG streams (biblio::ArticleStream +
  /// workload::StreamingWorkload) instead of materialized vectors, so peak
  /// RSS scales with live index state rather than workload size. Requires
  /// the Ring substrate, the in-process transport and no churn
  /// (sim/sharded.hpp). The streamed corpus differs from Corpus::generate's
  /// draws, so streaming cells are a separate golden universe.
  bool streaming = false;

  /// Worker threads of a streaming world's build and feed: node ids are
  /// partitioned across shards and cross-shard effects travel through
  /// queues merged in (virtual-time, seq) order (sim/sharded.hpp), so
  /// results are bit-identical across shard counts. 0 or 1 =
  /// single-threaded; > 1 requires streaming = true.
  std::size_t shards = 1;
};

/// Runs one complete experiment and returns its measurements.
///
/// A shared corpus can be passed in so that sweeps over schemes/policies
/// reuse the same database (as the paper does); when absent it is generated
/// from config.corpus. Streaming runs synthesize their own articles and
/// reject a shared corpus. Unsupported configurations throw InvariantError
/// before anything is built.
SimulationResults run_simulation(const SimulationConfig& config,
                                 const biblio::Corpus* shared_corpus = nullptr);

/// Helper used by benches: a human-readable label like "simple/LRU 10".
std::string config_label(const SimulationConfig& config);

}  // namespace dhtidx::sim
