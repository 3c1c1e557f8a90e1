// Fault tolerance of the replicated index layer: replica placement, failover
// contacts under a retry policy, stale-shortcut invalidation, repair via
// rebalance(), and availability of whole simulated runs under churn.
#include <gtest/gtest.h>

#include <algorithm>

#include "audit/audit.hpp"
#include "biblio/corpus.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"
#include "net/bus.hpp"
#include "net/transport.hpp"
#include "sim/simulation.hpp"

namespace dhtidx {
namespace {

using query::Query;

/// Bare replicated index over a ring, for unit-level failover tests.
struct ReplicatedIndex {
  explicit ReplicatedIndex(std::size_t replication, std::size_t nodes = 12)
      : ring(dht::Ring::with_nodes(nodes)),
        service(ring, ledger, /*cache_capacity=*/0, replication),
        injector(0xC4A5) {
    service.set_failures(&injector);
  }

  std::vector<Id> replicas_of(const Query& source) {
    return ring.replica_set(source.key(), service.replication());
  }

  /// `q` as a ref into the service's query pool (nullptr when unpooled).
  const Query* pooled(const Query& q) { return service.interner().find_existing(q); }

  net::TrafficLedger ledger;
  dht::Ring ring;
  index::IndexService service;
  net::FailureInjector injector;
};

const Query& source_q() {
  static const Query q = Query::parse("/article/conf/ICDCS");
  return q;
}
const Query& target_q() {
  static const Query q = Query::parse("/article[conf/ICDCS][year/2004]");
  return q;
}

TEST(ReplicatedIndexService, InsertWritesEveryReplicaWithIdenticalStamps) {
  ReplicatedIndex world{2};
  world.service.insert(source_q(), target_q(), /*now=*/42);
  const std::vector<Id> replicas = world.replicas_of(source_q());
  ASSERT_EQ(replicas.size(), 2u);
  ASSERT_NE(replicas[0], replicas[1]);
  for (const Id& replica : replicas) {
    const index::IndexNodeState* state = world.service.find_state(replica);
    ASSERT_NE(state, nullptr) << replica.brief();
    EXPECT_TRUE(state->has_source(world.pooled(source_q())));
    EXPECT_EQ(state->refresh_stamp(world.pooled(source_q()), world.pooled(target_q())),
              std::optional<std::uint64_t>{42});
  }
}

TEST(ReplicatedIndexService, LookupFailsOverWhenThePrimaryCrashes) {
  ReplicatedIndex world{2};
  world.service.insert(source_q(), target_q());
  const std::vector<Id> replicas = world.replicas_of(source_q());

  // The primary crashes and its disk is lost; the substrate does not notice.
  world.injector.crash(replicas[0]);
  world.service.drop_node(replicas[0]);

  const auto reply = world.service.lookup(source_q());
  EXPECT_FALSE(reply.unreachable);
  ASSERT_EQ(reply.targets.size(), 1u);
  EXPECT_EQ(*reply.targets[0], target_q());
  EXPECT_EQ(reply.node, replicas[1]);
  // The full retry budget was burnt on the dead primary, and each failed
  // attempt was charged as retry traffic plus virtual backoff time.
  const int budget = static_cast<int>(world.service.retry_policy().attempts_per_replica);
  EXPECT_EQ(reply.rpc_failures, budget);
  EXPECT_EQ(world.ledger.retries.messages(), static_cast<std::uint64_t>(budget));
  EXPECT_GT(world.service.retry_backoff_ms(), 0.0);
}

TEST(ReplicatedIndexService, ScriptedFailureRetriesThenSucceedsOnTheSameReplica) {
  ReplicatedIndex world{2};
  world.service.insert(source_q(), target_q());
  const std::vector<Id> replicas = world.replicas_of(source_q());

  // One transient loss: the first delivery fails, the in-policy retry lands.
  world.injector.fail_next(replicas[0], 1);
  const auto reply = world.service.lookup(source_q());
  EXPECT_FALSE(reply.unreachable);
  EXPECT_EQ(reply.node, replicas[0]);  // no failover needed
  EXPECT_EQ(reply.rpc_failures, 1);
  ASSERT_EQ(reply.targets.size(), 1u);
  EXPECT_EQ(world.ledger.retries.messages(), 1u);
}

TEST(ReplicatedIndexService, KeyWithAllReplicasDownIsUnreachable) {
  ReplicatedIndex world{1};
  world.service.insert(source_q(), target_q());
  const Id primary = world.replicas_of(source_q())[0];

  // Script the exact budget: with replication 1 there is no surviving
  // replica, so the key reports unreachable instead of answering empty.
  world.injector.fail_next(primary,
                           world.service.retry_policy().attempts_per_replica);
  const auto reply = world.service.lookup(source_q());
  EXPECT_TRUE(reply.unreachable);
  EXPECT_TRUE(reply.targets.empty());

  // Script exhausted: the very next lookup succeeds again.
  const auto healed = world.service.lookup(source_q());
  EXPECT_FALSE(healed.unreachable);
  EXPECT_EQ(healed.targets.size(), 1u);
}

TEST(ReplicatedIndexService, RemoveClearsEveryReplica) {
  ReplicatedIndex world{3};
  world.service.insert(source_q(), target_q());
  bool source_now_empty = false;
  EXPECT_TRUE(world.service.remove(source_q(), target_q(), source_now_empty));
  EXPECT_TRUE(source_now_empty);
  for (const Id& replica : world.replicas_of(source_q())) {
    const index::IndexNodeState* state = world.service.find_state(replica);
    if (state != nullptr) {
      EXPECT_FALSE(state->has_source(world.pooled(source_q())));
    }
  }
  // Idempotent: a second remove finds nothing anywhere.
  EXPECT_FALSE(world.service.remove(source_q(), target_q(), source_now_empty));
}

TEST(ReplicatedIndexService, RebalanceMigratesEntriesAfterMembershipChange) {
  ReplicatedIndex world{1};
  world.service.insert(source_q(), target_q(), /*now=*/7);
  const Id old_home = world.replicas_of(source_q())[0];

  // The responsible node departs; its state lingers until repair runs.
  world.ring.remove(old_home);
  const Id new_home = world.replicas_of(source_q())[0];
  ASSERT_NE(new_home, old_home);

  EXPECT_GT(world.service.rebalance(), 0u);
  EXPECT_EQ(world.service.find_state(old_home), nullptr);
  const index::IndexNodeState* state = world.service.find_state(new_home);
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(state->has_source(world.pooled(source_q())));
  // The migrated copy keeps the publisher's soft-state stamp.
  EXPECT_EQ(state->refresh_stamp(world.pooled(source_q()), world.pooled(target_q())),
            std::optional<std::uint64_t>{7});
  // A second pass finds nothing left to repair.
  EXPECT_EQ(world.service.rebalance(), 0u);
}

/// Full stack (corpus + builder + engine) over a ring with failure injection
/// wired into both the index service and the storage layer.
struct FaultyStack {
  explicit FaultyStack(std::size_t replication, index::CachePolicy policy,
                       std::size_t nodes = 15, std::size_t articles = 25)
      : ring(dht::Ring::with_nodes(nodes)),
        store(ring, ledger, replication),
        service(ring, ledger, /*cache_capacity=*/0, replication),
        builder(service, store, index::IndexingScheme::simple()),
        engine(service, store, {policy}),
        injector(0xFA11) {
    biblio::CorpusConfig config;
    config.articles = articles;
    config.authors = articles / 3 + 1;
    config.conferences = 5;
    corpus.emplace(biblio::Corpus::generate(config));
    for (const auto& a : corpus->articles()) {
      builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
    }
    service.set_failures(&injector);
    store.set_failures(&injector);
  }

  void crash(const Id& node) {
    injector.crash(node);
    service.drop_node(node);
    store.drop_node(node);
  }

  net::TrafficLedger ledger;
  dht::Ring ring;
  storage::DhtStore store;
  index::IndexService service;
  index::IndexBuilder builder;
  index::LookupEngine engine;
  net::FailureInjector injector;
  std::optional<biblio::Corpus> corpus;
};

TEST(ChurnLookup, ResolveSurvivesACrashedEntryNodeWithReplicationTwo) {
  FaultyStack stack{/*replication=*/2, index::CachePolicy::kNone};
  const auto& a = stack.corpus->article(0);
  const Id entry_primary = stack.ring.lookup(a.author_query().key()).node;
  stack.crash(entry_primary);

  const auto outcome = stack.engine.resolve(a.author_query(), a.msd());
  EXPECT_TRUE(outcome.found);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_GT(outcome.rpc_failures, 0);
  EXPECT_FALSE(outcome.unreachable);
  EXPECT_FALSE(outcome.gave_up);
}

TEST(ChurnLookup, EveryArticleStillResolvesAfterTenPercentCrash) {
  FaultyStack stack{/*replication=*/2, index::CachePolicy::kNone, 20, 30};
  const std::vector<Id> nodes = stack.ring.node_ids();
  // Crash every 10th node (disk loss + RPC failure, membership unchanged).
  for (std::size_t i = 0; i < nodes.size(); i += 10) stack.crash(nodes[i]);

  for (const auto& a : stack.corpus->articles()) {
    const auto outcome = stack.engine.resolve(a.author_query(), a.msd());
    EXPECT_TRUE(outcome.found) << a.title;
    EXPECT_FALSE(outcome.unreachable) << a.title;
  }
}

TEST(ChurnLookup, SearchAllReportsPartialResultsInsteadOfThrowing) {
  FaultyStack stack{/*replication=*/1, index::CachePolicy::kNone};
  const auto& a = stack.corpus->article(0);

  // Healthy baseline: the exhaustive search finds the article.
  index::LookupEngine::SearchStats healthy;
  const auto full = stack.engine.search_all(a.author_query(), 8, &healthy);
  ASSERT_TRUE(healthy.complete);
  ASSERT_NE(std::find(full.begin(), full.end(), a.msd()), full.end());

  // Make one node dark for exactly one retry budget: whichever branch of the
  // search lands there first goes missing from the result set, not fatal.
  const Id dark_node = stack.ring.lookup(a.msd().key()).node;
  stack.injector.fail_next(dark_node,
                           stack.service.retry_policy().attempts_per_replica);

  index::LookupEngine::SearchStats stats;
  const auto results = stack.engine.search_all(a.author_query(), 8, &stats);
  EXPECT_FALSE(stats.complete);
  EXPECT_GT(stats.unreachable_nodes, 0);
  EXPECT_GT(stats.rpc_failures, 0);
  EXPECT_LT(results.size(), full.size());
}

TEST(ChurnLookup, StaleShortcutIsInvalidatedAndTheWalkStillSucceeds) {
  FaultyStack stack{/*replication=*/1, index::CachePolicy::kSingle, 15, 25};

  // Pick an article whose entry-query node differs from its storage node, so
  // scripted storage failures cannot hit the first index contact.
  const biblio::Article* article = nullptr;
  Id storage_node;
  for (const auto& a : stack.corpus->articles()) {
    const Id entry = stack.ring.lookup(a.author_query().key()).node;
    const Id storage = stack.ring.lookup(a.msd().key()).node;
    if (entry != storage) {
      article = &a;
      storage_node = storage;
      break;
    }
  }
  ASSERT_NE(article, nullptr);

  // First session walks the chain and leaves a shortcut at the entry node;
  // the second session jumps through it.
  ASSERT_TRUE(stack.engine.resolve(article->author_query(), article->msd()).found);
  const auto warmed = stack.engine.resolve(article->author_query(), article->msd());
  ASSERT_TRUE(warmed.found);
  ASSERT_TRUE(warmed.cache_hit);

  // The storage node stops answering for exactly one retry budget: the jump's
  // fetch fails, the shortcut is invalidated, and the session falls back to
  // the normal walk -- by which time the script is exhausted, so it succeeds.
  stack.injector.fail_next(storage_node,
                           stack.service.retry_policy().attempts_per_replica);
  const auto outcome = stack.engine.resolve(article->author_query(), article->msd());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.stale_shortcuts, 1);
  EXPECT_FALSE(outcome.cache_hit);  // the hit was rolled back with the jump
  EXPECT_TRUE(outcome.degraded);
  EXPECT_EQ(outcome.rpc_failures,
            static_cast<int>(stack.service.retry_policy().attempts_per_replica));

  // Success re-created the shortcut, so the next session jumps again.
  const auto after = stack.engine.resolve(article->author_query(), article->msd());
  EXPECT_TRUE(after.found);
  EXPECT_TRUE(after.cache_hit);
  EXPECT_EQ(after.rpc_failures, 0);
}

TEST(ChurnLookup, PurgeStaleShortcutsDropsEntriesForLostRecords) {
  FaultyStack stack{/*replication=*/1, index::CachePolicy::kSingle, 15, 25};
  const auto& a = stack.corpus->article(0);
  ASSERT_TRUE(stack.engine.resolve(a.author_query(), a.msd()).found);

  // Lose the article's storage; the shortcut now points into the void.
  stack.store.drop_node(stack.ring.lookup(a.msd().key()).node);
  EXPECT_GT(stack.engine.purge_stale_shortcuts(), 0u);
  // Purge is idempotent once the stale entries are gone.
  EXPECT_EQ(stack.engine.purge_stale_shortcuts(), 0u);
}

/// Records every frame sent, in send order.
class RecordingTransport : public net::EventQueueTransport {
 public:
  std::uint64_t send(const net::Message& message) override {
    sent.push_back(message);
    return EventQueueTransport::send(message);
  }
  std::vector<net::Message> sent;
};

TEST(ChurnLookup, InvalidatedShortcutIsGoneForTheRestOfItsSession) {
  // After a failed jump the session walks on from the jump origin, and the
  // origin serves that re-contact from its live cache. So the invalidation
  // must erase the entry at once: once the kNotFound shortcut notice is
  // sent, no response from the origin may list the MSD. Deferring the erase
  // to the end of the session would list it again.
  FaultyStack stack{/*replication=*/1, index::CachePolicy::kSingle, 15, 25};
  RecordingTransport transport;
  net::MessageBus bus{transport};
  stack.service.set_bus(&bus);
  stack.store.set_bus(&bus);

  // An article whose entry node hosts neither the next hop nor the file, so
  // every response from the entry node answers the entry query.
  const biblio::Article* article = nullptr;
  Id entry;
  Id storage_node;
  for (const auto& a : stack.corpus->articles()) {
    entry = stack.ring.lookup(a.author_query().key()).node;
    storage_node = stack.ring.lookup(a.msd().key()).node;
    if (entry != storage_node && entry != stack.ring.lookup(a.author_title_query().key()).node) {
      article = &a;
      break;
    }
  }
  ASSERT_NE(article, nullptr);

  // Stage the stale shortcut: the first session installs it at the entry
  // node, the second jumps through it, and the third finds its file missing
  // for exactly one retry budget.
  ASSERT_TRUE(stack.engine.resolve(article->author_query(), article->msd()).found);
  ASSERT_TRUE(stack.engine.resolve(article->author_query(), article->msd()).cache_hit);
  bus.sync();
  transport.sent.clear();
  stack.injector.fail_next(storage_node, stack.service.retry_policy().attempts_per_replica);
  const index::LookupOutcome outcome =
      stack.engine.resolve(article->author_query(), article->msd());
  bus.sync();
  ASSERT_TRUE(outcome.found);
  ASSERT_EQ(outcome.stale_shortcuts, 1);

  const std::vector<net::Message>& sent = transport.sent;
  const std::string msd = article->msd().canonical();
  const auto origin_lists_msd = [&](const net::Message& m) {
    return m.context == net::Context::kResponse && m.from == entry &&
           std::find(m.payload.begin(), m.payload.end(), msd) != m.payload.end();
  };
  const auto notice = std::find_if(sent.begin(), sent.end(), [](const net::Message& m) {
    return m.action == net::Action::kShortcut && m.status == net::Status::kNotFound;
  });
  ASSERT_NE(notice, sent.end());
  EXPECT_EQ(notice->to, entry);
  // The jump's own response listed the shortcut ...
  EXPECT_TRUE(std::any_of(sent.begin(), notice, origin_lists_msd));
  // ... the walk then re-contacted the origin, and no later response lists it.
  EXPECT_TRUE(std::any_of(notice, sent.end(), [&](const net::Message& m) {
    return m.context == net::Context::kResponse && m.from == entry;
  }));
  EXPECT_FALSE(std::any_of(notice, sent.end(), origin_lists_msd));
}

/// Records nothing: the frozen-snapshot mode the sharded feed's lookup
/// sub-phase runs in, minus the replay.
struct DiscardingRecorder final : index::CacheDeltaRecorder {
  void record(index::CacheDeltaKind, const Id&, const Query&, const Query&) override {}
};

TEST(ChurnLookup, RecorderModeSkipsAnInvalidatedShortcutLikeInlineMode) {
  // With a deferring recorder a failed jump only records the invalidation;
  // the frozen cache still holds the entry. The session must not jump
  // through it again on its way back from the jump origin, or it loops to
  // the interaction budget. It must end the way an immediate apply ends it.
  const auto stale_session = [](bool recorder_mode) {
    FaultyStack stack{/*replication=*/1, index::CachePolicy::kSingle, 15, 25};
    const auto& a = stack.corpus->article(0);
    EXPECT_TRUE(stack.engine.resolve(a.author_query(), a.msd()).found);
    stack.store.drop_node(stack.ring.lookup(a.msd().key()).node);
    DiscardingRecorder recorder;
    if (recorder_mode) stack.engine.set_cache_recorder(&recorder);
    return stack.engine.resolve(a.author_query(), a.msd());
  };
  const index::LookupOutcome inline_mode = stale_session(false);
  const index::LookupOutcome recorder_mode = stale_session(true);

  EXPECT_EQ(inline_mode.stale_shortcuts, 1);
  EXPECT_FALSE(inline_mode.gave_up);
  EXPECT_EQ(recorder_mode.found, inline_mode.found);
  EXPECT_EQ(recorder_mode.interactions, inline_mode.interactions);
  EXPECT_EQ(recorder_mode.gave_up, inline_mode.gave_up);
  EXPECT_EQ(recorder_mode.stale_shortcuts, inline_mode.stale_shortcuts);
  EXPECT_EQ(recorder_mode.non_indexed, inline_mode.non_indexed);
}

TEST(ChurnSimulation, ReplicationMeetsTheAvailabilityTarget) {
  sim::SimulationConfig base;
  base.nodes = 48;
  base.queries = 2000;
  base.corpus.articles = 250;
  base.corpus.authors = 90;
  base.corpus.conferences = 10;
  base.scheme = index::SchemeKind::kSimple;
  base.policy = index::CachePolicy::kSingle;
  base.churn.crash_fraction = 0.10;
  base.churn.drop_probability = 0.01;
  base.churn.republish_interval = 200;

  sim::SimulationConfig r1 = base;
  r1.replication = 1;
  sim::SimulationConfig r2 = base;
  r2.replication = 2;
  const sim::SimulationResults one = sim::run_simulation(r1);
  const sim::SimulationResults two = sim::run_simulation(r2);

  EXPECT_EQ(one.crashed_nodes, 4u);
  EXPECT_EQ(one.sessions_after_churn, 1000u);
  EXPECT_GT(one.mappings_lost, 0u);
  EXPECT_GT(one.rpc_failures, 0u);
  EXPECT_GT(one.degraded_sessions, 0u);
  EXPECT_GT(one.republish_rounds, 0u);

  // Replicated copies keep the post-churn feed at or above the single-copy
  // run, and indexed sessions stay >= 99% successful.
  EXPECT_GE(two.post_churn_success, one.post_churn_success);
  EXPECT_GE(two.post_churn_indexed_success, 0.99);
}

TEST(ChurnSimulation, RepairAloneRestoresReplicasWithoutRepublish) {
  sim::SimulationConfig config;
  config.nodes = 48;
  config.queries = 1500;
  config.corpus.articles = 200;
  config.corpus.authors = 70;
  config.corpus.conferences = 10;
  config.replication = 2;
  config.churn.crash_fraction = 0.10;
  config.churn.republish_interval = 0;  // publishers never refresh

  const sim::SimulationResults r = sim::run_simulation(config);
  EXPECT_EQ(r.republish_rounds, 0u);
  // End-of-run repair re-copies surviving replicas onto the healed
  // membership's replica sets.
  EXPECT_GT(r.repair_moves, 0u);
  EXPECT_GT(r.post_churn_success, 0.9);
}

TEST(ChurnSimulation, JoinsAreAbsorbed) {
  sim::SimulationConfig config;
  config.nodes = 32;
  config.queries = 1000;
  config.corpus.articles = 150;
  config.corpus.authors = 50;
  config.corpus.conferences = 8;
  config.replication = 2;
  config.churn.crash_fraction = 0.10;
  config.churn.joins = 4;
  config.churn.republish_interval = 100;

  const sim::SimulationResults r = sim::run_simulation(config);
  EXPECT_EQ(r.joined_nodes, 4u);
  EXPECT_EQ(r.crashed_nodes, 3u);
  EXPECT_GT(r.post_churn_success, 0.9);
}

TEST(ChurnSimulation, ChurnOnAProtocolSubstrateIsRejected) {
  sim::SimulationConfig config;
  config.nodes = 16;
  config.queries = 50;
  config.corpus.articles = 30;
  config.corpus.authors = 12;
  config.corpus.conferences = 4;
  config.substrate = sim::Substrate::kChord;
  config.churn.crash_fraction = 0.10;
  EXPECT_THROW(sim::run_simulation(config), InvariantError);
}

TEST(ChurnAudit, RepairedWorldPassesTheFullAudit) {
  FaultyStack stack{/*replication=*/2, index::CachePolicy::kNone, 20, 30};
  const std::vector<Id> nodes = stack.ring.node_ids();
  for (std::size_t i = 0; i < nodes.size(); i += 7) stack.crash(nodes[i]);

  // Heal: remove the dead nodes from the membership, rebalance both layers,
  // republish every article, drop shortcuts into the void.
  std::vector<Id> dead;
  for (const Id& node : nodes) {
    if (stack.injector.is_crashed(node)) dead.push_back(node);
  }
  for (const Id& node : dead) {
    stack.ring.remove(node);
    stack.injector.recover(node);
  }
  stack.store.rebalance();
  stack.service.rebalance();
  for (const auto& a : stack.corpus->articles()) {
    const std::string name = a.file_name();
    stack.builder.republish(a.descriptor(), /*now=*/1, &name, a.file_bytes);
  }
  stack.engine.purge_stale_shortcuts();

  const index::IndexingScheme scheme = index::IndexingScheme::simple();
  audit::Options options;
  options.scheme = &scheme;
  const audit::Report report =
      audit::Auditor{stack.ring, stack.service, stack.store, options}.run();
  EXPECT_TRUE(report.clean()) << report.to_text();

  for (const auto& a : stack.corpus->articles()) {
    EXPECT_TRUE(stack.engine.resolve(a.author_query(), a.msd()).found) << a.title;
  }
}

}  // namespace
}  // namespace dhtidx
