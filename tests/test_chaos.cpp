// Network chaos layer: adversarial frame faults (drop/duplicate/reorder/
// delay/corrupt), asymmetric partitions, idempotent delivery on the message
// bus under wire v2 request-id dedup, deterministic replay of fault
// schedules, and the auditor's post-healing convergence invariant.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "biblio/corpus.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"
#include "net/bus.hpp"
#include "net/chaos.hpp"
#include "net/codec.hpp"
#include "net/transport.hpp"
#include "sim/simulation.hpp"

namespace dhtidx {
namespace {

using net::ChaosInjector;
using net::ChaosProfile;
using net::FrameFault;
using net::Message;

Message sample_post(int i) {
  Message m = net::Message::request(net::Action::kPublish, Id::hash("publisher"),
                                    Id::hash("home-" + std::to_string(i % 16)));
  m.payload = {"entry " + std::to_string(i)};
  return m;
}

// --- injector: zero draws while disabled ------------------------------------

TEST(ChaosInjector, DisabledFramePlaneDrawsNothingFromTheDeliveryPlane) {
  // The delivery-plane coin stream must be bit-identical to a plain
  // FailureInjector's even while plan_frame() is being consulted, otherwise
  // wiring a ChaosInjector into an existing churn run would shift the shared
  // random stream and break every golden sweep JSON.
  net::FailureInjector plain{7, 0.5};
  ChaosInjector chaos{7, 0.5};
  const Id target = Id::hash("t");
  const Id other = Id::hash("o");
  for (int i = 0; i < 500; ++i) {
    const net::FramePlan plan = chaos.plan_frame(other, target);
    ASSERT_EQ(plan.fault, FrameFault::kNone);
    bool plain_dropped = false;
    bool chaos_dropped = false;
    try {
      plain.check_delivery(target);
    } catch (const net::RpcError&) {
      plain_dropped = true;
    }
    try {
      chaos.check_delivery(target);
    } catch (const net::RpcError&) {
      chaos_dropped = true;
    }
    ASSERT_EQ(plain_dropped, chaos_dropped) << "streams diverged at draw " << i;
  }
}

TEST(ChaosInjector, ProfileCoinsAreSeededAndExclusive) {
  const auto faults = [](std::uint64_t seed) {
    ChaosInjector chaos{seed};
    ChaosProfile profile;
    profile.drop_probability = 0.1;
    profile.corrupt_probability = 0.1;
    profile.duplicate_probability = 0.1;
    chaos.set_profile(profile);
    std::vector<FrameFault> planned;
    for (int i = 0; i < 400; ++i) {
      planned.push_back(chaos.plan_frame(Id::hash("a"), Id::hash("b")).fault);
    }
    return planned;
  };
  EXPECT_EQ(faults(3), faults(3));
  EXPECT_NE(faults(3), faults(4));

  ChaosInjector chaos{3};
  ChaosProfile profile;
  profile.drop_probability = 0.2;
  profile.duplicate_probability = 0.2;
  chaos.set_profile(profile);
  for (int i = 0; i < 400; ++i) chaos.plan_frame(Id::hash("a"), Id::hash("b"));
  // At most one fault per frame: the counters never exceed the frame count.
  EXPECT_GT(chaos.dropped_frames(), 0u);
  EXPECT_GT(chaos.duplicated_frames(), 0u);
  EXPECT_LE(chaos.dropped_frames() + chaos.duplicated_frames(), 400u);
}

TEST(ChaosInjector, ScriptedFrameFaultsFireBeforeAnyCoin) {
  ChaosInjector chaos{11};
  chaos.script_frame_fault(FrameFault::kCorrupt, 2);
  chaos.script_frame_fault(FrameFault::kDrop);
  EXPECT_FALSE(chaos.quiescent());
  EXPECT_EQ(chaos.plan_frame(Id::hash("a"), Id::hash("b")).fault, FrameFault::kCorrupt);
  EXPECT_EQ(chaos.plan_frame(Id::hash("a"), Id::hash("b")).fault, FrameFault::kCorrupt);
  EXPECT_EQ(chaos.plan_frame(Id::hash("a"), Id::hash("b")).fault, FrameFault::kDrop);
  // Script exhausted, profile disabled: nothing further happens.
  EXPECT_EQ(chaos.plan_frame(Id::hash("a"), Id::hash("b")).fault, FrameFault::kNone);
  EXPECT_TRUE(chaos.quiescent());
}

// --- injector: corruption is always detectable ------------------------------

TEST(ChaosInjector, EveryCorruptedFrameIsRejectedByTheCodec) {
  // The codec has no checksum, so corrupt() must guarantee detectability by
  // always damaging the magic/version header (see chaos.hpp); 2000 seeded
  // corruptions of a valid frame must all surface as typed CodecError.
  ChaosInjector chaos{123};
  const std::string frame = net::codec::encode(sample_post(0));
  for (int i = 0; i < 2000; ++i) {
    std::string mutant = frame;
    chaos.corrupt(mutant);
    EXPECT_THROW(net::codec::decode(mutant), net::codec::CodecError) << "round " << i;
  }
  EXPECT_EQ(chaos.corrupted_frames(), 0u);  // counted at plan time, not here
}

// --- injector: partitions ----------------------------------------------------

TEST(ChaosInjector, AsymmetricPartitionCutsInboundTrafficOnly) {
  ChaosInjector chaos{5};
  const Id inside = Id::hash("inside");
  const Id outside = Id::hash("outside");
  chaos.install_partition({inside});
  EXPECT_EQ(chaos.partitioned_count(), 1u);
  EXPECT_TRUE(chaos.link_blocked(outside, inside));
  EXPECT_FALSE(chaos.link_blocked(inside, outside));  // asymmetric
  EXPECT_THROW(chaos.check_delivery(inside), net::RpcError);
  EXPECT_NO_THROW(chaos.check_delivery(outside));
  EXPECT_FALSE(chaos.quiescent());

  chaos.heal();
  EXPECT_EQ(chaos.partitioned_count(), 0u);
  EXPECT_FALSE(chaos.link_blocked(outside, inside));
  EXPECT_NO_THROW(chaos.check_delivery(inside));
  EXPECT_TRUE(chaos.quiescent());
}

TEST(ChaosInjector, PartitionedFramesAreDroppedWithoutRandomDraws) {
  ChaosInjector chaos{9};
  const Id inside = Id::hash("inside");
  const Id outside = Id::hash("outside");
  chaos.install_partition({inside});
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(chaos.plan_frame(outside, inside).fault, FrameFault::kDrop);
    EXPECT_EQ(chaos.plan_frame(inside, outside).fault, FrameFault::kNone);
  }
  EXPECT_EQ(chaos.dropped_frames(), 50u);
}

// --- bus: idempotent delivery under adversarial frames ----------------------

TEST(MessageBusChaos, TwoThousandFaultedPostsApplyExactlyOnce) {
  // 2000 one-way posts with aggressive duplication, corruption and
  // reordering. Faults are exclusive per frame and drop is off, so the
  // dedup/rejection counters must match the injector's plan counts exactly,
  // and every post must be delivered exactly once: none stays pending, and
  // the bus sends one ack per first delivery.
  net::EventQueueTransport transport;
  ChaosInjector chaos{2026};
  transport.set_chaos(&chaos);
  net::MessageBus bus{transport};

  ChaosProfile profile;
  profile.corrupt_probability = 0.10;
  profile.duplicate_probability = 0.15;
  profile.reorder_probability = 0.25;
  chaos.set_profile(profile);

  for (int i = 0; i < 2000; ++i) {
    bus.post(sample_post(i));
    if (i % 5 == 0) bus.sync();
  }
  bus.sync();
  chaos.clear_profile();

  EXPECT_EQ(bus.measured().routing.messages(), 2000u);
  EXPECT_EQ(bus.posts(), 2000u);
  EXPECT_EQ(bus.pending_posts(), 0u);
  EXPECT_TRUE(transport.idle());

  // Exact accounting: every duplicated frame (post or ack) is detected and
  // discarded exactly once; every corrupted frame is rejected exactly once
  // and healed by a timeout retransmission.
  EXPECT_GT(chaos.duplicated_frames(), 0u);
  EXPECT_GT(chaos.corrupted_frames(), 0u);
  EXPECT_EQ(bus.duplicates_detected(), chaos.duplicated_frames());
  EXPECT_EQ(bus.rejected_frames(), chaos.corrupted_frames());
  EXPECT_GT(bus.timeouts(), 0u);

  // The new ledger categories keep the arithmetic invariant: category sums
  // still equal the totals.
  const net::TrafficLedger& m = bus.measured();
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  for (const net::TrafficLedger::NamedCategory& category : m.categories()) {
    bytes += category.stats->bytes();
    messages += category.stats->messages();
  }
  EXPECT_EQ(m.total_bytes(), bytes);
  EXPECT_EQ(m.total_messages(), messages);
  EXPECT_EQ(m.duplicates.messages(), bus.duplicates_detected());
  EXPECT_EQ(m.rejected.messages(), bus.rejected_frames());
  EXPECT_EQ(m.timeouts.messages(), bus.timeouts());
}

TEST(MessageBusChaos, ExchangesSurviveDropAndCorruption) {
  net::EventQueueTransport transport;
  ChaosInjector chaos{41};
  transport.set_chaos(&chaos);
  net::MessageBus bus{transport};

  ChaosProfile profile;
  profile.drop_probability = 0.08;
  profile.corrupt_probability = 0.08;
  chaos.set_profile(profile);

  for (int i = 0; i < 200; ++i) {
    Message request = net::Message::request(net::Action::kLookup, Id{},
                                            Id::hash("n" + std::to_string(i % 8)));
    request.payload = {"/author[@name='Smith']"};
    const Message response = bus.exchange(request, net::Message::response_to(request));
    ASSERT_EQ(response.context, net::Context::kResponse);
  }
  chaos.clear_profile();
  // Every exchange succeeded despite losses; each id was answered exactly
  // once (duplicated requests resend the same reply, charged as timeouts).
  EXPECT_EQ(bus.measured().responses.messages(), 200u);
  EXPECT_GT(bus.timeouts(), 0u);
  EXPECT_GT(chaos.dropped_frames() + chaos.corrupted_frames(), 0u);
}

TEST(MessageBusChaos, ScriptedCorruptRequestHealsViaRetransmission) {
  net::EventQueueTransport transport;
  ChaosInjector chaos{1};
  transport.set_chaos(&chaos);
  net::MessageBus bus{transport};

  chaos.script_frame_fault(FrameFault::kCorrupt, 1);
  Message request = net::Message::request(net::Action::kFetch, Id{}, Id::hash("node"));
  const Message response = bus.exchange(request, net::Message::response_to(request));
  EXPECT_EQ(response.context, net::Context::kResponse);
  EXPECT_EQ(bus.measured().responses.messages(), 1u);  // answered once
  EXPECT_EQ(response.request_id, 1u);  // the counter's first id, end to end
  EXPECT_EQ(bus.timeouts(), 1u);
  EXPECT_EQ(bus.rejected_frames(), 1u);
  EXPECT_EQ(chaos.corrupted_frames(), 1u);
}

TEST(MessageBusChaos, DuplicatedRequestServesOnceAndResendsTheResponse) {
  net::EventQueueTransport transport;
  ChaosInjector chaos{2};
  transport.set_chaos(&chaos);
  net::MessageBus bus{transport};

  chaos.script_frame_fault(FrameFault::kDuplicate, 1);
  Message request = net::Message::request(net::Action::kLookup, Id{}, Id::hash("node"));
  const Message response = bus.exchange(request, net::Message::response_to(request));
  EXPECT_EQ(response.context, net::Context::kResponse);
  // The duplicate was deduplicated: one first answer, and the same reply
  // resent once as a timeout.
  EXPECT_EQ(bus.measured().responses.messages(), 1u);
  EXPECT_EQ(bus.timeouts(), 1u);
  bus.sync();  // drain the resent response copy
  EXPECT_GE(bus.duplicates_detected(), 1u);
}

TEST(MessageBusChaos, DuplicatedAckCountsOneDuplicateAndThePostAppliesOnce) {
  net::EventQueueTransport transport;
  ChaosInjector chaos{3};
  transport.set_chaos(&chaos);
  net::MessageBus bus{transport};

  // The post's frame passes untouched; the next frame, its ack, is doubled.
  chaos.script_frame_fault(FrameFault::kNone);
  chaos.script_frame_fault(FrameFault::kDuplicate);
  bus.post(sample_post(0));
  bus.sync();
  EXPECT_EQ(bus.pending_posts(), 0u);
  EXPECT_EQ(chaos.duplicated_frames(), 1u);
  EXPECT_EQ(bus.duplicates_detected(), 1u);
  EXPECT_EQ(bus.measured().duplicates.messages(), 1u);
  EXPECT_EQ(bus.measured().routing.messages(), 1u);  // the ack, charged once at send
  EXPECT_EQ(bus.timeouts(), 0u);
}

TEST(MessageBusChaos, RetransmissionBudgetExhaustionThrows) {
  // A transport that eats every frame: exchange must give up after exactly
  // MessageBus::kMaxRetransmits (12) retransmissions with a typed Error.
  struct DropTransport : net::Transport {
    const char* name() const override { return "drop"; }
    std::uint64_t send(const Message& m) override { return net::codec::encoded_size(m); }
    void pump() override {}
    bool idle() const override { return true; }
  } dropper;
  net::MessageBus bus{dropper};
  Message request = net::Message::request(net::Action::kLookup, Id{}, Id::hash("gone"));
  EXPECT_THROW(bus.exchange(request, net::Message::response_to(request)), Error);
  EXPECT_EQ(bus.timeouts(), 12u);
}

// --- deterministic replay ----------------------------------------------------

TEST(MessageBusChaos, DeliveryTraceReplaysBitIdenticallyForAFixedSeed) {
  const auto run = [](std::uint64_t seed) {
    net::EventQueueTransport transport;
    ChaosInjector chaos{seed};
    transport.set_chaos(&chaos);
    net::MessageBus bus{transport};
    ChaosProfile profile;
    profile.reorder_probability = 0.4;
    profile.duplicate_probability = 0.1;
    profile.corrupt_probability = 0.05;
    chaos.set_profile(profile);
    for (int i = 0; i < 300; ++i) {
      bus.post(sample_post(i));
      if (i % 9 == 0) bus.sync();
    }
    bus.sync();
    return transport.delivery_fingerprint();
  };
  const std::uint64_t first = run(77);
  EXPECT_EQ(first, run(77));  // same seed, same fault schedule, same order
  EXPECT_NE(first, run(78));  // different seed reorders differently
}

// --- full stack: partitions, healing, and the convergence invariant ---------

/// Corpus + builder + engine over a ring with a ChaosInjector wired into both
/// the index service and the storage layer (mirrors test_churn's FaultyStack).
struct ChaosStack {
  explicit ChaosStack(std::size_t replication, index::CachePolicy policy,
                      std::size_t nodes = 15, std::size_t articles = 25)
      : ring(dht::Ring::with_nodes(nodes)),
        store(ring, ledger, replication),
        service(ring, ledger, /*cache_capacity=*/0, replication),
        builder(service, store, index::IndexingScheme::simple()),
        engine(service, store, {policy}),
        injector(0xC4A05) {
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

  audit::Report convergence_audit(bool require_quiescent) {
    audit::Options options;
    options.chaos = &injector;
    options.require_quiescent = require_quiescent;
    options.check_covering = false;
    options.check_reachability = false;
    options.check_acyclicity = false;
    options.check_placement = false;
    options.check_cache_coherence = false;
    options.check_snapshot = false;
    options.check_replica_consistency = false;
    options.check_ledger = false;
    return audit::Auditor{ring, service, store, options}.run();
  }

  net::TrafficLedger ledger;
  dht::Ring ring;
  storage::DhtStore store;
  index::IndexService service;
  index::IndexBuilder builder;
  index::LookupEngine engine;
  net::ChaosInjector injector;
  std::optional<biblio::Corpus> corpus;
};

TEST(ConvergenceAudit, PartitionedWorldSkipsOrViolatesByOption) {
  ChaosStack stack{/*replication=*/2, index::CachePolicy::kNone};
  stack.injector.install_partition({stack.ring.node_ids()[0]});

  // Mid-outage: by default the convergence check stands down (an index
  // mid-partition is not expected to have converged)...
  EXPECT_TRUE(stack.convergence_audit(/*require_quiescent=*/false).clean());
  // ...but a post-healing audit that *requires* quiescence flags it.
  const audit::Report strict = stack.convergence_audit(/*require_quiescent=*/true);
  EXPECT_FALSE(strict.clean());
  ASSERT_FALSE(strict.violations.empty());
  EXPECT_EQ(strict.violations[0].invariant, audit::Invariant::kConvergence);

  stack.injector.heal();
  EXPECT_TRUE(stack.convergence_audit(/*require_quiescent=*/true).clean());
}

TEST(ConvergenceAudit, LookupsFailOverDuringThePartitionAndHealCleanly) {
  ChaosStack stack{/*replication=*/2, index::CachePolicy::kSingle, 15, 25};
  const auto& a = stack.corpus->article(0);
  const Id entry_primary = stack.ring.lookup(a.author_query().key()).node;
  stack.injector.install_partition({entry_primary});

  // The partitioned node keeps its disk but fails deliveries: sessions fail
  // over to the surviving replica, exactly like a crash.
  const auto outcome = stack.engine.resolve(a.author_query(), a.msd());
  EXPECT_TRUE(outcome.found);
  EXPECT_GT(outcome.rpc_failures, 0);

  // Heal and re-audit the full matrix: unlike a crash no state was lost, so
  // no repair beyond shortcut hygiene is needed.
  stack.injector.heal();
  stack.engine.purge_stale_shortcuts();
  const index::IndexingScheme scheme = index::IndexingScheme::simple();
  audit::Options options;
  options.scheme = &scheme;
  options.chaos = &stack.injector;
  options.require_quiescent = true;
  const audit::Report report =
      audit::Auditor{stack.ring, stack.service, stack.store, options}.run();
  EXPECT_TRUE(report.clean()) << report.to_text();
}

TEST(ConvergenceAudit, StaleShortcutThroughAHealedMembershipIsAViolation) {
  ChaosStack stack{/*replication=*/1, index::CachePolicy::kSingle, 15, 25};

  // Warm a shortcut, then re-home the article's storage by removing its node
  // from the membership *without* repair: the shortcut now routes to a target
  // whose current replica set holds no record.
  const biblio::Article* article = nullptr;
  for (const auto& a : stack.corpus->articles()) {
    if (stack.ring.lookup(a.author_query().key()).node !=
        stack.ring.lookup(a.msd().key()).node) {
      article = &a;
      break;
    }
  }
  ASSERT_NE(article, nullptr);
  ASSERT_TRUE(stack.engine.resolve(article->author_query(), article->msd()).found);
  ASSERT_TRUE(stack.engine.resolve(article->author_query(), article->msd()).cache_hit);

  const Id storage_node = stack.ring.lookup(article->msd().key()).node;
  stack.ring.remove(storage_node);

  const audit::Report broken = stack.convergence_audit(/*require_quiescent=*/true);
  EXPECT_FALSE(broken.clean());
  bool stale_route = false;
  for (const audit::Violation& v : broken.violations) {
    if (v.invariant == audit::Invariant::kConvergence &&
        v.detail.find("outside its healed replica set") != std::string::npos) {
      stale_route = true;
    }
  }
  EXPECT_TRUE(stale_route) << broken.to_text();

  // Repair: re-home records and index entries, drop shortcuts into the void.
  stack.store.rebalance();
  stack.service.rebalance();
  stack.engine.purge_stale_shortcuts();
  EXPECT_TRUE(stack.convergence_audit(/*require_quiescent=*/true).clean());
  EXPECT_TRUE(stack.engine.resolve(article->author_query(), article->msd()).found);
}

// --- rebalance: repair does not depend on frame order -----------------------

/// A 24-node ring with an 80-article simple-scheme index built through
/// index_file at increasing stamps, optionally over a message bus.
struct RebalanceWorld {
  RebalanceWorld(const biblio::Corpus& corpus, std::size_t replication, net::MessageBus* bus)
      : ring(dht::Ring::with_nodes(24)),
        store(ring, ledger, replication),
        service(ring, ledger, /*cache_capacity=*/0, replication),
        builder(service, store, index::IndexingScheme::simple()) {
    service.set_bus(bus);
    store.set_bus(bus);
    std::uint64_t now = 0;
    for (const auto& a : corpus.articles()) {
      builder.index_file(a.descriptor(), a.file_name(), a.file_bytes, nullptr, ++now);
    }
  }

  /// Removes every third member, leaving their partitions and stores behind,
  /// then repairs the records and the index. Returns the two repair counts.
  std::pair<std::size_t, std::size_t> churn_and_rebalance() {
    const std::vector<Id> members = ring.node_ids();
    for (std::size_t i = 0; i < members.size(); i += 3) ring.remove(members[i]);
    const std::size_t moved = store.rebalance();
    return {moved, service.rebalance()};
  }

  /// One line per (node, source): its targets in order with their stamps.
  std::vector<std::string> index_lines() const {
    std::vector<std::string> lines;
    for (const auto& [node, state] : service.states()) {
      for (const index::IndexNodeState::SourceEntry* entry : state.entries()) {
        std::string line = node.brief() + ' ' + entry->source->canonical() + " ->";
        for (const index::IndexNodeState::TargetRef& ref : entry->targets) {
          line += ' ' + ref.target->canonical() + '@' + std::to_string(ref.stamp);
        }
        lines.push_back(std::move(line));
      }
    }
    return lines;
  }

  /// One line per (node, key): its records in order.
  std::vector<std::string> record_lines() const {
    std::vector<std::string> lines;
    for (const auto& [node, node_store] : store.node_stores()) {
      for (const Id& key : node_store.keys()) {
        std::string line = node.brief() + ' ' + key.brief();
        for (const storage::Record& r : node_store.get(key)) {
          line += ' ' + r.kind + ':' + r.payload;
        }
        lines.push_back(std::move(line));
      }
    }
    return lines;
  }

  net::TrafficLedger ledger;
  dht::Ring ring;
  storage::DhtStore store;
  index::IndexService service;
  index::IndexBuilder builder;
};

void expect_same_lines(const std::vector<std::string>& direct,
                       const std::vector<std::string>& wired, const char* what) {
  ASSERT_EQ(direct.size(), wired.size()) << what;
  std::size_t differing = 0;
  for (std::size_t i = 0; i < direct.size(); ++i) {
    if (direct[i] == wired[i]) continue;
    if (differing++ == 0) {
      ADD_FAILURE() << what << " line " << i << " differs\n  no bus: " << direct[i]
                    << "\n  bus:    " << wired[i];
    }
  }
  EXPECT_EQ(differing, 0u) << differing << " of " << direct.size() << ' ' << what
                           << " lines differ";
}

TEST(ChaosRebalance, ReorderingBusLeavesTheWorldOfARebalanceWithoutABus) {
  // Frames that overtake each other must not change the repaired world:
  // reordering, delay and duplication only move deliveries, and with no drop
  // or corruption no retransmission budget can run out.
  biblio::CorpusConfig config;
  config.articles = 80;
  config.authors = 27;
  config.conferences = 5;
  const biblio::Corpus corpus = biblio::Corpus::generate(config);
  for (const std::size_t replication : {1u, 2u, 3u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 0xBEEFu}) {
      SCOPED_TRACE("replication " + std::to_string(replication) + ", chaos seed " +
                   std::to_string(seed));
      net::EventQueueTransport transport;
      ChaosInjector chaos{seed};
      transport.set_chaos(&chaos);
      net::MessageBus bus{transport};
      ChaosProfile profile;
      profile.reorder_probability = 0.5;
      profile.delay_probability = 0.2;
      profile.duplicate_probability = 0.1;
      chaos.set_profile(profile);

      RebalanceWorld direct{corpus, replication, nullptr};
      RebalanceWorld wired{corpus, replication, &bus};
      EXPECT_EQ(direct.churn_and_rebalance(), wired.churn_and_rebalance());
      EXPECT_GT(chaos.reordered_frames(), 0u);
      EXPECT_EQ(bus.pending_posts(), 0u);
      expect_same_lines(direct.index_lines(), wired.index_lines(), "index");
      expect_same_lines(direct.record_lines(), wired.record_lines(), "record");
    }
  }
}

// --- simulation: scheduled chaos runs ----------------------------------------

sim::SimulationConfig small_chaos_config() {
  sim::SimulationConfig config;
  config.nodes = 32;
  config.queries = 600;
  config.corpus.articles = 120;
  config.corpus.authors = 40;
  config.corpus.conferences = 8;
  config.replication = 2;
  config.transport = sim::TransportKind::kEventQueue;
  config.chaos.drop_probability = 0.02;
  config.chaos.duplicate_probability = 0.03;
  config.chaos.corrupt_probability = 0.02;
  config.chaos.reorder_probability = 0.10;
  config.chaos.partition_fraction = 0.10;
  return config;
}

TEST(ChaosSimulation, RequiresTheEventQueueTransportAndTheRingSubstrate) {
  sim::SimulationConfig config = small_chaos_config();
  config.transport = sim::TransportKind::kInProcess;
  EXPECT_THROW(sim::run_simulation(config), InvariantError);

  sim::SimulationConfig chord = small_chaos_config();
  chord.substrate = sim::Substrate::kChord;
  EXPECT_THROW(sim::run_simulation(chord), InvariantError);
}

TEST(ChaosSimulation, ScheduledChaosRunConvergesAndReplaysBitIdentically) {
  const sim::SimulationConfig config = small_chaos_config();
  const sim::SimulationResults a = sim::run_simulation(config);

  EXPECT_EQ(a.partitioned_nodes, 3u);  // 32 nodes x 0.10
  EXPECT_GT(a.chaos_frames_dropped, 0u);
  EXPECT_GT(a.chaos_frames_duplicated, 0u);
  EXPECT_GT(a.chaos_frames_corrupted, 0u);
  EXPECT_GT(a.bus_duplicates, 0u);
  EXPECT_GT(a.bus_rejected, 0u);
  EXPECT_GT(a.bus_timeouts, 0u);
  EXPECT_GE(a.convergence_ms, 0.0);

  // The whole schedule replays bit-identically from the seed.
  const sim::SimulationResults b = sim::run_simulation(config);
  EXPECT_EQ(a.chaos_frames_dropped, b.chaos_frames_dropped);
  EXPECT_EQ(a.chaos_frames_duplicated, b.chaos_frames_duplicated);
  EXPECT_EQ(a.chaos_frames_reordered, b.chaos_frames_reordered);
  EXPECT_EQ(a.chaos_frames_corrupted, b.chaos_frames_corrupted);
  EXPECT_EQ(a.bus_timeouts, b.bus_timeouts);
  EXPECT_EQ(a.bus_duplicates, b.bus_duplicates);
  EXPECT_EQ(a.bus_rejected, b.bus_rejected);
  EXPECT_EQ(a.failed_lookups, b.failed_lookups);
  EXPECT_EQ(a.rpc_failures, b.rpc_failures);
  EXPECT_EQ(a.avg_interactions, b.avg_interactions);
  EXPECT_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_EQ(a.convergence_ms, b.convergence_ms);
  EXPECT_EQ(a.wire_messages, b.wire_messages);
}

TEST(ChaosSimulation, ChaosLabelAndDisabledDefaults) {
  sim::SimulationConfig config = small_chaos_config();
  EXPECT_NE(sim::config_label(config).find("chaos"), std::string::npos);

  // Chaos off: every chaos metric stays at its zero default.
  sim::SimulationConfig plain;
  plain.nodes = 12;
  plain.queries = 60;
  plain.corpus.articles = 30;
  plain.corpus.authors = 10;
  plain.corpus.conferences = 4;
  const sim::SimulationResults r = sim::run_simulation(plain);
  EXPECT_EQ(r.partitioned_nodes, 0u);
  EXPECT_EQ(r.chaos_frames_dropped, 0u);
  EXPECT_EQ(r.bus_timeouts, 0u);
  EXPECT_EQ(r.bus_duplicates, 0u);
  EXPECT_EQ(r.bus_rejected, 0u);
  EXPECT_EQ(r.convergence_ms, 0.0);
}

}  // namespace
}  // namespace dhtidx
