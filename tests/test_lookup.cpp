// End-to-end lookup behaviour: directed resolution, caching, generalization,
// and the automated exhaustive search.
#include "index/lookup.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "biblio/corpus.hpp"
#include "biblio/stream.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "net/bus.hpp"
#include "net/transport.hpp"
#include "sim/sharded.hpp"
#include "workload/structure.hpp"

namespace dhtidx::index {
namespace {

using query::Query;
using workload::QueryStructure;

struct World {
  explicit World(SchemeKind scheme, CachePolicy policy = CachePolicy::kNone,
                 std::size_t cache_capacity = 0, std::size_t articles = 60)
      : ring(dht::Ring::with_nodes(25)),
        store(ring, ledger),
        service(ring, ledger, cache_capacity),
        builder(service, store, IndexingScheme::make(scheme)),
        engine(service, store, {policy}) {
    biblio::CorpusConfig config;
    config.articles = articles;
    config.authors = articles / 3 + 1;
    config.conferences = 8;
    corpus = biblio::Corpus::generate(config);
    for (const auto& a : corpus->articles()) {
      builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
    }
    ledger.reset();
  }

  const biblio::Article& article(std::size_t i) const { return corpus->article(i); }

  net::TrafficLedger ledger;
  dht::Ring ring;
  storage::DhtStore store;
  IndexService service;
  IndexBuilder builder;
  LookupEngine engine;
  std::optional<biblio::Corpus> corpus;
};

TEST(Lookup, DirectMsdLookupIsOneInteraction) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(0);
  const auto outcome = w.engine.resolve(a.msd(), a.msd());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.interactions, 1);
  EXPECT_FALSE(outcome.non_indexed);
}

TEST(Lookup, AuthorQueryTakesThreeInteractionsInSimple) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(0);
  const auto outcome = w.engine.resolve(a.author_query(), a.msd());
  EXPECT_TRUE(outcome.found);
  // author -> author+title -> MSD -> file.
  EXPECT_EQ(outcome.interactions, 3);
  EXPECT_EQ(outcome.visited_nodes.size(), 3u);
}

TEST(Lookup, AuthorQueryTakesTwoInteractionsInFlat) {
  World w{SchemeKind::kFlat};
  const auto& a = w.article(0);
  const auto outcome = w.engine.resolve(a.author_query(), a.msd());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.interactions, 2);
}

TEST(Lookup, AuthorQueryTakesFourInteractionsInComplex) {
  World w{SchemeKind::kComplex};
  const auto& a = w.article(0);
  const auto outcome = w.engine.resolve(a.author_query(), a.msd());
  EXPECT_TRUE(outcome.found);
  // author -> author+conf -> author+conf+year -> MSD -> file.
  EXPECT_EQ(outcome.interactions, 4);
}

TEST(Lookup, NonIndexedAuthorYearGeneralizes) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(0);
  const auto outcome = w.engine.resolve(a.author_year_query(), a.msd());
  EXPECT_TRUE(outcome.found);
  EXPECT_TRUE(outcome.non_indexed);
  EXPECT_EQ(outcome.generalization_steps, 1);
  // One wasted interaction plus the regular author chain.
  EXPECT_EQ(outcome.interactions, 4);
}

TEST(Lookup, EveryArticleReachableFromEveryStructure) {
  for (const SchemeKind scheme :
       {SchemeKind::kSimple, SchemeKind::kFlat, SchemeKind::kComplex}) {
    World w{scheme};
    for (const auto& a : w.corpus->articles()) {
      for (const QueryStructure structure : workload::kAllStructures) {
        const Query q = workload::build_query(a, structure);
        const auto outcome = w.engine.resolve(q, a.msd());
        ASSERT_TRUE(outcome.found)
            << to_string(scheme) << " " << to_string(structure) << " article " << a.id;
        ASSERT_LE(outcome.interactions, 6);
      }
    }
  }
}

TEST(Lookup, RepeatedQueryHitsSingleCache) {
  World w{SchemeKind::kSimple, CachePolicy::kSingle};
  const auto& a = w.article(0);
  const auto first = w.engine.resolve(a.author_query(), a.msd());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.interactions, 3);
  const auto second = w.engine.resolve(a.author_query(), a.msd());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.cache_hit_position, 1);
  EXPECT_EQ(second.interactions, 2);  // hit + file fetch
}

TEST(Lookup, CacheDistinguishesTargets) {
  // Two articles by the same author: a cached shortcut for one must not be
  // returned as a hit for the other.
  World w{SchemeKind::kSimple, CachePolicy::kSingle};
  const biblio::Article* first = nullptr;
  const biblio::Article* second = nullptr;
  for (const auto& x : w.corpus->articles()) {
    for (const auto& y : w.corpus->articles()) {
      if (x.id != y.id && x.first_name == y.first_name && x.last_name == y.last_name) {
        first = &x;
        second = &y;
      }
    }
  }
  ASSERT_NE(first, nullptr) << "corpus lacks an author with two articles";
  const auto warm = w.engine.resolve(first->author_query(), first->msd());
  EXPECT_TRUE(warm.found);
  const auto other = w.engine.resolve(second->author_query(), second->msd());
  EXPECT_TRUE(other.found);
  EXPECT_FALSE(other.cache_hit);
  // Both shortcuts now exist; both hit.
  EXPECT_TRUE(w.engine.resolve(first->author_query(), first->msd()).cache_hit);
  EXPECT_TRUE(w.engine.resolve(second->author_query(), second->msd()).cache_hit);
}

TEST(Lookup, MultiCachePopulatesWholeChain) {
  World wm{SchemeKind::kSimple, CachePolicy::kMulti};
  const auto& a = wm.article(0);
  wm.engine.resolve(a.author_query(), a.msd());
  // Now the author+title node also has a shortcut: a user starting from the
  // author+title query hits at the first node.
  const auto outcome = wm.engine.resolve(a.author_title_query(), a.msd());
  EXPECT_TRUE(outcome.cache_hit);
  EXPECT_EQ(outcome.cache_hit_position, 1);
}

TEST(Lookup, SingleCacheDoesNotPopulateChainTail) {
  World ws{SchemeKind::kSimple, CachePolicy::kSingle};
  const auto& a = ws.article(0);
  ws.engine.resolve(a.author_query(), a.msd());
  const auto outcome = ws.engine.resolve(a.author_title_query(), a.msd());
  EXPECT_FALSE(outcome.cache_hit);
}

TEST(Lookup, CacheEliminatesRepeatNonIndexedErrors) {
  World w{SchemeKind::kSimple, CachePolicy::kSingle};
  const auto& a = w.article(0);
  const auto first = w.engine.resolve(a.author_year_query(), a.msd());
  EXPECT_TRUE(first.non_indexed);
  const auto second = w.engine.resolve(a.author_year_query(), a.msd());
  EXPECT_FALSE(second.non_indexed);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.interactions, 2);
}

TEST(Lookup, LruEvictionBringsErrorsBack) {
  World w{SchemeKind::kSimple, CachePolicy::kLru, /*cache_capacity=*/1};
  const auto& a = w.article(0);
  w.engine.resolve(a.author_year_query(), a.msd());
  // Displace the shortcut: with capacity 1, any newer entry on the same node
  // evicts the author+year shortcut.
  const Id node = w.service.node_for(a.author_year_query());
  query::QueryInterner& pool = w.service.interner();
  w.service.state_at(node).cache().insert(
      pool.intern(query::Query::parse("/article/title/Filler")), pool.intern(a.msd()));
  EXPECT_EQ(w.service.state_at(node).cache().size(), 1u);
  const auto again = w.engine.resolve(a.author_year_query(), a.msd());
  EXPECT_TRUE(again.non_indexed);
  EXPECT_TRUE(again.found);
}

TEST(Lookup, CacheTrafficAccounted) {
  World w{SchemeKind::kSimple, CachePolicy::kSingle};
  const auto& a = w.article(0);
  w.ledger.reset();
  w.engine.resolve(a.author_query(), a.msd());
  EXPECT_GT(w.ledger.cache.bytes(), 0u);  // shortcut creation
  const auto before_hit = w.ledger.cache.bytes();
  w.engine.resolve(a.author_query(), a.msd());
  EXPECT_GT(w.ledger.cache.bytes(), before_hit);  // hit response counts as cache traffic
}

TEST(Lookup, FlatRespondsWithWholeResultSet) {
  // Response traffic for an author query in flat includes the MSDs of all
  // the author's articles, not just the target's.
  World w{SchemeKind::kFlat};
  const biblio::Article* prolific = nullptr;
  std::size_t best = 1;
  for (const auto& a : w.corpus->articles()) {
    const auto works = w.corpus->by_author(a.first_name, a.last_name);
    if (works.size() > best) {
      best = works.size();
      prolific = &a;
    }
  }
  ASSERT_NE(prolific, nullptr);
  w.ledger.reset();
  w.engine.resolve(prolific->author_query(), prolific->msd());
  EXPECT_GT(w.ledger.responses.bytes(),
            best * (prolific->msd().byte_size() / 2));
}

TEST(Lookup, FailsCleanlyWhenQueryDoesNotCoverTarget) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(0);
  const auto& b = w.article(1);
  ASSERT_NE(a.title, b.title);
  const auto outcome = w.engine.resolve(a.title_query(), b.msd());
  EXPECT_FALSE(outcome.found);
  // A clean miss is not a failure of the machinery: the budget was not
  // exhausted and every node answered.
  EXPECT_FALSE(outcome.gave_up);
  EXPECT_FALSE(outcome.unreachable);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_EQ(outcome.rpc_failures, 0);
}

TEST(Lookup, ExhaustedInteractionBudgetSetsGaveUpNotCleanMiss) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(0);
  // The author chain needs 3 interactions; allow only 2.
  LookupEngine strict{w.service, w.store, {CachePolicy::kNone, /*max_interactions=*/2}};
  const auto outcome = strict.resolve(a.author_query(), a.msd());
  EXPECT_FALSE(outcome.found);
  EXPECT_TRUE(outcome.gave_up);
  EXPECT_FALSE(outcome.unreachable);
  EXPECT_EQ(outcome.interactions, 2);

  // The same session with enough budget succeeds and clears the flag.
  const auto relaxed = w.engine.resolve(a.author_query(), a.msd());
  EXPECT_TRUE(relaxed.found);
  EXPECT_FALSE(relaxed.gave_up);
}

// A session resolves its two queries to their interned instances once and
// compares pointers from then on (DESIGN.md section 10). An MSD nobody
// published is not in the pool, so these sessions take the fallback paths.

TEST(Lookup, StoredButUnpublishedMsdIsFoundDirectly) {
  net::TrafficLedger ledger;
  dht::Ring ring = dht::Ring::with_nodes(25);
  storage::DhtStore store{ring, ledger};
  IndexService service{ring, ledger};
  biblio::CorpusConfig config;
  config.articles = 3;
  config.authors = 2;
  const biblio::Corpus corpus = biblio::Corpus::generate(config);
  const biblio::Article& a = corpus.article(0);
  store.put(a.msd().key(),
            IndexBuilder::file_record(a.descriptor(), a.file_name(), a.file_bytes));
  ASSERT_EQ(service.interner().find_existing(a.msd()), nullptr);

  LookupEngine engine{service, store, {CachePolicy::kSingle}};
  const LookupOutcome outcome = engine.resolve(a.msd(), a.msd());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.interactions, 1);
  EXPECT_FALSE(outcome.cache_hit);
  EXPECT_EQ(service.totals().cached_entries, 0u);
}

TEST(Lookup, UnpublishedUnstoredMsdIsACleanMiss) {
  World w{SchemeKind::kSimple, CachePolicy::kSingle};
  const auto& a = w.article(0);
  // A real session first, so the author query's node caches a shortcut and
  // the miss below probes a non-empty bucket.
  ASSERT_TRUE(w.engine.resolve(a.author_query(), a.msd()).found);
  ASSERT_EQ(w.service.totals().cached_entries, 1u);

  Query unpublished = a.author_query();
  unpublished.add_field("title", "A title nobody published").add_field("year", "1899");
  ASSERT_TRUE(a.author_query().covers(unpublished));
  ASSERT_EQ(w.service.interner().find_existing(unpublished), nullptr);
  const std::size_t pooled = w.service.interner().size();

  const LookupOutcome outcome = w.engine.resolve(a.author_query(), unpublished);
  EXPECT_FALSE(outcome.found);
  EXPECT_FALSE(outcome.gave_up);
  EXPECT_FALSE(outcome.unreachable);
  EXPECT_FALSE(outcome.cache_hit);
  EXPECT_FALSE(outcome.non_indexed);
  EXPECT_EQ(outcome.interactions, 1);
  EXPECT_EQ(w.service.interner().size(), pooled);
  EXPECT_EQ(w.service.totals().cached_entries, 1u);
}

TEST(Lookup, SearchAllFindsAllArticlesOfAnAuthor) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(0);
  const auto works = w.corpus->by_author(a.first_name, a.last_name);
  const auto results = w.engine.search_all(a.author_query());
  ASSERT_EQ(results.size(), works.size());
  for (const auto* article : works) {
    EXPECT_NE(std::find(results.begin(), results.end(), article->msd()), results.end());
  }
}

TEST(Lookup, SearchAllOnMsdReturnsItself) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(3);
  const auto results = w.engine.search_all(a.msd());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], a.msd());
}

TEST(Lookup, SearchAllOnUnknownQueryIsEmpty) {
  World w{SchemeKind::kSimple};
  EXPECT_TRUE(w.engine.search_all(Query::parse("/article/author/last/Nobody")).empty());
}

TEST(Lookup, SearchAllWorksAcrossSchemes) {
  for (const SchemeKind scheme :
       {SchemeKind::kSimple, SchemeKind::kFlat, SchemeKind::kComplex}) {
    World w{scheme};
    const auto& a = w.article(5);
    const auto results = w.engine.search_all(a.conference_year_query());
    EXPECT_FALSE(results.empty()) << to_string(scheme);
    EXPECT_NE(std::find(results.begin(), results.end(), a.msd()), results.end());
  }
}

TEST(Lookup, VisitedNodesMatchResponsibleNodes) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(0);
  const auto outcome = w.engine.resolve(a.author_query(), a.msd());
  ASSERT_EQ(outcome.visited_nodes.size(), 3u);
  EXPECT_EQ(outcome.visited_nodes[0], w.ring.successor(a.author_query().key()));
  EXPECT_EQ(outcome.visited_nodes[1], w.ring.successor(a.author_title_query().key()));
  EXPECT_EQ(outcome.visited_nodes[2], w.ring.successor(a.msd().key()));
}

/// Records the shortcut installs of a session. With a multi-placement policy
/// there is one per query the walk asked, in walk order.
class AskedQueries : public CacheDeltaRecorder {
 public:
  void record(CacheDeltaKind kind, const Id&, const Query& source, const Query&) override {
    if (kind == CacheDeltaKind::kInstall) sources.push_back(source.canonical());
  }

  std::vector<std::string> sources;
};

TEST(Lookup, HopSelectionOverLongListMatchesCoversScan) {
  // One key with 1,000 targets that do not cover the wanted MSD and three
  // that do, inserted so both tie-break rules matter: the less specific
  // match comes first, the most specific one mid-list, and a match just as
  // specific comes last. Some of the 1,000 pass the signature filter (prefix
  // constraints add no bits), so covers() still has rejections to make.
  net::TrafficLedger ledger;
  dht::Ring ring = dht::Ring::with_nodes(25);
  storage::DhtStore store{ring, ledger};
  IndexService service{ring, ledger};
  const Query msd = Query::parse(
      "/article[author[first/Ann][last/Smith]][conf/INFOCOM][title/TCP][year/1996]");
  const Query source = Query::parse("/article/conf/INFOCOM");
  const Query less = Query::parse("/article[conf/INFOCOM][year/1996]");
  const Query most = Query::parse("/article[author/last/Smith][conf/INFOCOM][year/1996]");
  const Query tie = Query::parse("/article[conf/INFOCOM][title^=T][year/1996]");
  service.insert(source, less);
  for (int i = 0; i < 1000; ++i) {
    if (i == 500) service.insert(source, most);
    Query t = source;
    const std::string n = std::to_string(i);
    switch (i % 4) {
      case 0: t.add_field("title", "Paper " + n); break;
      case 1: t.add_field("year", std::to_string(2000 + i)); break;
      case 2: t.add_prefix("title", "P" + n); break;
      default: t.add_field("author/last", "Doe" + n).add_field("year", "1996"); break;
    }
    service.insert(source, t);
  }
  service.insert(source, tie);
  for (const Query* hop : {&less, &most, &tie}) service.insert(*hop, msd);
  store.put(msd.key(), storage::Record{"file", "tcp.pdf", 1000});

  // Reference: a plain covers() scan of the list with the same rules.
  const IndexNodeState* state = service.find_state(service.node_for(source));
  ASSERT_NE(state, nullptr);
  const std::vector<IndexNodeState::TargetRef>& targets =
      state->entry_of(service.interner().find_existing(source)).targets;
  ASSERT_EQ(targets.size(), 1003u);
  const Query* expected = nullptr;
  std::uint64_t list_bytes = 0;
  std::size_t passed_filter_only = 0;
  for (const IndexNodeState::TargetRef& ref : targets) {
    list_bytes += ref.target->byte_size();
    if (!ref.target->covers(msd)) {
      if ((ref.signature & ~msd.signature()) == 0) ++passed_filter_only;
      continue;
    }
    if (expected == nullptr ||
        ref.target->constraints().size() > expected->constraints().size()) {
      expected = ref.target;
    }
  }
  ASSERT_NE(expected, nullptr);
  EXPECT_EQ(*expected, most);
  EXPECT_GE(passed_filter_only, 250u);

  LookupEngine engine{service, store, {CachePolicy::kMulti}};
  AskedQueries asked;
  engine.set_cache_recorder(&asked);
  ledger.reset();
  const LookupOutcome outcome = engine.resolve(source, msd);
  ASSERT_TRUE(outcome.found);
  EXPECT_EQ(outcome.interactions, 3);
  EXPECT_EQ(asked.sources, (std::vector<std::string>{source.canonical(), most.canonical()}));
  // Responses: the 1,003-target list, the chosen hop's one target (the MSD)
  // and the file record.
  EXPECT_EQ(ledger.responses.messages(), 3u);
  EXPECT_EQ(ledger.responses.bytes(),
            (net::kMessageOverheadBytes + list_bytes) +
                (net::kMessageOverheadBytes + msd.byte_size()) +
                (net::kMessageOverheadBytes + std::string{"file"}.size() +
                 std::string{"tcp.pdf"}.size()));

  // lookup(q) charges the same list bytes.
  ledger.reset();
  EXPECT_EQ(service.lookup(source).targets.size(), 1003u);
  EXPECT_EQ(ledger.responses.bytes(), net::kMessageOverheadBytes + list_bytes);
}

TEST(SelectionWorkBudget, SignatureFilterPassesFewNonCoveringTargets) {
  // A work budget for target selection: the probes a lookup walk makes on a
  // streamed world, each scanning one posting list for the targets that
  // cover the wanted MSD. The signature filter must keep every covering
  // target, and at most 2% of the non-covering ones may get past it to
  // covers().
  sim::SimulationConfig config;
  config.nodes = 100;
  config.corpus.articles = 2000;
  config.scheme = SchemeKind::kSimple;
  config.streaming = true;
  config.shards = 1;
  net::TrafficLedger ledger;
  dht::Ring ring = dht::Ring::with_nodes(config.nodes);
  storage::DhtStore store{ring, ledger};
  IndexService service{ring, ledger};
  const biblio::ArticleStream stream{config.corpus};
  sim::build_streaming_world(config, ring, service, store, stream);
  const IndexingScheme scheme = IndexingScheme::make(config.scheme);

  std::size_t probes = 0;
  std::size_t scanned = 0;
  std::size_t covering = 0;
  std::size_t false_positives = 0;  // pass the filter, do not cover
  std::size_t filtered_covering = 0;  // cover, rejected by the filter
  std::vector<const Query*> sources;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Query msd = stream.article(i).msd();
    sources.clear();
    for (const Mapping& m : scheme.mappings_for(msd)) {
      const Query* source = service.interner().find_existing(m.source);
      ASSERT_NE(source, nullptr) << m.source.canonical();
      if (std::find(sources.begin(), sources.end(), source) == sources.end()) {
        sources.push_back(source);
      }
    }
    for (const Query* source : sources) {
      const IndexNodeState* state = service.find_state(service.node_for(*source));
      ASSERT_NE(state, nullptr) << source->canonical();
      ++probes;
      for (const IndexNodeState::TargetRef& ref : state->entry_of(source).targets) {
        ++scanned;
        const bool passes = (ref.signature & ~msd.signature()) == 0;
        if (ref.target->covers(msd)) {
          ++covering;
          if (!passes) ++filtered_covering;
        } else if (passes) {
          ++false_positives;
        }
      }
    }
  }
  const std::string counts = std::to_string(probes) + " probes, " + std::to_string(scanned) +
                             " targets, " + std::to_string(covering) + " covering, " +
                             std::to_string(false_positives) + " false positives, " +
                             std::to_string(filtered_covering) + " covering filtered";
  ASSERT_GT(probes, stream.size()) << counts;
  EXPECT_EQ(filtered_covering, 0u) << counts;
  EXPECT_LE(false_positives * 50, scanned - covering) << counts;
}

TEST(ApplyCacheDelta, ChargesAndPostsOnlyWhenAnInstallCreatesTheEntry) {
  // The one apply rule, driven directly. In a deferred epoch a session can
  // touch an entry that an earlier session's delta evicted before the apply
  // sub-phase ran; its install must then re-create the entry, which is why
  // create_shortcuts re-installs a pair the session just touched.
  net::TrafficLedger ledger;
  dht::Ring ring = dht::Ring::with_nodes(4);
  IndexService service{ring, ledger, /*cache_capacity=*/1};
  net::EventQueueTransport transport;
  net::MessageBus bus{transport};
  service.set_bus(&bus);
  query::QueryInterner& pool = service.interner();
  const Query* a = pool.intern(Query::parse("/article/author/last/Smith"));
  const Query* b = pool.intern(Query::parse("/article/conf/INFOCOM"));
  const Query* m1 = pool.intern(Query::parse(
      "/article[author[first/Ann][last/Smith]][conf/INFOCOM][title/TCP][year/1996]"));
  const Query* m2 = pool.intern(Query::parse(
      "/article[author[first/Bo][last/Li]][conf/INFOCOM][title/UDP][year/1997]"));
  const Id node = ring.node_ids().front();
  IndexNodeState& state = service.state_at(node);
  const ShortcutCache& cache = state.cache();
  const std::uint64_t install_a_m1 =
      a->byte_size() + m1->byte_size() + net::kMessageOverheadBytes;

  apply_cache_delta(service, node, state, CacheDeltaKind::kInstall, a, m1);
  apply_cache_delta(service, node, state, CacheDeltaKind::kInstall, b, m2);  // evicts (a, m1)
  ASSERT_FALSE(cache.contains(a, m1));
  ASSERT_EQ(bus.posts(), 2u);

  // (1) A touch of the evicted pair is a no-op; the install after it
  // re-creates the pair and charges it once.
  std::uint64_t bytes = ledger.cache.bytes();
  std::uint64_t messages = ledger.cache.messages();
  apply_cache_delta(service, node, state, CacheDeltaKind::kTouch, a, m1);
  EXPECT_FALSE(cache.contains(a, m1));
  EXPECT_EQ(ledger.cache.bytes(), bytes);
  EXPECT_EQ(bus.posts(), 2u);
  apply_cache_delta(service, node, state, CacheDeltaKind::kInstall, a, m1);
  EXPECT_TRUE(cache.contains(a, m1));
  EXPECT_EQ(ledger.cache.bytes(), bytes + install_a_m1);
  EXPECT_EQ(ledger.cache.messages(), messages + 1);
  EXPECT_EQ(bus.posts(), 3u);

  // (2) An install of a pair already present charges nothing and posts no
  // frame.
  bytes = ledger.cache.bytes();
  messages = ledger.cache.messages();
  apply_cache_delta(service, node, state, CacheDeltaKind::kInstall, a, m1);
  EXPECT_TRUE(cache.contains(a, m1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(ledger.cache.bytes(), bytes);
  EXPECT_EQ(ledger.cache.messages(), messages);
  EXPECT_EQ(bus.posts(), 3u);

  // (3) An erase of an absent pair -- an evicted one, or an unknown target
  // under a cached source -- is a no-op.
  const std::uint64_t evictions = cache.evictions();
  apply_cache_delta(service, node, state, CacheDeltaKind::kInvalidate, b, m2);
  apply_cache_delta(service, node, state, CacheDeltaKind::kInvalidate, a, m2);
  EXPECT_TRUE(cache.contains(a, m1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), evictions);
  EXPECT_EQ(ledger.cache.bytes(), bytes);
  EXPECT_EQ(bus.posts(), 3u);
  bus.sync();
  EXPECT_EQ(bus.pending_posts(), 0u);
}

}  // namespace
}  // namespace dhtidx::index
