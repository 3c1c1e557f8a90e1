// Micro-benchmarks for the primitive operations every lookup is built from:
// hashing, query parsing/normalization, the covering test, substrate
// resolution, index operations and cache operations -- plus the composite
// hot paths (full iterated-lookup walk, shortcut-cache hit/miss, publish
// and republish) whose before/after numbers are tracked in BENCH_PR5.json.
//
// Besides the usual console table, the binary emits one line per benchmark
// in the repo's one-line JSON summary format (src/common/json.hpp), so runs
// can be appended to the BENCH_*.json perf trajectory:
//   {"bench":"micro_primitives","name":"BM_...","ns_per_op":...,"iterations":...}
#include <benchmark/benchmark.h>

#include "biblio/corpus.hpp"
#include "biblio/stream.hpp"
#include "common/json.hpp"
#include "common/sha1.hpp"
#include "dht/chord.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"
#include "net/codec.hpp"
#include "query/interner.hpp"
#include "query/query.hpp"
#include "workload/streaming.hpp"

namespace {

using namespace dhtidx;

void BM_Sha1Hash(benchmark::State& state) {
  const std::string input(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(input));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha1Hash)->Arg(64)->Arg(1024)->Arg(65536);

void BM_QueryParse(benchmark::State& state) {
  const std::string text =
      "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM][year/1989]";
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::Query::parse(text));
  }
}
BENCHMARK(BM_QueryParse);

void BM_QueryCanonicalAndKey(benchmark::State& state) {
  for (auto _ : state) {
    query::Query q{"article"};
    q.add_field("author/first", "John").add_field("author/last", "Smith");
    q.add_field("conf", "SIGCOMM");
    benchmark::DoNotOptimize(q.key());
  }
}
BENCHMARK(BM_QueryCanonicalAndKey);

// The repeated-key pattern of a lookup walk: the same query object is hashed
// at every hop (service contact, storage fetch, cache probes). With key
// memoization this is a cached read after the first call.
void BM_QueryKeyRepeated(benchmark::State& state) {
  const query::Query q = query::Query::parse(
      "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM][year/1989]");
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.key());
  }
}
BENCHMARK(BM_QueryKeyRepeated);

void BM_QueryCovers(benchmark::State& state) {
  const query::Query broad = query::Query::parse("/article/author/last/Smith");
  const query::Query specific = query::Query::parse(
      "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM][year/1989]");
  for (auto _ : state) {
    benchmark::DoNotOptimize(broad.covers(specific));
  }
}
BENCHMARK(BM_QueryCovers);

void BM_QueryMatches(benchmark::State& state) {
  biblio::Article a;
  a.first_name = "John";
  a.last_name = "Smith";
  a.title = "TCP";
  a.conference = "SIGCOMM";
  a.year = 1989;
  a.file_bytes = 1;
  const xml::Element doc = a.descriptor();
  const query::Query q = query::Query::parse("/article/author/last/Smith");
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.matches(doc));
  }
}
BENCHMARK(BM_QueryMatches);

// Streaming generators (biblio/stream.hpp, workload/streaming.hpp): the cost
// of synthesizing one article / one query request from its counter. This is
// the per-item overhead a streaming cell pays instead of materializing the
// workload up front.
void BM_StreamArticle(benchmark::State& state) {
  static const biblio::ArticleStream stream{biblio::CorpusConfig{}};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream.article(i++ % stream.size()));
  }
}
BENCHMARK(BM_StreamArticle);

void BM_StreamRequest(benchmark::State& state) {
  static const biblio::ArticleStream stream{biblio::CorpusConfig{}};
  static const workload::StreamingWorkload workload{stream, 7};
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.request_at(i++));
  }
}
BENCHMARK(BM_StreamRequest);

void BM_RingLookup(benchmark::State& state) {
  dht::Ring ring = dht::Ring::with_nodes(static_cast<std::size_t>(state.range(0)));
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.lookup(Id::from_uint64(i++ * 0x9E3779B97F4A7C15ull)));
  }
}
BENCHMARK(BM_RingLookup)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ChordLookup(benchmark::State& state) {
  dht::ChordNetwork net{3};
  for (int i = 0; i < state.range(0); ++i) {
    net.add_node("n" + std::to_string(i));
    net.stabilize_round(4);
  }
  net.stabilize_until_converged();
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.lookup(Id::hash("k" + std::to_string(i++))));
  }
}
BENCHMARK(BM_ChordLookup)->Arg(32)->Arg(128);

void BM_SchemeMappings(benchmark::State& state) {
  biblio::Article a;
  a.first_name = "John";
  a.last_name = "Smith";
  a.title = "Scalable distributed indexing";
  a.conference = "ICDCS";
  a.year = 2004;
  a.file_bytes = 1;
  const query::Query msd = a.msd();
  const index::IndexingScheme scheme = index::IndexingScheme::complex();
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.mappings_for(msd));
  }
}
BENCHMARK(BM_SchemeMappings);

/// `count` pooled sources "/article/title/<prefix><i>", the refs the cache
/// benchmarks probe with.
std::vector<const query::Query*> pooled_titles(query::QueryInterner& pool,
                                               const std::string& prefix, int count) {
  std::vector<const query::Query*> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(pool.intern(query::Query::parse("/article/title/" + prefix +
                                                  std::to_string(i))));
  }
  return out;
}

void BM_ShortcutCacheInsertFind(benchmark::State& state) {
  query::QueryInterner pool;
  index::ShortcutCache cache{static_cast<std::size_t>(state.range(0))};
  const query::Query* target =
      pool.intern(query::Query::parse("/article[title=T][year=2000]"));
  const std::vector<const query::Query*> sources = pooled_titles(pool, "T", 1000);
  std::size_t i = 0;
  for (auto _ : state) {
    const query::Query* source = sources[i++ % sources.size()];
    cache.insert(source, target);
    benchmark::DoNotOptimize(cache.targets_of(source));
  }
}
BENCHMARK(BM_ShortcutCacheInsertFind)->Arg(0)->Arg(30);

// Steady-state shortcut-cache probes on pool refs, as LookupEngine::resolve
// makes them: a hit on a populated cache (contains + touch, the jump path)
// and a miss (contains + bucket_size, the non-indexed-error test) on a source
// the cache has never seen.
void BM_ShortcutCacheHit(benchmark::State& state) {
  query::QueryInterner pool;
  index::ShortcutCache cache{0};
  const query::Query* target =
      pool.intern(query::Query::parse("/article[title=T][year=2000]"));
  const std::vector<const query::Query*> sources = pooled_titles(pool, "T", 1000);
  for (const query::Query* source : sources) cache.insert(source, target);
  std::size_t i = 0;
  for (auto _ : state) {
    const query::Query* source = sources[i++ % sources.size()];
    benchmark::DoNotOptimize(cache.contains(source, target));
    cache.touch(source, target);
  }
}
BENCHMARK(BM_ShortcutCacheHit);

void BM_ShortcutCacheMiss(benchmark::State& state) {
  query::QueryInterner pool;
  index::ShortcutCache cache{0};
  const query::Query* target =
      pool.intern(query::Query::parse("/article[title=T][year=2000]"));
  for (const query::Query* source : pooled_titles(pool, "T", 1000)) {
    cache.insert(source, target);
  }
  const std::vector<const query::Query*> absent = pooled_titles(pool, "M", 1000);
  std::size_t i = 0;
  for (auto _ : state) {
    const query::Query* source = absent[i++ % absent.size()];
    benchmark::DoNotOptimize(cache.contains(source, target));
    benchmark::DoNotOptimize(cache.bucket_size(source));
  }
}
BENCHMARK(BM_ShortcutCacheMiss);

// An epoch's worth of cache deltas replayed through the apply API: the
// per-delta cost of the sharded feed's apply sub-phase, with the intern probe
// already paid during the serial intern step. Pointer-identity touch/insert
// against a live LRU list, no hashing of query text.
void BM_CacheApplyEpoch(benchmark::State& state) {
  query::QueryInterner pool;
  index::ShortcutCache cache{static_cast<std::size_t>(state.range(0))};
  const query::Query* target =
      pool.intern(query::Query::parse("/article[title=T][year=2000]"));
  const std::vector<const query::Query*> sources = pooled_titles(pool, "T", 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const query::Query* source = sources[i++ % sources.size()];
    if (!cache.insert(source, target)) {
      cache.touch(source, target);
    }
  }
}
BENCHMARK(BM_CacheApplyEpoch)->Arg(0)->Arg(30);

/// Representative wire frame for the codec benchmarks: a lookup response
/// carrying a handful of payload items, the common shape on the feed path.
net::Message bench_message() {
  net::Message m = net::Message::request(net::Action::kLookup, Id::hash("from"),
                                         Id::hash("to"));
  m.request_id = 0x1234567890ABCDEFull;
  for (int i = 0; i < 4; ++i) {
    m.payload.push_back("payload-item-" + std::to_string(i) +
                        std::string(48, 'x'));
  }
  return m;
}

// Encode into a fresh string every frame: one allocation per call, the
// event-queue and UDP send path.
void BM_EncodeFresh(benchmark::State& state) {
  const net::Message m = bench_message();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::codec::encode(m));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(net::codec::encoded_size(m)));
}
BENCHMARK(BM_EncodeFresh);

/// Shared world for the composite hot-path benchmarks: a mid-size corpus
/// fully indexed over a 100-node ring. Built once per process.
struct BenchWorld {
  biblio::Corpus corpus;
  dht::Ring ring;
  net::TrafficLedger ledger;
  storage::DhtStore store;
  index::IndexService service;
  index::IndexBuilder builder;

  explicit BenchWorld(index::IndexingScheme scheme, std::size_t skip_first = 0)
      : corpus(biblio::Corpus::generate({.articles = 1000, .authors = 300})),
        ring(dht::Ring::with_nodes(100)),
        store(ring, ledger),
        service(ring, ledger),
        builder(service, store, std::move(scheme)) {
    for (std::size_t i = skip_first; i < corpus.size(); ++i) {
      const biblio::Article& a = corpus.article(i);
      builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
    }
  }
};

void BM_IndexLookup(benchmark::State& state) {
  static BenchWorld world{index::IndexingScheme::simple()};
  std::vector<query::Query> queries;
  for (std::size_t i = 0; i < 256; ++i) {
    queries.push_back(world.corpus.article(i).author_query());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.service.lookup(queries[i++ % queries.size()]));
  }
}
BENCHMARK(BM_IndexLookup);

// One full user session per iteration: iterated lookup from the author query
// down the complex scheme's hierarchy to the MSD, file fetch included.
void BM_IteratedLookupWalk(benchmark::State& state) {
  static BenchWorld world{index::IndexingScheme::complex()};
  index::LookupEngine engine{world.service, world.store, {index::CachePolicy::kNone}};
  std::size_t i = 0;
  for (auto _ : state) {
    const biblio::Article& a = world.corpus.article(i++ % world.corpus.size());
    benchmark::DoNotOptimize(engine.resolve(a.author_query(), a.msd()));
  }
}
BENCHMARK(BM_IteratedLookupWalk);

// The walk with a warm shortcut cache: after the first session per article
// every later session jumps straight from the first node to the file.
void BM_IteratedLookupWalkCached(benchmark::State& state) {
  static BenchWorld world{index::IndexingScheme::complex()};
  index::LookupEngine engine{world.service, world.store, {index::CachePolicy::kSingle}};
  for (std::size_t i = 0; i < world.corpus.size(); ++i) {
    const biblio::Article& a = world.corpus.article(i);
    engine.resolve(a.author_query(), a.msd());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const biblio::Article& a = world.corpus.article(i++ % world.corpus.size());
    benchmark::DoNotOptimize(engine.resolve(a.author_query(), a.msd()));
  }
}
BENCHMARK(BM_IteratedLookupWalkCached);

void BM_SearchAll(benchmark::State& state) {
  static BenchWorld world{index::IndexingScheme::simple()};
  index::LookupEngine engine{world.service, world.store, {index::CachePolicy::kNone}};
  std::size_t i = 0;
  for (auto _ : state) {
    const biblio::Article& a = world.corpus.article(i++ % world.corpus.size());
    benchmark::DoNotOptimize(engine.search_all(a.author_query()));
  }
}
BENCHMARK(BM_SearchAll);

// Publish path: store the file record and register every scheme mapping,
// then remove the file again so the world stays in a steady state.
void BM_PublishRemove(benchmark::State& state) {
  static BenchWorld world{index::IndexingScheme::simple(), /*skip_first=*/1};
  const biblio::Article& a = world.corpus.article(0);
  const xml::Element descriptor = a.descriptor();
  const std::string name = a.file_name();
  for (auto _ : state) {
    world.builder.index_file(descriptor, name, a.file_bytes);
    world.builder.remove_file(descriptor);
  }
}
BENCHMARK(BM_PublishRemove);

// Republish refresh: the soft-state maintenance cadence of the churn phase.
// Every mapping already exists, so this measures the probe-and-restamp path.
void BM_RepublishRefresh(benchmark::State& state) {
  static BenchWorld world{index::IndexingScheme::simple()};
  const biblio::Article& a = world.corpus.article(0);
  const xml::Element descriptor = a.descriptor();
  std::uint64_t now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.builder.republish(descriptor, ++now));
  }
}
BENCHMARK(BM_RepublishRefresh);

void BM_ResolveAuthorQuery(benchmark::State& state) {
  biblio::CorpusConfig config;
  config.articles = 1000;
  config.authors = 300;
  const biblio::Corpus corpus = biblio::Corpus::generate(config);
  dht::Ring ring = dht::Ring::with_nodes(100);
  net::TrafficLedger ledger;
  storage::DhtStore store{ring, ledger};
  index::IndexService service{ring, ledger};
  index::IndexBuilder builder{service, store, index::IndexingScheme::simple()};
  for (const auto& a : corpus.articles()) {
    builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
  }
  index::LookupEngine engine{service, store, {index::CachePolicy::kNone}};
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = corpus.article(i++ % corpus.size());
    benchmark::DoNotOptimize(engine.resolve(a.author_query(), a.msd()));
  }
}
BENCHMARK(BM_ResolveAuthorQuery);

// Hop selection over a long posting list: one key with 1,000 targets that do
// not cover the wanted MSD, `miss(source, i)` for i < 1,000, and three that
// do. One session per iteration: contact the key and pick the next hop from
// its 1,003 targets, contact that hop, fetch the file.
void select_hop(benchmark::State& state,
                query::Query (*miss)(const query::Query& source, int i)) {
  net::TrafficLedger ledger;
  dht::Ring ring = dht::Ring::with_nodes(25);
  storage::DhtStore store{ring, ledger};
  index::IndexService service{ring, ledger};
  const query::Query msd = query::Query::parse(
      "/article[author[first/Ann][last/Smith]][conf/INFOCOM][title/TCP][year/1996]");
  const query::Query source = query::Query::parse("/article/conf/INFOCOM");
  const query::Query hops[] = {
      query::Query::parse("/article[conf/INFOCOM][year/1996]"),
      query::Query::parse("/article[author/last/Smith][conf/INFOCOM][year/1996]"),
      query::Query::parse("/article[conf/INFOCOM][title^=T][year/1996]")};
  service.insert(source, hops[0]);
  for (int i = 0; i < 1000; ++i) {
    if (i == 500) service.insert(source, hops[1]);
    service.insert(source, miss(source, i));
  }
  service.insert(source, hops[2]);
  for (const query::Query& hop : hops) service.insert(hop, msd);
  store.put(msd.key(), storage::Record{"file", "tcp.pdf", 1000});
  index::LookupEngine engine{service, store, {index::CachePolicy::kNone}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.resolve(source, msd));
  }
}

// The list of the lookup test HopSelectionOverLongListMatchesCoversScan: a
// quarter of the misses differ from the MSD only by a prefix constraint,
// which adds no signature bits, so those 250 reach covers() whatever the
// filter does.
void BM_SelectHop(benchmark::State& state) {
  select_hop(state, [](const query::Query& source, int i) {
    query::Query t = source;
    const std::string n = std::to_string(i);
    switch (i % 4) {
      case 0: t.add_field("title", "Paper " + n); break;
      case 1: t.add_field("year", std::to_string(2000 + i)); break;
      case 2: t.add_prefix("title", "P" + n); break;
      default: t.add_field("author/last", "Doe" + n).add_field("year", "1996"); break;
    }
    return t;
  });
}
BENCHMARK(BM_SelectHop);

// The scan-10x shape: every miss differs from the MSD in one exact
// constraint, so only the signature filter's false positives reach covers().
void BM_SelectHopExactList(benchmark::State& state) {
  select_hop(state, [](const query::Query& source, int i) {
    query::Query t = source;
    const std::string n = std::to_string(i);
    switch (i % 4) {
      case 0: t.add_field("title", "Paper " + n); break;
      case 1: t.add_field("year", std::to_string(2000 + i)); break;
      case 2: t.add_field("author/first", "Bo" + n).add_field("year", "1996"); break;
      default: t.add_field("author/last", "Doe" + n).add_field("year", "1996"); break;
    }
    return t;
  });
}
BENCHMARK(BM_SelectHopExactList);

// A session that hits a large shortcut bucket: one source query with 1,000
// shortcuts, inserted directly into its node's single cache. Iteration i
// wants the i-th target in turn, which is always the bucket's least recently
// used one, so a scan of the bucket would compare all 1,000 targets. The hit
// is one probe of the (source, MSD) pair.
void BM_ResolveHitLargeBucket(benchmark::State& state) {
  net::TrafficLedger ledger;
  dht::Ring ring = dht::Ring::with_nodes(25);
  storage::DhtStore store{ring, ledger};
  index::IndexService service{ring, ledger};
  const query::Query source = query::Query::parse("/article/conf/INFOCOM");
  index::ShortcutCache& cache = service.state_at(service.node_for(source)).cache();
  query::QueryInterner& pool = service.interner();
  std::vector<query::Query> msds;
  for (int i = 0; i < 1000; ++i) {
    msds.push_back(query::Query::parse("/article[conf/INFOCOM][title/T" + std::to_string(i) +
                                       "][year/1996]"));
    cache.insert(pool.intern(source), pool.intern(msds.back()));
    store.put(msds.back().key(), storage::Record{"file", "t.pdf", 1000});
  }
  index::LookupEngine engine{service, store, {index::CachePolicy::kSingle}};
  std::size_t i = 0;
  for (auto _ : state) {
    const index::LookupOutcome outcome = engine.resolve(source, msds[i++ % msds.size()]);
    if (!outcome.cache_hit) {
      state.SkipWithError("session missed the cache");
      break;
    }
  }
}
BENCHMARK(BM_ResolveHitLargeBucket);

/// Console output as usual, plus one JSON line per benchmark at the end of
/// the run (the BENCH_*.json trajectory format shared with the sweeps).
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      std::string line = "{";
      json::append_field(line, "bench", "micro_primitives");
      json::append_field(line, "name", run.benchmark_name());
      json::append_field(line, "ns_per_op", json::num(run.GetAdjustedRealTime()), false);
      json::append_field(line, "iterations", std::to_string(run.iterations), false);
      line.push_back('}');
      lines_.push_back(std::move(line));
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  }

 private:
  std::vector<std::string> lines_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
