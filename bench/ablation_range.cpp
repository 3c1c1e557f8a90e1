// Ablation: interval (range) queries.
//
// Both query logs the paper studies support publication-date intervals
// ("published before/after a given year"). The DHT resolves exact keys only,
// so ranges expand client-side into one sub-query per year. This bench
// sweeps the interval width and reports cost (interactions = sub-queries
// issued, traffic) and result-set size, for the simple scheme.
#include <cstdio>

#include "bench_util.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"

using namespace dhtidx;
using namespace dhtidx::bench;

int main(int argc, char** argv) {
  // Common CLI only: every interval reuses one mutable index service and its
  // shared ledger (resets between measurements), so the cells are inherently
  // sequential and --jobs has nothing to parallelize here.
  parse_options(argc, argv, "its intervals share one materialized index service");
  banner("Ablation: year-interval queries (client-side range expansion)");
  biblio::CorpusConfig corpus_config = paper_config().corpus;
  corpus_config.articles = 5000;
  corpus_config.authors = 1600;
  const biblio::Corpus corpus = biblio::Corpus::generate(corpus_config);

  dht::Ring ring = dht::Ring::with_nodes(200);
  net::TrafficLedger ledger;
  storage::DhtStore store{ring, ledger};
  index::IndexService service{ring, ledger};
  index::IndexBuilder builder{service, store, index::IndexingScheme::simple()};
  for (const auto& a : corpus.articles()) {
    builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
  }

  index::LookupEngine engine{service, store, {index::CachePolicy::kNone}};
  std::printf("%-22s %10s %14s %14s\n", "interval", "results", "traffic (B)",
              "per result (B)");
  for (const int width : {1, 2, 4, 8, 16, 24}) {
    const int hi = corpus_config.last_year;
    const int lo = hi - width + 1;
    ledger.reset();
    const auto results =
        engine.search_range(query::Query{"article"}, "year", lo, hi);
    const double traffic = static_cast<double>(ledger.normal_bytes());
    std::printf("%d-%-17d %10zu %14.0f %14.1f\n", lo, hi, results.size(), traffic,
                results.empty() ? 0.0 : traffic / static_cast<double>(results.size()));
  }

  std::printf(
      "\nAnd composed with an author (the common 'author, published after X'\n"
      "query; author+year is not indexed, so each sub-query generalizes):\n");
  const auto& a = corpus.article(0);
  std::printf("%-22s %10s %14s\n", "interval", "results", "traffic (B)");
  for (const int width : {1, 4, 12, 24}) {
    const int hi = corpus_config.last_year;
    const int lo = hi - width + 1;
    ledger.reset();
    const auto results = engine.search_range(a.author_query(), "year", lo, hi);
    std::printf("%d-%-17d %10zu %14.0f\n", lo, hi, results.size(),
                static_cast<double>(ledger.normal_bytes()));
  }
  std::printf(
      "\nExpected shape: cost grows linearly with interval width (one DHT\n"
      "sub-query per year); per-result overhead falls as intervals widen.\n");
  return 0;
}
