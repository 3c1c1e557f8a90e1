// Ablation: index hierarchy depth (Section IV-C).
//
// "The length of the index paths that lead to a given file is arbitrary,
// although it directly affects the lookup time. Less popular content may be
// indexed using a deeper index hierarchy, to reduce space and bandwidth."
// We build custom schemes with author chains of depth 1..4 and measure the
// interaction/traffic trade-off, plus the effect of short-circuit entries
// for the most popular articles.
#include <cstdio>

#include "bench_util.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"
#include "workload/generator.hpp"

using namespace dhtidx;
using namespace dhtidx::bench;

namespace {

// Author-path schemes of increasing depth; conf/year handled as in simple.
index::IndexingScheme depth_scheme(int depth) {
  using index::FieldRule;
  std::vector<FieldRule> rules;
  switch (depth) {
    case 1:  // author -> MSD (flat author path)
      rules.push_back({{"author"}, {}, true});
      break;
    case 2:  // author -> author+title -> MSD (simple)
      rules.push_back({{"author"}, {"author", "title"}, false});
      rules.push_back({{"author", "title"}, {}, true});
      break;
    case 3:  // author -> author+conf -> author+conf+year -> MSD (complex)
      rules.push_back({{"author"}, {"author", "conf"}, false});
      rules.push_back({{"author", "conf"}, {"author", "conf", "year"}, false});
      rules.push_back({{"author", "conf", "year"}, {}, true});
      break;
    case 4:  // author -> +conf -> +year -> +title -> MSD
      rules.push_back({{"author"}, {"author", "conf"}, false});
      rules.push_back({{"author", "conf"}, {"author", "conf", "year"}, false});
      rules.push_back({{"author", "conf", "year"}, {"author", "conf", "year", "title"}, false});
      rules.push_back({{"author", "conf", "year", "title"}, {}, true});
      break;
  }
  rules.push_back({{"title"}, {"author", "title"}, false});
  rules.push_back({{"author", "title"}, {}, true});
  rules.push_back({{"conf"}, {"conf", "year"}, false});
  rules.push_back({{"year"}, {"conf", "year"}, false});
  rules.push_back({{"conf", "year"}, {}, true});
  return index::IndexingScheme{"depth-" + std::to_string(depth), std::move(rules)};
}

struct Measurement {
  double interactions;
  double normal_bytes;
  std::uint64_t index_bytes;
};

Measurement measure(const index::IndexingScheme& scheme, const biblio::Corpus& corpus,
                    bool shortcircuit_top, std::size_t queries) {
  dht::Ring ring = dht::Ring::with_nodes(200);
  net::TrafficLedger ledger;
  storage::DhtStore store{ring, ledger};
  index::IndexService service{ring, ledger};
  index::IndexBuilder builder{service, store, scheme};
  for (const auto& a : corpus.articles()) {
    builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
  }
  if (shortcircuit_top) {
    // Short-circuit the 100 most popular articles: author query -> MSD.
    for (std::size_t i = 0; i < 100 && i < corpus.size(); ++i) {
      const auto& a = corpus.article(i);
      builder.add_shortcircuit(a.author_query(), a.msd());
    }
  }
  ledger.reset();

  index::LookupEngine engine{service, store, {index::CachePolicy::kNone}};
  workload::QueryGenerator generator{corpus, 7};
  std::uint64_t interactions = 0;
  for (std::size_t i = 0; i < queries; ++i) {
    const auto request = generator.next();
    const auto outcome =
        engine.resolve(request.query, corpus.article(request.article_index).msd());
    interactions += static_cast<std::uint64_t>(outcome.interactions);
  }
  Measurement m;
  m.interactions = static_cast<double>(interactions) / static_cast<double>(queries);
  m.normal_bytes = static_cast<double>(ledger.normal_bytes()) / static_cast<double>(queries);
  m.index_bytes = service.totals().bytes;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options =
      parse_options(argc, argv, "its custom-depth schemes have no streaming world");
  banner("Ablation: index hierarchy depth (author path depth 1-4)");
  biblio::CorpusConfig corpus_config = paper_config().corpus;
  corpus_config.articles = 4000;
  corpus_config.authors = 1300;
  const biblio::Corpus corpus = biblio::Corpus::generate(corpus_config);
  constexpr std::size_t kQueries = 15000;

  // These cells build custom schemes rather than SimulationConfigs, so they
  // go through the sweep runner's generic worker pool: each measurement owns
  // its whole world and only shares the read-only corpus.
  struct Cell {
    int depth;
    bool shortcircuit;
  };
  const Cell plan[] = {{1, false}, {2, false}, {3, false}, {4, false},
                       {3, false}, {3, true}};
  std::vector<Measurement> measured(std::size(plan));
  sim::parallel_for(options.jobs, std::size(plan), [&](std::size_t i) {
    measured[i] = measure(depth_scheme(plan[i].depth), corpus, plan[i].shortcircuit,
                          kQueries);
  });

  std::printf("%-10s %13s %12s %12s\n", "depth", "interactions", "normal B/q",
              "index bytes");
  for (int depth = 1; depth <= 4; ++depth) {
    const Measurement& m = measured[depth - 1];
    std::printf("%-10d %13.2f %12.0f %12llu\n", depth, m.interactions, m.normal_bytes,
                static_cast<unsigned long long>(m.index_bytes));
  }

  banner("Short-circuit entries for popular content (Section IV-C)");
  const Measurement& plain = measured[4];
  const Measurement& boosted = measured[5];
  std::printf("%-24s %13s %12s\n", "variant", "interactions", "normal B/q");
  std::printf("%-24s %13.2f %12.0f\n", "depth-3", plain.interactions, plain.normal_bytes);
  std::printf("%-24s %13.2f %12.0f\n", "depth-3 + shortcircuits", boosted.interactions,
              boosted.normal_bytes);
  std::printf(
      "\nExpected shape: deeper hierarchies trade more interactions for smaller\n"
      "result sets (less traffic); short-circuiting the popular articles wins\n"
      "back much of the interaction cost without flattening the whole index.\n");
  return 0;
}
