// Section V-B: index storage cost.
//
// The paper reports, for the full 115,879-article DBLP collection: simple
// needs 152 MB of extra storage, complex ~25% more, flat ~37% more; storing
// the articles themselves (~250 KB average) takes 29.1 GB, so indexes cost at
// most ~0.5% extra. We build all three indexes over the 10,000-article
// simulation corpus, report measured bytes, and extrapolate linearly to the
// DBLP collection size.
#include <cstdio>

#include "bench_util.hpp"
#include "common/bytes.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"

using namespace dhtidx;
using namespace dhtidx::bench;

int main(int argc, char** argv) {
  const BenchOptions options =
      parse_options(argc, argv, "its indexes are built with IndexBuilder::index_file");
  banner("Section V-B: Index storage requirements");
  const sim::SimulationConfig base = paper_config();
  const biblio::Corpus corpus = biblio::Corpus::generate(base.corpus);

  struct Result {
    std::string name;
    std::uint64_t index_bytes;
    std::size_t mappings;
    std::size_t keys;
    std::uint64_t data_bytes;
  };
  const index::SchemeKind kinds[] = {index::SchemeKind::kSimple, index::SchemeKind::kFlat,
                                     index::SchemeKind::kComplex};
  std::vector<Result> results(std::size(kinds));

  // Index-construction cells: one independent build per scheme, sharing only
  // the read-only corpus, so they run on the sweep runner's worker pool.
  sim::parallel_for(options.jobs, std::size(kinds), [&](std::size_t i) {
    dht::Ring ring = dht::Ring::with_nodes(base.nodes);
    net::TrafficLedger ledger;
    storage::DhtStore store{ring, ledger};
    index::IndexService service{ring, ledger};
    index::IndexBuilder builder{service, store, index::IndexingScheme::make(kinds[i])};
    for (const auto& article : corpus.articles()) {
      builder.index_file(article.descriptor(), article.file_name(), article.file_bytes);
    }
    const auto totals = service.totals();
    results[i] = {index::to_string(kinds[i]), totals.bytes, totals.mappings, totals.keys,
                  store.total_bytes()};
  });

  const double simple_bytes = static_cast<double>(results[0].index_bytes);
  const double scale = 115879.0 / static_cast<double>(corpus.size());

  row("scheme", {"index bytes", "mappings", "keys", "vs simple", "extrapolated"});
  for (const Result& r : results) {
    const double rel = 100.0 * (static_cast<double>(r.index_bytes) / simple_bytes - 1.0);
    char relbuf[32];
    std::snprintf(relbuf, sizeof relbuf, "%+.1f%%", rel);
    row(r.name, {format_bytes(r.index_bytes), fmt_int(r.mappings), fmt_int(r.keys), relbuf,
                 format_bytes(static_cast<std::uint64_t>(static_cast<double>(r.index_bytes) * scale))});
  }

  const double data_bytes = static_cast<double>(results[0].data_bytes);
  std::printf("\nStored article data (10,000 files, ~250 KB mean): %s\n",
              format_bytes(results[0].data_bytes).c_str());
  std::printf("Extrapolated to the DBLP archive (115,879 articles): %s (paper: 29.1 GB)\n",
              format_bytes(static_cast<std::uint64_t>(data_bytes * scale)).c_str());
  for (const Result& r : results) {
    std::printf("  %-8s index overhead vs stored data: %.3f%%\n", r.name.c_str(),
                100.0 * static_cast<double>(r.index_bytes) / data_bytes);
  }
  std::printf(
      "\nPaper reference: simple 152 MB; complex +25%%; flat +37%%; index cost\n"
      "<= 0.5%% of the stored articles. Expected shape: simple cheapest, flat\n"
      "most expensive, overhead well under 1%% of the data.\n");
  return 0;
}
