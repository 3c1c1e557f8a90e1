// Figure 7: distribution of the types of queries extracted from BibFinder's
// log (9,108 queries). The paper reduces this log to the categorical model of
// Section V-C; this bench prints the Figure 7 breakdown, the reduced
// simulation model, and the empirical mix produced by the query generator.
#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "biblio/corpus.hpp"
#include "workload/generator.hpp"
#include "workload/structure.hpp"

using namespace dhtidx;
using namespace dhtidx::bench;

int main(int argc, char** argv) {
  // Common CLI only: this exhibit observes one sequential generator stream,
  // so there are no independent cells for --jobs to spread out.
  parse_options(argc, argv, "this exhibit builds no world to stream");
  banner("Figure 7: Most used query types (BibFinder log, 9,108 queries)");
  std::printf("%-22s %8s   bar\n", "query type", "share");
  for (const auto& type : workload::bibfinder_query_types()) {
    std::printf("%-22s %7.1f%%   ", type.fields.c_str(), 100.0 * type.fraction);
    const int blocks = static_cast<int>(type.fraction * 80);
    for (int i = 0; i < blocks; ++i) std::printf("#");
    std::printf("\n");
  }

  banner("Reduced simulation model (Section V-C)");
  const workload::StructureModel model;
  row("structure", {"model", "observed"});
  // Observe 50,000 generated queries, the paper's feed size.
  biblio::CorpusConfig corpus_config = paper_config().corpus;
  corpus_config.articles = 2000;  // structure mix is corpus-independent
  const biblio::Corpus corpus = biblio::Corpus::generate(corpus_config);
  workload::QueryGenerator generator{corpus, 7};
  std::map<workload::QueryStructure, int> counts;
  constexpr int kQueries = 50000;
  for (int i = 0; i < kQueries; ++i) ++counts[generator.next().structure];
  for (const workload::QueryStructure s : workload::kAllStructures) {
    row(to_string(s), {fmt_pct(model.probability(s)),
                       fmt_pct(counts[s] / static_cast<double>(kQueries))});
  }
  std::printf(
      "\nBoth logs agree that author is the dominant field, then title, then\n"
      "publication date -- the model reproduces that mix.\n");
  return 0;
}
