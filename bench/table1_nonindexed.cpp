// Table I: number of queries to non-indexed data (recoverable errors) per
// indexing scheme and cache policy. In this workload these are the
// author+year queries (5% of 50,000), which no scheme indexes directly.
#include <cstdio>

#include "bench_util.hpp"

using namespace dhtidx;
using namespace dhtidx::bench;

int main(int argc, char** argv) {
  const BenchOptions options = parse_options(argc, argv);
  banner("Table I: Number of queries to non-indexed data");
  sim::SimulationConfig base = paper_config();
  const biblio::Corpus corpus = biblio::Corpus::generate(base.corpus);

  struct Policy {
    std::string label;
    index::CachePolicy policy;
    std::size_t capacity;
    const char* paper;  // paper's simple/flat/complex reference values
  };
  const Policy policies[] = {
      {"No cache", index::CachePolicy::kNone, 0, "2502 / 2507 / 2506"},
      {"LRU30", index::CachePolicy::kLru, 30, " 810 /  874 /  838"},
      {"Single-cache", index::CachePolicy::kSingle, 0, " 563 /  600 /  581"},
  };

  std::vector<sim::SimulationConfig> cells;
  for (const Policy& p : policies) {
    for (const index::SchemeKind scheme :
         {index::SchemeKind::kSimple, index::SchemeKind::kFlat, index::SchemeKind::kComplex}) {
      sim::SimulationConfig config = base;
      config.scheme = scheme;
      config.policy = p.policy;
      config.cache_capacity = p.capacity;
      cells.push_back(config);
    }
  }
  const biblio::Corpus* run_corpus = apply_shards(cells, &corpus, options);
  const auto results = run_cells("table1_nonindexed", cells, run_corpus, options);

  std::printf("%-14s %8s %8s %8s   %s\n", "policy", "simple", "flat", "complex",
              "paper (S/F/C)");
  std::size_t cell = 0;
  for (const Policy& p : policies) {
    std::printf("%-14s", p.label.c_str());
    for (int s = 0; s < 3; ++s) {
      std::printf(" %8zu", results[cell++].results.non_indexed_queries);
    }
    std::printf("   %s\n", p.paper);
  }
  std::printf(
      "\nPaper reference (Table I): ~2500 errors without cache (the 5%% of\n"
      "author+year queries); caching cuts them to ~560-600 (single) and\n"
      "~810-874 (LRU30) because a shortcut is created after the first\n"
      "generalization-based lookup. One extra interaction is generally\n"
      "needed per error.\n");
  return 0;
}
