// Ablation: how popularity skew drives the adaptive cache.
//
// The paper's caching results hinge on the power-law workload ("the most
// popular files are well represented in the caches"). This ablation sweeps
// the power-law exponent alpha of the popularity CDF F(i) ~ c * i^alpha --
// smaller alpha = heavier head = more skew -- and reports hit ratio and
// interactions. As skew vanishes (alpha -> 1 approaches near-uniform mass),
// the cache should lose most of its value.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"

using namespace dhtidx;
using namespace dhtidx::bench;

int main(int argc, char** argv) {
  const BenchOptions options = parse_options(argc, argv);
  banner("Ablation: popularity skew vs. cache effectiveness (simple, single-cache)");
  sim::SimulationConfig base = paper_config();
  // Smaller run: this is a sensitivity sweep, not a headline figure.
  base.queries = 20000;
  base.corpus.articles = 5000;
  base.corpus.authors = 1500;
  const biblio::Corpus corpus = biblio::Corpus::generate(base.corpus);

  struct Point {
    const char* label;
    double alpha;
  };
  // c is re-derived so that F(n) is ~1 before normalization.
  const Point points[] = {
      {"alpha=0.15 (extreme skew)", 0.15},
      {"alpha=0.30 (paper fit)", 0.30},
      {"alpha=0.50", 0.50},
      {"alpha=0.70", 0.70},
      {"alpha=0.95 (mild skew)", 0.95},
  };

  std::vector<sim::SimulationConfig> cells;
  for (const Point& p : points) {
    sim::SimulationConfig config = base;
    config.scheme = index::SchemeKind::kSimple;
    config.policy = index::CachePolicy::kSingle;
    config.popularity_alpha = p.alpha;
    config.popularity_c =
        1.0 / std::pow(static_cast<double>(config.corpus.articles), p.alpha);
    cells.push_back(config);
  }
  const biblio::Corpus* run_corpus = apply_shards(cells, &corpus, options);
  const auto results = run_cells("ablation_skew", cells, run_corpus, options);

  std::printf("%-28s %10s %14s %14s %12s\n", "popularity", "hit ratio", "interactions",
              "normal B/q", "errors");
  for (std::size_t i = 0; i < std::size(points); ++i) {
    const sim::SimulationResults& r = results[i].results;
    std::printf("%-28s %9.1f%% %14.2f %14.0f %12zu\n", points[i].label, 100.0 * r.hit_ratio,
                r.avg_interactions, r.normal_traffic_per_query, r.non_indexed_queries);
  }
  std::printf(
      "\nExpected shape: hit ratio and the error reduction shrink monotonically\n"
      "as the workload flattens; with the paper's alpha=0.3 the cache serves\n"
      "the majority of requests.\n");
  return 0;
}
