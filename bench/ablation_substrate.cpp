// Ablation: substrate independence (Section V-E).
//
// "Simulating P2P networks of different sizes is of no use for our
// experiments... these are completely independent issues (layered
// protocols)." We verify the claim: the same experiment runs over the
// instant consistent-hashing Ring and over the full Chord protocol, and
// every indexing metric must agree; only substrate routing cost differs.
// Network-size sensitivity is checked on the Ring.
#include <cstdio>

#include "bench_util.hpp"

using namespace dhtidx;
using namespace dhtidx::bench;

int main(int argc, char** argv) {
  // Only the Ring streams (sim/sharded.hpp).
  const BenchOptions options =
      parse_options(argc, argv, "the Chord, CAN and Pastry cells cannot stream");
  banner("Ablation: Ring vs. Chord vs. CAN vs. Pastry (simple scheme, single-cache)");
  sim::SimulationConfig base = paper_config();
  // Chord at 500 nodes stabilizes slowly; the claim is scale-free, so use a
  // 100-node network and a shorter feed for the substrate comparison.
  base.nodes = 100;
  base.queries = 10000;
  base.corpus.articles = 2000;
  base.corpus.authors = 700;
  base.scheme = index::SchemeKind::kSimple;
  base.policy = index::CachePolicy::kSingle;
  const biblio::Corpus corpus = biblio::Corpus::generate(base.corpus);

  const std::size_t sizes[] = {50, 100, 250, 500, 1000};
  std::vector<sim::SimulationConfig> cells;
  for (const auto& [substrate, name] : sim::kSubstrates) {
    sim::SimulationConfig config = base;
    config.substrate = substrate;
    cells.push_back(config);
  }
  for (const std::size_t nodes : sizes) {
    sim::SimulationConfig config = base;
    config.nodes = nodes;
    cells.push_back(config);
  }
  const auto results = run_cells("ablation_substrate", cells, &corpus, options);

  std::printf("%-10s %13s %10s %12s %10s %14s %14s\n", "substrate", "interactions",
              "hit ratio", "normal B/q", "errors", "routing hops", "routing bytes");
  std::size_t cell = 0;
  for (const auto& [substrate, name] : sim::kSubstrates) {
    const sim::SimulationResults& r = results[cell++].results;
    std::printf("%-10s %13.2f %9.1f%% %12.0f %10zu %14.2f %14llu\n", name,
                r.avg_interactions, 100.0 * r.hit_ratio, r.normal_traffic_per_query,
                r.non_indexed_queries, r.avg_routing_hops_per_lookup,
                static_cast<unsigned long long>(r.routing_bytes));
  }

  banner("Network-size sensitivity (ring substrate)");
  std::printf("%-10s %13s %10s %12s %10s\n", "nodes", "interactions", "hit ratio",
              "normal B/q", "errors");
  for (const std::size_t nodes : sizes) {
    const sim::SimulationResults& r = results[cell++].results;
    std::printf("%-10zu %13.2f %9.1f%% %12.0f %10zu\n", nodes,
                r.avg_interactions, 100.0 * r.hit_ratio, r.normal_traffic_per_query,
                r.non_indexed_queries);
  }
  std::printf(
      "\nExpected shape: all indexing metrics identical across substrates and\n"
      "network sizes (keys land on different nodes but chains are unchanged);\n"
      "only Chord adds O(log n) routing hops per lookup.\n");
  return 0;
}
