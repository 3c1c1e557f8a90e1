// Baseline: INS/Twine-style strand replication vs. the paper's key-to-key
// indexes (Section II: "Unlike Twine, we do not replicate data at multiple
// locations; we rather provide a key-to-key service").
//
// Measures, over the paper's 10,000-article corpus and 50,000-query feed:
//   - metadata storage (replicated descriptors vs. query-to-query mappings),
//   - lookup interactions (Twine always resolves in 1 + fetch),
//   - response traffic (Twine ships whole descriptors; the index ships
//     compact queries first).
#include <cstdio>

#include "bench_util.hpp"
#include "common/bytes.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"
#include "index/twine.hpp"
#include "workload/generator.hpp"

using namespace dhtidx;
using namespace dhtidx::bench;

int main(int argc, char** argv) {
  // Common CLI only: each side is one sequential run, so there are no
  // independent cells for --jobs to spread out.
  parse_options(argc, argv, "the Twine baseline has no streaming world");
  banner("Baseline: INS/Twine strand replication vs. key-to-key indexing");
  sim::SimulationConfig base = paper_config();
  const biblio::Corpus corpus = biblio::Corpus::generate(base.corpus);
  constexpr std::size_t kQueries = 50000;

  // --- Twine side -----------------------------------------------------------
  dht::Ring twine_ring = dht::Ring::with_nodes(base.nodes);
  net::TrafficLedger twine_ledger;
  storage::DhtStore twine_store{twine_ring, twine_ledger};
  index::TwineIndexer twine{twine_store};
  for (const auto& a : corpus.articles()) {
    twine.publish(a.descriptor(), a.file_name(), a.file_bytes);
  }
  const std::uint64_t twine_bytes_total = twine_store.total_bytes();
  twine_ledger.reset();

  workload::QueryGenerator twine_gen{corpus, base.seed};
  std::uint64_t twine_interactions = 0;
  std::uint64_t twine_found = 0;
  for (std::size_t i = 0; i < kQueries; ++i) {
    const auto request = twine_gen.next();
    const auto resolution = twine.resolve(request.query);
    const query::Query target = corpus.article(request.article_index).msd();
    // One more round fetches the file under the chosen MSD.
    twine_store.get(target.key());
    twine_interactions += static_cast<std::uint64_t>(resolution.interactions) + 1;
    for (const auto& msd : resolution.results) {
      if (msd == target) {
        ++twine_found;
        break;
      }
    }
  }

  // --- key-to-key side (simple scheme, no cache) ----------------------------
  dht::Ring index_ring = dht::Ring::with_nodes(base.nodes);
  net::TrafficLedger index_ledger;
  storage::DhtStore index_store{index_ring, index_ledger};
  index::IndexService service{index_ring, index_ledger};
  index::IndexBuilder builder{service, index_store, index::IndexingScheme::simple()};
  std::uint64_t data_bytes_once = 0;
  for (const auto& a : corpus.articles()) {
    builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
  }
  data_bytes_once = index_store.total_bytes();
  index_ledger.reset();

  index::LookupEngine engine{service, index_store, {index::CachePolicy::kNone}};
  workload::QueryGenerator index_gen{corpus, base.seed};
  std::uint64_t index_interactions = 0;
  std::uint64_t index_found = 0;
  for (std::size_t i = 0; i < kQueries; ++i) {
    const auto request = index_gen.next();
    const auto outcome =
        engine.resolve(request.query, corpus.article(request.article_index).msd());
    index_interactions += static_cast<std::uint64_t>(outcome.interactions);
    if (outcome.found) ++index_found;
  }

  // --- comparison -----------------------------------------------------------
  const double nq = static_cast<double>(kQueries);
  const std::uint64_t twine_metadata = twine_bytes_total - data_bytes_once;
  const std::uint64_t index_metadata = service.totals().bytes;
  std::printf("%-34s %16s %16s\n", "", "Twine (strands)", "key-to-key (S)");
  std::printf("%-34s %16s %16s\n", "metadata storage",
              format_bytes(twine_metadata).c_str(), format_bytes(index_metadata).c_str());
  std::printf("%-34s %16.2f %16.2f\n", "avg interactions per lookup",
              twine_interactions / nq, index_interactions / nq);
  std::printf("%-34s %16.0f %16.0f\n", "normal traffic (B/query)",
              static_cast<double>(twine_ledger.normal_bytes()) / nq,
              static_cast<double>(index_ledger.normal_bytes()) / nq);
  std::printf("%-34s %15.1f%% %15.1f%%\n", "target located",
              100.0 * static_cast<double>(twine_found) / nq,
              100.0 * static_cast<double>(index_found) / nq);
  std::printf(
      "\nExpected shape (the paper's Section II trade-off): Twine resolves in\n"
      "fewer rounds but replicates every descriptor at every strand key --\n"
      "multiples of the key-to-key metadata cost and higher response traffic,\n"
      "because whole descriptor sets ship on the first round.\n");
  return 0;
}
