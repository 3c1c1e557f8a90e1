// Integration: scaled-down versions of the paper's experiments, asserting
// the qualitative relationships the evaluation reports.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace dhtidx::sim {
namespace {

using index::CachePolicy;
using index::SchemeKind;

SimulationConfig small_config(SchemeKind scheme, CachePolicy policy,
                              std::size_t capacity = 0) {
  SimulationConfig config;
  config.nodes = 100;
  config.queries = 12000;
  config.scheme = scheme;
  config.policy = policy;
  config.cache_capacity = capacity;
  config.corpus.articles = 2500;
  config.corpus.authors = 800;
  config.corpus.conferences = 24;
  return config;
}

class SimulationFixture : public ::testing::Test {
 protected:
  static const biblio::Corpus& corpus() {
    static const biblio::Corpus c = [] {
      SimulationConfig config = small_config(SchemeKind::kSimple, CachePolicy::kNone);
      return biblio::Corpus::generate(config.corpus);
    }();
    return c;
  }

  static SimulationResults run(SchemeKind scheme, CachePolicy policy,
                               std::size_t capacity = 0) {
    return run_simulation(small_config(scheme, policy, capacity), &corpus());
  }
};

TEST_F(SimulationFixture, AllLookupsSucceed) {
  for (const SchemeKind scheme :
       {SchemeKind::kSimple, SchemeKind::kFlat, SchemeKind::kComplex}) {
    const SimulationResults r = run(scheme, CachePolicy::kNone);
    EXPECT_EQ(r.failed_lookups, 0u) << index::to_string(scheme);
  }
}

TEST_F(SimulationFixture, Figure11InteractionOrdering) {
  // Flat needs the fewest interactions, complex the most.
  const auto simple = run(SchemeKind::kSimple, CachePolicy::kNone);
  const auto flat = run(SchemeKind::kFlat, CachePolicy::kNone);
  const auto complex = run(SchemeKind::kComplex, CachePolicy::kNone);
  EXPECT_LT(flat.avg_interactions, simple.avg_interactions);
  EXPECT_LT(simple.avg_interactions, complex.avg_interactions);
  // Rough absolute bands.
  EXPECT_NEAR(flat.avg_interactions, 2.0, 0.4);
  EXPECT_NEAR(simple.avg_interactions, 3.0, 0.4);
  EXPECT_NEAR(complex.avg_interactions, 3.6, 0.5);
}

TEST_F(SimulationFixture, Figure11CachingReducesInteractions) {
  const auto none = run(SchemeKind::kSimple, CachePolicy::kNone);
  const auto lru10 = run(SchemeKind::kSimple, CachePolicy::kLru, 10);
  const auto lru30 = run(SchemeKind::kSimple, CachePolicy::kLru, 30);
  const auto single = run(SchemeKind::kSimple, CachePolicy::kSingle);
  EXPECT_LT(single.avg_interactions, none.avg_interactions);
  EXPECT_LE(lru30.avg_interactions, lru10.avg_interactions + 0.02);
  EXPECT_LE(single.avg_interactions, lru30.avg_interactions + 0.02);
}

TEST_F(SimulationFixture, Figure12FlatGeneratesMostTraffic) {
  const auto simple = run(SchemeKind::kSimple, CachePolicy::kNone);
  const auto flat = run(SchemeKind::kFlat, CachePolicy::kNone);
  const auto complex = run(SchemeKind::kComplex, CachePolicy::kNone);
  EXPECT_GT(flat.normal_traffic_per_query, 1.5 * simple.normal_traffic_per_query);
  EXPECT_GT(flat.normal_traffic_per_query, 1.5 * complex.normal_traffic_per_query);
}

TEST_F(SimulationFixture, Figure12CachingSavesNormalTraffic) {
  const auto none = run(SchemeKind::kSimple, CachePolicy::kNone);
  const auto single = run(SchemeKind::kSimple, CachePolicy::kSingle);
  EXPECT_LT(single.normal_traffic_per_query, none.normal_traffic_per_query);
  EXPECT_GT(single.cache_traffic_per_query, 0.0);
  EXPECT_EQ(none.cache_traffic_per_query, 0.0);
}

TEST_F(SimulationFixture, Figure13HitRatios) {
  const auto single = run(SchemeKind::kSimple, CachePolicy::kSingle);
  const auto multi = run(SchemeKind::kSimple, CachePolicy::kMulti);
  const auto lru10 = run(SchemeKind::kSimple, CachePolicy::kLru, 10);
  // Substantial hit ratios under the skewed workload.
  EXPECT_GT(single.hit_ratio, 0.3);
  EXPECT_LT(single.hit_ratio, 0.95);
  // Multi-cache is only marginally better than single-cache.
  EXPECT_GE(multi.hit_ratio + 1e-9, single.hit_ratio);
  EXPECT_LT(multi.hit_ratio - single.hit_ratio, 0.15);
  // Bounded caches lose some but retain a good share (paper: more than half
  // of the unbounded efficiency already at 10 entries).
  EXPECT_GT(lru10.hit_ratio, 0.3 * single.hit_ratio);
  EXPECT_LT(lru10.hit_ratio, single.hit_ratio + 1e-9);
  // Most hits occur on the first node of the chain.
  EXPECT_GT(single.first_node_hit_share, 0.7);
}

TEST_F(SimulationFixture, Figure14CacheStorage) {
  const auto single = run(SchemeKind::kSimple, CachePolicy::kSingle);
  const auto multi = run(SchemeKind::kSimple, CachePolicy::kMulti);
  const auto lru10 = run(SchemeKind::kSimple, CachePolicy::kLru, 10);
  // Multi-cache stores roughly twice as much as single-cache.
  EXPECT_GT(multi.avg_cached_keys_per_node, 1.4 * single.avg_cached_keys_per_node);
  // LRU capacity bounds occupancy.
  EXPECT_LE(static_cast<double>(lru10.max_cached_keys), 10.0);
  EXPECT_LE(lru10.avg_cached_keys_per_node, 10.0);
  // Some caches fill, some stay empty (skewed usage).
  EXPECT_GT(lru10.full_cache_fraction, 0.0);
}

TEST_F(SimulationFixture, Figure14FlatUnaffectedByPlacement) {
  // Flat chains have a single index node, so multi == single placement.
  const auto single = run(SchemeKind::kFlat, CachePolicy::kSingle);
  const auto multi = run(SchemeKind::kFlat, CachePolicy::kMulti);
  // Not bit-identical: non-indexed (author+year) lookups traverse two index
  // nodes even in flat, and multi placement caches on both. That is ~5% of
  // queries, so the occupancy difference stays marginal.
  EXPECT_NEAR(multi.avg_cached_keys_per_node, single.avg_cached_keys_per_node,
              0.05 * single.avg_cached_keys_per_node);
}

TEST_F(SimulationFixture, Figure15HotSpots) {
  const auto r = run(SchemeKind::kSimple, CachePolicy::kNone);
  ASSERT_EQ(r.node_load_fractions.size(), 100u);
  // Sorted descending; the busiest node handles a disproportionate share.
  EXPECT_GE(r.node_load_fractions.front(), r.node_load_fractions.back());
  EXPECT_GT(r.node_load_fractions.front(), 0.03);
  // Summed load exceeds 1 because each query touches several nodes.
  double total = 0.0;
  for (const double f : r.node_load_fractions) total += f;
  EXPECT_GT(total, 1.0);
}

TEST_F(SimulationFixture, TableOneNonIndexedQueries) {
  const auto none = run(SchemeKind::kSimple, CachePolicy::kNone);
  const auto single = run(SchemeKind::kSimple, CachePolicy::kSingle);
  const auto lru30 = run(SchemeKind::kSimple, CachePolicy::kLru, 30);
  // ~5% of queries are author+year, which no scheme indexes.
  EXPECT_NEAR(static_cast<double>(none.non_indexed_queries), 0.05 * 12000, 100);
  // Caching reduces the error count (dramatically so at the paper's
  // 50k-queries/10k-articles scale, where repeats dominate; at this reduced
  // scale the distinct-pair count is closer to the draw count). Bounded
  // caches land between unbounded and none.
  EXPECT_LT(single.non_indexed_queries,
            static_cast<std::size_t>(0.8 * static_cast<double>(none.non_indexed_queries)));
  EXPECT_LE(single.non_indexed_queries, lru30.non_indexed_queries);
  EXPECT_LE(lru30.non_indexed_queries, none.non_indexed_queries);
}

TEST_F(SimulationFixture, StorageCostOrdering) {
  // Section V-B: simple is the most space-efficient, flat the least.
  const auto simple = run(SchemeKind::kSimple, CachePolicy::kNone);
  const auto flat = run(SchemeKind::kFlat, CachePolicy::kNone);
  const auto complex = run(SchemeKind::kComplex, CachePolicy::kNone);
  EXPECT_LT(simple.index_bytes, complex.index_bytes);
  EXPECT_LT(simple.index_bytes, flat.index_bytes);
  // Index storage is a tiny fraction of the stored data.
  EXPECT_LT(static_cast<double>(simple.index_bytes),
            0.05 * static_cast<double>(simple.data_bytes));
}

TEST_F(SimulationFixture, GeneralizationCostIsSmall) {
  const auto r = run(SchemeKind::kSimple, CachePolicy::kNone);
  // One extra interaction per non-indexed query, i.e. ~0.05 on average.
  EXPECT_NEAR(r.avg_generalization_steps, 0.05, 0.02);
}

TEST(Simulation, DeterministicForSeed) {
  SimulationConfig config = small_config(SchemeKind::kSimple, CachePolicy::kSingle);
  config.queries = 1000;
  config.corpus.articles = 200;
  const SimulationResults a = run_simulation(config);
  const SimulationResults b = run_simulation(config);
  EXPECT_DOUBLE_EQ(a.avg_interactions, b.avg_interactions);
  EXPECT_DOUBLE_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_EQ(a.non_indexed_queries, b.non_indexed_queries);
  EXPECT_EQ(a.ledger.total_bytes(), b.ledger.total_bytes());
}

TEST(Simulation, RejectsAnEmptyFeedOrNetworkBeforeBuilding) {
  // Every per-query average divides by the feed length, and a key needs a
  // node. Both are config errors, found before the corpus is generated or a
  // node is placed, on either world source.
  for (const bool streaming : {false, true}) {
    SimulationConfig config = small_config(SchemeKind::kSimple, CachePolicy::kNone);
    config.streaming = streaming;
    config.queries = 0;
    EXPECT_THROW(run_simulation(config), InvariantError) << "streaming " << streaming;
    config.queries = 100;
    config.nodes = 0;
    EXPECT_THROW(run_simulation(config), InvariantError) << "streaming " << streaming;
  }
}

TEST(Simulation, ConfigLabel) {
  SimulationConfig config;
  config.scheme = SchemeKind::kFlat;
  config.policy = CachePolicy::kLru;
  config.cache_capacity = 20;
  EXPECT_EQ(config_label(config), "flat/lru 20");
}

TEST(Simulation, CustomStructureWeights) {
  SimulationConfig config = small_config(SchemeKind::kSimple, CachePolicy::kNone);
  config.queries = 500;
  config.corpus.articles = 100;
  // Only author+year queries: every query needs generalization.
  config.structure_weights = {0.0, 0.0, 0.0, 0.0, 1.0};
  const SimulationResults r = run_simulation(config);
  EXPECT_EQ(r.non_indexed_queries, 500u);
  EXPECT_EQ(r.failed_lookups, 0u);
}

}  // namespace
}  // namespace dhtidx::sim
