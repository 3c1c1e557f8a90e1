// The parallel sweep runner: determinism across thread counts, submission
// ordering and the shared-corpus concurrency contract.
#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <atomic>
#include <chrono>
#include <thread>

namespace dhtidx::sim {
namespace {

// Small but non-trivial world so runs finish in milliseconds while still
// exercising caching, generalization, and load skew.
biblio::CorpusConfig small_corpus_config() {
  biblio::CorpusConfig config;
  config.articles = 400;
  config.authors = 150;
  config.conferences = 12;
  return config;
}

SimulationConfig small_config() {
  SimulationConfig config;
  config.nodes = 40;
  config.queries = 1500;
  config.corpus = small_corpus_config();
  return config;
}

SweepOptions options_with_jobs(std::size_t jobs) {
  SweepOptions options;
  options.jobs = jobs;
  return options;
}

std::vector<SimulationConfig> three_cells() {
  std::vector<SimulationConfig> cells;
  SimulationConfig a = small_config();
  a.scheme = index::SchemeKind::kSimple;
  a.policy = index::CachePolicy::kSingle;
  cells.push_back(a);
  SimulationConfig b = small_config();
  b.scheme = index::SchemeKind::kFlat;
  b.policy = index::CachePolicy::kMulti;
  cells.push_back(b);
  SimulationConfig c = small_config();
  c.scheme = index::SchemeKind::kComplex;
  c.policy = index::CachePolicy::kLru;
  c.cache_capacity = 10;
  cells.push_back(c);
  return cells;
}

void expect_identical(const SimulationResults& a, const SimulationResults& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.cache_capacity, b.cache_capacity);
  EXPECT_EQ(a.avg_interactions, b.avg_interactions);
  EXPECT_EQ(a.avg_generalization_steps, b.avg_generalization_steps);
  EXPECT_EQ(a.normal_traffic_per_query, b.normal_traffic_per_query);
  EXPECT_EQ(a.cache_traffic_per_query, b.cache_traffic_per_query);
  EXPECT_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_EQ(a.first_node_hit_share, b.first_node_hit_share);
  EXPECT_EQ(a.avg_cached_keys_per_node, b.avg_cached_keys_per_node);
  EXPECT_EQ(a.max_cached_keys, b.max_cached_keys);
  EXPECT_EQ(a.full_cache_fraction, b.full_cache_fraction);
  EXPECT_EQ(a.empty_cache_fraction, b.empty_cache_fraction);
  EXPECT_EQ(a.avg_regular_keys_per_node, b.avg_regular_keys_per_node);
  EXPECT_EQ(a.non_indexed_queries, b.non_indexed_queries);
  EXPECT_EQ(a.failed_lookups, b.failed_lookups);
  EXPECT_EQ(a.index_bytes, b.index_bytes);
  EXPECT_EQ(a.data_bytes, b.data_bytes);
  EXPECT_EQ(a.index_mappings, b.index_mappings);
  EXPECT_EQ(a.index_keys, b.index_keys);
  EXPECT_EQ(a.node_load_fractions, b.node_load_fractions);
  EXPECT_EQ(a.ledger.queries.messages(), b.ledger.queries.messages());
  EXPECT_EQ(a.ledger.queries.bytes(), b.ledger.queries.bytes());
  EXPECT_EQ(a.ledger.responses.bytes(), b.ledger.responses.bytes());
  EXPECT_EQ(a.ledger.cache.bytes(), b.ledger.cache.bytes());
}

// The acceptance bar of the sweep runner: per-cell results are bit-identical
// no matter how many workers execute the sweep.
TEST(SweepRunner, JobsDoNotChangeResults) {
  const biblio::Corpus corpus = biblio::Corpus::generate(small_corpus_config());
  const std::vector<SimulationConfig> cells = three_cells();

  const SweepSummary serial = SweepRunner{options_with_jobs(1)}.run(cells, &corpus);
  const SweepSummary parallel = SweepRunner{options_with_jobs(4)}.run(cells, &corpus);

  ASSERT_EQ(serial.cells.size(), cells.size());
  ASSERT_EQ(parallel.cells.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_identical(serial.cells[i].results, parallel.cells[i].results);
  }
}

TEST(SweepRunner, ResultsComeBackInSubmissionOrder) {
  const biblio::Corpus corpus = biblio::Corpus::generate(small_corpus_config());
  const std::vector<SimulationConfig> cells = three_cells();
  const SweepSummary sweep = SweepRunner{options_with_jobs(4)}.run(cells, &corpus);
  ASSERT_EQ(sweep.cells.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(sweep.cells[i].index, i);
    EXPECT_EQ(sweep.cells[i].config.scheme, cells[i].scheme);
    EXPECT_EQ(sweep.cells[i].config.policy, cells[i].policy);
    EXPECT_GE(sweep.cells[i].wall_seconds, 0.0);
  }
}

// Shared-state audit smoke test: several run_simulation calls over one
// corpus, concurrently and without the runner, must behave exactly like a
// sequential run (run under -DDHTIDX_SANITIZE=thread to catch data races).
TEST(SweepRunner, ConcurrentRunsShareOneCorpusSafely) {
  const biblio::Corpus corpus = biblio::Corpus::generate(small_corpus_config());
  SimulationConfig config = small_config();
  config.policy = index::CachePolicy::kSingle;

  const SimulationResults reference = run_simulation(config, &corpus);
  constexpr int kThreads = 4;
  std::vector<SimulationResults> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = run_simulation(config, &corpus); });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    expect_identical(reference, results[t]);
  }
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 100;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(8, kCount, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
  parallel_for(3, 0, [&](std::size_t) { FAIL() << "body called for empty range"; });
}

TEST(ParallelFor, PropagatesWorkerExceptions) {
  EXPECT_THROW(
      parallel_for(4, 16,
                   [](std::size_t i) {
                     if (i == 7) throw std::runtime_error("cell failed");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, RethrownErrorNamesTheFailingCell) {
  try {
    parallel_for(4, 16, [](std::size_t i) {
      if (i == 7) throw std::runtime_error("boom");
    });
    FAIL() << "exception was not propagated";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cell 7"), std::string::npos) << what;
    EXPECT_NE(what.find("boom"), std::string::npos) << what;
  }
}

TEST(ParallelFor, SerialPathAlsoNamesTheFailingCell) {
  try {
    parallel_for(1, 8, [](std::size_t i) {
      if (i == 3) throw std::runtime_error("boom");
    });
    FAIL() << "exception was not propagated";
  } catch (const Error& e) {
    EXPECT_NE(std::string{e.what()}.find("cell 3"), std::string::npos) << e.what();
  }
}

TEST(ParallelFor, FailsFastAfterFirstError) {
  // Cell 0 fails immediately; the other cells take ~1 ms each. Without the
  // abort flag all 10,000 cells would still run; with it, each surviving
  // worker finishes at most the cell it already claimed plus a few more
  // claimed before the flag was set.
  constexpr std::size_t kCount = 10000;
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(parallel_for(4, kCount,
                            [&](std::size_t i) {
                              if (i == 0) throw std::runtime_error("first cell dies");
                              ++executed;
                              std::this_thread::sleep_for(std::chrono::milliseconds(1));
                            }),
               Error);
  EXPECT_LT(executed.load(), kCount / 10);
}

TEST(SweepJson, SummaryIsOneMachineReadableLine) {
  const biblio::Corpus corpus = biblio::Corpus::generate(small_corpus_config());
  std::vector<SimulationConfig> cells = three_cells();
  cells.resize(1);
  const SweepSummary sweep = SweepRunner{options_with_jobs(2)}.run(cells, &corpus);
  const std::string line = json_summary("test_bench", sweep);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"bench\":\"test_bench\""), std::string::npos);
  EXPECT_NE(line.find("\"cells\":1"), std::string::npos);
  EXPECT_NE(line.find("\"results\":[{"), std::string::npos);
  EXPECT_NE(line.find("\"scheme\":\"simple\""), std::string::npos);
  EXPECT_NE(line.find("\"hit_ratio\":"), std::string::npos);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
}

}  // namespace
}  // namespace dhtidx::sim
