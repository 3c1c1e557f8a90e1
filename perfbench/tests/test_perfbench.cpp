// Equivalence, span-fold and clock tests for the benchmark.
//
// The benchmark drives the library from outside, through public calls, so
// these tests pin that each composed workload reproduces the library's own
// simulation path on a small world, that the traced run's decorators change
// no outcome, and that run time never exceeds wall time.
#include <gtest/gtest.h>
#include <sched.h>

#include <thread>
#include <vector>

#include "biblio/stream.hpp"
#include "cells.hpp"
#include "dht/ring.hpp"
#include "host_clock.hpp"
#include "sim/sharded.hpp"
#include "trace.hpp"

namespace {

using perfbench::CellSpec;
using perfbench::PassCounts;
using perfbench::Span;
using perfbench::SpanName;
using perfbench::Workload;
namespace sim = dhtidx::sim;

/// The workload's cell shrunk to a world a test builds in well under a second.
CellSpec small_spec(Workload workload) {
  CellSpec spec = perfbench::default_spec(workload, 0);
  spec.nodes = 40;
  spec.articles = 2000;
  spec.authors = 300;
  spec.conferences = 12;
  spec.queries = 2000;
  return spec;
}

TEST(ScanClientLoop, MatchesTheSimsCachelessFeedAtOneAndTwoClients) {
  const CellSpec spec = small_spec(Workload::kScan10x);
  const sim::SimulationConfig config = perfbench::simulation_config(spec);
  dhtidx::dht::Ring ring = dhtidx::dht::Ring::with_nodes(config.nodes);
  dhtidx::net::TrafficLedger ledger;
  dhtidx::storage::DhtStore store{ring, ledger};
  dhtidx::index::IndexService service{ring, ledger};
  const dhtidx::biblio::ArticleStream stream{config.corpus};
  sim::build_streaming_world(config, ring, service, store, stream);
  const dhtidx::workload::StreamingWorkload workload{
      stream,
      dhtidx::workload::PopularityModel{stream.size(), config.popularity_c,
                                        config.popularity_alpha},
      dhtidx::workload::StructureModel{}, config.seed};

  const sim::FeedTotals expected =
      sim::feed_streaming_world(config, ring, service, store, workload);
  ASSERT_GT(expected.interactions, 0u);
  ASSERT_GT(expected.non_indexed, 0u);
  for (const std::size_t clients : {1u, 2u}) {
    const PassCounts got = perfbench::scan_feed(service, store, workload, 0, config.queries,
                                                clients, dhtidx::index::CachePolicy::kNone);
    EXPECT_EQ(got.lookups, config.queries) << clients << " clients";
    EXPECT_EQ(got.interactions, expected.interactions) << clients << " clients";
    EXPECT_EQ(got.failed, expected.failed_lookups) << clients << " clients";
    EXPECT_EQ(got.non_indexed, expected.non_indexed) << clients << " clients";
    EXPECT_EQ(got.hits, expected.hits) << clients << " clients";
    EXPECT_TRUE(perfbench::same_ledger(got.ledger, expected.ledger)) << clients << " clients";
  }
}

TEST(WireWorld, MatchesRunSimulationOverTheEventQueue) {
  const CellSpec spec = small_spec(Workload::kWireEventq);
  const sim::SimulationConfig config = perfbench::simulation_config(spec);
  ASSERT_EQ(config.transport, sim::TransportKind::kEventQueue);
  const sim::SimulationResults expected = sim::run_simulation(config);

  const auto cell = perfbench::make_cell(spec, false);
  cell->setup();
  const PassCounts got = cell->feed_pass(0);
  const double n = static_cast<double>(spec.queries);
  EXPECT_EQ(static_cast<double>(got.interactions) / n, expected.avg_interactions);
  EXPECT_EQ(static_cast<double>(got.ledger.normal_bytes()) / n,
            expected.normal_traffic_per_query);
  EXPECT_EQ(static_cast<double>(got.ledger.cache.bytes()) / n,
            expected.cache_traffic_per_query);
  EXPECT_EQ(static_cast<double>(got.hits) / n, expected.hit_ratio);
  EXPECT_EQ(got.failed, expected.failed_lookups);
  EXPECT_EQ(got.non_indexed, expected.non_indexed_queries);
  EXPECT_TRUE(perfbench::same_ledger(got.ledger, expected.ledger));
  EXPECT_TRUE(perfbench::same_ledger(got.wire, expected.wire_ledger));
  EXPECT_GT(got.wire.total_bytes(), 0u);
}

TEST(Decorators, ChangeNoOutcomeOnAnyWorkload) {
  perfbench::enable_tracing();
  for (const Workload workload :
       {Workload::kScan10x, Workload::kLru10Epochs, Workload::kWireEventq}) {
    SCOPED_TRACE(perfbench::workload_name(workload));
    const CellSpec spec = small_spec(workload);
    const auto plain = perfbench::make_cell(spec, false);
    const auto traced = perfbench::make_cell(spec, true);
    plain->setup();
    traced->setup();
    EXPECT_EQ(plain->dht_calls(), 0u);
    EXPECT_GT(traced->dht_calls(), 0u);
    // Two passes: lru10-epochs' second pass runs over the caches the first
    // one filled, so cache state must match too.
    for (std::size_t pass = 0; pass < 2; ++pass) {
      const PassCounts a = plain->feed_pass(pass);
      const PassCounts b = traced->feed_pass(pass);
      EXPECT_EQ(a.failed, 0u);
      EXPECT_TRUE(a == b) << "pass " << pass;
    }
    const perfbench::WorldCounts a = plain->world_counts();
    const perfbench::WorldCounts b = traced->world_counts();
    EXPECT_EQ(a.mappings, b.mappings);
    EXPECT_EQ(a.cached_entries, b.cached_entries);
    EXPECT_EQ(a.interned, b.interned);
    EXPECT_EQ(a.storage_keys, b.storage_keys);
    EXPECT_EQ(a.posts, b.posts);
  }
}

TEST(Cells, EveryPassAsksNewQuestions) {
  for (const Workload workload :
       {Workload::kScan10x, Workload::kLru10Epochs, Workload::kWireEventq}) {
    SCOPED_TRACE(perfbench::workload_name(workload));
    const auto cell = perfbench::make_cell(small_spec(workload), false);
    cell->setup();
    const PassCounts first = cell->feed_pass(0);
    const PassCounts second = cell->feed_pass(1);
    EXPECT_EQ(second.lookups, first.lookups);
    EXPECT_FALSE(perfbench::same_ledger(first.ledger, second.ledger));
    if (cell->read_only()) {
      EXPECT_TRUE(cell->feed_pass(0) == first);
    }
  }
}

TEST(ScanClientLoop, PassesSplitOneStream) {
  // Two passes of n sessions from session 0 and n are the first 2n sessions
  // of the stream, whatever the client count.
  const CellSpec spec = small_spec(Workload::kScan10x);
  const sim::SimulationConfig config = perfbench::simulation_config(spec);
  dhtidx::dht::Ring ring = dhtidx::dht::Ring::with_nodes(config.nodes);
  dhtidx::net::TrafficLedger ledger;
  dhtidx::storage::DhtStore store{ring, ledger};
  dhtidx::index::IndexService service{ring, ledger};
  const dhtidx::biblio::ArticleStream stream{config.corpus};
  sim::build_streaming_world(config, ring, service, store, stream);
  const dhtidx::workload::StreamingWorkload workload{stream, config.seed};
  const std::size_t n = 500;
  const auto kNone = dhtidx::index::CachePolicy::kNone;
  const PassCounts whole = perfbench::scan_feed(service, store, workload, 0, 2 * n, 1, kNone);
  PassCounts halves = perfbench::scan_feed(service, store, workload, 0, n, 2, kNone);
  const PassCounts second = perfbench::scan_feed(service, store, workload, n, n, 2, kNone);
  halves.lookups += second.lookups;
  halves.interactions += second.interactions;
  halves.non_indexed += second.non_indexed;
  halves.failed += second.failed;
  halves.ledger.merge(second.ledger);
  EXPECT_TRUE(halves == whole);
}

TEST(HostClock, PinsItsThreadAndNeverReportsMoreThanWallTime) {
  // On a thread of its own, so the pin does not outlive the test.
  std::thread([] {
    const perfbench::HostClock clock{1};
    ASSERT_LE(clock.cpus().size(), 1u);
    if (!clock.cpus().empty()) {
      cpu_set_t mask;
      ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
      EXPECT_EQ(CPU_COUNT(&mask), 1);
      EXPECT_TRUE(CPU_ISSET(clock.cpus().front(), &mask));
    }
    const perfbench::HostClock::Reading from = clock.now();
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 20000000; ++i) sink = sink + i;
    const perfbench::HostClock::Reading to = clock.now();
    const double wall = perfbench::HostClock::wall_seconds(from, to);
    EXPECT_GT(wall, 0.0);
    ASSERT_EQ(to.steal_s.size(), clock.cpus().size());
    for (std::size_t i = 0; i < to.steal_s.size(); ++i) {
      EXPECT_GE(to.steal_s[i], from.steal_s[i]);
    }
    EXPECT_GE(clock.run_seconds(from, to), 0.0);
    EXPECT_LE(clock.run_seconds(from, to), wall);
  }).join();
}

Span span(std::uint64_t id, std::uint64_t parent, std::int64_t start, std::int64_t end,
          std::uint32_t thread, SpanName name = SpanName::kResolve) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.thread = thread;
  s.name = name;
  return s;
}

TEST(SpanFold, SelfTimeIsTheSpanMinusTheUnionOfItsChildren) {
  // Root 1 on thread 0 with children on both threads: 2 and 3 overlap
  // (union [10, 60]), 4 runs past the root's end (clipped to [80, 100]),
  // and 5 is a grandchild that must not count against the root. Root 6 is
  // a sibling tree whose child ran on the other thread.
  const std::vector<Span> spans = {
      span(1, 0, 0, 100, 0),   span(2, 1, 10, 40, 0), span(3, 1, 30, 60, 1),
      span(4, 1, 80, 120, 1),  span(5, 2, 15, 20, 0), span(6, 0, 200, 260, 1),
      span(7, 6, 210, 230, 0), span(8, 99, 0, 7, 0),  // unknown parent: a root
  };
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - (50 + 20));
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 40);
  EXPECT_EQ(self[4], 5);
  EXPECT_EQ(self[5], 60 - 20);
  EXPECT_EQ(self[6], 20);
  EXPECT_EQ(self[7], 7);

  std::vector<Span> named = spans;
  named[0].name = SpanName::kPass;
  const auto totals = perfbench::fold_by_name(named);
  const auto& pass = totals[static_cast<std::size_t>(SpanName::kPass)];
  const auto& resolve = totals[static_cast<std::size_t>(SpanName::kResolve)];
  EXPECT_EQ(pass.count, 1u);
  EXPECT_EQ(pass.total_ns, 100);
  EXPECT_EQ(pass.self_ns, 30);
  EXPECT_EQ(resolve.count, spans.size() - 1);
  EXPECT_EQ(resolve.self_ns, 25 + 30 + 40 + 5 + 40 + 20 + 7);
}

TEST(SpanFold, WorkerThreadSpansTakeTheAmbientParent) {
  constexpr std::int64_t kSession = 1000000007;
  perfbench::enable_tracing();
  perfbench::take_spans();  // drop what other tests recorded
  std::uint64_t root_id = 0;
  {
    const perfbench::ScopedSpan root{SpanName::kPass};
    root_id = root.id();
    const perfbench::AmbientParent ambient{root.id()};
    std::thread worker([] {
      const perfbench::SessionScope session{kSession};
      const perfbench::ScopedSpan outer{SpanName::kResolve};
      const perfbench::ScopedSpan inner{SpanName::kDhtLookup};
    });
    worker.join();
    const perfbench::ScopedSpan sibling{SpanName::kRequest};
  }
  const std::vector<Span> all = perfbench::take_spans();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_TRUE(perfbench::take_spans().empty());
  std::uint64_t resolve_id = 0;
  for (const Span& s : all) {
    if (s.name == SpanName::kResolve && s.session == kSession) resolve_id = s.id;
  }
  ASSERT_NE(resolve_id, 0u);
  int checked = 0;
  for (const Span& s : all) {
    if (s.id == root_id) {
      EXPECT_EQ(s.parent, 0u);
      ++checked;
    } else if (s.id == resolve_id) {
      EXPECT_EQ(s.parent, root_id);
      ++checked;
    } else if (s.name == SpanName::kDhtLookup && s.session == kSession) {
      EXPECT_EQ(s.parent, resolve_id);
      ++checked;
    } else if (s.name == SpanName::kRequest && s.parent == root_id) {
      EXPECT_EQ(s.session, -1);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 4);
}

}  // namespace
