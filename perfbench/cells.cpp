#include "cells.hpp"

#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "biblio/corpus.hpp"
#include "biblio/stream.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"
#include "index/scheme.hpp"
#include "layers.hpp"
#include "net/bus.hpp"
#include "net/transport.hpp"
#include "sim/sharded.hpp"
#include "trace.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace dht = dhtidx::dht;
namespace index = dhtidx::index;
namespace net = dhtidx::net;
namespace sim = dhtidx::sim;
namespace storage = dhtidx::storage;
namespace workload = dhtidx::workload;

namespace {

/// lru10-epochs' pass p feeds the streaming workload seeded with the cell's
/// workload seed plus p times this stride, so no two (seed, pass) pairs of
/// the benchmark share a stream.
constexpr std::uint64_t kPassSeedStride = std::uint64_t{1} << 32;

/// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
auto in_span(SpanName name, Fn&& fn) {
  const ScopedSpan span{name};
  return fn();
}

void fold_outcome(PassCounts& counts, const index::LookupOutcome& outcome) {
  ++counts.lookups;
  counts.interactions += static_cast<std::uint64_t>(outcome.interactions);
  if (outcome.cache_hit) ++counts.hits;
  if (outcome.non_indexed) ++counts.non_indexed;
  if (!outcome.found || outcome.gave_up || outcome.unreachable) ++counts.failed;
}

WorldCounts count_world(const index::IndexService& service, const storage::DhtStore& store) {
  const index::IndexService::Totals totals = service.totals();
  WorldCounts counts;
  counts.mappings = totals.mappings;
  counts.cached_entries = totals.cached_entries;
  counts.interned = service.interner().size();
  for (const auto& [node, node_store] : store.node_stores()) {
    counts.storage_keys += node_store.key_count();
  }
  return counts;
}

/// Runs body(0..count-1), on `count` threads when count > 1, and rethrows
/// the first exception once every thread has been joined.
template <typename Fn>
void run_clients(std::size_t count, Fn&& body) {
  if (count <= 1) {
    body(std::size_t{0});
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    threads.emplace_back([&errors, &body, w] {
      try {
        body(w);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// State shared by the two streaming cells: the ring (optionally behind a
/// TracedDht), the store, the service and the counter-addressable streams.
class StreamingCell : public Cell {
 public:
  StreamingCell(const CellSpec& spec, bool traced)
      : spec_(spec), config_(simulation_config(spec)), traced_(traced) {}

  void setup() override {
    ring_ = dht::Ring::with_nodes(config_.nodes);
    if (traced_) traced_dht_ = std::make_unique<TracedDht>(ring_);
    store_ = std::make_unique<storage::DhtStore>(routing(), ledger_, config_.replication);
    service_ = std::make_unique<index::IndexService>(routing(), ledger_, config_.cache_capacity,
                                                     config_.replication);
    stream_ = std::make_unique<dhtidx::biblio::ArticleStream>(config_.corpus);
    {
      const ScopedSpan span{SpanName::kSimBuild};
      const AmbientParent ambient{span.id()};
      sim::build_streaming_world(config_, routing(), *service_, *store_, *stream_);
    }
  }

  WorldCounts world_counts() const override { return count_world(*service_, *store_); }

  std::uint64_t dht_calls() const override {
    return traced_dht_ ? traced_dht_->calls() : 0;
  }

 protected:
  dht::Dht& routing() { return traced_dht_ ? static_cast<dht::Dht&>(*traced_dht_) : ring_; }

  workload::StreamingWorkload make_workload(std::uint64_t seed) const {
    return workload::StreamingWorkload{
        *stream_,
        workload::PopularityModel{stream_->size(), config_.popularity_c,
                                  config_.popularity_alpha},
        workload::StructureModel{}, seed};
  }

  CellSpec spec_;
  sim::SimulationConfig config_;
  bool traced_;
  dht::Ring ring_;
  std::unique_ptr<TracedDht> traced_dht_;
  net::TrafficLedger ledger_;
  std::unique_ptr<storage::DhtStore> store_;
  std::unique_ptr<index::IndexService> service_;
  std::unique_ptr<dhtidx::biblio::ArticleStream> stream_;
};

class ScanCell final : public StreamingCell {
 public:
  using StreamingCell::StreamingCell;

  void setup() override {
    StreamingCell::setup();
    workload_.emplace(make_workload(config_.seed));
  }

  PassCounts feed_pass(std::size_t pass) override {
    return scan_feed(*service_, *store_, *workload_, pass * spec_.queries, spec_.queries,
                     spec_.threads, config_.policy);
  }

  bool read_only() const override { return true; }

 private:
  std::optional<workload::StreamingWorkload> workload_;
};

class LruCell final : public StreamingCell {
 public:
  using StreamingCell::StreamingCell;

  PassCounts feed_pass(std::size_t pass) override {
    config_.queries = spec_.queries;
    const workload::StreamingWorkload feed =
        make_workload(config_.seed + static_cast<std::uint64_t>(pass) * kPassSeedStride);
    const sim::FeedTotals totals = [&] {
      const ScopedSpan span{SpanName::kSimFeed};
      const AmbientParent ambient{span.id()};
      return sim::feed_streaming_world(config_, routing(), *service_, *store_, feed);
    }();
    PassCounts counts;
    counts.lookups = spec_.queries;
    counts.interactions = totals.interactions;
    counts.hits = totals.hits;
    counts.non_indexed = totals.non_indexed;
    // gave_up and unreachable sessions never end found, so they are already
    // among failed_lookups.
    counts.failed = totals.failed_lookups;
    counts.ledger = totals.ledger;
    return counts;
  }

  bool read_only() const override { return false; }
};

class WireCell final : public Cell {
 public:
  WireCell(const CellSpec& spec, bool traced)
      : spec_(spec), config_(simulation_config(spec)), traced_(traced) {}

  void setup() override {
    corpus_ = in_span(SpanName::kCorpus,
                      [&] { return dhtidx::biblio::Corpus::generate(config_.corpus); });
    ring_ = dht::Ring::with_nodes(config_.nodes);
    if (traced_) {
      traced_dht_ = std::make_unique<TracedDht>(ring_);
      traced_transport_ = std::make_unique<TracedTransport>(event_queue_);
    }
    store_ = std::make_unique<storage::DhtStore>(routing(), ledger_, config_.replication);
    service_ = std::make_unique<index::IndexService>(routing(), ledger_, config_.cache_capacity,
                                                     config_.replication);
    bus_ = std::make_unique<net::MessageBus>(
        traced_ ? static_cast<net::Transport&>(*traced_transport_) : event_queue_);
    if (traced_) {
      // The bus installed itself as the decorator's sink; the event queue
      // delivers through the forwarder, which times dispatch into the bus.
      forwarder_ = std::make_unique<DispatchForwarder>(*bus_);
      event_queue_.set_sink(forwarder_.get());
    }
    service_->set_bus(bus_.get());
    store_->set_bus(bus_.get());
    builder_ = std::make_unique<index::IndexBuilder>(
        *service_, *store_, index::IndexingScheme::make(config_.scheme));
    for (const dhtidx::biblio::Article& article : corpus_->articles()) {
      const dhtidx::xml::Element descriptor = article.descriptor();
      const std::string file_name = article.file_name();
      const ScopedSpan span{SpanName::kIndexFile};
      builder_->index_file(descriptor, file_name, article.file_bytes);
    }
    {
      const ScopedSpan span{SpanName::kNetSync};
      bus_->sync();
    }
    posts_ = bus_->posts();
  }

  PassCounts feed_pass(std::size_t pass) override {
    ledger_.reset();
    bus_->measured().reset();
    // The generator is sequential: pass 0 starts it afresh and every later
    // pass continues where the previous one stopped.
    if (pass == 0) {
      generator_.emplace(*corpus_,
                         workload::PopularityModel{corpus_->size(), config_.popularity_c,
                                                   config_.popularity_alpha},
                         workload::StructureModel{}, config_.seed);
    }
    index::LookupEngine engine{*service_, *store_, {config_.policy}};
    PassCounts counts;
    for (std::size_t i = 0; i < spec_.queries; ++i) {
      const SessionScope session{static_cast<std::int64_t>(pass * spec_.queries + i)};
      // The request and the MSD of the article it asks for.
      const std::pair<workload::Request, dhtidx::query::Query> request =
          in_span(SpanName::kRequest, [&] {
            workload::Request next = generator_->next();
            dhtidx::query::Query msd = corpus_->article(next.article_index).msd();
            return std::pair{std::move(next), std::move(msd)};
          });
      fold_outcome(counts, in_span(SpanName::kResolve, [&] {
                     return engine.resolve(request.first.query, request.second);
                   }));
    }
    bus_->sync();  // flush frames still queued from the last session
    counts.ledger = ledger_;
    counts.wire = bus_->measured();
    return counts;
  }

  bool read_only() const override { return true; }

  WorldCounts world_counts() const override {
    WorldCounts counts = count_world(*service_, *store_);
    counts.posts = posts_;
    counts.retransmits = bus_->timeouts();
    return counts;
  }

  std::uint64_t dht_calls() const override {
    return traced_dht_ ? traced_dht_->calls() : 0;
  }

 private:
  dht::Dht& routing() { return traced_dht_ ? static_cast<dht::Dht&>(*traced_dht_) : ring_; }

  CellSpec spec_;
  sim::SimulationConfig config_;
  bool traced_;
  std::optional<dhtidx::biblio::Corpus> corpus_;
  dht::Ring ring_;
  std::unique_ptr<TracedDht> traced_dht_;
  net::TrafficLedger ledger_;
  std::unique_ptr<storage::DhtStore> store_;
  std::unique_ptr<index::IndexService> service_;
  net::EventQueueTransport event_queue_;
  std::unique_ptr<TracedTransport> traced_transport_;
  std::unique_ptr<net::MessageBus> bus_;
  std::unique_ptr<DispatchForwarder> forwarder_;
  std::unique_ptr<index::IndexBuilder> builder_;
  std::optional<workload::QueryGenerator> generator_;
  std::uint64_t posts_ = 0;
};

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kScan10x, Workload::kLru10Epochs, Workload::kWireEventq}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kScan10x: return "scan-10x";
    case Workload::kLru10Epochs: return "lru10-epochs";
    case Workload::kWireEventq: return "wire-eventq";
  }
  return "?";
}

CellSpec default_spec(Workload workload, std::uint64_t seed) {
  CellSpec spec;
  spec.workload = workload;
  spec.seed = seed;
  const dhtidx::biblio::CorpusConfig paper;
  spec.nodes = 500;
  spec.articles = paper.articles;
  spec.authors = paper.authors;
  spec.conferences = paper.conferences;
  switch (workload) {
    case Workload::kScan10x:
      // The 10x rung of the scale ladder: authors grow with the corpus,
      // venues stay at 60.
      spec.nodes = 5000;
      spec.articles = 100000;
      spec.authors = spec.articles * 28 / 100;
      spec.queries = 10000;
      spec.threads = 2;
      break;
    case Workload::kLru10Epochs:
      spec.queries = 50000;
      spec.pass_seconds = 1.25;
      spec.threads = 2;
      break;
    case Workload::kWireEventq:
      spec.queries = 10000;
      spec.pass_seconds = 0.5;
      spec.threads = 1;
      break;
  }
  return spec;
}

sim::SimulationConfig simulation_config(const CellSpec& spec) {
  sim::SimulationConfig config;
  config.nodes = spec.nodes;
  config.queries = spec.queries;
  config.scheme = index::SchemeKind::kSimple;
  config.seed += spec.seed;
  config.corpus.articles = spec.articles;
  config.corpus.authors = spec.authors;
  config.corpus.conferences = spec.conferences;
  switch (spec.workload) {
    case Workload::kScan10x:
      config.streaming = true;
      config.shards = spec.threads;
      break;
    case Workload::kLru10Epochs:
      config.streaming = true;
      config.shards = spec.threads;
      config.policy = index::CachePolicy::kLru;
      config.cache_capacity = 10;
      break;
    case Workload::kWireEventq:
      config.transport = sim::TransportKind::kEventQueue;
      break;
  }
  return config;
}

bool same_ledger(const net::TrafficLedger& a, const net::TrafficLedger& b) {
  const auto left = a.categories();
  const auto right = b.categories();
  for (std::size_t i = 0; i < left.size(); ++i) {
    if (left[i].stats->messages() != right[i].stats->messages() ||
        left[i].stats->bytes() != right[i].stats->bytes()) {
      return false;
    }
  }
  return true;
}

bool PassCounts::operator==(const PassCounts& other) const {
  return lookups == other.lookups && interactions == other.interactions &&
         hits == other.hits && non_indexed == other.non_indexed && failed == other.failed &&
         same_ledger(ledger, other.ledger) && same_ledger(wire, other.wire);
}

std::unique_ptr<Cell> make_cell(const CellSpec& spec, bool traced) {
  switch (spec.workload) {
    case Workload::kScan10x: return std::make_unique<ScanCell>(spec, traced);
    case Workload::kLru10Epochs: return std::make_unique<LruCell>(spec, traced);
    case Workload::kWireEventq: return std::make_unique<WireCell>(spec, traced);
  }
  return nullptr;
}

PassCounts scan_feed(index::IndexService& service, storage::DhtStore& store,
                     const workload::StreamingWorkload& workload, std::size_t first,
                     std::size_t queries, std::size_t clients, index::CachePolicy policy) {
  clients = std::max<std::size_t>(clients, 1);
  std::vector<PassCounts> per_client(clients);
  run_clients(clients, [&](std::size_t w) {
    PassCounts& acc = per_client[w];
    const net::ScopedLedgerOverride scope{&acc.ledger};
    index::LookupEngine engine{service, store, {policy}};
    for (std::size_t i = first + w; i < first + queries; i += clients) {
      const SessionScope session{static_cast<std::int64_t>(i)};
      const workload::StreamingRequest request =
          in_span(SpanName::kRequest, [&] { return workload.request_at(i); });
      fold_outcome(acc, in_span(SpanName::kResolve, [&] {
                     return engine.resolve(request.query, request.target_msd);
                   }));
    }
  });
  PassCounts total;
  for (const PassCounts& acc : per_client) {
    total.lookups += acc.lookups;
    total.interactions += acc.interactions;
    total.hits += acc.hits;
    total.non_indexed += acc.non_indexed;
    total.failed += acc.failed;
    total.ledger.merge(acc.ledger);
  }
  return total;
}

}  // namespace perfbench
