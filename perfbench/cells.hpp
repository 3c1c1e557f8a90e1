// The benchmark's three cells, composed from the library's public API.
//
// A cell builds one world (the part setup_s times) and then feeds it lookups
// in passes of a fixed number of sessions (the part lookups_per_s times).
// Every cell uses the Simple scheme and builds its world from the library's
// default corpus seed. The benchmark seed picks the query stream: seed s
// feeds the workload seed 7 + s, so the first pass of seed 0 is the
// library's default cell. Later passes take later blocks of the stream.
//
//  - scan-10x: streaming 5,000-node / 100,000-article world built by
//    sim::build_streaming_world, fed by client threads that each own a
//    LookupEngine and a ScopedLedgerOverride (scan_feed below). No cache.
//  - lru10-epochs: streaming 500 / 10,000 world with one LRU shortcut cache
//    of capacity 10 per node, built by build_streaming_world and fed by
//    sim::feed_streaming_world.
//  - wire-eventq: materialized 500 / 10,000 world over EventQueueTransport
//    and MessageBus: Corpus::generate, IndexBuilder::index_file per article,
//    MessageBus::sync; fed by one client through QueryGenerator::next and
//    LookupEngine::resolve. No cache.
//
// A traced cell hands a TracedDht to the service, the store, the build and
// the feed, and (wire-eventq) puts a TracedTransport and a DispatchForwarder
// around the event queue. Outcomes are identical either way.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "index/cache.hpp"
#include "index/service.hpp"
#include "net/stats.hpp"
#include "sim/simulation.hpp"
#include "storage/dht_store.hpp"
#include "workload/streaming.hpp"

namespace perfbench {

enum class Workload { kScan10x, kLru10Epochs, kWireEventq };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);

/// World and feed size of one cell.
struct CellSpec {
  Workload workload = Workload::kScan10x;
  std::size_t nodes = 0;
  std::size_t articles = 0;
  std::size_t authors = 0;
  std::size_t conferences = 0;
  std::size_t queries = 0;  ///< sessions per feed pass
  /// A run asked to feed for S seconds times round(S / pass_seconds) passes,
  /// so two commits always do the same work (and grow the same per-RPC
  /// state). It is a pass's typical time on a 4-core x86 KVM guest, except
  /// on wire-eventq, whose passes spread the most: there it is half that, so
  /// the feed runs about twice as long.
  double pass_seconds = 1.0;
  std::size_t threads = 1;  ///< build/feed shards, or scan-10x client threads
  std::uint64_t seed = 0;   ///< benchmark seed: offsets the workload seed
};

/// The benchmark's cell for `workload` under benchmark seed `seed`.
CellSpec default_spec(Workload workload, std::uint64_t seed);

/// The SimulationConfig that runs the same cell through the library's own
/// simulation entry points (sim::run_simulation, feed_streaming_world).
dhtidx::sim::SimulationConfig simulation_config(const CellSpec& spec);

/// True when two ledgers hold identical messages and bytes in every category.
bool same_ledger(const dhtidx::net::TrafficLedger& a, const dhtidx::net::TrafficLedger& b);

/// Deterministic outcome of one feed pass.
struct PassCounts {
  std::uint64_t lookups = 0;
  std::uint64_t interactions = 0;
  std::uint64_t hits = 0;
  std::uint64_t non_indexed = 0;
  /// Sessions that ended !found, gave_up or unreachable.
  std::uint64_t failed = 0;
  dhtidx::net::TrafficLedger ledger;  ///< analytic (the paper's) ledger
  dhtidx::net::TrafficLedger wire;    ///< measured frame bytes (wire-eventq)

  bool operator==(const PassCounts& other) const;
};

/// Deterministic size of the world's state.
struct WorldCounts {
  std::uint64_t mappings = 0;        ///< IndexService::totals().mappings
  std::uint64_t cached_entries = 0;  ///< IndexService::totals().cached_entries
  std::uint64_t interned = 0;        ///< the query interner's size
  std::uint64_t storage_keys = 0;    ///< node-store key counts, summed
  std::uint64_t posts = 0;           ///< one-way posts the build sent (wire-eventq)
  std::uint64_t retransmits = 0;     ///< bus timeouts so far (wire-eventq)
};

/// A world and its feed. Cells hold references into their own members (the
/// store and service into the ring, the bus into the transport), so they
/// are neither copied nor moved.
class Cell {
 public:
  Cell() = default;
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;
  virtual ~Cell() = default;

  /// Builds the world. Call once.
  virtual void setup() = 0;

  /// Runs pass `pass` of the feed: the spec's query count of sessions, the
  /// pass-th block of the cell's query stream, so every pass asks new
  /// questions. Passes run in order from 0.
  virtual PassCounts feed_pass(std::size_t pass) = 0;

  /// True when a pass leaves the world unchanged, so running pass 0 again
  /// after the others must repeat its counts exactly.
  virtual bool read_only() const = 0;

  virtual WorldCounts world_counts() const = 0;

  /// Routing calls so far (traced cells; 0 when untraced).
  virtual std::uint64_t dht_calls() const = 0;
};

std::unique_ptr<Cell> make_cell(const CellSpec& spec, bool traced);

/// The scan-10x client loop over sessions first .. first + queries - 1:
/// `clients` threads, client w running the sessions i with
/// (i - first) % clients == w through its own LookupEngine and a private
/// ledger installed with net::ScopedLedgerOverride. The folded ledger is
/// returned in PassCounts::ledger.
PassCounts scan_feed(dhtidx::index::IndexService& service, dhtidx::storage::DhtStore& store,
                     const dhtidx::workload::StreamingWorkload& workload, std::size_t first,
                     std::size_t queries, std::size_t clients, dhtidx::index::CachePolicy policy);

}  // namespace perfbench
