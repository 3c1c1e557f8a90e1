// Committed goldens for the simulation driver.
//
// A fixed matrix of cells runs through sim::run_simulation: materialized
// worlds under every scheme, cache policy and substrate, with replication,
// churn and chaos schedules, each in-process cell with an event-queue twin,
// plus streaming worlds at one and two shards. Each cell is rendered as one
// line holding every SimulationResults field except the four
// machine-dependent ones (build_wall_s, feed_wall_s, peak_rss_bytes,
// build_heap_bytes):
// doubles printed with %.17g, messages/bytes per category of both `ledger`
// and `wire_ledger`, and the full node_load_fractions vector. Every line
// must match tests/goldens/simulation_cells.txt byte for byte, so a change
// to the driver, the feeds, the wire layer or the index code that moves any
// output fails here and names the cell and the first field that moved.
//
// Re-recording is a deliberate edit, never a switch: there is no flag or
// environment variable for it. When a change is meant to move a number, run
// this test, replace the cell's line in the golden file with the "new:" line
// the failure prints, and say in the change description why it moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace dhtidx::sim {
namespace {

using index::CachePolicy;
using index::SchemeKind;

struct Cell {
  std::string name;
  SimulationConfig config;
};

void PrintTo(const Cell& cell, std::ostream* os) { *os << cell.name; }

SimulationConfig materialized(SchemeKind scheme, CachePolicy policy,
                              std::size_t capacity = 0) {
  SimulationConfig config;
  config.nodes = 100;
  config.queries = 5000;
  config.scheme = scheme;
  config.policy = policy;
  config.cache_capacity = capacity;
  config.corpus.articles = 2000;
  config.corpus.authors = 600;
  config.corpus.conferences = 20;
  return config;
}

SimulationConfig streaming(std::size_t shards, SchemeKind scheme, CachePolicy policy,
                           std::size_t capacity = 0) {
  SimulationConfig config;
  config.nodes = 64;
  config.queries = 4000;
  config.scheme = scheme;
  config.policy = policy;
  config.cache_capacity = capacity;
  config.corpus.articles = 1200;
  config.corpus.authors = 360;
  config.corpus.conferences = 16;
  config.streaming = true;
  config.shards = shards;
  return config;
}

std::vector<Cell> cells() {
  std::vector<Cell> out;
  const auto add = [&out](std::string name, SimulationConfig config) {
    out.push_back({std::move(name), std::move(config)});
  };

  add("simple_none", materialized(SchemeKind::kSimple, CachePolicy::kNone));
  add("flat_none", materialized(SchemeKind::kFlat, CachePolicy::kNone));
  add("complex_none", materialized(SchemeKind::kComplex, CachePolicy::kNone));
  add("simple_single", materialized(SchemeKind::kSimple, CachePolicy::kSingle));
  add("simple_multi", materialized(SchemeKind::kSimple, CachePolicy::kMulti));
  add("simple_lru10", materialized(SchemeKind::kSimple, CachePolicy::kLru, 10));
  add("simple_lrumulti8", materialized(SchemeKind::kSimple, CachePolicy::kLruMulti, 8));
  add("complex_lru30", materialized(SchemeKind::kComplex, CachePolicy::kLru, 30));

  for (const auto& [name, substrate] :
       {std::pair{"chord", Substrate::kChord}, std::pair{"can", Substrate::kCan},
        std::pair{"pastry", Substrate::kPastry}}) {
    SimulationConfig config = materialized(SchemeKind::kSimple, CachePolicy::kSingle);
    config.substrate = substrate;
    add(std::string{name} + "_simple_single", config);
  }

  SimulationConfig replicated = materialized(SchemeKind::kSimple, CachePolicy::kSingle);
  replicated.replication = 2;
  add("simple_single_r2", replicated);

  SimulationConfig churn_r1 = materialized(SchemeKind::kSimple, CachePolicy::kSingle);
  churn_r1.churn.crash_fraction = 0.10;
  churn_r1.churn.republish_interval = 500;
  add("churn_r1_simple_single", churn_r1);

  SimulationConfig churn_r2 = materialized(SchemeKind::kSimple, CachePolicy::kLru, 10);
  churn_r2.replication = 2;
  churn_r2.churn.crash_fraction = 0.10;
  churn_r2.churn.drop_probability = 0.01;
  churn_r2.churn.joins = 4;
  churn_r2.churn.republish_interval = 500;
  add("churn_r2_drops_joins_lru10", churn_r2);

  SimulationConfig chaos_faults = materialized(SchemeKind::kSimple, CachePolicy::kSingle);
  chaos_faults.replication = 3;
  chaos_faults.transport = TransportKind::kEventQueue;
  chaos_faults.chaos.drop_probability = 0.02;
  chaos_faults.chaos.duplicate_probability = 0.03;
  chaos_faults.chaos.corrupt_probability = 0.02;
  chaos_faults.chaos.reorder_probability = 0.10;
  chaos_faults.chaos.delay_probability = 0.02;
  add("chaos_faults_r3", chaos_faults);

  SimulationConfig chaos_partition = materialized(SchemeKind::kSimple, CachePolicy::kSingle);
  chaos_partition.replication = 3;
  chaos_partition.transport = TransportKind::kEventQueue;
  chaos_partition.chaos.partition_fraction = 0.10;
  add("chaos_partition_r3", chaos_partition);

  SimulationConfig weights = materialized(SchemeKind::kFlat, CachePolicy::kSingle);
  weights.structure_weights = {0.2, 0.3, 0.2, 0.15, 0.15};
  add("flat_single_custom_weights", weights);

  // Only event-queue runs carry a wire layer, so every materialized
  // in-process cell gets an event-queue twin that pins its wire_* fields.
  // TransportTwinsAgreeOffTheWire checks the pairs against each other.
  for (std::size_t i = 0, materialized_cells = out.size(); i < materialized_cells; ++i) {
    if (out[i].config.transport != TransportKind::kInProcess) continue;
    SimulationConfig twin = out[i].config;
    twin.transport = TransportKind::kEventQueue;
    add("eventq_" + out[i].name, std::move(twin));
  }

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    const std::string s = "_s" + std::to_string(shards);
    add("stream_simple_none" + s, streaming(shards, SchemeKind::kSimple, CachePolicy::kNone));
    add("stream_flat_single" + s, streaming(shards, SchemeKind::kFlat, CachePolicy::kSingle));
    add("stream_simple_lru10" + s,
        streaming(shards, SchemeKind::kSimple, CachePolicy::kLru, 10));
    add("stream_simple_lrumulti8" + s,
        streaming(shards, SchemeKind::kSimple, CachePolicy::kLruMulti, 8));
    SimulationConfig complex_multi =
        streaming(shards, SchemeKind::kComplex, CachePolicy::kMulti);
    complex_multi.replication = 2;
    add("stream_complex_multi_r2" + s, complex_multi);
  }
  return out;
}

/// One golden line: the cell name, then space-separated key=value tokens.
class Line {
 public:
  explicit Line(const std::string& cell) : text_(cell) {}

  void real(const char* key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    put(key, buffer);
  }
  void count(const char* key, std::uint64_t value) { put(key, std::to_string(value)); }
  void put(const char* key, const std::string& value) {
    text_ += ' ';
    text_ += key;
    text_ += '=';
    text_ += value;
  }
  void ledger(const std::string& prefix, const net::TrafficLedger& ledger) {
    for (const auto& category : ledger.categories()) {
      put((prefix + "." + category.name).c_str(),
          std::to_string(category.stats->messages()) + "/" +
              std::to_string(category.stats->bytes()));
    }
  }
  void reals(const char* key, const std::vector<double>& values) {
    std::string joined;
    char buffer[64];
    for (const double value : values) {
      if (!joined.empty()) joined += ',';
      std::snprintf(buffer, sizeof buffer, "%.17g", value);
      joined += buffer;
    }
    put(key, joined);
  }

  const std::string& str() const { return text_; }

 private:
  std::string text_;
};

std::string render(const std::string& cell, const SimulationResults& r) {
  Line line{cell};
  line.put("scheme", index::to_string(r.scheme));
  line.put("policy", index::to_string(r.policy));
  line.count("cache_capacity", r.cache_capacity);
  line.count("nodes", r.nodes);
  line.count("articles", r.articles);
  line.count("queries", r.queries);
  line.real("avg_interactions", r.avg_interactions);
  line.real("normal_traffic_per_query", r.normal_traffic_per_query);
  line.real("cache_traffic_per_query", r.cache_traffic_per_query);
  line.real("hit_ratio", r.hit_ratio);
  line.real("first_node_hit_share", r.first_node_hit_share);
  line.real("avg_cached_keys_per_node", r.avg_cached_keys_per_node);
  line.count("max_cached_keys", r.max_cached_keys);
  line.real("full_cache_fraction", r.full_cache_fraction);
  line.real("empty_cache_fraction", r.empty_cache_fraction);
  line.real("avg_regular_keys_per_node", r.avg_regular_keys_per_node);
  line.count("non_indexed_queries", r.non_indexed_queries);
  line.count("failed_lookups", r.failed_lookups);
  line.real("avg_generalization_steps", r.avg_generalization_steps);
  line.count("index_bytes", r.index_bytes);
  line.count("data_bytes", r.data_bytes);
  line.count("index_mappings", r.index_mappings);
  line.count("index_keys", r.index_keys);
  line.real("avg_routing_hops_per_lookup", r.avg_routing_hops_per_lookup);
  line.count("routing_bytes", r.routing_bytes);
  line.count("replication", r.replication);
  line.count("crashed_nodes", r.crashed_nodes);
  line.count("joined_nodes", r.joined_nodes);
  line.count("mappings_lost", r.mappings_lost);
  line.count("records_lost", r.records_lost);
  line.count("sessions_after_churn", r.sessions_after_churn);
  line.count("failed_after_churn", r.failed_after_churn);
  line.count("indexed_sessions_after_churn", r.indexed_sessions_after_churn);
  line.count("indexed_failed_after_churn", r.indexed_failed_after_churn);
  line.real("post_churn_success", r.post_churn_success);
  line.real("post_churn_indexed_success", r.post_churn_indexed_success);
  line.real("avg_interactions_after_churn", r.avg_interactions_after_churn);
  line.count("rpc_failures", r.rpc_failures);
  line.count("degraded_sessions", r.degraded_sessions);
  line.count("gave_up_sessions", r.gave_up_sessions);
  line.count("unreachable_sessions", r.unreachable_sessions);
  line.count("stale_shortcut_invalidations", r.stale_shortcut_invalidations);
  line.real("retry_backoff_ms", r.retry_backoff_ms);
  line.count("repair_moves", r.repair_moves);
  line.count("republish_rounds", r.republish_rounds);
  line.count("partitioned_nodes", r.partitioned_nodes);
  line.count("chaos_frames_dropped", r.chaos_frames_dropped);
  line.count("chaos_frames_duplicated", r.chaos_frames_duplicated);
  line.count("chaos_frames_reordered", r.chaos_frames_reordered);
  line.count("chaos_frames_delayed", r.chaos_frames_delayed);
  line.count("chaos_frames_corrupted", r.chaos_frames_corrupted);
  line.count("bus_timeouts", r.bus_timeouts);
  line.count("bus_duplicates", r.bus_duplicates);
  line.count("bus_rejected", r.bus_rejected);
  line.real("convergence_ms", r.convergence_ms);
  line.ledger("ledger", r.ledger);
  line.put("transport", to_string(r.transport));
  line.ledger("wire_ledger", r.wire_ledger);
  line.real("wire_normal_traffic_per_query", r.wire_normal_traffic_per_query);
  line.real("wire_cache_traffic_per_query", r.wire_cache_traffic_per_query);
  line.count("wire_messages", r.wire_messages);
  line.real("event_clock_ms", r.event_clock_ms);
  line.reals("node_load_fractions", r.node_load_fractions);
  return line.str();
}

std::vector<std::string> tokens(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream stream{line};
  for (std::string token; stream >> token;) out.push_back(token);
  return out;
}

/// Cell name -> committed line. Blank lines and '#' comments are skipped.
const std::map<std::string, std::string>& goldens() {
  static const std::map<std::string, std::string> table = [] {
    std::map<std::string, std::string> lines;
    std::ifstream in{DHTIDX_GOLDENS_FILE};
    for (std::string line; std::getline(in, line);) {
      if (line.empty() || line[0] == '#') continue;
      lines.emplace(line.substr(0, line.find(' ')), line);
    }
    return lines;
  }();
  return table;
}

/// "field: golden=... new=..." for the first token that differs.
std::string first_difference(const std::string& golden, const std::string& fresh) {
  const std::vector<std::string> a = tokens(golden);
  const std::vector<std::string> b = tokens(fresh);
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    const std::string old_token = i < a.size() ? a[i] : "<missing>";
    const std::string new_token = i < b.size() ? b[i] : "<missing>";
    if (old_token == new_token) continue;
    const std::string field = new_token.substr(0, new_token.find('='));
    return field + ": golden " + old_token + " vs new " + new_token;
  }
  return "whitespace only";
}

class SimulationGolden : public ::testing::TestWithParam<Cell> {};

TEST_P(SimulationGolden, MatchesCommittedLine) {
  const Cell& cell = GetParam();
  const std::string fresh = render(cell.name, run_simulation(cell.config));
  const auto it = goldens().find(cell.name);
  if (it == goldens().end()) {
    ADD_FAILURE() << "cell " << cell.name << " has no golden line\nnew: " << fresh;
    return;
  }
  if (it->second != fresh) {
    ADD_FAILURE() << "cell " << cell.name << " moved; first difference in "
                  << first_difference(it->second, fresh) << "\nnew: " << fresh;
  }
}

INSTANTIATE_TEST_SUITE_P(Cells, SimulationGolden, ::testing::ValuesIn(cells()),
                         [](const ::testing::TestParamInfo<Cell>& cell_info) {
                           return cell_info.param.name;
                         });

TEST(SimulationGoldenFile, ListsExactlyTheMatrix) {
  std::set<std::string> names;
  for (const Cell& cell : cells()) names.insert(cell.name);
  EXPECT_EQ(names.size(), cells().size()) << "duplicate cell names";
  for (const auto& [name, line] : goldens()) {
    EXPECT_EQ(names.count(name), 1u) << "golden line for unknown cell " << name;
  }
  EXPECT_EQ(goldens().size(), names.size());
}

// Reads the committed file only. In-process runs have no wire layer, so
// their wire_* tokens are zero; each eventq_<cell> twin must equal <cell> on
// every token but transport, event_clock_ms and wire_*. Without this,
// re-recording one side of a pair alone would pass.
TEST(SimulationGoldenFile, TransportTwinsAgreeOffTheWire) {
  const auto may_differ = [](const std::string& token) {
    return token.rfind("wire_", 0) == 0 || token.rfind("transport=", 0) == 0 ||
           token.rfind("event_clock_ms=", 0) == 0;
  };
  const auto off_wire = [&](const std::string& line) {
    std::vector<std::string> kept = tokens(line);
    kept.erase(kept.begin());  // the cell name
    std::erase_if(kept, may_differ);
    return kept;
  };
  for (const auto& [name, line] : goldens()) {
    const std::vector<std::string> fields = tokens(line);
    if (std::find(fields.begin(), fields.end(), "transport=in-process") == fields.end()) {
      continue;
    }
    for (const std::string& token : fields) {
      if (token.rfind("wire_", 0) != 0) continue;
      const std::string value = token.substr(token.find('=') + 1);
      EXPECT_TRUE(value == "0" || value == "0/0") << name << ": " << token;
    }
    if (name.rfind("stream_", 0) == 0) continue;  // streaming worlds run in-process only
    const auto twin = goldens().find("eventq_" + name);
    if (twin == goldens().end()) {
      ADD_FAILURE() << "in-process cell " << name << " has no eventq_ twin";
      continue;
    }
    EXPECT_EQ(off_wire(twin->second), off_wire(line))
        << twin->first << " and " << name << " differ off the wire";
  }
}

}  // namespace
}  // namespace dhtidx::sim
