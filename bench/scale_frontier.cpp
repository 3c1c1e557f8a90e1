// Scale frontier: how far past the paper's world (500 nodes, 10k articles,
// 50k queries) one machine gets with the streaming + sharded core.
//
// Three cell groups, run smallest-first because peak RSS is a process-wide
// monotone watermark (each cell's reading therefore bounds its own footprint
// from above; the largest cell's reading is effectively its own):
//
//   frontier  world-size ladder 500/10k/50k -> 5k/100k/500k -> 50k/1M/5M
//             (nodes/articles/queries), Simple scheme, cacheless plus a
//             caching (single-cache) twin at the 10x and 100x rungs.
//   fig11     the Figure 11 scheme comparison (Simple/Flat/Complex) replayed
//             at 50k nodes / 100k articles / 500k queries.
//   fig13     the Figure 13 cache-policy ladder (Multi, Single, LRU 10/20/30)
//             at the same 50k-node world. Since PR 10 caching feeds run
//             shard-concurrent (bulk-synchronous query epochs, DESIGN.md
//             section 15), so these cells honour --shards like every other
//             group.
//
// Every cell's JSON reports both requested_shards (the command line) and
// shards (what the cell actually ran with) so a silent downgrade can never
// masquerade as a sharded measurement.
//
// Output: progress tables on stdout, then one JSON line (the last line of
// output) with every cell's metrics -- capture it with `tail -n 1` into
// BENCH_scale_frontier.json. That line also records the processor count and
// the build type, and each of its cells heap_bytes_per_article: the heap
// bytes the build left allocated (mallinfo2 after minus before), per
// article. `--smoke` swaps in a tiny world and runs it at
// one shard and at --shards twice over -- once cacheless, once with a
// caching policy (lru-multi, the policy exercising installs, touches and
// evictions) -- and exits non-zero unless both pairs are bit-identical: that
// is the CI (TSan) guard for the sharding contract.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rss.hpp"
#include "index/cache.hpp"
#include "index/scheme.hpp"
#include "sim/simulation.hpp"

using namespace dhtidx;
using namespace dhtidx::bench;

namespace {

struct Options {
  bool smoke = false;
  std::size_t shards = 2;
};

/// Nodes of the --smoke world and of the full ladder's smallest cell: every
/// cell must be able to run the shard count (sim::shard_count).
constexpr std::size_t kSmokeNodes = 64;
constexpr std::size_t kPaperNodes = 500;

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--smoke] [--shards N]\n"
          "  --smoke      tiny world; verify bit-identity between 1 and N shards\n"
          "               (cacheless and caching legs)\n"
          "  --shards N   shard count for every cell (default 2)\n",
          argv[0]);
      std::exit(0);
    }
    const auto shard_count = [&](const char* text) {
      const std::size_t value = parse_count(argv[0], "--shards", text);
      if (value == 0) {
        std::fprintf(stderr, "%s: --shards must be at least 1\n", argv[0]);
        std::exit(2);
      }
      return value;
    };
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (arg == "--shards") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --shards expects a count\n", argv[0]);
        std::exit(2);
      }
      options.shards = shard_count(argv[++i]);
      continue;
    }
    if (arg.rfind("--shards=", 0) == 0) {
      options.shards = shard_count(arg.c_str() + 9);
      continue;
    }
    std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n", argv[0], arg.c_str());
    std::exit(2);
  }
  check_shards(argv[0], options.shards, options.smoke ? kSmokeNodes : kPaperNodes);
  return options;
}

/// A streaming cell. Authors scale like DBLP (~3.5 articles per author) and
/// conferences grow with the corpus so the largest index bucket -- the
/// (conf, year) chain of the Simple scheme -- stays O(articles / conferences
/// / years) instead of degenerating into one giant posting list.
sim::SimulationConfig streaming_cell(std::size_t nodes, std::size_t articles,
                                     std::size_t queries, std::size_t shards) {
  sim::SimulationConfig config;
  config.nodes = nodes;
  config.queries = queries;
  config.corpus.articles = articles;
  config.corpus.authors = std::max<std::size_t>(50, articles * 28 / 100);
  config.corpus.conferences = std::max<std::size_t>(60, articles / 5000);
  config.seed = 7;
  config.streaming = true;
  config.shards = shards;
  return config;
}

struct CellReport {
  std::string group;
  std::string label;
  sim::SimulationConfig config;
  sim::SimulationResults results;
};

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

/// The cell's metrics as one JSON object. Full-ladder cells add
/// heap_bytes_per_article, which the --smoke output leaves out.
std::string cell_json(const CellReport& cell, bool with_heap = false) {
  const sim::SimulationResults& r = cell.results;
  const double articles = static_cast<double>(r.articles);
  const double logical_bytes = static_cast<double>(r.index_bytes + r.data_bytes);
  std::string out = "{";
  const auto field = [&out](const std::string& name, const std::string& value,
                            bool quoted = false) {
    if (out.size() > 1) out += ",";
    out += "\"" + name + "\":";
    out += quoted ? "\"" + json_escape(value) + "\"" : value;
  };
  field("group", cell.group, true);
  field("label", cell.label, true);
  field("scheme", index::to_string(r.scheme), true);
  field("policy", index::to_string(r.policy), true);
  field("cache_capacity", std::to_string(r.cache_capacity));
  // Requested on the command line vs what the cell actually ran with (the
  // engine clamps 0 to 1; nothing else may silently downgrade).
  field("requested_shards", std::to_string(cell.config.shards));
  field("shards", std::to_string(std::max<std::size_t>(cell.config.shards, 1)));
  field("nodes", std::to_string(r.nodes));
  field("articles", std::to_string(r.articles));
  field("queries", std::to_string(r.queries));
  field("build_s", num(r.build_wall_s));
  field("feed_s", num(r.feed_wall_s));
  field("articles_per_s",
        num(r.build_wall_s > 0 ? articles / r.build_wall_s : 0.0));
  field("lookups_per_s",
        num(r.feed_wall_s > 0 ? static_cast<double>(r.queries) / r.feed_wall_s : 0.0));
  field("peak_rss_bytes", std::to_string(r.peak_rss_bytes));
  field("index_bytes", std::to_string(r.index_bytes));
  field("data_bytes", std::to_string(r.data_bytes));
  field("index_mappings", std::to_string(r.index_mappings));
  field("index_keys", std::to_string(r.index_keys));
  field("logical_bytes_per_node",
        num(logical_bytes / static_cast<double>(r.nodes)));
  field("logical_bytes_per_article", num(logical_bytes / articles));
  field("rss_bytes_per_article",
        num(static_cast<double>(r.peak_rss_bytes) / articles));
  if (with_heap) {
    field("heap_bytes_per_article", num(static_cast<double>(r.build_heap_bytes) / articles));
  }
  field("avg_interactions", num(r.avg_interactions));
  field("avg_generalization_steps", num(r.avg_generalization_steps));
  field("normal_traffic_per_query", num(r.normal_traffic_per_query));
  field("cache_traffic_per_query", num(r.cache_traffic_per_query));
  field("hit_ratio", num(r.hit_ratio));
  field("first_node_hit_share", num(r.first_node_hit_share));
  field("avg_cached_keys_per_node", num(r.avg_cached_keys_per_node));
  field("non_indexed_queries", std::to_string(r.non_indexed_queries));
  field("failed_lookups", std::to_string(r.failed_lookups));
  out += "}";
  return out;
}

CellReport run_cell(const std::string& group, const std::string& label,
                    const sim::SimulationConfig& config) {
  std::printf("[cell] %-8s %-22s nodes=%zu articles=%zu queries=%zu shards=%zu ...\n",
              group.c_str(), label.c_str(), config.nodes, config.corpus.articles,
              config.queries, config.shards);
  std::fflush(stdout);
  CellReport cell{group, label, config, sim::run_simulation(config)};
  const sim::SimulationResults& r = cell.results;
  std::printf(
      "       build %.2fs (%.0f articles/s)  feed %.2fs (%.0f lookups/s)  "
      "rss %.2f GiB  interactions %.3f  failed %zu\n",
      r.build_wall_s,
      r.build_wall_s > 0 ? static_cast<double>(r.articles) / r.build_wall_s : 0.0,
      r.feed_wall_s,
      r.feed_wall_s > 0 ? static_cast<double>(r.queries) / r.feed_wall_s : 0.0,
      static_cast<double>(r.peak_rss_bytes) / (1024.0 * 1024.0 * 1024.0),
      r.avg_interactions, r.failed_lookups);
  std::fflush(stdout);
  return cell;
}

/// Field-by-field bit-identity check used by --smoke; returns the names of
/// any fields that differ.
std::vector<std::string> diff_results(const sim::SimulationResults& a,
                                      const sim::SimulationResults& b) {
  std::vector<std::string> bad;
  const auto check = [&bad](const char* name, bool same) {
    if (!same) bad.emplace_back(name);
  };
  check("avg_interactions", a.avg_interactions == b.avg_interactions);
  check("avg_generalization_steps",
        a.avg_generalization_steps == b.avg_generalization_steps);
  check("normal_traffic_per_query",
        a.normal_traffic_per_query == b.normal_traffic_per_query);
  check("cache_traffic_per_query",
        a.cache_traffic_per_query == b.cache_traffic_per_query);
  check("hit_ratio", a.hit_ratio == b.hit_ratio);
  check("first_node_hit_share", a.first_node_hit_share == b.first_node_hit_share);
  check("avg_regular_keys_per_node",
        a.avg_regular_keys_per_node == b.avg_regular_keys_per_node);
  check("node_load_fractions", a.node_load_fractions == b.node_load_fractions);
  check("non_indexed_queries", a.non_indexed_queries == b.non_indexed_queries);
  check("failed_lookups", a.failed_lookups == b.failed_lookups);
  check("index_bytes", a.index_bytes == b.index_bytes);
  check("data_bytes", a.data_bytes == b.data_bytes);
  check("index_mappings", a.index_mappings == b.index_mappings);
  check("index_keys", a.index_keys == b.index_keys);
  for (std::size_t i = 0; i < a.ledger.categories().size(); ++i) {
    const auto named_a = a.ledger.categories()[i];
    const auto named_b = b.ledger.categories()[i];
    if (named_a.stats->messages() != named_b.stats->messages() ||
        named_a.stats->bytes() != named_b.stats->bytes()) {
      bad.emplace_back(std::string("ledger.") + named_a.name);
    }
  }
  return bad;
}

int run_smoke(const Options& options) {
  banner("Scale frontier --smoke: sharding bit-identity guard");
  const std::size_t shards = std::max<std::size_t>(2, options.shards);
  sim::SimulationConfig base = streaming_cell(kSmokeNodes, 500, 2000, 1);
  base.corpus.authors = 150;
  base.corpus.conferences = 12;

  // Two legs: cacheless (the embarrassingly parallel feed) and a caching
  // policy (the bulk-synchronous query epochs). lru-multi exercises the full
  // delta taxonomy -- multi-placement installs, hit touches, LRU evictions.
  sim::SimulationConfig cached = base;
  cached.policy = index::CachePolicy::kLruMulti;
  cached.cache_capacity = 10;

  bool identical = true;
  std::string cells_json;
  for (const auto& [leg, leg_base] :
       {std::pair<const char*, const sim::SimulationConfig*>{"cacheless", &base},
        {"lru-multi", &cached}}) {
    const CellReport one = run_cell("smoke", std::string(leg) + " 1 shard", *leg_base);
    sim::SimulationConfig sharded = *leg_base;
    sharded.shards = shards;
    const CellReport many = run_cell(
        "smoke", std::string(leg) + " " + std::to_string(shards) + " shards", sharded);

    const std::vector<std::string> bad = diff_results(one.results, many.results);
    for (const std::string& name : bad) {
      std::fprintf(stderr, "MISMATCH (%s) across shard counts: %s\n", leg,
                   name.c_str());
    }
    std::printf("smoke %s: shards=1 vs shards=%zu -> %s\n", leg, shards,
                bad.empty() ? "bit-identical" : "MISMATCH");
    identical = identical && bad.empty();
    if (!cells_json.empty()) cells_json += ",";
    cells_json += cell_json(one) + "," + cell_json(many);
  }
  std::printf(
      "{\"bench\":\"scale_frontier\",\"smoke\":true,\"shards\":%zu,"
      "\"identical\":%s,\"cells\":[%s]}\n",
      shards, identical ? "true" : "false", cells_json.c_str());
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (options.smoke) return run_smoke(options);

  banner("Scale frontier: the paper's world at 100x on one machine");
  std::printf("shard count: %zu\n\n", options.shards);
  std::vector<CellReport> cells;

  // World-size ladder, paper scale -> 100x articles/queries. Smallest first:
  // the RSS watermark of each cell then upper-bounds that cell alone. The
  // caching twins measure the epoch-based shard-parallel feed at scale.
  cells.push_back(run_cell("frontier", "paper (500/10k/50k)",
                           streaming_cell(kPaperNodes, 10000, 50000, options.shards)));
  cells.push_back(run_cell("frontier", "10x (5k/100k/500k)",
                           streaming_cell(5000, 100000, 500000, options.shards)));
  {
    sim::SimulationConfig config = streaming_cell(5000, 100000, 500000, options.shards);
    config.policy = index::CachePolicy::kSingle;
    cells.push_back(run_cell("frontier", "10x single cache", config));
  }

  // Figure 11 scheme comparison at 50k nodes.
  for (const index::SchemeKind scheme :
       {index::SchemeKind::kSimple, index::SchemeKind::kFlat,
        index::SchemeKind::kComplex}) {
    sim::SimulationConfig config =
        streaming_cell(50000, 100000, 500000, options.shards);
    config.scheme = scheme;
    cells.push_back(
        run_cell("fig11", index::to_string(scheme) + " @50k nodes", config));
  }

  // Figure 13 cache-policy ladder at 50k nodes. Caching feeds run as
  // bulk-synchronous query epochs since PR 10, so these cells shard like
  // every other group (see sim/sharded.hpp).
  struct Policy {
    std::string label;
    index::CachePolicy policy;
    std::size_t capacity;
  };
  const Policy policies[] = {
      {"multi cache", index::CachePolicy::kMulti, 0},
      {"single cache", index::CachePolicy::kSingle, 0},
      {"lru 10", index::CachePolicy::kLru, 10},
      {"lru 20", index::CachePolicy::kLru, 20},
      {"lru 30", index::CachePolicy::kLru, 30},
  };
  for (const Policy& p : policies) {
    sim::SimulationConfig config =
        streaming_cell(50000, 100000, 500000, options.shards);
    config.policy = p.policy;
    config.cache_capacity = p.capacity;
    cells.push_back(run_cell("fig13", p.label + " @50k nodes", config));
  }

  // The 100x frontier cells, last so their watermark is their own (the
  // caching twin first: its extra state is dwarfed by the cacheless cell's
  // transient peak).
  {
    sim::SimulationConfig config =
        streaming_cell(50000, 1000000, 5000000, options.shards);
    config.policy = index::CachePolicy::kSingle;
    cells.push_back(run_cell("frontier", "100x single cache", config));
  }
  cells.push_back(run_cell("frontier", "100x (50k/1M/5M)",
                           streaming_cell(50000, 1000000, 5000000, options.shards)));

  banner("Memory budget");
  row("cell", {"bytes/node", "bytes/article", "heap/article", "rss GiB"});
  for (const CellReport& cell : cells) {
    const sim::SimulationResults& r = cell.results;
    const double logical = static_cast<double>(r.index_bytes + r.data_bytes);
    const double articles = static_cast<double>(r.articles);
    row(cell.label,
        {fmt(logical / static_cast<double>(r.nodes), 0), fmt(logical / articles, 0),
         fmt(static_cast<double>(r.build_heap_bytes) / articles, 0),
         fmt(static_cast<double>(r.peak_rss_bytes) / (1024.0 * 1024.0 * 1024.0), 2)});
  }

  std::string json = "{\"bench\":\"scale_frontier\",\"smoke\":false,\"shards\":" +
                     std::to_string(options.shards) +
                     ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                     ",\"build_type\":\"" + json_escape(DHTIDX_BUILD_TYPE) + "\",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) json += ",";
    json += cell_json(cells[i], /*with_heap=*/true);
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  return 0;
}
