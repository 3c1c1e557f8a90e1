// Availability under churn (robustness extension; not a paper exhibit).
//
// Section IV-D argues the index "benefits from the mechanisms implemented by
// the DHT substrate ... such as data replication"; this sweep quantifies
// that. At the midpoint of the query feed a deterministic 10% of the nodes
// crash -- disks lost, RPCs failing, ring membership unchanged because the
// substrate does not detect the crash -- and links start dropping 1% of
// messages. Publishers keep re-announcing their records and mappings every
// queries/10 sessions (soft-state refresh). Replication 1 degrades visibly;
// replication >= 2 is expected to keep resolving >= 99% of the post-churn
// sessions whose entry queries are indexed.
//
//   availability_churn [--jobs N] [--nodes N] [--articles N] [--queries N]
//                      [--crash F] [--drop F] [--republish N]
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "bench_util.hpp"

using namespace dhtidx;
using namespace dhtidx::bench;

namespace {

struct Args {
  std::size_t jobs = 0;
  std::size_t nodes = 500;
  std::size_t articles = 10000;
  std::size_t queries = 50000;
  double crash_fraction = 0.10;
  double drop_probability = 0.01;
  std::size_t republish_interval = 0;  ///< 0 = queries / 10
};

double parse_fraction(const char* argv0, const std::string& flag, const char* text) {
  const std::optional<double> value = parse_number<double>(text);
  if (!value || *value > 1.0) {
    std::fprintf(stderr, "%s: '%s' is not a fraction in [0,1] for %s\n", argv0, text,
                 flag.c_str());
    std::exit(2);
  }
  return *value;
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--jobs N] [--nodes N] [--articles N] [--queries N]\n"
          "          [--crash F] [--drop F] [--republish N]\n"
          "  --jobs N, -j N  worker threads for the sweep (default: hardware)\n"
          "  --nodes N       network size (default 500)\n"
          "  --articles N    corpus size (default 10000)\n"
          "  --queries N     feed length (default 50000)\n"
          "  --crash F       fraction of nodes crashed at the midpoint (default 0.10)\n"
          "  --drop F        per-message drop probability after the crash (default 0.01)\n"
          "  --republish N   queries between soft-state refreshes (default queries/10)\n",
          argv[0]);
      std::exit(0);
    }
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s expects a value\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--jobs" || arg == "-j") {
      args.jobs = parse_count(argv[0], arg, value());
    } else if (arg == "--nodes") {
      args.nodes = parse_count(argv[0], arg, value());
    } else if (arg == "--articles") {
      args.articles = parse_count(argv[0], arg, value());
    } else if (arg == "--queries") {
      args.queries = parse_count(argv[0], arg, value());
    } else if (arg == "--crash") {
      args.crash_fraction = parse_fraction(argv[0], arg, value());
    } else if (arg == "--drop") {
      args.drop_probability = parse_fraction(argv[0], arg, value());
    } else if (arg == "--republish") {
      args.republish_interval = parse_count(argv[0], arg, value());
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n", argv[0],
                   arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  banner("Availability under churn: replication 1 vs. 2 vs. 3");

  sim::SimulationConfig base = paper_config();
  base.nodes = args.nodes;
  base.queries = args.queries;
  base.corpus.articles = args.articles;
  if (args.articles != 10000) {
    // Keep the DBLP-like shape at reduced scale.
    base.corpus.authors = args.articles * 7 / 25 + 1;
    base.corpus.conferences = args.articles >= 3000 ? 60 : 20;
  }
  base.scheme = index::SchemeKind::kSimple;
  base.policy = index::CachePolicy::kSingle;  // exercise the stale-shortcut path
  base.churn.crash_fraction = args.crash_fraction;
  base.churn.drop_probability = args.drop_probability;
  base.churn.republish_interval =
      args.republish_interval != 0 ? args.republish_interval : args.queries / 10;
  base.churn.crash_point = 0.5;

  const biblio::Corpus corpus = biblio::Corpus::generate(base.corpus);

  const std::size_t replications[] = {1, 2, 3};
  std::vector<sim::SimulationConfig> cells;
  for (const std::size_t r : replications) {
    sim::SimulationConfig config = base;
    config.replication = r;
    cells.push_back(config);
  }

  BenchOptions options;
  options.jobs = args.jobs;
  const auto results = run_cells("availability_churn", cells, &corpus, options);

  std::printf("%-6s %10s %12s %13s %10s %9s %8s %8s %11s %11s %9s\n", "repl",
              "post ok", "indexed ok", "interactions", "rpc fails", "degraded",
              "gave up", "unreach", "map lost", "rec lost", "repaired");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::SimulationResults& r = results[i].results;
    std::printf("%-6zu %9.2f%% %11.2f%% %13.2f %10llu %9zu %8zu %8zu %11zu %11zu %9zu\n",
                r.replication, 100.0 * r.post_churn_success,
                100.0 * r.post_churn_indexed_success, r.avg_interactions_after_churn,
                static_cast<unsigned long long>(r.rpc_failures), r.degraded_sessions,
                r.gave_up_sessions, r.unreachable_sessions, r.mappings_lost,
                r.records_lost, r.repair_moves);
  }
  std::printf(
      "\nExpected shape: replication 1 loses every mapping and record on the\n"
      "crashed disks until the next republish round and degrades visibly;\n"
      "replication >= 2 fails over to surviving copies and keeps resolving\n"
      ">= 99%% of post-churn sessions whose entry queries are indexed.\n");
  return 0;
}
