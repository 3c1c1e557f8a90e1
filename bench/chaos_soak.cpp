// Chaos soak (robustness extension; not a paper exhibit).
//
// Seeded chaos schedules x replication factors over the churn simulation:
// mid-feed the network starts dropping, duplicating, reordering and
// bit-corrupting frames (and optionally partitions a node sample), a churn
// crash lands on top, and at the heal point every fault clears. The
// end-of-feed repair pass re-converges the index and the post-run audit's
// convergence invariant (DHTIDX_AUDIT builds) holds the healed world to
// converged standards. Reported per cell: availability over the post-churn
// feed, virtual convergence time, and the bus's defensive counters
// (timeout retransmissions, deduplicated duplicates, codec-rejected frames).
//
//   chaos_soak [--jobs N] [--smoke] [--out FILE]
//              [--nodes N] [--articles N] [--queries N]
//
// --smoke runs a reduced grid twice -- once on 1 worker, once on --jobs
// workers -- and asserts the two sweeps are bit-identical cell by cell (the
// repo's determinism guarantee extended to adversarial schedules).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace dhtidx;
using namespace dhtidx::bench;

namespace {

struct Args {
  std::size_t jobs = 0;
  bool smoke = false;
  std::string out;
  std::size_t nodes = 200;
  std::size_t articles = 3000;
  std::size_t queries = 12000;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--jobs N] [--smoke] [--out FILE]\n"
          "          [--nodes N] [--articles N] [--queries N]\n"
          "  --jobs N, -j N  worker threads for the sweep (default: hardware)\n"
          "  --smoke         reduced grid + bit-identity check across --jobs\n"
          "  --out FILE      also write the sweep JSON to FILE\n"
          "  --nodes N       network size (default 200)\n"
          "  --articles N    corpus size (default 3000)\n"
          "  --queries N     feed length (default 12000)\n",
          argv[0]);
      std::exit(0);
    }
    if (arg == "--smoke") {
      args.smoke = true;
      continue;
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
    } else if (arg == "--out") {
      args.out = value();
    } else if (arg == "--nodes") {
      args.nodes = parse_count(argv[0], arg, value());
    } else if (arg == "--articles") {
      args.articles = parse_count(argv[0], arg, value());
    } else if (arg == "--queries") {
      args.queries = parse_count(argv[0], arg, value());
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n", argv[0],
                   arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

/// One named adversary schedule layered over the common churn run.
struct Schedule {
  const char* name;
  sim::ChaosConfig chaos;
};

std::vector<Schedule> schedules() {
  Schedule faults{"faults", {}};
  faults.chaos.drop_probability = 0.02;
  faults.chaos.duplicate_probability = 0.05;
  faults.chaos.corrupt_probability = 0.05;
  faults.chaos.reorder_probability = 0.20;

  Schedule partition{"partition", {}};
  partition.chaos.partition_fraction = 0.10;
  partition.chaos.duplicate_probability = 0.02;

  return {faults, partition};
}

/// Every deterministic field a replay must reproduce bit-for-bit (wall times
/// and RSS are machine-dependent by design and excluded).
bool identical(const sim::SimulationResults& a, const sim::SimulationResults& b,
               std::string& detail) {
  const auto check = [&](const char* field, double x, double y) {
    if (x == y) return true;
    detail = std::string(field) + ": " + std::to_string(x) + " vs " + std::to_string(y);
    return false;
  };
  if (!check("avg_interactions", a.avg_interactions, b.avg_interactions)) return false;
  if (!check("hit_ratio", a.hit_ratio, b.hit_ratio)) return false;
  if (!check("failed_lookups", static_cast<double>(a.failed_lookups),
             static_cast<double>(b.failed_lookups)))
    return false;
  if (!check("post_churn_success", a.post_churn_success, b.post_churn_success))
    return false;
  if (!check("rpc_failures", static_cast<double>(a.rpc_failures),
             static_cast<double>(b.rpc_failures)))
    return false;
  if (!check("wire_messages", static_cast<double>(a.wire_messages),
             static_cast<double>(b.wire_messages)))
    return false;
  if (!check("event_clock_ms", a.event_clock_ms, b.event_clock_ms)) return false;
  if (!check("convergence_ms", a.convergence_ms, b.convergence_ms)) return false;
  if (!check("partitioned_nodes", static_cast<double>(a.partitioned_nodes),
             static_cast<double>(b.partitioned_nodes)))
    return false;
  if (!check("chaos_frames_dropped", static_cast<double>(a.chaos_frames_dropped),
             static_cast<double>(b.chaos_frames_dropped)))
    return false;
  if (!check("chaos_frames_duplicated", static_cast<double>(a.chaos_frames_duplicated),
             static_cast<double>(b.chaos_frames_duplicated)))
    return false;
  if (!check("chaos_frames_reordered", static_cast<double>(a.chaos_frames_reordered),
             static_cast<double>(b.chaos_frames_reordered)))
    return false;
  if (!check("chaos_frames_corrupted", static_cast<double>(a.chaos_frames_corrupted),
             static_cast<double>(b.chaos_frames_corrupted)))
    return false;
  if (!check("bus_timeouts", static_cast<double>(a.bus_timeouts),
             static_cast<double>(b.bus_timeouts)))
    return false;
  if (!check("bus_duplicates", static_cast<double>(a.bus_duplicates),
             static_cast<double>(b.bus_duplicates)))
    return false;
  if (!check("bus_rejected", static_cast<double>(a.bus_rejected),
             static_cast<double>(b.bus_rejected)))
    return false;
  for (const net::TrafficLedger::NamedCategory& category : a.wire_ledger.categories()) {
    const net::TrafficLedger& bl = b.wire_ledger;
    for (const net::TrafficLedger::NamedCategory& other : bl.categories()) {
      if (std::string(category.name) != other.name) continue;
      if (category.stats->bytes() != other.stats->bytes() ||
          category.stats->messages() != other.stats->messages()) {
        detail = std::string("wire_ledger.") + category.name;
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);
  if (args.smoke) {
    args.nodes = 40;
    args.articles = 300;
    args.queries = 1200;
    if (args.jobs == 0) args.jobs = 2;
  }
  banner("Chaos soak: adversarial schedules x replication over the churn run");

  sim::SimulationConfig base = paper_config();
  base.nodes = args.nodes;
  base.queries = args.queries;
  base.corpus.articles = args.articles;
  if (args.articles != 10000) {
    base.corpus.authors = args.articles * 7 / 25 + 1;
    base.corpus.conferences = args.articles >= 3000 ? 60 : 20;
  }
  base.scheme = index::SchemeKind::kSimple;
  base.policy = index::CachePolicy::kSingle;  // exercise the stale-shortcut path
  base.transport = sim::TransportKind::kEventQueue;
  base.churn.crash_fraction = 0.08;
  base.churn.republish_interval = args.queries / 10;

  const biblio::Corpus corpus = biblio::Corpus::generate(base.corpus);

  const std::size_t replications[] = {1, 3};
  std::vector<sim::SimulationConfig> cells;
  std::vector<std::string> schedule_names;
  for (const Schedule& schedule : schedules()) {
    for (const std::size_t r : replications) {
      sim::SimulationConfig config = base;
      config.chaos = schedule.chaos;
      config.replication = r;
      cells.push_back(config);
      schedule_names.push_back(schedule.name);
    }
  }

  BenchOptions options;
  options.jobs = args.jobs;
  const auto results = run_cells("chaos_soak", cells, &corpus, options);

  std::printf("%-10s %-5s %10s %12s %10s %10s %10s %10s %12s\n", "schedule", "repl",
              "post ok", "indexed ok", "timeouts", "dups", "rejected", "dropped",
              "converge ms");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::SimulationResults& r = results[i].results;
    std::printf("%-10s %-5zu %9.2f%% %11.2f%% %10llu %10llu %10llu %10llu %12.1f\n",
                schedule_names[i].c_str(), r.replication, 100.0 * r.post_churn_success,
                100.0 * r.post_churn_indexed_success,
                static_cast<unsigned long long>(r.bus_timeouts),
                static_cast<unsigned long long>(r.bus_duplicates),
                static_cast<unsigned long long>(r.bus_rejected),
                static_cast<unsigned long long>(r.chaos_frames_dropped),
                r.convergence_ms);
  }

  // Replication must not hurt: under the same adversary schedule, r=3 keeps
  // post-churn availability at or above r=1.
  bool availability_ok = true;
  for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
    const double r1 = results[i].results.post_churn_success;
    const double r3 = results[i + 1].results.post_churn_success;
    if (r3 < r1) {
      std::fprintf(stderr, "[soak] FAIL: schedule '%s' availability r3 %.4f < r1 %.4f\n",
                   schedule_names[i].c_str(), r3, r1);
      availability_ok = false;
    }
  }
  if (!availability_ok) return 1;

  if (!args.out.empty()) {
    // Re-derive the summary JSON from the per-cell results we already hold.
    sim::SweepSummary summary;
    summary.jobs = args.jobs == 0 ? 0 : args.jobs;
    summary.cells = results;
    std::FILE* out = std::fopen(args.out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "[soak] cannot write %s\n", args.out.c_str());
      return 1;
    }
    std::fprintf(out, "%s\n", sim::json_summary("chaos_soak", summary).c_str());
    std::fclose(out);
    std::printf("[soak] wrote %s\n", args.out.c_str());
  }

  if (args.smoke) {
    // Determinism gate: the same grid on a single worker must replay every
    // cell bit-identically, adversarial schedules and all.
    sim::SweepOptions sequential;
    sequential.jobs = 1;
    const sim::SweepSummary replay = sim::SweepRunner{sequential}.run(cells, &corpus);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::string detail;
      if (!identical(results[i].results, replay.cells[i].results, detail)) {
        std::fprintf(stderr,
                     "[smoke] FAIL: cell %zu (%s r%zu) diverged across --jobs: %s\n", i,
                     schedule_names[i].c_str(), cells[i].replication, detail.c_str());
        return 1;
      }
    }
    std::printf("[smoke] OK: %zu cells bit-identical across %zu vs 1 worker(s)\n",
                cells.size(), args.jobs);
  }
  return 0;
}
