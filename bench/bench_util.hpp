// Shared helpers for the experiment-reproduction binaries.
//
// Each bench regenerates one exhibit of the paper (a figure or table) at the
// paper's scale: a 500-node network, 10,000 articles, 50,000 queries from the
// realistic generator. Helpers here provide that canonical configuration and
// lightweight table formatting.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep.hpp"

namespace dhtidx::bench {

/// Command-line options shared by every bench binary.
struct BenchOptions {
  std::size_t jobs = 0;    ///< worker threads for sweeps; 0 = hardware concurrency
  std::size_t shards = 0;  ///< >0: run cells as streaming worlds with N shards
  const char* program = "";  ///< argv[0], for error messages
};

/// The one command-line count parser of the bench binaries: digits only
/// (common/strings.hpp's parse_number), so "-1" is an error rather than
/// 2^64 - 1. Exits 2 naming `flag` on anything else.
inline std::size_t parse_count(const char* argv0, const std::string& flag, const char* text) {
  const std::optional<std::size_t> value = parse_number<std::size_t>(text);
  if (!value) {
    std::fprintf(stderr, "%s: '%s' is not a count for %s\n", argv0, text, flag.c_str());
    std::exit(2);
  }
  return *value;
}

/// Parses `--jobs N` / `--jobs=N` / `-j N`, `--shards N` / `--shards=N` (and
/// `--help`). Every bench accepts the flags; binaries without independent
/// simulation cells ignore --jobs. A bench whose cells cannot run as
/// streaming worlds passes `cannot_stream`, the reason why: its --help
/// leaves --shards out, and a nonzero --shards exits 2 with that reason.
/// Exits on unknown arguments.
inline BenchOptions parse_options(int argc, char** argv, const char* cannot_stream = nullptr) {
  BenchOptions options;
  options.program = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--jobs N]%s\n"
          "  --jobs N, -j N   worker threads for the experiment sweep\n"
          "                   (default: hardware concurrency)\n",
          argv[0], cannot_stream != nullptr ? "" : " [--shards N]");
      if (cannot_stream == nullptr) {
        std::printf(
            "  --shards N       run every cell as a streaming world with N\n"
            "                   shard workers (default: the materialized\n"
            "                   single-threaded world; the streamed corpus is a\n"
            "                   separate golden universe, results are\n"
            "                   bit-identical across N)\n");
      }
      std::exit(0);
    }
    if (arg == "--jobs" || arg == "-j" || arg == "--shards") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s expects a count\n", argv[0], arg.c_str());
        std::exit(2);
      }
      const std::size_t value = parse_count(argv[0], arg, argv[++i]);
      if (arg == "--shards") {
        options.shards = value;
      } else {
        options.jobs = value;
      }
      continue;
    }
    if (arg.rfind("--jobs=", 0) == 0) {
      options.jobs = parse_count(argv[0], "--jobs", arg.c_str() + 7);
      continue;
    }
    if (arg.rfind("--shards=", 0) == 0) {
      options.shards = parse_count(argv[0], "--shards", arg.c_str() + 9);
      continue;
    }
    std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n", argv[0], arg.c_str());
    std::exit(2);
  }
  if (options.shards != 0 && cannot_stream != nullptr) {
    std::fprintf(stderr, "%s: --shards: %s\n", argv[0], cannot_stream);
    std::exit(2);
  }
  return options;
}

/// Exits 2 with `<program>: --shards: <reason>` unless a world of `nodes`
/// nodes can run `shards` shards (sim::shard_count's rule). Call it before
/// any queue or thread exists.
inline void check_shards(const char* program, std::size_t shards, std::size_t nodes) {
  try {
    sim::shard_count(shards, nodes);
  } catch (const InvariantError& e) {
    std::fprintf(stderr, "%s: --shards: %s\n", program, e.what());
    std::exit(2);
  }
}

/// Applies `--shards N`: switches every cell to the streaming world with N
/// shard workers (shards == 0 leaves the cells untouched), after checking
/// that every cell can run N shards. Returns the corpus pointer to hand to
/// run_cells — nullptr for streaming runs, which synthesize their own corpus
/// from the cell's corpus parameters; the streamed universe is
/// golden-separate from the materialized one, but bit-identical across every
/// N (and every --jobs).
inline const biblio::Corpus* apply_shards(std::vector<sim::SimulationConfig>& cells,
                                          const biblio::Corpus* corpus,
                                          const BenchOptions& options) {
  if (options.shards == 0) return corpus;
  for (sim::SimulationConfig& cell : cells) {
    check_shards(options.program, options.shards, cell.nodes);
    cell.streaming = true;
    cell.shards = options.shards;
  }
  return nullptr;
}

/// Submits the cells to the parallel sweep runner, prints the sweep timing
/// plus the one-line JSON summary, and returns per-cell results in
/// submission order (so tables print exactly as the sequential code did).
inline std::vector<sim::CellResult> run_cells(const std::string& bench_name,
                                              const std::vector<sim::SimulationConfig>& cells,
                                              const biblio::Corpus* corpus,
                                              const BenchOptions& options) {
  sim::SweepOptions sweep_options;
  sweep_options.jobs = options.jobs;
  const sim::SweepRunner runner{sweep_options};
  sim::SweepSummary sweep = runner.run(cells, corpus);
  std::printf("[sweep] %s: %zu cells on %zu worker(s) in %.2fs\n", bench_name.c_str(),
              sweep.cells.size(), sweep.jobs, sweep.wall_seconds);
  std::printf("%s\n", sim::json_summary(bench_name, sweep).c_str());
  return std::move(sweep.cells);
}

/// The evaluation setup of Section V-E.
inline sim::SimulationConfig paper_config() {
  sim::SimulationConfig config;
  config.nodes = 500;
  config.queries = 50000;
  config.corpus.articles = 10000;
  config.corpus.authors = 2800;   // DBLP-like ~3.5 articles per author
  config.corpus.conferences = 60;
  config.seed = 7;
  return config;
}

/// Section-header banner.
inline void banner(const std::string& title) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%s\n", std::string(title.size(), '=').c_str());
}

/// Prints one row of a fixed-width table.
inline void row(const std::string& label, const std::vector<std::string>& cells,
                int label_width = 22, int cell_width = 12) {
  std::printf("%-*s", label_width, label.c_str());
  for (const std::string& cell : cells) std::printf(" %*s", cell_width, cell.c_str());
  std::printf("\n");
}

inline std::string fmt(double value, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

inline std::string fmt_int(std::uint64_t value) {
  return std::to_string(value);
}

/// Percent with one decimal.
inline std::string fmt_pct(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * fraction);
  return buf;
}

}  // namespace dhtidx::bench
