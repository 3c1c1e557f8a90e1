// Parallel experiment sweep runner.
//
// Every exhibit of the paper is a sweep over scheme x cache-policy x
// capacity cells, and each cell is an independent simulation over one shared
// read-only corpus. SweepRunner executes such a vector of cells on a
// fixed-size worker pool and returns the results in submission order, so the
// bench binaries print exactly the tables they printed when they ran the
// cells sequentially -- only faster.
//
// Thread-safety contract (audited in PR 1): the corpus is the only object
// shared between cells and is never written after construction; everything
// else a run touches (substrate, TrafficLedger, IndexService, caches, Rng,
// query generator) is created inside run_simulation and stays run-local.
// query::Query memoizes its canonical form in a mutable member, but the
// shared corpus stores only plain article data -- queries are materialized
// per call -- so no Query instance is ever shared across workers.
//
// The one mutable slot workers do share -- the first-error collector inside
// parallel_for -- is analyzer-visible since PR 8: its mutex is a
// dhtidx::Mutex capability and the slot fields are DHTIDX_GUARDED_BY it
// (common/thread_annotations.hpp; build with -DDHTIDX_THREAD_SAFETY=ON under
// Clang to prove the locking discipline at compile time).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulation.hpp"

namespace dhtidx::sim {

/// How a sweep schedules its cells.
struct SweepOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  std::size_t jobs = 0;
};

/// One executed cell: its config, its measurements, and how long it took on
/// its worker.
struct CellResult {
  std::size_t index = 0;  ///< submission position
  SimulationConfig config;
  SimulationResults results;
  double wall_seconds = 0.0;
};

/// A whole sweep: per-cell results in submission order plus sweep-level
/// timing.
struct SweepSummary {
  std::vector<CellResult> cells;
  std::size_t jobs = 0;        ///< workers actually used
  double wall_seconds = 0.0;   ///< end-to-end sweep time
};

/// Runs body(0..count-1), each index at most once, on up to `jobs` worker
/// threads (0 = hardware concurrency). Fails fast: when a body throws, no
/// further index is claimed (already-running ones finish), and the first
/// error is rethrown as a dhtidx::Error naming the failing cell index
/// (non-std exceptions are rethrown as-is). Without errors every index runs
/// exactly once. `body` must only touch index-local or read-only state.
void parallel_for(std::size_t jobs, std::size_t count,
                  const std::function<void(std::size_t)>& body);

/// Executes simulation cells on a fixed-size thread pool.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Worker threads the runner will use.
  std::size_t jobs() const { return jobs_; }

  /// Runs every cell and returns the results in submission order. When
  /// `shared_corpus` is non-null all cells read it concurrently (it must not
  /// be mutated for the duration of the call); otherwise each cell generates
  /// its own corpus from its config. Under -DDHTIDX_AUDIT=ON every cell is
  /// invariant-audited at its phase boundaries (see src/audit); a violation
  /// fails the sweep fast with an error naming the cell.
  SweepSummary run(const std::vector<SimulationConfig>& cells,
                   const biblio::Corpus* shared_corpus = nullptr) const;

 private:
  std::size_t jobs_;
};

/// One-line machine-readable summary of a sweep (the `BENCH_*.json`
/// trajectory format): bench name, job count, sweep wall time, and per cell
/// the label/config echo, wall time, and headline metrics.
std::string json_summary(std::string_view bench_name, const SweepSummary& sweep);

}  // namespace dhtidx::sim
