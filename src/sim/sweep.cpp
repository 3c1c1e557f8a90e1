#include "sim/sweep.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rss.hpp"
#include "common/thread_annotations.hpp"

namespace dhtidx::sim {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::size_t resolve_jobs(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

const char* substrate_name(Substrate substrate) {
  switch (substrate) {
    case Substrate::kRing:
      return "ring";
    case Substrate::kChord:
      return "chord";
    case Substrate::kCan:
      return "can";
    case Substrate::kPastry:
      return "pastry";
  }
  return "?";
}

using json::append_field;
using json::num;

/// Rethrows `error` wrapped so the message names the failing cell. The
/// original exception type is preserved for non-std exceptions; everything
/// derived from std::exception resurfaces as dhtidx::Error (itself a
/// std::runtime_error, so catch sites keep working).
[[noreturn]] void rethrow_named(std::exception_ptr error, std::size_t cell) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    throw Error("parallel_for: cell " + std::to_string(cell) + " failed: " + e.what());
  } catch (...) {
    std::rethrow_exception(error);
  }
}

/// First-error slot shared by the pool workers. The mutex is the capability:
/// under DHTIDX_THREAD_SAFETY the analyzer proves every touch of the slot
/// happens with it held, so a future fast-path "check before locking" edit
/// cannot silently reintroduce the race.
class ErrorCollector {
 public:
  /// Records the first (cell, error) pair; later calls are ignored (the
  /// sweep reports the first failure it saw, like the sequential path).
  void record(std::size_t cell, std::exception_ptr error) DHTIDX_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    if (!error_) {
      error_ = std::move(error);
      cell_ = cell;
    }
  }

  /// Rethrows the recorded error, if any. Called after the join barrier, but
  /// takes the lock anyway: it is uncontended there, and the annotation keeps
  /// a single locking story for the class.
  void rethrow_if_any() DHTIDX_EXCLUDES(mutex_) {
    std::exception_ptr error;
    std::size_t cell = 0;
    {
      const MutexLock lock(mutex_);
      error = error_;
      cell = cell_;
    }
    if (error) rethrow_named(std::move(error), cell);
  }

 private:
  Mutex mutex_;
  std::exception_ptr error_ DHTIDX_GUARDED_BY(mutex_);
  std::size_t cell_ DHTIDX_GUARDED_BY(mutex_) = 0;
};

}  // namespace

void parallel_for(std::size_t jobs, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t workers = std::min(resolve_jobs(jobs), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      try {
        body(i);
      } catch (...) {
        rethrow_named(std::current_exception(), i);
      }
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  ErrorCollector errors;
  auto worker = [&] {
    // Fail fast: once any worker records an error, the others stop claiming
    // cells instead of grinding through the rest of the sweep.
    while (!abort.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        errors.record(i, std::current_exception());
        abort.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  errors.rethrow_if_any();
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(options), jobs_(resolve_jobs(options.jobs)) {}

SweepSummary SweepRunner::run(const std::vector<SimulationConfig>& cells,
                              const biblio::Corpus* shared_corpus) const {
  SweepSummary summary;
  summary.jobs = std::min(jobs_, std::max<std::size_t>(cells.size(), 1));
  summary.cells.resize(cells.size());
  const auto sweep_start = std::chrono::steady_clock::now();

  parallel_for(jobs_, cells.size(), [&](std::size_t i) {
    CellResult& cell = summary.cells[i];
    cell.index = i;
    cell.config = cells[i];
    const auto cell_start = std::chrono::steady_clock::now();
    cell.results = run_simulation(cell.config, shared_corpus);
    cell.wall_seconds = seconds_since(cell_start);
  });

  summary.wall_seconds = seconds_since(sweep_start);
  return summary;
}

std::string json_summary(std::string_view bench_name, const SweepSummary& sweep) {
  std::string out = "{";
  append_field(out, "bench", bench_name);
  append_field(out, "jobs", std::to_string(sweep.jobs), false);
  append_field(out, "cells", std::to_string(sweep.cells.size()), false);
  append_field(out, "wall_s", num(sweep.wall_seconds), false);
  // Process-wide memory watermark at summary time. Machine-dependent, so it
  // sits at the top level next to wall_s, never inside the per-cell results
  // (those must stay bit-identical across runs and --shards counts).
  append_field(out, "peak_rss_bytes", std::to_string(peak_rss_bytes()), false);
  out += ",\"results\":[";
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const CellResult& cell = sweep.cells[i];
    const SimulationResults& r = cell.results;
    if (i != 0) out.push_back(',');
    out.push_back('{');
    append_field(out, "cell", std::to_string(cell.index), false);
    append_field(out, "label", config_label(cell.config));
    append_field(out, "scheme", index::to_string(cell.config.scheme));
    append_field(out, "policy", index::to_string(cell.config.policy));
    append_field(out, "capacity", std::to_string(cell.config.cache_capacity), false);
    append_field(out, "substrate", substrate_name(cell.config.substrate));
    append_field(out, "nodes", std::to_string(cell.config.nodes), false);
    append_field(out, "queries", std::to_string(cell.config.queries), false);
    append_field(out, "seed", std::to_string(cell.config.seed), false);
    append_field(out, "wall_s", num(cell.wall_seconds), false);
    append_field(out, "avg_interactions", num(r.avg_interactions), false);
    append_field(out, "hit_ratio", num(r.hit_ratio), false);
    append_field(out, "first_node_hit_share", num(r.first_node_hit_share), false);
    append_field(out, "normal_traffic_per_query", num(r.normal_traffic_per_query), false);
    append_field(out, "cache_traffic_per_query", num(r.cache_traffic_per_query), false);
    append_field(out, "avg_cached_keys_per_node", num(r.avg_cached_keys_per_node), false);
    append_field(out, "non_indexed_queries", std::to_string(r.non_indexed_queries), false);
    append_field(out, "failed_lookups", std::to_string(r.failed_lookups), false);
    append_field(out, "replication", std::to_string(cell.config.replication), false);
    if (cell.config.transport != TransportKind::kInProcess) {
      // Wire-measurement fields only appear for non-default transports, so
      // the default sweep JSON stays bit-identical to the pre-message-layer
      // output (same rule as the churn-gated block below).
      append_field(out, "transport", to_string(cell.config.transport));
      append_field(out, "wire_normal_traffic_per_query",
                   num(r.wire_normal_traffic_per_query), false);
      append_field(out, "wire_cache_traffic_per_query",
                   num(r.wire_cache_traffic_per_query), false);
      append_field(out, "wire_messages", std::to_string(r.wire_messages), false);
      append_field(out, "wire_total_bytes", std::to_string(r.wire_ledger.total_bytes()),
                   false);
      append_field(out, "event_clock_ms", num(r.event_clock_ms), false);
    }
    if (cell.config.churn.enabled()) {
      append_field(out, "crashed_nodes", std::to_string(r.crashed_nodes), false);
      append_field(out, "joined_nodes", std::to_string(r.joined_nodes), false);
      append_field(out, "sessions_after_churn", std::to_string(r.sessions_after_churn),
                   false);
      append_field(out, "post_churn_success", num(r.post_churn_success), false);
      append_field(out, "post_churn_indexed_success", num(r.post_churn_indexed_success),
                   false);
      append_field(out, "avg_interactions_after_churn",
                   num(r.avg_interactions_after_churn), false);
      append_field(out, "rpc_failures", std::to_string(r.rpc_failures), false);
      append_field(out, "degraded_sessions", std::to_string(r.degraded_sessions), false);
      append_field(out, "gave_up_sessions", std::to_string(r.gave_up_sessions), false);
      append_field(out, "unreachable_sessions", std::to_string(r.unreachable_sessions),
                   false);
      append_field(out, "stale_shortcut_invalidations",
                   std::to_string(r.stale_shortcut_invalidations), false);
      append_field(out, "retry_messages", std::to_string(r.ledger.retries.messages()),
                   false);
      append_field(out, "retry_bytes", std::to_string(r.ledger.retries.bytes()), false);
      append_field(out, "retry_backoff_ms", num(r.retry_backoff_ms), false);
      append_field(out, "mappings_lost", std::to_string(r.mappings_lost), false);
      append_field(out, "records_lost", std::to_string(r.records_lost), false);
      append_field(out, "republish_rounds", std::to_string(r.republish_rounds), false);
      append_field(out, "repair_moves", std::to_string(r.repair_moves), false);
    }
    if (cell.config.chaos.enabled()) {
      // Chaos fields only appear for chaos cells, so the JSON of every
      // pre-existing cell stays byte-for-byte unchanged.
      append_field(out, "partitioned_nodes", std::to_string(r.partitioned_nodes), false);
      append_field(out, "chaos_frames_dropped",
                   std::to_string(r.chaos_frames_dropped), false);
      append_field(out, "chaos_frames_duplicated",
                   std::to_string(r.chaos_frames_duplicated), false);
      append_field(out, "chaos_frames_reordered",
                   std::to_string(r.chaos_frames_reordered), false);
      append_field(out, "chaos_frames_delayed",
                   std::to_string(r.chaos_frames_delayed), false);
      append_field(out, "chaos_frames_corrupted",
                   std::to_string(r.chaos_frames_corrupted), false);
      append_field(out, "bus_timeouts", std::to_string(r.bus_timeouts), false);
      append_field(out, "bus_duplicates", std::to_string(r.bus_duplicates), false);
      append_field(out, "bus_rejected", std::to_string(r.bus_rejected), false);
      append_field(out, "convergence_ms", num(r.convergence_ms), false);
    }
    out.push_back('}');
  }
  out += "]}";
  return out;
}

}  // namespace dhtidx::sim
