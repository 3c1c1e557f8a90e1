// dhtidx_perfbench: builds one cell's world and feeds it, printing one JSON
// line with the raw measurements (perfbench/run.py turns them into the
// benchmark's metrics).
//
//   dhtidx_perfbench --workload NAME --seed N [--mode setup|run]
//                    [--seconds S] [--trace 0|1] [--spans-out PATH]
//
// --mode setup builds the world and reports its set-up time only. --mode run
// (the default) then feeds passes of the cell's query count, each a new block
// of the query stream: one warm-up pass, then as many timed passes as the
// cell's typical pass time fits into S seconds, and at least kMinPasses.
// Times are run seconds (host_clock.hpp).
// --trace 1 attaches the layer decorators, records spans and reports
// per-layer figures; --spans-out writes the raw spans there.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "cells.hpp"
#include "common/rss.hpp"
#include "host_clock.hpp"
#include "trace.hpp"

namespace {

using perfbench::SpanName;

constexpr std::size_t kMinPasses = 3;

/// Passes fed before the timed ones. The first pass faults in the feed's
/// working memory and, on lru10-epochs, fills the empty caches; it ran up to
/// 1.9x slower than the passes after it.
constexpr std::size_t kWarmupPasses = 1;

struct Options {
  perfbench::Workload workload = perfbench::Workload::kScan10x;
  std::uint64_t seed = 0;
  bool setup_only = false;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dhtidx_perfbench: %s\n"
               "usage: dhtidx_perfbench --workload scan-10x|lru10-epochs|wire-eventq "
               "--seed N [--mode setup|run] [--seconds S] [--trace 0|1] "
               "[--spans-out PATH]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("every option takes a value");
    const char* value = argv[++i];
    if (arg == "--workload") {
      const auto workload = perfbench::parse_workload(value);
      if (!workload) usage("unknown workload");
      options.workload = *workload;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--mode") {
      const std::string_view mode = value;
      if (mode != "setup" && mode != "run") usage("--mode is setup or run");
      options.setup_only = mode == "setup";
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string_view{value} == "1";
    } else if (arg == "--spans-out") {
      options.spans_out = value;
    } else {
      usage("unknown option");
    }
  }
  if (!have_workload) usage("--workload is required");
  return options;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Builds one flat JSON object; values are printed with every digit.
class JsonLine {
 public:
  void add(const char* key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    field(key, buffer);
  }
  void add(const char* key, std::uint64_t value) { field(key, std::to_string(value)); }
  void add(const char* key, bool value) { field(key, value ? "true" : "false"); }
  void add(const char* key, const std::string& value) { field(key, "\"" + value + "\""); }
  void add_object(const char* key, const JsonLine& object) { field(key, object.str()); }
  void add_list(const char* key, const std::vector<double>& values) {
    std::string list = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buffer[64];
      std::snprintf(buffer, sizeof buffer, "%s%.17g", i == 0 ? "" : ",", values[i]);
      list += buffer;
    }
    field(key, list + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void field(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += value;
  }
  std::string body_;
};

/// FNV-1a over every count of every pass, in pass order: run.py compares it
/// with the committed digest, so no pass goes unchecked.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }

  void add(const dhtidx::net::TrafficLedger& ledger) {
    for (const auto& category : ledger.categories()) {
      add(category.stats->messages());
      add(category.stats->bytes());
    }
  }

  void add(const perfbench::PassCounts& pass) {
    for (const std::uint64_t value :
         {pass.lookups, pass.interactions, pass.hits, pass.non_indexed, pass.failed}) {
      add(value);
    }
    add(pass.ledger);
    add(pass.wire);
  }

  std::string hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void accumulate(perfbench::PassCounts& total, const perfbench::PassCounts& pass) {
  total.lookups += pass.lookups;
  total.interactions += pass.interactions;
  total.hits += pass.hits;
  total.non_indexed += pass.non_indexed;
  total.failed += pass.failed;
  total.ledger.merge(pass.ledger);
  total.wire.merge(pass.wire);
}

/// The deterministic counts run.py checks against the committed values:
/// one pass's (or the run's summed) outcomes and the world after it.
JsonLine counts_json(const perfbench::PassCounts& pass, const perfbench::WorldCounts& world) {
  JsonLine counts;
  counts.add("lookups", pass.lookups);
  counts.add("interactions", pass.interactions);
  counts.add("hits", pass.hits);
  counts.add("non_indexed", pass.non_indexed);
  counts.add("failed", pass.failed);
  counts.add("query_bytes", pass.ledger.queries.bytes());
  counts.add("response_bytes", pass.ledger.responses.bytes());
  counts.add("cache_bytes", pass.ledger.cache.bytes());
  counts.add("analytic_messages", pass.ledger.total_messages());
  counts.add("wire_frames", pass.wire.total_messages());
  counts.add("wire_bytes", pass.wire.total_bytes());
  counts.add("mappings", world.mappings);
  counts.add("cached_entries", world.cached_entries);
  counts.add("interned", world.interned);
  counts.add("storage_keys", world.storage_keys);
  counts.add("posts", world.posts);
  counts.add("retransmits", world.retransmits);
  return counts;
}

/// Per-layer figures of a traced run, folded from its spans.
JsonLine layers_json(const perfbench::CellSpec& spec, const std::vector<perfbench::Span>& spans,
                     const perfbench::PassCounts& first, const perfbench::WorldCounts& world,
                     const perfbench::PassCounts& run_total, std::uint64_t dht_build_calls,
                     std::uint64_t dht_feed_calls, double setup_s, double lookups_per_s,
                     double span_ns) {
  const auto totals = perfbench::fold_by_name(spans);
  const auto of = [&](SpanName name) -> const perfbench::NameTotals& {
    return totals[static_cast<std::size_t>(name)];
  };
  const auto count = [&](SpanName name) { return static_cast<double>(of(name).count); };
  const auto total = [&](SpanName name) { return static_cast<double>(of(name).total_ns); };
  const auto self = [&](SpanName name) { return static_cast<double>(of(name).self_ns); };

  std::vector<std::int64_t> resolve_ns;
  for (const perfbench::Span& span : spans) {
    if (span.name == SpanName::kResolve) resolve_ns.push_back(span.end_ns - span.start_ns);
  }
  std::sort(resolve_ns.begin(), resolve_ns.end());
  const auto percentile_us = [&](double p) {
    if (resolve_ns.empty()) return 0.0;
    const auto at = static_cast<std::size_t>(p * static_cast<double>(resolve_ns.size() - 1));
    return static_cast<double>(resolve_ns[at]) / 1e3;
  };

  const double lookups = static_cast<double>(first.lookups);
  const double articles = static_cast<double>(spec.articles);
  const double dht_samples = count(SpanName::kDhtLookup) + count(SpanName::kDhtReplicaSet);

  JsonLine layers;
  layers.add("sim.build_self_s", self(SpanName::kSimBuild) / 1e9);
  layers.add("sim.feed_self_s", ratio(self(SpanName::kSimFeed) / 1e9, count(SpanName::kSimFeed)));
  layers.add("biblio.corpus_s", total(SpanName::kCorpus) / 1e9);
  layers.add("workload.request_us",
             ratio(total(SpanName::kRequest) / 1e3, count(SpanName::kRequest)));
  layers.add("index.resolve_self_us",
             ratio(self(SpanName::kResolve) / 1e3, count(SpanName::kResolve)));
  layers.add("index.resolve_p50_us", percentile_us(0.50));
  layers.add("index.resolve_p99_us", percentile_us(0.99));
  layers.add("index.resolve_samples", static_cast<std::uint64_t>(resolve_ns.size()));
  layers.add("index.build_us_per_article",
             ratio(self(SpanName::kIndexFile) / 1e3, count(SpanName::kIndexFile)));
  layers.add("index.interactions_per_lookup",
             ratio(static_cast<double>(first.interactions), lookups));
  layers.add("index.response_bytes_per_lookup",
             ratio(static_cast<double>(first.ledger.responses.bytes()), lookups));
  layers.add("index.cache_bytes_per_lookup",
             ratio(static_cast<double>(first.ledger.cache.bytes()), lookups));
  layers.add("index.hit_ratio", ratio(static_cast<double>(first.hits), lookups));
  layers.add("index.hit_ratio_run", ratio(static_cast<double>(run_total.hits),
                                          static_cast<double>(run_total.lookups)));
  layers.add("index.mappings", world.mappings);
  layers.add("index.cached_entries", world.cached_entries);
  layers.add("query.interned", world.interned);
  layers.add("storage.keys", world.storage_keys);
  layers.add("dht.calls_per_lookup", ratio(static_cast<double>(dht_feed_calls), lookups));
  layers.add("dht.calls_per_article", ratio(static_cast<double>(dht_build_calls), articles));
  layers.add("dht.call_ns",
             ratio(total(SpanName::kDhtLookup) + total(SpanName::kDhtReplicaSet), dht_samples));
  layers.add("dht.samples", static_cast<std::uint64_t>(dht_samples));
  layers.add("net.frames_per_lookup",
             ratio(static_cast<double>(first.wire.total_messages()), lookups));
  layers.add("net.wire_bytes_per_lookup",
             ratio(static_cast<double>(first.wire.total_bytes()), lookups));
  layers.add("net.posts_per_article", ratio(static_cast<double>(world.posts), articles));
  layers.add("net.retransmits", world.retransmits);
  layers.add("net.send_ns_per_frame", ratio(total(SpanName::kNetSend), count(SpanName::kNetSend)));
  layers.add("net.pump_self_ns_per_frame",
             ratio(self(SpanName::kNetPump), count(SpanName::kNetDispatch)));
  layers.add("net.dispatch_ns_per_frame",
             ratio(self(SpanName::kNetDispatch), count(SpanName::kNetDispatch)));
  layers.add("net.frames", static_cast<std::uint64_t>(count(SpanName::kNetSend)));
  layers.add("net.sync_s", total(SpanName::kNetSync) / 1e9);
  layers.add("trace.setup_s", setup_s);
  layers.add("trace.lookups_per_s", lookups_per_s);
  layers.add("trace.span_ns", span_ns);
  layers.add("trace.spans", static_cast<std::uint64_t>(spans.size()));
  return layers;
}

int run(const Options& options) {
  const perfbench::CellSpec spec = perfbench::default_spec(options.workload, options.seed);
  const perfbench::HostClock clock{spec.threads};
  const std::unique_ptr<perfbench::Cell> cell = perfbench::make_cell(spec, options.trace);

  double span_ns = 0.0;
  if (options.trace) {
    perfbench::enable_tracing();
    span_ns = perfbench::span_cost_ns(200000);
  }

  const perfbench::HostClock::Reading setup_start = clock.now();
  {
    const perfbench::ScopedSpan span{SpanName::kSetup};
    cell->setup();
  }
  const double setup_s = clock.run_seconds(setup_start, clock.now());

  JsonLine out;
  out.add("workload", std::string{perfbench::workload_name(spec.workload)});
  out.add("seed", options.seed);
  out.add("setup_s", setup_s);
  if (options.setup_only) {
    std::printf("%s\n", out.str().c_str());
    return 0;
  }

  const std::uint64_t dht_build_calls = cell->dht_calls();
  std::uint64_t dht_feed_calls = 0;
  perfbench::PassCounts first;
  perfbench::WorldCounts world;
  perfbench::PassCounts run_total;
  Digest digest;
  std::vector<double> pass_s;
  std::vector<double> pass_wall_s;
  const std::size_t passes =
      kWarmupPasses +
      std::max<std::size_t>(kMinPasses, static_cast<std::size_t>(
                                            std::llround(options.seconds / spec.pass_seconds)));
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const perfbench::HostClock::Reading pass_start = clock.now();
    perfbench::PassCounts counts;
    {
      const perfbench::ScopedSpan span{SpanName::kPass};
      const perfbench::AmbientParent ambient{span.id()};
      counts = cell->feed_pass(pass);
    }
    const perfbench::HostClock::Reading pass_end = clock.now();
    pass_s.push_back(clock.run_seconds(pass_start, pass_end));
    pass_wall_s.push_back(perfbench::HostClock::wall_seconds(pass_start, pass_end));
    accumulate(run_total, counts);
    digest.add(counts);
    if (pass == 0) {
      first = counts;
      world = cell->world_counts();
      dht_feed_calls = cell->dht_calls() - dht_build_calls;
    }
  }
  const std::uint64_t peak_rss_bytes = dhtidx::peak_rss_bytes();
  const perfbench::WorldCounts world_end = cell->world_counts();
  const std::vector<perfbench::Span> spans = perfbench::take_spans();

  std::vector<double> rates;
  for (std::size_t pass = kWarmupPasses; pass < passes; ++pass) {
    rates.push_back(static_cast<double>(spec.queries) / pass_s[pass]);
  }
  const double lookups_per_s = median(rates);

  // Untimed: a read-only world must answer the first pass's sessions again
  // exactly as it did before the other passes ran.
  const bool consistent = !cell->read_only() || cell->feed_pass(0) == first;

  out.add("articles", static_cast<std::uint64_t>(spec.articles));
  out.add("queries", static_cast<std::uint64_t>(spec.queries));
  out.add("passes", static_cast<std::uint64_t>(pass_s.size()));
  out.add_list("pass_s", pass_s);
  out.add_list("pass_wall_s", pass_wall_s);
  out.add("lookups_per_s", lookups_per_s);
  out.add("attempted", run_total.lookups);
  out.add("failed", run_total.failed);
  out.add("consistent", consistent);
  out.add("peak_rss_bytes", peak_rss_bytes);
  JsonLine counts = counts_json(first, world);
  if (options.trace) {
    counts.add("dht_build_calls", dht_build_calls);
    counts.add("dht_feed_calls", dht_feed_calls);
  }
  out.add_object("counts", counts);
  JsonLine run_counts = counts_json(run_total, world_end);
  run_counts.add("passes_digest", digest.hex());
  out.add_object("run_counts", run_counts);

  if (options.trace) {
    out.add_object("layers", layers_json(spec, spans, first, world, run_total, dht_build_calls,
                                         dht_feed_calls, setup_s, lookups_per_s, span_ns));
    if (!options.spans_out.empty() && !perfbench::write_spans(options.spans_out, spans)) {
      std::fprintf(stderr, "dhtidx_perfbench: cannot write %s\n", options.spans_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dhtidx_perfbench: %s\n", error.what());
    return 1;
  }
}
