// dhtidx_audit: invariant auditor for the distributed index (src/audit).
//
//   dhtidx_audit [--scheme simple|flat|complex|all] [--substrate ring|chord|can|pastry|all]
//                [--articles N] [--authors N] [--conferences N] [--corpus corpus.xml]
//                [--nodes N] [--seed S] [--warm N] [--policy none|single|multi|lru|lru-multi]
//                [--capacity K] [--replication R] [--snapshot snapshot.xml] [--report]
//
// For every selected scheme x substrate combination the tool builds the
// substrate, indexes the corpus (or restores --snapshot instead), optionally
// runs --warm lookup sessions to populate the shortcut caches, then runs the
// full audit: covering, reachability, acyclicity, placement, cache
// coherence, snapshot fidelity, and replica consistency. One JSON summary
// line is printed per
// combination (the sweep trajectory format); violations are printed in full.
// Exit status: 0 when every audit is clean, 1 when any invariant is
// violated, 2 on usage errors.
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "biblio/corpus.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"
#include "persist/snapshot.hpp"
#include "sim/simulation.hpp"
#include "workload/generator.hpp"

using namespace dhtidx;

namespace {

/// A malformed command line: main prints the usage text and exits 2.
struct UsageError : Error {
  using Error::Error;
};

struct Args {
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  std::size_t get_size(const std::string& key, std::size_t fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    const std::optional<std::size_t> value = parse_number<std::size_t>(it->second);
    if (!value) throw UsageError("--" + key + " expects a count, got '" + it->second + "'");
    return *value;
  }
  bool has(const std::string& key) const { return options.contains(key); }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw Error("unexpected argument '" + arg + "'");
    const std::string key = arg.substr(2);
    if (key == "report") {
      args.options[key] = "true";
    } else if (i + 1 < argc) {
      args.options[key] = argv[++i];
    } else {
      throw Error("option --" + key + " needs a value");
    }
  }
  return args;
}

std::vector<index::SchemeKind> schemes_from(const std::string& name) {
  if (name == "all") {
    return {index::SchemeKind::kSimple, index::SchemeKind::kFlat,
            index::SchemeKind::kComplex};
  }
  if (name == "simple") return {index::SchemeKind::kSimple};
  if (name == "flat") return {index::SchemeKind::kFlat};
  if (name == "complex") return {index::SchemeKind::kComplex};
  throw Error("unknown scheme '" + name + "' (simple|flat|complex|all)");
}

std::vector<sim::Substrate> substrates_from(const std::string& name) {
  std::vector<sim::Substrate> picked;
  for (const auto& [substrate, substrate_name] : sim::kSubstrates) {
    if (name == "all" || name == substrate_name) picked.push_back(substrate);
  }
  if (picked.empty()) {
    throw Error("unknown substrate '" + name + "' (ring|chord|can|pastry|all)");
  }
  return picked;
}

index::CachePolicy policy_from(const std::string& name) {
  if (name == "none") return index::CachePolicy::kNone;
  if (name == "single") return index::CachePolicy::kSingle;
  if (name == "multi") return index::CachePolicy::kMulti;
  if (name == "lru") return index::CachePolicy::kLru;
  if (name == "lru-multi") return index::CachePolicy::kLruMulti;
  throw Error("unknown policy '" + name + "' (none|single|multi|lru|lru-multi)");
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw Error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs `sessions` user lookups so the shortcut caches hold real traffic.
void warm_caches(index::IndexService& service, storage::DhtStore& store,
                 const biblio::Corpus& corpus, index::CachePolicy policy,
                 std::size_t sessions, std::uint64_t seed) {
  if (sessions == 0 || !index::caching_enabled(policy)) return;
  index::LookupEngine engine{service, store, {policy}};
  workload::QueryGenerator generator{corpus, seed};
  for (std::size_t i = 0; i < sessions; ++i) {
    const workload::Request request = generator.next();
    engine.resolve(request.query, corpus.article(request.article_index).msd());
  }
}

int run(const Args& args) {
  const std::uint64_t seed = args.get_size("seed", 7);
  const std::size_t nodes = args.get_size("nodes", 64);
  const std::size_t warm = args.get_size("warm", 200);
  const index::CachePolicy policy = policy_from(args.get("policy", "lru"));
  const std::size_t capacity =
      index::bounded_cache(policy) ? args.get_size("capacity", 16) : 0;
  const std::size_t replication = args.get_size("replication", 1);

  std::optional<biblio::Corpus> corpus;
  std::optional<std::string> snapshot_xml;
  if (args.has("snapshot")) {
    snapshot_xml = read_file(args.get("snapshot", ""));
  } else if (args.has("corpus")) {
    corpus.emplace(biblio::Corpus::from_xml(read_file(args.get("corpus", ""))));
  } else {
    biblio::CorpusConfig config;
    config.articles = args.get_size("articles", 500);
    config.authors = args.get_size("authors", config.articles / 3 + 1);
    config.conferences = args.get_size("conferences", 20);
    config.seed = seed;
    corpus.emplace(biblio::Corpus::generate(config));
  }

  bool all_clean = true;
  for (const sim::Substrate substrate : substrates_from(args.get("substrate", "all"))) {
    for (const index::SchemeKind scheme_kind : schemes_from(args.get("scheme", "all"))) {
      const index::IndexingScheme scheme = index::IndexingScheme::make(scheme_kind);
      sim::Overlay overlay{substrate, nodes, seed};
      net::TrafficLedger ledger;
      storage::DhtStore store{overlay.dht(), ledger, replication};
      index::IndexService service{overlay.dht(), ledger, capacity, replication};

      if (snapshot_xml) {
        persist::load_snapshot(*snapshot_xml, service, store);
      } else {
        index::IndexBuilder builder{service, store, scheme};
        for (const biblio::Article& article : corpus->articles()) {
          builder.index_file(article.descriptor(), article.file_name(),
                             article.file_bytes);
        }
        warm_caches(service, store, *corpus, policy, warm, seed);
      }

      audit::Options options;
      options.scheme = &scheme;
      audit::Auditor auditor{overlay.dht(), service, store, options};
      const audit::Report report = auditor.run();
      const std::string name =
          index::to_string(scheme_kind) + "/" + sim::to_string(substrate);
      std::printf("%s\n", audit::json_summary(name, report).c_str());
      if (!report.clean() || args.has("report")) {
        std::fputs(report.to_text().c_str(), stderr);
      }
      all_clean = all_clean && report.clean();
    }
  }
  return all_clean ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: dhtidx_audit [--scheme simple|flat|complex|all]\n"
               "                    [--substrate ring|chord|can|pastry|all]\n"
               "                    [--articles N] [--authors N] [--conferences N]\n"
               "                    [--corpus corpus.xml] [--nodes N] [--seed S] [--warm N]\n"
               "                    [--policy none|single|multi|lru|lru-multi] [--capacity K]\n"
               "                    [--replication R] [--snapshot snapshot.xml] [--report]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "dhtidx_audit: %s\n", e.what());
    return usage();
  } catch (const Error& e) {
    std::fprintf(stderr, "dhtidx_audit: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dhtidx_audit: %s\n", e.what());
    return 2;
  }
}
