#include "audit/audit.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "dht/can.hpp"
#include "net/chaos.hpp"
#include "dht/chord.hpp"
#include "dht/pastry.hpp"
#include "dht/ring.hpp"
#include "persist/snapshot.hpp"
#include "xml/parser.hpp"

namespace dhtidx::audit {

namespace {

constexpr char kSep = '\x1f';

std::string mapping_fact(const std::string& source, const std::string& target) {
  return source + kSep + target;
}

std::string record_fact(const Id& key, const storage::Record& record) {
  return key.to_hex() + kSep + record.kind + kSep + record.payload + kSep +
         std::to_string(record.virtual_payload_bytes);
}

/// Every mapping fact in the service, unsorted.
std::vector<std::string> mapping_facts(const index::IndexService& service) {
  std::vector<std::string> facts;
  for (const auto& [node, state] : service.states()) {
    for (const auto* entry : state.entries()) {
      const auto& [source, targets, bytes] = *entry;
      for (const index::IndexNodeState::TargetRef& ref : targets) {
        facts.push_back(mapping_fact(source->canonical(), ref.target->canonical()));
      }
    }
  }
  return facts;
}

/// Every record fact in the store, unsorted.
std::vector<std::string> record_facts(const storage::DhtStore& store) {
  std::vector<std::string> facts;
  for (const auto& [node, node_store] : store.node_stores()) {
    for (const Id& key : node_store.keys()) {
      for (const storage::Record& record : node_store.get(key)) {
        facts.push_back(record_fact(key, record));
      }
    }
  }
  return facts;
}

/// Renders a fact for a violation message: hex ids stay short, queries keep
/// their canonical form, separators become " ; ".
std::string brief_fact(const std::string& fact) {
  std::string out;
  for (const char c : fact) {
    if (c == kSep) {
      out += " ; ";
    } else {
      out.push_back(c);
    }
  }
  if (out.size() > 160) {
    out.resize(157);
    out += "...";
  }
  return out;
}

}  // namespace

Auditor::Auditor(dht::Dht& dht, const index::IndexService& service,
                 const storage::DhtStore& store, Options options)
    : dht_(dht), service_(service), store_(store), options_(std::move(options)) {}

Report Auditor::run() {
  Report report;
  if (options_.check_covering) check_covering(report);
  if (options_.check_reachability) check_reachability(report);
  if (options_.check_acyclicity) check_acyclicity(report);
  if (options_.check_placement) check_placement(report);
  if (options_.check_cache_coherence) check_cache_coherence(report);
  if (options_.check_snapshot) check_snapshot(report);
  if (options_.check_replica_consistency) check_replica_consistency(report);
  if (options_.check_ledger) check_ledger(report);
  if (options_.check_convergence) check_convergence(report);
  return report;
}

void Auditor::add_violation(Report& report, Invariant invariant, std::string subject,
                            std::string detail) {
  SectionStats& section = report.section(invariant);
  ++section.violations;
  std::size_t recorded = 0;
  for (const Violation& v : report.violations) {
    if (v.invariant == invariant) ++recorded;
  }
  if (recorded < options_.max_recorded_violations) {
    report.violations.push_back(
        Violation{invariant, std::move(subject), std::move(detail)});
  }
}

const std::vector<Auditor::StoredMsd>& Auditor::stored_msds() {
  if (stored_msds_) return *stored_msds_;
  stored_msds_.emplace();
  std::unordered_set<std::string> seen;
  for (const auto& [node, node_store] : store_.node_stores()) {
    for (const Id& key : node_store.keys()) {
      for (const storage::Record& record : node_store.get(key)) {
        if (record.kind.rfind("file:", 0) != 0) continue;
        try {
          query::Query msd = query::Query::most_specific(xml::parse(record.payload));
          if (seen.insert(msd.canonical()).second) {
            stored_msds_->push_back(StoredMsd{std::move(msd), key});
          }
        } catch (const ParseError&) {
          // Unparseable payloads cannot yield an MSD; the snapshot check
          // still round-trips them byte-for-byte.
        }
      }
    }
  }
  return *stored_msds_;
}

// Invariant 1 (Section IV): insert(q, qi) requires q ⊒ qi. Re-verify it for
// every stored mapping -- regular index entries and shortcut-cache entries
// alike -- instead of trusting that every write went through insert().
void Auditor::check_covering(Report& report) {
  SectionStats& section = report.section(Invariant::kCovering);
  for (const auto& [node, state] : service_.states()) {
    for (const auto* entry : state.entries()) {
      const auto& [source, targets, bytes] = *entry;
      for (const index::IndexNodeState::TargetRef& ref : targets) {
        ++section.checked;
        if (!source->covers(*ref.target)) {
          add_violation(report, Invariant::kCovering, source->canonical(),
                        "stored mapping does not cover its target '" +
                            ref.target->canonical() + "' (node " + node.brief() + ")");
        }
      }
    }
    for (const auto& [source, target] : state.cache().entries()) {
      ++section.checked;
      if (!source->covers(*target)) {
        add_violation(report, Invariant::kCovering, source->canonical(),
                      "shortcut does not cover its target '" + target->canonical() +
                          "' (node " + node.brief() + ")");
      }
    }
  }
}

// Invariant 2 (Section IV-B): iterated lookup from each scheme-generated
// entry query must reach the MSD of every stored file. The walk mirrors what
// a user does -- resolve the responsible node for the current query, read its
// targets, descend into the ones that still cover the wanted MSD.
void Auditor::check_reachability(Report& report) {
  SectionStats& section = report.section(Invariant::kReachability);
  if (options_.scheme == nullptr) return;

  // Memoized responsible-node target lists, keyed by canonical query. Entry
  // queries repeat heavily across files (every article of a conference
  // shares the conference entry query), so resolve each one once: to its
  // pool ref, then on the responsible node. A query the pool does not hold
  // has no mapping anywhere.
  using TargetRefs = std::vector<index::IndexNodeState::TargetRef>;
  std::unordered_map<std::string, const TargetRefs*> targets_memo;
  const auto targets_of = [&](const query::Query& q) -> const TargetRefs* {
    const auto memo = targets_memo.find(q.canonical());
    if (memo != targets_memo.end()) return memo->second;
    const query::Query* interned = service_.interner().find_existing(q);
    const Id node = dht_.lookup(q.key()).node;
    const auto state = service_.states().find(node);
    const TargetRefs* targets = interned == nullptr || state == service_.states().end()
                                    ? nullptr
                                    : &state->second.entry_of(interned).targets;
    targets_memo.emplace(q.canonical(), targets);
    return targets;
  };

  // Depth-bounded DFS from `from` toward `msd` along covering mappings.
  const auto reaches = [&](const query::Query& from, const query::Query& msd) {
    std::vector<std::pair<query::Query, int>> frontier{{from, 0}};
    std::unordered_set<std::string> visited{from.canonical()};
    while (!frontier.empty()) {
      auto [q, depth] = std::move(frontier.back());
      frontier.pop_back();
      if (depth >= options_.reachability_depth_limit) continue;
      const TargetRefs* targets = targets_of(q);
      if (targets == nullptr) continue;
      for (const index::IndexNodeState::TargetRef& ref : *targets) {
        const query::Query& t = *ref.target;
        if (t.canonical() == msd.canonical()) return true;
        if (!t.covers(msd)) continue;
        if (visited.insert(t.canonical()).second) frontier.emplace_back(t, depth + 1);
      }
    }
    return false;
  };

  for (const StoredMsd& stored : stored_msds()) {
    std::unordered_set<std::string> entry_queries;
    for (const index::Mapping& m : options_.scheme->mappings_for(stored.msd)) {
      if (!entry_queries.insert(m.source.canonical()).second) continue;
      ++section.checked;
      if (!reaches(m.source, stored.msd)) {
        add_violation(report, Invariant::kReachability, stored.msd.canonical(),
                      "not reachable from entry query '" + m.source.canonical() + "'");
      }
    }
  }
}

// Invariant 3: the query-to-query graph is a DAG. Covering soundness already
// forbids non-trivial cycles (covering is a partial order), but a corrupted
// store can hold self-loops or mutually-covering duplicates; detect them
// directly with an iterative three-color DFS.
void Auditor::check_acyclicity(Report& report) {
  SectionStats& section = report.section(Invariant::kAcyclicity);
  std::map<std::string, std::vector<std::string>> graph;
  for (const auto& [node, state] : service_.states()) {
    for (const auto* entry : state.entries()) {
      const auto& [source, targets, bytes] = *entry;
      auto& out = graph[source->canonical()];
      for (const index::IndexNodeState::TargetRef& ref : targets) {
        ++section.checked;
        out.push_back(ref.target->canonical());
      }
    }
  }

  enum class Color { kWhite, kGrey, kBlack };
  std::map<std::string, Color> color;
  for (const auto& [q, out] : graph) color.emplace(q, Color::kWhite);

  for (const auto& [start, out] : graph) {
    if (color[start] != Color::kWhite) continue;
    // Stack of (node, next-edge-index); grey nodes are exactly the stack.
    std::vector<std::pair<const std::string*, std::size_t>> stack;
    stack.emplace_back(&start, 0);
    color[start] = Color::kGrey;
    while (!stack.empty()) {
      auto& [q, edge] = stack.back();
      const auto it = graph.find(*q);
      if (it == graph.end() || edge >= it->second.size()) {
        color[*q] = Color::kBlack;
        stack.pop_back();
        continue;
      }
      const std::string& next = it->second[edge++];
      const auto next_color = color.find(next);
      if (next_color == color.end()) continue;  // leaf (MSD), not an index key
      if (next_color->second == Color::kGrey) {
        add_violation(report, Invariant::kAcyclicity, *q,
                      "cycle in the index graph through '" + next + "'");
      } else if (next_color->second == Color::kWhite) {
        next_color->second = Color::kGrey;
        stack.emplace_back(&next_color->first, 0);
      }
    }
  }
}

// Invariant 4 (Section III-A): each index entry lives inside the replica set
// of h(source); each stored record lives inside its key's replica set; and
// the substrate's own membership/ownership state is self-consistent.
void Auditor::check_placement(Report& report) {
  SectionStats& section = report.section(Invariant::kPlacement);
  // Replica sets repeat heavily across entries of the same source key;
  // memoize by canonical source so chord runs do not re-route per mapping.
  std::unordered_map<std::string, std::vector<Id>> replica_memo;
  for (const auto& [node, state] : service_.states()) {
    for (const auto* entry : state.entries()) {
      const auto& [source, targets, bytes] = *entry;
      ++section.checked;
      const std::string& canonical = source->canonical();
      auto memo = replica_memo.find(canonical);
      if (memo == replica_memo.end()) {
        memo = replica_memo
                   .emplace(canonical,
                            dht_.replica_set(source->key(), service_.replication()))
                   .first;
      }
      const std::vector<Id>& replicas = memo->second;
      if (std::find(replicas.begin(), replicas.end(), node) == replicas.end()) {
        add_violation(report, Invariant::kPlacement, canonical,
                      "index entry on node " + node.brief() +
                          " outside the source key's replica set");
      }
    }
  }
  for (const auto& [node, node_store] : store_.node_stores()) {
    for (const Id& key : node_store.keys()) {
      ++section.checked;
      const std::vector<Id> replicas = dht_.replica_set(key, store_.replication());
      if (std::find(replicas.begin(), replicas.end(), node) == replicas.end()) {
        add_violation(report, Invariant::kPlacement, key.to_hex(),
                      "record on node " + node.brief() +
                          " outside the key's replica set");
      }
    }
  }

  // Substrate self-consistency, per implementation.
  ++section.checked;
  if (auto* chord = dynamic_cast<dht::ChordNetwork*>(&dht_)) {
    if (!chord->ring_correct()) {
      add_violation(report, Invariant::kPlacement, "chord",
                    "successor pointers disagree with the live membership");
    }
  } else if (auto* can = dynamic_cast<dht::CanNetwork*>(&dht_)) {
    if (!can->zones_partition_space()) {
      add_violation(report, Invariant::kPlacement, "can",
                    "zones do not tile the unit square");
    }
  } else if (auto* pastry = dynamic_cast<dht::PastryNetwork*>(&dht_)) {
    if (!pastry->leaf_sets_correct()) {
      add_violation(report, Invariant::kPlacement, "pastry",
                    "leaf sets disagree with the numerically sorted membership");
    }
  } else if (auto* ring = dynamic_cast<dht::Ring*>(&dht_)) {
    for (const Id& node : ring->node_ids()) {
      if (ring->successor(node) != node) {
        add_violation(report, Invariant::kPlacement, node.to_hex(),
                      "ring node is not its own successor");
      }
    }
  }
}

// Invariant 5 (Section IV-C): every shortcut points at a file that is still
// stored, bounded caches respect their capacity, and each per-source bucket
// lists targets in true most-recently-used-first order.
void Auditor::check_cache_coherence(Report& report) {
  SectionStats& section = report.section(Invariant::kCacheCoherence);

  std::unordered_set<std::string> stored;
  for (const StoredMsd& s : stored_msds()) stored.insert(s.msd.canonical());

  for (const auto& [node, state] : service_.states()) {
    const index::ShortcutCache& cache = state.cache();
    const auto entries = cache.entries();

    if (cache.capacity() != 0) {
      ++section.checked;
      if (cache.size() > cache.capacity()) {
        add_violation(report, Invariant::kCacheCoherence, node.brief(),
                      "cache holds " + std::to_string(cache.size()) +
                          " entries over capacity " + std::to_string(cache.capacity()));
      }
    }

    // Group the recency-ordered entries by source; the per-source buckets
    // must reproduce exactly these sequences.
    std::map<std::string, std::vector<const query::Query*>> expected;
    std::map<std::string, const query::Query*> source_of;
    for (const auto& [source, target] : entries) {
      ++section.checked;
      if (!stored.contains(target->canonical())) {
        add_violation(report, Invariant::kCacheCoherence, source->canonical(),
                      "shortcut on node " + node.brief() + " points at '" +
                          target->canonical() + "' which is not stored");
      }
      expected[source->canonical()].push_back(target);
      source_of.emplace(source->canonical(), source);
    }

    ++section.checked;
    if (cache.source_count() != expected.size()) {
      add_violation(report, Invariant::kCacheCoherence, node.brief(),
                    "cache tracks " + std::to_string(cache.source_count()) +
                        " source buckets but holds entries for " +
                        std::to_string(expected.size()));
    }

    for (const auto& [canonical, targets] : expected) {
      ++section.checked;
      const auto bucket = cache.targets_of(source_of[canonical]);
      bool consistent = bucket.size() == targets.size();
      for (std::size_t i = 0; consistent && i < bucket.size(); ++i) {
        consistent = bucket[i]->canonical() == targets[i]->canonical();
      }
      if (!consistent) {
        add_violation(report, Invariant::kCacheCoherence, canonical,
                      "bucket on node " + node.brief() +
                          " disagrees with the cache's global MRU order");
      }
    }
  }
}

// Invariant 6: persisting and restoring the system reproduces exactly the
// same mapping set and record multiset (placement-independent comparison:
// restore re-places through the current substrate). Under replication the
// snapshot holds one line per physical copy and restore puts each distinct
// fact on every replica, so a drifted replica set comes back whole; the
// comparison collapses to distinct facts, and copy multiplicity is the
// replica-consistency invariant's business.
void Auditor::check_snapshot(Report& report) {
  SectionStats& section = report.section(Invariant::kSnapshot);

  std::vector<std::string> live_mappings = mapping_facts(service_);
  std::vector<std::string> live_records = record_facts(store_);
  section.checked += live_mappings.size() + live_records.size();

  const std::string snapshot = options_.snapshot_xml
                                   ? *options_.snapshot_xml
                                   : persist::save_snapshot(service_, store_);

  net::TrafficLedger scratch_ledger;
  storage::DhtStore restored_store{dht_, scratch_ledger, store_.replication()};
  index::IndexService restored_service{dht_, scratch_ledger, 0, service_.replication()};
  try {
    persist::load_snapshot(snapshot, restored_service, restored_store);
  } catch (const Error& e) {
    add_violation(report, Invariant::kSnapshot, "snapshot",
                  std::string{"failed to restore: "} + e.what());
    return;
  }

  const auto diff = [&](std::vector<std::string> before, std::vector<std::string> after,
                        const char* what, bool distinct_only) {
    std::sort(before.begin(), before.end());
    std::sort(after.begin(), after.end());
    if (distinct_only) {
      before.erase(std::unique(before.begin(), before.end()), before.end());
      after.erase(std::unique(after.begin(), after.end()), after.end());
    }
    std::vector<std::string> missing;
    std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                        std::back_inserter(missing));
    for (const std::string& fact : missing) {
      add_violation(report, Invariant::kSnapshot, brief_fact(fact),
                    std::string{what} + " missing after restore");
    }
    std::vector<std::string> extra;
    std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                        std::back_inserter(extra));
    for (const std::string& fact : extra) {
      add_violation(report, Invariant::kSnapshot, brief_fact(fact),
                    std::string{what} + " appeared after restore");
    }
  };
  diff(std::move(live_mappings), mapping_facts(restored_service), "mapping",
       service_.replication() > 1);
  diff(std::move(live_records), record_facts(restored_store), "record",
       store_.replication() > 1);
}

// Invariant 7: under replication every mapping fact must be present -- with
// an identical refresh stamp -- on every live replica of its source key. The
// relaxed placement check already flags facts stranded outside the replica
// set; this check covers the other failure mode, copies that drifted apart.
void Auditor::check_replica_consistency(Report& report) {
  SectionStats& section = report.section(Invariant::kReplicaConsistency);

  // Distinct mapping facts across all nodes. Pointers stay valid: they are
  // interner-owned and the audit never mutates index state.
  struct Fact {
    const query::Query* source;
    const query::Query* target;
  };
  std::map<std::string, Fact> facts;
  for (const auto& [node, state] : service_.states()) {
    for (const auto* entry : state.entries()) {
      const auto& [source, targets, bytes] = *entry;
      for (const index::IndexNodeState::TargetRef& ref : targets) {
        facts.emplace(mapping_fact(source->canonical(), ref.target->canonical()),
                      Fact{source, ref.target});
      }
    }
  }

  const net::FailureInjector* failures = service_.failures();
  std::unordered_map<std::string, std::vector<Id>> replica_memo;
  for (const auto& [fact_key, fact] : facts) {
    ++section.checked;
    const std::string canonical = fact.source->canonical();
    auto memo = replica_memo.find(canonical);
    if (memo == replica_memo.end()) {
      memo = replica_memo
                 .emplace(canonical,
                          dht_.replica_set(fact.source->key(), service_.replication()))
                 .first;
    }
    std::optional<std::uint64_t> expected;
    bool mismatch = false;
    for (const Id& replica : memo->second) {
      if (failures != nullptr && failures->is_crashed(replica)) continue;
      const index::IndexNodeState* state = service_.find_state(replica);
      const std::optional<std::uint64_t> stamp =
          state == nullptr ? std::nullopt
                           : state->refresh_stamp(fact.source, fact.target);
      if (!stamp) {
        add_violation(report, Invariant::kReplicaConsistency, canonical,
                      "mapping to '" + fact.target->canonical() +
                          "' missing on live replica " + replica.brief());
        continue;
      }
      if (expected && *stamp != *expected) mismatch = true;
      if (!expected) expected = stamp;
    }
    if (mismatch) {
      add_violation(report, Invariant::kReplicaConsistency, canonical,
                    "refresh stamps of the mapping to '" + fact.target->canonical() +
                        "' differ across live replicas");
    }
  }
}

// Invariant 8: the traffic ledger's category split is exclusive, so its
// aggregates must be pure arithmetic over the named categories -- total ==
// sum over categories(), normal == queries + responses, and no category can
// carry bytes without having counted a message. The same arithmetic is
// checked on the analytic ledger and, when a message bus is wired, on its
// measured (serialized-frame) ledger. A failure means a record site charged
// two categories for one message, or a category was added to TrafficLedger
// without being enumerated in categories().
void Auditor::check_ledger(Report& report) {
  SectionStats& section = report.section(Invariant::kLedgerArithmetic);

  const auto check_one = [&](const char* name, const net::TrafficLedger& ledger) {
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
    for (const net::TrafficLedger::NamedCategory& category : ledger.categories()) {
      bytes += category.stats->bytes();
      messages += category.stats->messages();
      ++section.checked;
      if (category.stats->messages() == 0 && category.stats->bytes() != 0) {
        add_violation(report, Invariant::kLedgerArithmetic,
                      std::string{name} + "." + category.name,
                      std::to_string(category.stats->bytes()) +
                          " bytes recorded without any message");
      }
    }
    ++section.checked;
    if (ledger.total_bytes() != bytes) {
      add_violation(report, Invariant::kLedgerArithmetic, name,
                    "total_bytes() " + std::to_string(ledger.total_bytes()) +
                        " != sum over categories " + std::to_string(bytes));
    }
    ++section.checked;
    if (ledger.total_messages() != messages) {
      add_violation(report, Invariant::kLedgerArithmetic, name,
                    "total_messages() " + std::to_string(ledger.total_messages()) +
                        " != sum over categories " + std::to_string(messages));
    }
    ++section.checked;
    if (ledger.normal_bytes() != ledger.queries.bytes() + ledger.responses.bytes()) {
      add_violation(report, Invariant::kLedgerArithmetic, name,
                    "normal_bytes() " + std::to_string(ledger.normal_bytes()) +
                        " != queries + responses");
    }
  };

  check_one("analytic", service_.ledger());
  if (service_.bus() != nullptr) check_one("wire", service_.bus()->measured());
}

// Invariant 9 (post-healing convergence): once the network is quiescent —
// partitions healed, no crashed nodes, no faults armed — the system must have
// actually *converged*, not merely survived: the message bus is fully drained
// (no post pending, nothing in flight) and no shortcut routes through a stale
// placement, i.e. every shortcut target's record is present within the
// *current* replica set of its key. That last check is deliberately stricter
// than invariant 5, which accepts the record stored anywhere: a record
// stranded outside its replica set by a partition-era placement resolves
// lookups today but will be missed by repair and replication tomorrow.
// Replica stamp-identity is invariant 7's half of the contract and runs in
// the same audit. A non-quiescent world is skipped — an index mid-outage has
// no converged state to hold it to — unless Options::require_quiescent turns
// lingering faults themselves into a violation (the post-repair hooks do).
void Auditor::check_convergence(Report& report) {
  SectionStats& section = report.section(Invariant::kConvergence);

  const net::FailureInjector* failures = service_.failures();
  ++section.checked;
  std::string why;
  if (failures != nullptr && failures->crashed_count() > 0) {
    why = std::to_string(failures->crashed_count()) + " node(s) still crashed";
  } else if (options_.chaos != nullptr && !options_.chaos->quiescent()) {
    why = "chaos faults or partitions still active";
  }
  if (!why.empty()) {
    if (options_.require_quiescent) {
      add_violation(report, Invariant::kConvergence, "world",
                    "not quiescent after healing: " + why);
    }
    return;
  }

  if (const net::MessageBus* bus = service_.bus(); bus != nullptr) {
    ++section.checked;
    if (bus->pending_posts() != 0) {
      add_violation(report, Invariant::kConvergence, "bus",
                    std::to_string(bus->pending_posts()) +
                        " one-way post(s) never delivered");
    }
    ++section.checked;
    if (!bus->transport().idle()) {
      add_violation(report, Invariant::kConvergence, "bus",
                    "frames still queued in the transport after healing");
    }
  }

  // Stale-route check, memoized per target key like check_placement.
  std::unordered_map<std::string, bool> live_memo;
  for (const auto& [node, state] : service_.states()) {
    for (const auto& [source, target] : state.cache().entries()) {
      ++section.checked;
      const std::string& canonical = target->canonical();
      auto memo = live_memo.find(canonical);
      if (memo == live_memo.end()) {
        bool live = false;
        for (const Id& replica :
             dht_.replica_set(target->key(), store_.replication())) {
          const storage::NodeStore* node_store = store_.find_node_store(replica);
          if (node_store != nullptr && !node_store->get(target->key()).empty()) {
            live = true;
            break;
          }
        }
        memo = live_memo.emplace(canonical, live).first;
      }
      if (!memo->second) {
        add_violation(report, Invariant::kConvergence, source->canonical(),
                      "shortcut on node " + node.brief() + " routes to '" +
                          canonical + "' outside its healed replica set");
      }
    }
  }
}

void audit_or_throw(std::string_view phase, dht::Dht& dht,
                    const index::IndexService& service, const storage::DhtStore& store,
                    const Options& options) {
  Auditor auditor{dht, service, store, options};
  const Report report = auditor.run();
  if (report.clean()) return;
  throw InvariantError("audit(" + std::string{phase} + "): " +
                       std::to_string(report.total_violations()) +
                       " violation(s)\n" + report.to_text());
}

}  // namespace dhtidx::audit
