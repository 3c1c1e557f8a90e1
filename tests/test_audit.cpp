// Corruption coverage for the invariant auditor: a fully built system is
// corrupted one defect at a time -- through the same internal surfaces real
// bugs would use, bypassing the write-path validation -- and each audit must
// report exactly the injected violation.
#include "audit/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "biblio/corpus.hpp"
#include "common/error.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"
#include "persist/snapshot.hpp"
#include "workload/generator.hpp"

namespace dhtidx::audit {
namespace {

/// A small built system (ring + storage + simple-scheme index + warmed LRU
/// caches) whose internals tests corrupt one defect at a time.
class CorruptibleSystem {
 public:
  explicit CorruptibleSystem(std::size_t replication = 1)
      : ring_(dht::Ring::with_nodes(16)),
        store_(ring_, ledger_, replication),
        service_(ring_, ledger_, /*cache_capacity=*/4, replication),
        scheme_(index::IndexingScheme::simple()) {
    biblio::CorpusConfig config;
    config.articles = 60;
    config.authors = 25;
    config.conferences = 6;
    corpus_.emplace(biblio::Corpus::generate(config));
    index::IndexBuilder builder{service_, store_, scheme_};
    for (const biblio::Article& article : corpus_->articles()) {
      builder.index_file(article.descriptor(), article.file_name(), article.file_bytes);
    }
    // Populate the shortcut caches with real bounded-LRU traffic.
    index::LookupEngine engine{service_, store_, {index::CachePolicy::kLru}};
    workload::QueryGenerator generator{*corpus_, 7};
    for (int i = 0; i < 150; ++i) {
      const workload::Request request = generator.next();
      engine.resolve(request.query, corpus_->article(request.article_index).msd());
    }
  }

  Report audit(std::optional<std::string> snapshot_xml = std::nullopt) {
    Options options;
    options.scheme = &scheme_;
    options.snapshot_xml = std::move(snapshot_xml);
    return Auditor{ring_, service_, store_, options}.run();
  }

  // --- one injector per invariant -----------------------------------------

  /// Covering: a mapping whose source does not cover its target, written
  /// straight into the responsible node's state (placement stays valid).
  void inject_noncovering_mapping() {
    const query::Query source = query::Query::parse("/article[conf=ZZZ]");
    const query::Query target = query::Query::parse("/article[author/last=Nobody]");
    ASSERT_FALSE(source.covers(target));
    service_.state_at(ring_.lookup(source.key()).node).add(pooled(source), pooled(target));
  }

  /// Reachability: delete the (author+title ; MSD) hop of one article, so
  /// the author, title, and author+title entry queries dead-end.
  void inject_unreachable_msd() {
    const query::Query msd = corpus_->article(0).msd();
    for (const index::Mapping& m : scheme_.mappings_for(msd)) {
      if (m.target.canonical() != msd.canonical()) continue;
      const bool has_title =
          std::ranges::any_of(m.source.constraints(),
                              [](query::ConstraintView c) { return c.first_step() == "title"; });
      if (!has_title) continue;  // keep the conf+year hop intact
      bool source_now_empty = false;
      ASSERT_TRUE(service_.remove(m.source, m.target, source_now_empty));
      return;
    }
    FAIL() << "no author+title -> MSD mapping found to remove";
  }

  /// Acyclicity: a self-loop. Covering accepts it (every query covers
  /// itself), so it passes the write-path check yet corrupts the graph.
  void inject_cycle() {
    const query::Query q = query::Query::parse("/article[conf=Cycle]");
    service_.insert(q, q);
  }

  /// Placement: a perfectly valid mapping stored on the wrong node.
  void inject_misplaced_entry() {
    const query::Query source = query::Query::parse("/article[conf=Misplaced]");
    const query::Query target =
        query::Query::parse("/article[conf=Misplaced][year=1999]");
    ASSERT_TRUE(source.covers(target));
    const Id responsible = ring_.lookup(source.key()).node;
    for (const Id& node : ring_.node_ids()) {
      if (node != responsible) {
        service_.state_at(node).add(pooled(source), pooled(target));
        return;
      }
    }
  }

  /// Placement (storage side): a record parked outside its key's replica set.
  void inject_misplaced_record() {
    const Id key = Id::hash("orphan-key");
    const Id responsible = ring_.lookup(key).node;
    for (const Id& node : ring_.node_ids()) {
      if (node != responsible) {
        store_.node_store(node).put(key, storage::Record{"blob", "orphan", 0});
        return;
      }
    }
  }

  /// Cache coherence: a shortcut whose target MSD is not stored anywhere.
  /// The source covers the target, so only the dangling check can catch it.
  void inject_dangling_shortcut() {
    const query::Query ghost = query::Query::parse(
        "/article[author/first=No][author/last=Body][title=Ghost][conf=X][year=1990]");
    const query::Query source = query::Query::parse("/article[author/last=Body]");
    ASSERT_TRUE(source.covers(ghost));
    service_.state_at(ring_.node_ids().front()).cache().insert(pooled(source), pooled(ghost));
  }

  /// Replica consistency: delete one mapping from a single replica, leaving
  /// the other copies intact (exactly what a lost write or missed repair
  /// does). Requires replication >= 2.
  void inject_replica_drift() {
    const auto [source, target] = some_mapping();
    const std::vector<Id> replicas =
        ring_.replica_set(source->key(), service_.replication());
    ASSERT_GE(replicas.size(), 2u);
    bool source_now_empty = false;
    ASSERT_TRUE(service_.state_at(replicas.back()).remove(source, target,
                                                          source_now_empty));
  }

  /// Replica consistency: refresh one copy's soft-state stamp without
  /// touching its siblings, so the copies disagree about freshness.
  void inject_stamp_skew() {
    const auto [source, target] = some_mapping();
    const std::vector<Id> replicas =
        ring_.replica_set(source->key(), service_.replication());
    ASSERT_GE(replicas.size(), 2u);
    // add() on an existing mapping only updates the stamp.
    ASSERT_FALSE(service_.state_at(replicas.front()).add(source, target, 99999));
  }

  /// Snapshot: the current system serialized, then cut off mid-document.
  std::string truncated_snapshot() {
    const std::string snapshot = persist::save_snapshot(service_, store_);
    return snapshot.substr(0, snapshot.size() / 2);
  }

  dht::Ring& ring() { return ring_; }
  index::IndexService& service() { return service_; }
  storage::DhtStore& store() { return store_; }

 private:
  /// An arbitrary existing mapping (the first one in node order), as pool
  /// refs.
  std::pair<const query::Query*, const query::Query*> some_mapping() {
    for (const auto& [node, state] : service_.states()) {
      for (const auto* entry : state.entries()) {
        const auto& [source, targets, bytes] = *entry;
        if (!targets.empty()) return {source, targets.front().target};
      }
    }
    throw InvariantError("no mapping to corrupt");
  }

  /// `q` as a ref into the service's query pool, interned on first sight:
  /// the injectors write straight into node state, which takes pool refs.
  const query::Query* pooled(const query::Query& q) { return service_.interner().intern(q); }

  dht::Ring ring_;
  net::TrafficLedger ledger_;
  storage::DhtStore store_;
  index::IndexService service_;
  index::IndexingScheme scheme_;
  std::optional<biblio::Corpus> corpus_;
};

std::size_t violations(const Report& report, Invariant invariant) {
  return report.section(invariant).violations;
}

TEST(Auditor, CleanSystemPassesEveryInvariant) {
  CorruptibleSystem system;
  const Report report = system.audit();
  EXPECT_TRUE(report.clean()) << report.to_text();
  // Every invariant actually examined something.
  for (const SectionStats& section : report.sections) {
    EXPECT_GT(section.checked, 0u);
  }
  EXPECT_TRUE(report.violations.empty());
}

TEST(Auditor, DetectsNonCoveringMapping) {
  CorruptibleSystem system;
  system.inject_noncovering_mapping();
  const Report report = system.audit();
  EXPECT_EQ(violations(report, Invariant::kCovering), 1u) << report.to_text();
  EXPECT_EQ(violations(report, Invariant::kReachability), 0u);
  EXPECT_EQ(violations(report, Invariant::kAcyclicity), 0u);
  EXPECT_EQ(violations(report, Invariant::kPlacement), 0u);
  EXPECT_EQ(violations(report, Invariant::kCacheCoherence), 0u);
  // Cascade: restoring the snapshot re-runs the covering check, which
  // rightly rejects the corrupt mapping -- the snapshot section reports the
  // failed restore.
  EXPECT_EQ(violations(report, Invariant::kSnapshot), 1u);
}

TEST(Auditor, DetectsUnreachableMsd) {
  CorruptibleSystem system;
  system.inject_unreachable_msd();
  const Report report = system.audit();
  // The author, title, and author+title entry queries all dead-end.
  EXPECT_EQ(violations(report, Invariant::kReachability), 3u) << report.to_text();
  EXPECT_EQ(violations(report, Invariant::kCovering), 0u);
  EXPECT_EQ(violations(report, Invariant::kAcyclicity), 0u);
  EXPECT_EQ(violations(report, Invariant::kPlacement), 0u);
  EXPECT_EQ(violations(report, Invariant::kSnapshot), 0u);
}

TEST(Auditor, DetectsCycle) {
  CorruptibleSystem system;
  system.inject_cycle();
  const Report report = system.audit();
  EXPECT_EQ(violations(report, Invariant::kAcyclicity), 1u) << report.to_text();
  EXPECT_EQ(violations(report, Invariant::kCovering), 0u);
  EXPECT_EQ(violations(report, Invariant::kReachability), 0u);
  EXPECT_EQ(violations(report, Invariant::kPlacement), 0u);
  EXPECT_EQ(violations(report, Invariant::kSnapshot), 0u);
}

TEST(Auditor, DetectsMisplacedIndexEntry) {
  CorruptibleSystem system;
  system.inject_misplaced_entry();
  const Report report = system.audit();
  EXPECT_EQ(violations(report, Invariant::kPlacement), 1u) << report.to_text();
  EXPECT_EQ(violations(report, Invariant::kCovering), 0u);
  EXPECT_EQ(violations(report, Invariant::kAcyclicity), 0u);
  EXPECT_EQ(violations(report, Invariant::kCacheCoherence), 0u);
  // Restore re-places the mapping on the right node; the global mapping
  // multiset is unchanged, so snapshot fidelity still holds.
  EXPECT_EQ(violations(report, Invariant::kSnapshot), 0u);
}

TEST(Auditor, DetectsMisplacedRecord) {
  CorruptibleSystem system;
  system.inject_misplaced_record();
  const Report report = system.audit();
  EXPECT_EQ(violations(report, Invariant::kPlacement), 1u) << report.to_text();
  EXPECT_EQ(violations(report, Invariant::kSnapshot), 0u);
}

TEST(Auditor, DetectsDanglingShortcut) {
  CorruptibleSystem system;
  system.inject_dangling_shortcut();
  const Report report = system.audit();
  EXPECT_EQ(violations(report, Invariant::kCacheCoherence), 1u) << report.to_text();
  EXPECT_EQ(violations(report, Invariant::kCovering), 0u);
  EXPECT_EQ(violations(report, Invariant::kPlacement), 0u);
  // Caches are not persisted, so the snapshot section stays clean.
  EXPECT_EQ(violations(report, Invariant::kSnapshot), 0u);
}

TEST(Auditor, DetectsTruncatedSnapshot) {
  CorruptibleSystem system;
  const Report report = system.audit(system.truncated_snapshot());
  EXPECT_EQ(violations(report, Invariant::kSnapshot), 1u) << report.to_text();
  EXPECT_EQ(violations(report, Invariant::kCovering), 0u);
  EXPECT_EQ(violations(report, Invariant::kPlacement), 0u);
  EXPECT_EQ(violations(report, Invariant::kCacheCoherence), 0u);
}

TEST(Auditor, TamperedSnapshotIsCaughtByFidelityCheck) {
  CorruptibleSystem system;
  // Drop one mapping element from the serialized form: the restore succeeds
  // but the mapping multiset no longer matches the live system.
  std::string snapshot = persist::save_snapshot(system.service(), system.store());
  const std::size_t pos = snapshot.find("<mapping");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t end = snapshot.find("/>", pos);
  ASSERT_NE(end, std::string::npos);
  snapshot.erase(pos, end + 2 - pos);
  const Report report = system.audit(snapshot);
  EXPECT_EQ(violations(report, Invariant::kSnapshot), 1u) << report.to_text();
}

TEST(Auditor, ReplicatedCleanSystemPassesEveryInvariant) {
  CorruptibleSystem system{/*replication=*/2};
  const Report report = system.audit();
  EXPECT_TRUE(report.clean()) << report.to_text();
  for (const SectionStats& section : report.sections) {
    EXPECT_GT(section.checked, 0u);
  }
}

TEST(Auditor, DetectsMappingMissingOnOneReplica) {
  CorruptibleSystem system{/*replication=*/2};
  system.inject_replica_drift();
  const Report report = system.audit();
  EXPECT_EQ(violations(report, Invariant::kReplicaConsistency), 1u) << report.to_text();
  EXPECT_EQ(violations(report, Invariant::kCovering), 0u);
  EXPECT_EQ(violations(report, Invariant::kPlacement), 0u);
  EXPECT_EQ(violations(report, Invariant::kCacheCoherence), 0u);
  // The fact still exists on the surviving replica and restore re-replicates
  // it, so the distinct-fact snapshot comparison stays clean.
  EXPECT_EQ(violations(report, Invariant::kSnapshot), 0u);
}

TEST(Auditor, DetectsReplicaStampSkew) {
  CorruptibleSystem system{/*replication=*/2};
  system.inject_stamp_skew();
  const Report report = system.audit();
  EXPECT_EQ(violations(report, Invariant::kReplicaConsistency), 1u) << report.to_text();
  EXPECT_EQ(violations(report, Invariant::kCovering), 0u);
  EXPECT_EQ(violations(report, Invariant::kPlacement), 0u);
  EXPECT_EQ(violations(report, Invariant::kSnapshot), 0u);
}

TEST(Auditor, ReplicaRepairClearsDriftAndSkew) {
  CorruptibleSystem system{/*replication=*/2};
  system.inject_replica_drift();
  system.inject_stamp_skew();
  EXPECT_FALSE(system.audit().clean());
  EXPECT_GT(system.service().rebalance(), 0u);
  const Report report = system.audit();
  EXPECT_TRUE(report.clean()) << report.to_text();
}

TEST(Auditor, AuditOrThrowNamesThePhase) {
  CorruptibleSystem system;
  EXPECT_NO_THROW(
      audit_or_throw("test", system.ring(), system.service(), system.store()));
  system.inject_cycle();
  try {
    audit_or_throw("test", system.ring(), system.service(), system.store());
    FAIL() << "corrupted system passed audit_or_throw";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string{e.what()}.find("audit(test)"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("acyclicity"), std::string::npos);
  }
}

TEST(AuditReport, JsonSummaryIsOneLine) {
  CorruptibleSystem system;
  const Report report = system.audit();
  const std::string line = json_summary("simple/ring", report);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"audit\":\"simple/ring\""), std::string::npos);
  EXPECT_NE(line.find("\"clean\":true"), std::string::npos);
  EXPECT_NE(line.find("\"invariant\":\"covering\""), std::string::npos);
  EXPECT_NE(line.find("\"invariant\":\"snapshot\""), std::string::npos);
  EXPECT_NE(line.find("\"invariant\":\"replica-consistency\""), std::string::npos);
}

TEST(AuditReport, TextNamesEveryInvariantAndViolation) {
  CorruptibleSystem system;
  system.inject_cycle();
  const Report report = system.audit();
  const std::string text = report.to_text();
  for (const char* name : {"covering", "reachability", "acyclicity", "placement",
                           "cache-coherence", "snapshot", "replica-consistency",
                           "ledger-arithmetic"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  EXPECT_NE(text.find("[acyclicity]"), std::string::npos);
}

}  // namespace
}  // namespace dhtidx::audit
