#include "index/lookup.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>

#include "net/stats.hpp"

namespace dhtidx::index {

using query::Query;

namespace {
const IndexNodeState::SourceEntry kNoEntry{nullptr, {}};
}

LookupOutcome LookupEngine::resolve(const Query& initial, const Query& target_msd) {
  LookupOutcome outcome;
  net::TrafficLedger& ledger = service_.active_ledger();
  // (node, query asked there) for every index node on the successful path;
  // shortcut creation replays this chain. The walk passes `const Query*` refs
  // throughout: index targets are interner-owned, generalizations live in
  // `scratch` (a deque, so addresses are stable), and each query's canonical
  // form and DHT key are computed at most once for the whole session.
  std::vector<std::pair<Id, const Query*>> asked;
  // Set while the current q == target_msd was reached through a shortcut jump
  // from (node, query): a failed fetch then invalidates that shortcut and the
  // session resumes the normal walk from the jump origin instead of failing.
  std::optional<std::pair<Id, const Query*>> jumped_from;
  // Shortcuts (node, source -> target_msd) this session invalidated: a
  // deferring recorder's frozen snapshot keeps returning them. Empty, and
  // never allocated, unless a jump failed.
  std::vector<std::pair<Id, const Query*>> invalidated;
  std::deque<Query> scratch;
  // A target with a signature bit outside this one cannot cover target_msd
  // (Query::signature), so the selection below skips it without covers().
  const std::uint64_t msd_signature = target_msd.signature();

  // Session identity (DESIGN.md section 10): the session resolves both of its
  // queries to their interned instances once, and from then on compares
  // pointers. The pool cannot gain q or the MSD while the walk runs, so an
  // MSD nobody pooled (msd == nullptr) is in no index and no cache, and a q
  // outside the pool (`pooled` false: an un-pooled initial query or a scratch
  // generalization) has no mapping and no shortcut anywhere.
  const query::QueryInterner& interner = service_.interner();
  const Query* const msd = interner.find_existing(target_msd);
  const Query* q = interner.find_existing(initial);
  bool pooled = q != nullptr;
  if (!pooled) q = &initial;
  while (outcome.interactions < config_.max_interactions) {
    // Only an MSD nobody pooled needs a value compare: a pooled MSD equals no
    // query outside the pool.
    if (msd != nullptr ? q == msd : *q == target_msd) {
      // Final step: fetch the file from the storage layer (the Publication
      // index of Figure 5). DhtStore::get accounts its own traffic and fails
      // over across storage replicas itself.
      const auto got = store_.get(q->key());
      ++outcome.interactions;
      outcome.rpc_failures += got.rpc_failures;
      outcome.visited_nodes.push_back(got.node);
      outcome.found = !got.records->empty();
      if (outcome.found) {
        create_shortcuts(asked, target_msd);
        break;
      }
      if (jumped_from) {
        // Stale shortcut: the jump promised a file that is not there (crashed
        // or departed storage). Drop the entry so later sessions stop jumping
        // into the void, and fall back to the normal walk from where the jump
        // happened. The jump proves the session's cache held the entry, so
        // the notice is charged, and on bus worlds posted, right here; the
        // erase is the recorder's. A deferring recorder's frozen snapshot
        // keeps the entry, so the rest of the session skips it.
        ledger.cache.record(net::kMessageOverheadBytes);  // invalidation notice
        if (net::MessageBus* bus = service_.bus(); bus != nullptr) {
          // Wire record of the invalidation: a shortcut message with
          // kNotFound status drops the entry (PROTOCOL.md). A jump lands
          // only on a pooled MSD.
          net::Message notice = service_.wire_mapping(net::Action::kShortcut, jumped_from->first,
                                                      jumped_from->second, msd);
          notice.status = net::Status::kNotFound;
          bus->post(std::move(notice));
        }
        recorder_->record(CacheDeltaKind::kInvalidate, jumped_from->first,
                          *jumped_from->second, target_msd);
        invalidated.push_back(*jumped_from);
        ++outcome.stale_shortcuts;
        outcome.cache_hit = false;
        outcome.cache_hit_position = 0;
        q = jumped_from->second;  // pooled: the jump's source held a shortcut
        jumped_from.reset();
        continue;
      }
      if (got.unreachable) outcome.unreachable = true;
      break;
    }

    // The pool cannot grow while the walk runs, so `pooled ? q : nullptr` is
    // what find_existing(*q) would return.
    const auto contact =
        service_.contact(*q, pooled ? q : nullptr, caching_enabled(config_.policy));
    outcome.rpc_failures += contact.rpc_failures;
    ++outcome.interactions;
    outcome.visited_nodes.push_back(contact.node);
    if (contact.unreachable) {
      // No replica of this key answered within the retry budget. The walk
      // cannot continue past a dead key (every covering path routes through
      // it); report the partial session instead of throwing.
      outcome.unreachable = true;
      break;
    }
    const Id node = contact.node;

    // The shortcut cache is consulted by the node before the regular index;
    // a hit answers with the target descriptor directly.
    bool key_has_cache_entries = false;
    if (caching_enabled(config_.policy) && contact.state != nullptr && pooled) {
      const ShortcutCache& cache = contact.state->cache();
      const bool cached = msd != nullptr && cache.contains(q, msd);
      // An entry this session invalidated counts as erased: no hit, and not
      // an entry of the key.
      const bool invalidated_here =
          cached && std::any_of(invalidated.begin(), invalidated.end(), [&](const auto& entry) {
            return entry.first == node && entry.second == q;
          });
      if (cached && !invalidated_here) {
        recorder_->record(CacheDeltaKind::kTouch, node, *q, *msd);
        ledger.cache.record(target_msd.byte_size() + net::kMessageOverheadBytes);
        if (!outcome.cache_hit) {
          outcome.cache_hit = true;
          outcome.cache_hit_position = static_cast<int>(outcome.visited_nodes.size());
        }
        asked.emplace_back(node, q);
        jumped_from = std::pair{node, q};
        q = msd;  // jump straight to the file
        continue;
      }
      key_has_cache_entries = cache.bucket_size(q) > (invalidated_here ? 1u : 0u);
    }

    const IndexNodeState::SourceEntry& entry =
        contact.state != nullptr && pooled ? contact.state->entry_of(q) : kNoEntry;
    const std::vector<IndexNodeState::TargetRef>& targets = entry.targets;
    ledger.responses.record(entry.target_bytes + net::kMessageOverheadBytes);

    // The user picks the result that matches the article they are after: the
    // one covering (or equal to) the target MSD. Among several matches the
    // most specific wins, so short-circuit entries (direct MSD links for
    // popular content, Section IV-C) take precedence over intermediate keys.
    const Query* next = nullptr;
    for (const IndexNodeState::TargetRef& ref : targets) {
      if ((ref.signature & ~msd_signature) != 0) continue;
      const Query& t = *ref.target;
      if (ref.target != msd && !t.covers(target_msd)) continue;
      if (next == nullptr || t.constraints().size() > next->constraints().size()) {
        next = ref.target;
      }
    }
    if (next != nullptr) {
      asked.emplace_back(node, q);
      q = next;
      pooled = true;
      continue;
    }

    // Miss: generalize by dropping one field group and retrying
    // (Section IV-B). A query counts as an error for Table I only when its
    // key is absent from every index on the node -- regular and cache alike:
    // "an index entry is created automatically after the first lookup;
    // subsequent queries from other users can locate the data using the
    // cache entry, and hence do not experience an error" (Section V-E h).
    if (targets.empty() && !key_has_cache_entries) outcome.non_indexed = true;
    std::vector<Query> candidates = generalization_candidates(*q);
    Query* fallback = nullptr;
    for (Query& g : candidates) {
      if (g.covers(target_msd)) {
        fallback = &g;
        break;
      }
    }
    if (fallback == nullptr) break;  // nothing left to drop: clean miss
    // Remember the non-indexed query's node: after success a shortcut is
    // created there, so later users asking the same query avoid the error
    // ("the cache reduces the number of errors", Section V-E h).
    asked.emplace_back(node, q);
    ++outcome.generalization_steps;
    // The same generalization recurs across sessions; reuse the interned
    // instance (warm key) when the index already knows it.
    if (const Query* interned = interner.find_existing(*fallback)) {
      q = interned;
      pooled = true;
    } else {
      scratch.push_back(std::move(*fallback));
      q = &scratch.back();
      pooled = false;
    }
  }
  if (!outcome.found && outcome.interactions >= config_.max_interactions) {
    outcome.gave_up = true;  // budget exhausted, distinct from a clean miss
  }
  outcome.degraded = outcome.rpc_failures > 0;
  return outcome;
}

std::vector<Query> LookupEngine::generalization_candidates(const Query& q) {
  // Group constraint indices by their top-level field.
  // dhtidx-lint: allow(hot-path-map) "sorted field order drives the deterministic generalization sequence; a handful of entries per query"
  std::map<std::string_view, std::vector<std::size_t>> groups;
  const auto& constraints = q.constraints();
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    groups[constraints[i].first_step()].push_back(i);
  }
  if (groups.size() <= 1) return {};  // dropping the only field leaves nothing

  std::vector<Query> candidates;
  candidates.reserve(groups.size());
  for (const auto& [field, indices] : groups) {
    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < constraints.size(); ++i) {
      if (std::find(indices.begin(), indices.end(), i) == indices.end()) keep.push_back(i);
    }
    candidates.push_back(q.keep_constraints(keep));
  }
  // Prefer dropping the field that loses the fewest constraints (keeps the
  // query as selective as possible); tie-break on canonical form for
  // determinism.
  std::stable_sort(candidates.begin(), candidates.end(), [](const Query& a, const Query& b) {
    if (a.constraints().size() != b.constraints().size()) {
      return a.constraints().size() > b.constraints().size();
    }
    return a.canonical() < b.canonical();
  });
  return candidates;
}

void LookupEngine::create_shortcuts(const std::vector<std::pair<Id, const Query*>>& asked,
                                    const Query& target_msd) {
  if (!caching_enabled(config_.policy) || asked.empty()) return;
  net::FailureInjector* failures = service_.failures();
  const std::size_t count = multi_placement(config_.policy) ? asked.size() : 1;
  // `asked` never holds the MSD itself: resolve adds a query only after its
  // final-step test failed. A pair the session hit and touched is installed
  // again on purpose: in a deferred epoch an earlier session's delta can
  // evict it before this one applies, and under multi placement another
  // install on the node can reorder it, so the install re-creates or
  // promotes it. When the pair is still there, apply_cache_delta charges
  // nothing.
  for (std::size_t i = 0; i < count; ++i) {
    const auto& [node, q] = asked[i];
    if (failures != nullptr && failures->is_crashed(node)) continue;  // dead, no cache
    recorder_->record(CacheDeltaKind::kInstall, node, *q, target_msd);
  }
}

void apply_cache_delta(IndexService& service, const Id& node, IndexNodeState& state,
                       CacheDeltaKind kind, const Query* source, const Query* target) {
  ShortcutCache& cache = state.cache();
  switch (kind) {
    case CacheDeltaKind::kTouch:
      cache.touch(source, target);
      return;
    case CacheDeltaKind::kInstall:
      if (!cache.insert(source, target)) return;
      service.active_ledger().cache.record(source->byte_size() + target->byte_size() +
                                           net::kMessageOverheadBytes);
      if (net::MessageBus* bus = service.bus(); bus != nullptr) {
        bus->post(service.wire_mapping(net::Action::kShortcut, node, source, target));
      }
      return;
    case CacheDeltaKind::kInvalidate:
      cache.erase(source, target);
      return;
  }
}

void ImmediateCacheApply::record(CacheDeltaKind kind, const Id& node, const Query& source,
                                 const Query& target) {
  query::QueryInterner& interner = service_.interner();
  const Query* interned_source = interner.intern(source);
  const Query* interned_target = interner.intern(target);
  apply_cache_delta(service_, node, service_.state_at(node), kind, interned_source,
                    interned_target);
}

std::vector<Query> LookupEngine::search_range(const Query& base,
                                              std::string_view field_path, long lo,
                                              long hi, int depth_limit) {
  std::vector<Query> results;
  std::set<std::string> seen;
  for (long value = lo; value <= hi; ++value) {
    Query q = base;
    q.add_field(field_path, std::to_string(value));
    for (Query& msd : search_all(q, depth_limit)) {
      if (seen.insert(msd.canonical()).second) results.push_back(std::move(msd));
    }
  }
  std::sort(results.begin(), results.end());
  return results;
}

std::vector<Query> LookupEngine::search_all(const Query& initial, int depth_limit,
                                            SearchStats* stats) {
  std::vector<Query> results = search_tree(initial, depth_limit, stats);
  if (!results.empty()) return results;
  // The query may simply not be indexed: generalize, search the broader
  // query, and keep only the descriptors the original query covers
  // (Section IV-B's generalization/specialization, automated).
  for (const Query& g : generalization_candidates(initial)) {
    std::vector<Query> broader = search_all(g, depth_limit, stats);
    if (broader.empty()) continue;
    std::vector<Query> filtered;
    for (Query& msd : broader) {
      if (initial.covers(msd)) filtered.push_back(std::move(msd));
    }
    return filtered;
  }
  return {};
}

std::vector<Query> LookupEngine::search_tree(const Query& initial, int depth_limit,
                                             SearchStats* stats) {
  std::vector<Query> results;
  // Walk on interned refs: reply targets come from the service's interner, so
  // the seen-set is pointer identity. The start query is resolved to its
  // interned instance when the index knows it; when it does not, no interned
  // target can equal it either, so mixing in its plain address stays exact.
  const Query* start = service_.interner().find_existing(initial);
  if (start == nullptr) start = &initial;
  std::unordered_set<const Query*> seen{start};
  std::vector<std::pair<const Query*, int>> frontier{{start, 0}};
  while (!frontier.empty()) {
    const auto [q, depth] = frontier.back();
    frontier.pop_back();
    if (depth > depth_limit) continue;
    // Accounts its own traffic; tagged kSearchAll so measured traffic can
    // attribute exhaustive-search descent separately from direct lookups.
    const auto reply = service_.lookup(*q, net::Action::kSearchAll);
    if (stats != nullptr) stats->rpc_failures += reply.rpc_failures;
    if (reply.unreachable) {
      // This branch of the index tree is currently dark: return the rest of
      // the result set as partial instead of failing the whole search.
      if (stats != nullptr) {
        ++stats->unreachable_nodes;
        stats->complete = false;
      }
      continue;
    }
    if (reply.targets.empty()) {
      // Leaf of the index graph: if a file record exists here, q is an MSD.
      const auto got = store_.get(q->key());
      if (stats != nullptr) stats->rpc_failures += got.rpc_failures;
      if (got.unreachable) {
        if (stats != nullptr) {
          ++stats->unreachable_nodes;
          stats->complete = false;
        }
        continue;
      }
      if (!got.records->empty()) results.push_back(*q);
      continue;
    }
    for (const Query* t : reply.targets) {
      if (seen.insert(t).second) frontier.emplace_back(t, depth + 1);
    }
  }
  std::sort(results.begin(), results.end());
  return results;
}

std::size_t LookupEngine::purge_stale_shortcuts() {
  std::size_t purged = 0;
  for (auto& [node, state] : service_.states()) {
    // entries() is a copy of the cache's pool refs, which stay valid while
    // erase mutates the cache.
    for (const auto& [source, target] : state.cache().entries()) {
      if (!store_.has_record(target->key()) && state.cache().erase(source, target)) {
        ++purged;
      }
    }
  }
  return purged;
}

}  // namespace dhtidx::index
