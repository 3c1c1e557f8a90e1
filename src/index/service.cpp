#include "index/service.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "net/retry.hpp"

namespace dhtidx::index {

net::Message IndexService::wire_request(net::Action action, const Id& node,
                                        const query::Query& q) const {
  // The zero id is the client endpoint (PROTOCOL.md): queries originate
  // outside the ring.
  net::Message request = net::Message::request(action, Id{}, node);
  request.payload.push_back(q.canonical());
  return request;
}

net::Message IndexService::wire_mapping(net::Action action, const Id& node,
                                        const query::Query* source,
                                        const query::Query* target) const {
  net::Message message = wire_request(action, node, *source);
  message.payload.push_back(target->canonical());
  return message;
}

void IndexService::wire_lookup(const query::Query& q, const query::Query* interned,
                               const IndexNodeState* state, const Id& node,
                               net::Action action, bool consider_cache) {
  net::Message request = wire_request(action, node, q);
  // The contacted node's answer, from its state at the call. A query the
  // pool does not hold has no mapping or shortcut anywhere.
  net::Message reply = net::Message::response_to(request);
  if (state != nullptr && interned != nullptr) {
    for (const IndexNodeState::TargetRef& ref : state->entry_of(interned).targets) {
      reply.payload.push_back(ref.target->canonical());
    }
    if (consider_cache) {
      for (const query::Query* t : state->cache().targets_of(interned)) {
        reply.payload.push_back(t->canonical());
      }
    }
  }
  if (reply.payload.empty()) reply.status = net::Status::kNotFound;
  bus_->exchange(std::move(request), std::move(reply));
}

Id IndexService::insert(const query::Query& source, const query::Query& target,
                        std::uint64_t now) {
  // Intern up front: a republished mapping resolves to its pooled instances
  // (warm DHT key, no SHA-1), and every replica's add() below
  // reuses the same refs.
  return insert_interned(interner_->intern(source), interner_->intern(target), now);
}

Id IndexService::insert_interned(const query::Query* s, const query::Query* t,
                                 std::uint64_t now) {
  if (!s->covers(*t)) {
    throw InvariantError("index mapping rejected: '" + s->canonical() +
                         "' does not cover '" + t->canonical() + "'");
  }
  // PAST-style placement on the write nodes. As a build-time operation this
  // costs no ledger traffic.
  const std::vector<Id> targets = dht::write_nodes(dht_, s->key(), replication_, failures_);
  if (targets.empty()) {
    throw InvariantError("index insert: no live replica for key of '" +
                         s->canonical() + "'");
  }
  for (const Id& replica : targets) place(replica, s, t, now, replica == targets.front());
  return targets.front();
}

void IndexService::place(const Id& node, const query::Query* source,
                         const query::Query* target, std::uint64_t now, bool primary) {
  IndexNodeState* state = find_state(node);
  if (state == nullptr) state = &state_at(node);
  state->add(source, target, now);
  if (bus_ != nullptr) {
    // The primary gets the publish; further copies are replication pushes.
    // The frame carries both canonical forms and is acknowledged by the node.
    bus_->post(wire_mapping(primary ? net::Action::kPublish : net::Action::kReplicate, node,
                            source, target));
  }
}

std::size_t IndexService::expire(std::uint64_t cutoff) {
  topology_.assert_exclusive();  // serial maintenance pass
  std::size_t removed = 0;
  for (auto& [node, state] : states_) removed += state.expire_older_than(cutoff);
  return removed;
}

bool IndexService::remove(const query::Query& source, const query::Query& target,
                          bool& source_now_empty) {
  source_now_empty = false;
  // Probe-only: queries the interner has never seen cannot be in any state.
  const query::Query* s = interner_->find_existing(source);
  if (s == nullptr) return false;
  const query::Query* t = interner_->find_existing(target);
  if (t == nullptr) return false;
  return remove_interned(s, t, source_now_empty);
}

bool IndexService::remove_interned(const query::Query* source, const query::Query* target,
                                   bool& source_now_empty) {
  source_now_empty = false;
  bool removed_any = false;
  bool any_left = false;
  for (const Id& replica : dht::write_nodes(dht_, source->key(), replication_, failures_)) {
    IndexNodeState* state = find_state(replica);
    bool removed_here = false;
    bool empty_here = false;
    if (state != nullptr) {
      removed_here = state->remove(source, target, empty_here);
      if (removed_here) removed_any = true;
      if (state->has_source(source)) any_left = true;
    }
    if (bus_ != nullptr) {
      // The response leg reports whether the mapping existed there.
      net::Message request = wire_mapping(net::Action::kRemove, replica, source, target);
      net::Message reply = net::Message::response_to(request);
      reply.status = removed_here ? net::Status::kOk : net::Status::kNotFound;
      bus_->exchange(std::move(request), std::move(reply));
    }
  }
  source_now_empty = removed_any && !any_left;
  return removed_any;
}

IndexService::ContactResult IndexService::contact(const query::Query& q,
                                                  const query::Query* interned,
                                                  bool consider_cache, net::Action action) {
  const std::vector<Id> candidates =
      dht::candidate_nodes(dht_, q.key(), replication_, failures_);
  ContactResult result;
  result.node = candidates.front();
  const std::uint64_t request_bytes = q.byte_size() + net::kMessageOverheadBytes;

  // Walk the candidates in placement order, discovering liveness one delivery
  // at a time. Stop at the first replica that can actually serve q (index
  // entries, or shortcuts when the caller consults the cache), or after
  // `replication_` live replicas all turned out empty -- further candidates
  // hold no copy by the placement rule. The usefulness probe only decides
  // failover, so with one copy it is skipped: the one live replica answers.
  // It probes on the caller's `interned`; a query the pool does not hold has
  // no mapping or shortcut on any replica.
  IndexNodeState* first_state = nullptr;
  Id first_node = result.node;
  std::size_t contacted = 0;
  for (const Id& replica : candidates) {
    if (contacted >= replication_) break;
    // A failed attempt consumed the network even though it failed. Its bytes
    // land under `retries` only -- the delivered attempt (if any) is what
    // gets charged to `queries`, so the category split stays exclusive.
    const bool delivered = net::deliver_with_retries(failures_, replica, [&](double wait_ms) {
      ++result.rpc_failures;
      net::active(ledger_).retries.record(request_bytes);
      if (bus_ != nullptr) bus_->record_lost(wire_request(action, replica, q));
      backoff_ms_ += wait_ms;
    });
    if (!delivered) continue;
    ++contacted;
    net::active(ledger_).queries.record(request_bytes);
    IndexNodeState* state = find_state(replica);
    if (bus_ != nullptr) wire_lookup(q, interned, state, replica, action, consider_cache);
    const bool useful = replication_ > 1 && interned != nullptr && state != nullptr &&
                        (state->has_source(interned) ||
                         (consider_cache && state->cache().bucket_size(interned) != 0));
    if (useful) {
      result.state = state;
      result.node = replica;
      result.replicas_tried = static_cast<int>(contacted);
      return result;
    }
    if (contacted == 1) {
      first_node = replica;
      first_state = state;
    }
  }
  result.replicas_tried = static_cast<int>(contacted);
  if (contacted == 0) {
    result.unreachable = true;
    return result;
  }
  result.node = first_node;
  result.state = first_state;
  return result;
}

IndexService::Reply IndexService::lookup(const query::Query& q, net::Action action) {
  // A query the pool does not hold has no mapping on any node.
  const query::Query* interned = interner_->find_existing(q);
  const ContactResult contacted = contact(q, interned, /*consider_cache=*/false, action);
  Reply reply;
  reply.node = contacted.node;
  reply.rpc_failures = contacted.rpc_failures;
  reply.replicas_tried = contacted.replicas_tried;
  reply.unreachable = contacted.unreachable;
  if (contacted.unreachable) return reply;
  std::uint64_t response_bytes = net::kMessageOverheadBytes;
  if (contacted.state != nullptr && interned != nullptr) {
    const IndexNodeState::SourceEntry& entry = contacted.state->entry_of(interned);
    reply.targets.reserve(entry.targets.size());
    for (const IndexNodeState::TargetRef& ref : entry.targets) {
      reply.targets.push_back(ref.target);
    }
    response_bytes += entry.target_bytes;
  }
  net::active(ledger_).responses.record(response_bytes);
  return reply;
}

IndexNodeState& IndexService::state_at(const Id& node) {
  // May insert: exclusive structure rights (a FlatMap insert invalidates
  // every reference another thread might hold into the map).
  topology_.assert_exclusive();
  return states_.try_emplace(node, cache_capacity_).first->second;
}

IndexNodeState* IndexService::find_state(const Id& node) {
  // Read-only on the map structure (shared rights: concurrent sharded
  // appliers call this against a frozen topology); the partition value it
  // returns is mutable because value ownership is the caller's contract.
  return const_cast<IndexNodeState*>(std::as_const(*this).find_state(node));
}

const IndexNodeState* IndexService::find_state(const Id& node) const {
  topology_.assert_shared();
  const auto it = states_.find(node);
  return it == states_.end() ? nullptr : &it->second;
}

std::size_t IndexService::drop_node(const Id& node) {
  topology_.assert_exclusive();  // erases a partition: serial crash handling
  const auto it = states_.find(node);
  if (it == states_.end()) return 0;
  const std::size_t lost = it->second.mapping_count();
  states_.erase(it);
  return lost;
}

std::size_t IndexService::rebalance() {
  topology_.assert_exclusive();  // serial repair pass: migrates/erases partitions
  std::size_t changed = 0;
  std::set<Id> members;
  for (const Id& id : dht_.node_ids()) members.insert(id);

  const auto is_dead = [&](const Id& node) {
    return failures_ != nullptr && failures_->is_crashed(node);
  };

  // Pass 1: migrate mappings stranded on nodes outside their source key's
  // replica set onto the current (live) replica set, keeping the freshest
  // stamp. Collect first -- placement mutates states_. The interned refs
  // stay valid throughout: the interner never frees.
  struct Move {
    Id from;
    const query::Query* source;
    const query::Query* target;
    std::uint64_t stamp;
  };
  std::vector<Move> moves;
  for (const auto& [node, state] : states_) {
    for (const auto* entry : state.entries()) {
      const auto& [source, targets, bytes] = *entry;
      const std::vector<Id> replicas = dht_.replica_set(source->key(), replication_);
      if (std::find(replicas.begin(), replicas.end(), node) != replicas.end()) continue;
      for (const IndexNodeState::TargetRef& ref : targets) {
        moves.push_back({node, source, ref.target, ref.stamp});
      }
    }
  }
  for (const Move& move : moves) {
    bool unused = false;
    if (IndexNodeState* from = find_state(move.from); from != nullptr) {
      from->remove(move.source, move.target, unused);
    }
    for (const Id& replica : dht_.replica_set(move.source->key(), replication_)) {
      if (is_dead(replica)) continue;
      if (repair(replica, move.source, move.target, move.stamp)) ++changed;
    }
  }
  if (bus_ != nullptr) bus_->sync();

  // Departed nodes lose their whole partition (shortcut caches included)
  // once their mappings have migrated.
  for (auto it = states_.begin(); it != states_.end();) {
    if (!members.contains(it->first) && it->second.mapping_count() == 0) {
      it = states_.erase(it);
    } else {
      ++it;
    }
  }

  // Pass 2: replica repair -- every mapping present on all of its replicas
  // with identical stamps (the max across surviving copies wins). The facts
  // map stays string-keyed std::map so repair order (and hence target
  // insertion order on repaired replicas) is byte-identical to the previous
  // layout.
  if (replication_ > 1) {
    struct Fact {
      const query::Query* source;
      const query::Query* target;
      std::uint64_t stamp;
    };
    // dhtidx-lint: allow(hot-path-map) "sorted canonical order makes repair placement deterministic; maintenance path, not per-query"
    std::map<std::string, Fact> facts;
    for (const auto& [node, state] : states_) {
      for (const auto* entry : state.entries()) {
        const auto& [source, targets, bytes] = *entry;
        for (const IndexNodeState::TargetRef& ref : targets) {
          const std::string key = source->canonical() + '\x1f' + ref.target->canonical();
          auto [it, inserted] = facts.try_emplace(key, Fact{source, ref.target, ref.stamp});
          if (!inserted && it->second.stamp < ref.stamp) it->second.stamp = ref.stamp;
        }
      }
    }
    for (const auto& [key, fact] : facts) {
      for (const Id& replica : dht_.replica_set(fact.source->key(), replication_)) {
        if (is_dead(replica)) continue;
        if (repair(replica, fact.source, fact.target, fact.stamp)) ++changed;
      }
    }
    if (bus_ != nullptr) bus_->sync();
  }
  return changed;
}

bool IndexService::repair(const Id& replica, const query::Query* source,
                          const query::Query* target, std::uint64_t stamp) {
  IndexNodeState& state = state_at(replica);
  const std::optional<std::uint64_t> held = state.refresh_stamp(source, target);
  const bool stale = !held || *held < stamp;
  if (stale) state.add(source, target, stamp);
  if (bus_ != nullptr) bus_->post(wire_mapping(net::Action::kRepair, replica, source, target));
  return stale;
}

IndexService::Totals IndexService::totals() const {
  topology_.assert_shared();  // metrics read over a quiescent map
  Totals t;
  for (const auto& [node, state] : states_) {
    t.keys += state.key_count();
    t.mappings += state.mapping_count();
    t.bytes += state.byte_size();
    t.cached_entries += state.cache().size();
    t.cache_bytes += state.cache().byte_size();
  }
  return t;
}

}  // namespace dhtidx::index
