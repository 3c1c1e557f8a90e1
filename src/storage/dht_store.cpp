#include "storage/dht_store.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "net/retry.hpp"

namespace dhtidx::storage {

namespace {
const std::vector<Record> kNoRecords;
}

net::Message DhtStore::wire_message(net::Action action, const Id& node,
                                    const Id& key, const Record* record) const {
  net::Message message = net::Message::request(action, Id{}, node);
  message.payload.emplace_back(reinterpret_cast<const char*>(key.bytes().data()),
                               Id::kBytes);
  if (record != nullptr) {
    message.payload.push_back(record->kind);
    message.payload.push_back(record->payload);
  }
  return message;
}

const std::vector<Record>& DhtStore::records_at(const Id& node, const Id& key) const {
  topology_.assert_shared();  // probe-only: never grows the map
  const auto it = stores_.find(node);
  return it == stores_.end() ? kNoRecords : it->second.get(key);
}

StoreResult DhtStore::put(const Id& key, const Record& record) {
  topology_.assert_exclusive();  // placement may create a node's store
  const std::uint64_t request_bytes =
      Id::kBytes + record.kind.size() + record.payload.size() + net::kMessageOverheadBytes;
  const std::vector<Id> targets = dht::write_nodes(dht_, key, replication_, failures_);
  for (const Id& replica : targets) {
    net::active(ledger_).queries.record(request_bytes);
    place(replica, key, record, net::Action::kStore);
  }
  return StoreResult{targets.empty() ? Id{} : targets.front()};
}

void DhtStore::place(const Id& node, const Id& key, const Record& record,
                     net::Action action) {
  if (bus_ != nullptr) bus_->post(wire_message(action, node, key, &record));
  NodeStore* store = find_node_store(node);
  if (store == nullptr) store = &node_store(node);
  store->put(key, record);
}

DhtStore::GetResult DhtStore::get(const Id& key) {
  GetResult result;
  const dht::LookupResult where = dht_.lookup(key);
  result.node = where.node;
  result.hops = where.hops;
  result.replicas_tried = 0;
  const std::uint64_t request_bytes = Id::kBytes + net::kMessageOverheadBytes;
  const std::vector<Record>* found = nullptr;
  std::size_t contacted = 0;
  for (const Id& replica : dht::candidate_nodes(dht_, key, replication_, failures_)) {
    if (contacted >= replication_) break;
    net::Message wire;
    if (bus_ != nullptr) wire = wire_message(net::Action::kFetch, replica, key, nullptr);
    // Each failed attempt is charged as retry traffic; unlike the index
    // service, the store keeps no backoff total.
    const bool delivered = net::deliver_with_retries(failures_, replica, [&](double) {
      ++result.rpc_failures;
      net::active(ledger_).retries.record(request_bytes);
      if (bus_ != nullptr) bus_->record_lost(wire);
    });
    if (!delivered) continue;
    ++contacted;
    net::active(ledger_).queries.record(request_bytes);
    const std::vector<Record>& records = records_at(replica, key);
    if (bus_ != nullptr) {
      // The replica answers the fetch from the records the result reads.
      net::Message reply = net::Message::response_to(wire);
      for (const Record& r : records) {
        reply.payload.push_back(r.kind);
        reply.payload.push_back(r.payload);
      }
      if (records.empty()) reply.status = net::Status::kNotFound;
      bus_->exchange(std::move(wire), std::move(reply));
    }
    result.node = replica;
    found = &records;
    if (!records.empty()) break;
  }
  result.replicas_tried = static_cast<int>(contacted);
  if (contacted == 0) {
    // Nobody answered: no response message, the requester times out.
    result.unreachable = true;
    result.records = &kNoRecords;
    return result;
  }
  std::uint64_t response_bytes = net::kMessageOverheadBytes;
  for (const Record& r : *found) {
    // Virtual blob bytes are not charged: the evaluation measures index and
    // metadata traffic, not file downloads (Section V-D).
    response_bytes += r.kind.size() + r.payload.size();
  }
  net::active(ledger_).responses.record(response_bytes);
  result.records = found;
  return result;
}

DhtStore::RemoveResult DhtStore::remove(const Id& key, const Record& record) {
  const std::vector<Id> targets = dht::write_nodes(dht_, key, replication_, failures_);
  RemoveResult result{targets.empty() ? Id{} : targets.front()};
  for (const Id& replica : targets) {
    net::active(ledger_).queries.record(Id::kBytes + record.kind.size() +
                                        record.payload.size() + net::kMessageOverheadBytes);
    bool removed_here = false;
    if (NodeStore* store = find_node_store(replica); store != nullptr) {
      removed_here = store->remove(key, record);
      result.removed = removed_here || result.removed;
    }
    if (bus_ != nullptr) {
      net::Message request = wire_message(net::Action::kRemove, replica, key, &record);
      net::Message reply = net::Message::response_to(request);
      reply.status = removed_here ? net::Status::kOk : net::Status::kNotFound;
      bus_->exchange(std::move(request), std::move(reply));
    }
  }
  return result;
}

std::size_t DhtStore::ensure(const Id& key, const Record& record) {
  topology_.assert_exclusive();  // republish may re-create a node's store
  std::size_t created = 0;
  for (const Id& replica : dht::write_nodes(dht_, key, replication_, failures_)) {
    if (place_missing(replica, key, record, net::Action::kReplicate)) ++created;
  }
  return created;
}

bool DhtStore::place_missing(const Id& node, const Id& key, const Record& record,
                             net::Action action) {
  const std::vector<Record>& held = records_at(node, key);
  if (std::find(held.begin(), held.end(), record) != held.end()) return false;
  place(node, key, record, action);
  return true;
}

bool DhtStore::has_record(const Id& key) {
  const std::vector<Id> replicas = dht::write_nodes(dht_, key, replication_, failures_);
  return std::any_of(replicas.begin(), replicas.end(),
                     [&](const Id& replica) { return !records_at(replica, key).empty(); });
}

NodeStore* DhtStore::find_node_store(const Id& node) {
  // Read-only on the map structure (shared rights: sharded appliers call
  // this concurrently against a frozen topology); the store value it returns
  // is mutable because value ownership is the caller's contract.
  return const_cast<NodeStore*>(std::as_const(*this).find_node_store(node));
}

const NodeStore* DhtStore::find_node_store(const Id& node) const {
  topology_.assert_shared();
  const auto it = stores_.find(node);
  return it == stores_.end() ? nullptr : &it->second;
}

std::size_t DhtStore::rebalance() {
  topology_.assert_exclusive();  // serial repair: moves records, may create stores
  std::size_t moved = 0;
  const auto is_dead = [&](const Id& node) {
    return failures_ != nullptr && failures_->is_crashed(node);
  };
  // Two passes: compute misplaced records first, then move, so we never
  // invalidate iterators of the map we are walking.
  std::vector<std::pair<Id, Id>> moves;  // (from node, key)
  for (const auto& [node, store] : stores_) {
    for (const Id& key : store.keys()) {
      const std::vector<Id> replicas = dht_.replica_set(key, replication_);
      if (std::find(replicas.begin(), replicas.end(), node) == replicas.end()) {
        moves.emplace_back(node, key);
      }
    }
  }
  for (const auto& [from, key] : moves) {
    // First live replica; with a clean membership this is the primary.
    Id to = dht_.lookup(key).node;
    for (const Id& replica : dht::candidate_nodes(dht_, key, replication_, failures_)) {
      if (!is_dead(replica)) {
        to = replica;
        break;
      }
    }
    // Copy and erase before placing: place() may insert the destination's
    // store, and a FlatMap insertion invalidates references into the map.
    NodeStore& source = *find_node_store(from);  // we just iterated it
    std::vector<Record> records = source.get(key);
    source.erase(key);
    for (const Record& r : records) {
      // The primary may already hold a replica of this record.
      if (place_missing(to, key, r, net::Action::kRepair)) ++moved;
    }
  }
  if (bus_ != nullptr) bus_->sync();

  // Replication repair: membership changes degrade the copy count (a failed
  // replica's records survive elsewhere but with one copy fewer). Re-create
  // missing copies so every record is back at its full replica set.
  if (replication_ > 1) {
    struct Copy {
      Id node;
      Id key;
      Record record;
    };
    std::vector<Copy> copies;
    for (const auto& [node, store] : stores_) {
      for (const Id& key : store.keys()) {
        for (const Id& replica : dht_.replica_set(key, replication_)) {
          if (replica == node || is_dead(replica)) continue;
          const std::vector<Record>& theirs = records_at(replica, key);
          for (const Record& r : store.get(key)) {
            if (std::find(theirs.begin(), theirs.end(), r) == theirs.end()) {
              copies.push_back(Copy{replica, key, r});
            }
          }
        }
      }
    }
    for (const Copy& copy : copies) {
      // Re-check: an earlier copy in this batch may have filled the gap.
      if (place_missing(copy.node, copy.key, copy.record, net::Action::kRepair)) ++moved;
    }
    if (bus_ != nullptr) bus_->sync();
  }
  return moved;
}

std::size_t DhtStore::drop_node(const Id& node) {
  topology_.assert_exclusive();  // erases a store: serial crash handling
  const auto it = stores_.find(node);
  if (it == stores_.end()) return 0;
  const std::size_t lost = it->second.record_count();
  stores_.erase(it);
  return lost;
}

std::uint64_t DhtStore::total_bytes() const {
  topology_.assert_shared();  // metrics read over a quiescent map
  std::uint64_t total = 0;
  for (const auto& [node, store] : stores_) total += store.byte_size();
  return total;
}

std::size_t DhtStore::total_records() const {
  topology_.assert_shared();  // metrics read over a quiescent map
  std::size_t total = 0;
  for (const auto& [node, store] : stores_) total += store.record_count();
  return total;
}

}  // namespace dhtidx::storage
