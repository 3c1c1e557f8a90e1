// The key-to-node abstraction the indexing layer builds on.
//
// Section III-A: "Any node can use the DHT substrate to determine the current
// live node that is responsible for a given key." Two implementations are
// provided: Ring (an instant consistent-hashing view, used by the large
// simulations, where routing cost is irrelevant to the indexing metrics) and
// ChordNetwork (a full Chord protocol with finger tables, stabilization and
// failure handling).
#pragma once

#include <cstdint>
#include <vector>

#include "common/id.hpp"
#include "net/failure.hpp"

namespace dhtidx::dht {

/// Result of resolving a key to its responsible node.
struct LookupResult {
  Id node;        ///< the live node responsible for the key
  int hops = 0;   ///< overlay routing hops used to find it
};

/// Key-to-node resolution service.
class Dht {
 public:
  virtual ~Dht() = default;

  /// Resolves `key` to the live node responsible for it.
  /// Throws NotFoundError when the network is empty.
  virtual LookupResult lookup(const Id& key) = 0;

  /// The nodes a record under `key` should be replicated on: the responsible
  /// node followed by up to `count - 1` distinct fallback nodes (typically
  /// its clockwise successors). The default implementation provides no
  /// redundancy beyond the responsible node.
  virtual std::vector<Id> replica_set(const Id& key, std::size_t count) {
    (void)count;
    return {lookup(key).node};
  }

  /// Ids of all live nodes (unspecified order).
  virtual std::vector<Id> node_ids() const = 0;

  /// Number of live nodes.
  virtual std::size_t size() const = 0;
};

// The one replica-placement rule (Section IV-D: fault tolerance comes from the
// substrate's replication). DhtStore, IndexService and the sharded build all
// place and find copies through these two functions; replication 1 is their
// r = 1 case, the paper's single copy on the node responsible for the key.

/// The nodes that may hold a copy of `key`: its replica set widened by the
/// number of crashed nodes, so `replication` live copies stay reachable while
/// crashes go undetected by the substrate. Reads walk this list in order and
/// fail over along it. One substrate call.
inline std::vector<Id> candidate_nodes(Dht& dht, const Id& key, std::size_t replication,
                                       const net::FailureInjector* failures) {
  const std::size_t crashed = failures == nullptr ? 0 : failures->crashed_count();
  return dht.replica_set(key, replication + crashed);
}

/// The nodes a write of `key` goes to, primary first: the first `replication`
/// candidates that are not crashed (PAST-style placement; the writer finds
/// dead nodes by timeout and skips past them). One substrate call.
inline std::vector<Id> write_nodes(Dht& dht, const Id& key, std::size_t replication,
                                   const net::FailureInjector* failures) {
  std::vector<Id> nodes = candidate_nodes(dht, key, replication, failures);
  if (failures != nullptr) {
    std::erase_if(nodes, [failures](const Id& node) { return failures->is_crashed(node); });
  }
  if (nodes.size() > replication) nodes.resize(replication);
  return nodes;
}

}  // namespace dhtidx::dht
