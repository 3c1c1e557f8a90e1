// Snapshot persistence for the distributed index and storage.
//
// Serializes every query-to-query mapping and every stored record into one
// XML document (using the library's own XML layer), and restores them into a
// fresh service/store pair. Mappings and records are re-placed through the
// *current* DHT on load, so a snapshot taken under one membership can be
// restored under another -- the covering checks re-run on load, keeping the
// arbitrary-linking resilience property even against tampered snapshots.
//
// Shortcut caches are deliberately not persisted: they are soft state the
// system rebuilds from live traffic (Section IV-C's adaptive cache).
#pragma once

#include <string>
#include <string_view>

#include "index/service.hpp"
#include "storage/dht_store.hpp"

namespace dhtidx::persist {

/// Serializes the regular index entries and all stored records.
std::string save_snapshot(const index::IndexService& service,
                          const storage::DhtStore& store);

/// Counts of what a load read. A snapshot holds one element per stored copy,
/// so at replication r each mapping and each record counts r times.
struct LoadStats {
  std::size_t mappings = 0;  ///< <mapping> elements read
  std::size_t records = 0;   ///< <record> elements read
};

/// Restores a snapshot into (typically empty) service/store instances. Each
/// mapping and record is placed on every replica of its key that lacks it,
/// so the copies saved from r replicas restore as r copies, not r * r.
/// Throws ParseError on malformed input and InvariantError when a mapping
/// violates the covering relation.
LoadStats load_snapshot(std::string_view snapshot_xml, index::IndexService& service,
                        storage::DhtStore& store);

/// File-based convenience wrappers. Throw dhtidx::Error on I/O failure.
void save_snapshot_file(const std::string& path, const index::IndexService& service,
                        const storage::DhtStore& store);
LoadStats load_snapshot_file(const std::string& path, index::IndexService& service,
                             storage::DhtStore& store);

}  // namespace dhtidx::persist
