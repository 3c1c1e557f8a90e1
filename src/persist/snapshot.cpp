#include "persist/snapshot.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "query/query.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace dhtidx::persist {

std::string save_snapshot(const index::IndexService& service,
                          const storage::DhtStore& store) {
  xml::Element root{"dhtidx-snapshot"};
  root.set_attribute("version", "1");

  xml::Element& index = root.add_child(xml::Element{"index"});
  for (const auto& [node, state] : service.states()) {
    for (const auto* entry : state.entries()) {
      const auto& [source, targets, bytes] = *entry;
      for (const index::IndexNodeState::TargetRef& ref : targets) {
        xml::Element mapping{"mapping"};
        mapping.set_attribute("source", source->canonical());
        mapping.set_attribute("target", ref.target->canonical());
        index.add_child(std::move(mapping));
      }
    }
  }

  xml::Element& data = root.add_child(xml::Element{"storage"});
  for (const auto& [node, node_store] : store.node_stores()) {
    for (const Id& key : node_store.keys()) {
      for (const storage::Record& record : node_store.get(key)) {
        xml::Element item{"record"};
        item.set_attribute("key", key.to_hex());
        item.set_attribute("kind", record.kind);
        item.set_attribute("virtual-bytes", std::to_string(record.virtual_payload_bytes));
        item.set_text(record.payload);
        data.add_child(std::move(item));
      }
    }
  }
  return xml::write(root, {.pretty = true, .declaration = true});
}

LoadStats load_snapshot(std::string_view snapshot_xml, index::IndexService& service,
                        storage::DhtStore& store) {
  const xml::Element root = xml::parse(snapshot_xml);
  if (root.name() != "dhtidx-snapshot") {
    throw ParseError("snapshot root must be <dhtidx-snapshot>, got <" + root.name() + ">");
  }
  LoadStats stats;
  if (const xml::Element* index = root.child("index")) {
    for (const xml::Element& mapping : index->children()) {
      if (mapping.name() != "mapping") {
        throw ParseError("unexpected element <" + mapping.name() + "> in <index>");
      }
      const auto source = mapping.attribute("source");
      const auto target = mapping.attribute("target");
      if (!source || !target) throw ParseError("<mapping> needs source and target");
      // insert() re-validates covering: a tampered snapshot cannot smuggle
      // arbitrary links in.
      service.insert(query::Query::parse(*source), query::Query::parse(*target));
      ++stats.mappings;
    }
  }
  if (const xml::Element* data = root.child("storage")) {
    for (const xml::Element& item : data->children()) {
      if (item.name() != "record") {
        throw ParseError("unexpected element <" + item.name() + "> in <storage>");
      }
      const auto key = item.attribute("key");
      const auto kind = item.attribute("kind");
      if (!key || !kind) throw ParseError("<record> needs key and kind");
      storage::Record record;
      record.kind = *kind;
      record.payload = item.text();
      if (const auto virtual_bytes = item.attribute("virtual-bytes")) {
        const auto bytes = parse_number<std::uint64_t>(*virtual_bytes);
        if (!bytes) throw ParseError("malformed virtual-bytes: " + *virtual_bytes);
        record.virtual_payload_bytes = *bytes;
      }
      // One <record> per stored copy, so the same record arrives once per
      // replica it was saved from: place it on the replicas that lack it.
      store.ensure(Id::from_hex(*key), record);
      ++stats.records;
    }
  }
  return stats;
}

void save_snapshot_file(const std::string& path, const index::IndexService& service,
                        const storage::DhtStore& store) {
  std::ofstream out{path};
  if (!out) throw Error("cannot open snapshot file for writing: " + path);
  out << save_snapshot(service, store);
  if (!out) throw Error("failed writing snapshot file: " + path);
}

LoadStats load_snapshot_file(const std::string& path, index::IndexService& service,
                             storage::DhtStore& store) {
  std::ifstream in{path};
  if (!in) throw Error("cannot open snapshot file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_snapshot(buffer.str(), service, store);
}

}  // namespace dhtidx::persist
