#include "index/builder.hpp"

#include <unordered_set>

#include "index/fuzzy.hpp"
#include "xml/writer.hpp"

namespace dhtidx::index {

const std::vector<IndexBuilder::InternedMapping>& IndexBuilder::plan_for(
    const query::Query& msd) {
  const auto it = plans_.find(msd.canonical());
  if (it != plans_.end()) return it->second;
  query::QueryInterner& interner = service_.interner();
  std::vector<Mapping> raw = scheme_.mappings_for(msd);
  std::vector<InternedMapping> plan;
  plan.reserve(raw.size());
  for (Mapping& m : raw) {
    plan.emplace_back(interner.intern(std::move(m.source)),
                      interner.intern(std::move(m.target)));
  }
  return plans_.emplace(msd.canonical(), std::move(plan)).first->second;
}

storage::Record IndexBuilder::file_record(const xml::Element& descriptor,
                                          const std::string& file_name,
                                          std::uint64_t file_bytes) {
  storage::Record record;
  record.kind = "file:" + file_name;
  record.payload = xml::write(descriptor, {.pretty = false});
  record.virtual_payload_bytes = file_bytes;
  return record;
}

void IndexBuilder::index_file(const xml::Element& descriptor, const std::string& file_name,
                              std::uint64_t file_bytes, BuildStats* stats,
                              std::uint64_t now) {
  const query::Query msd = query::Query::most_specific(descriptor);

  store_.put(msd.key(), file_record(descriptor, file_name, file_bytes));

  // No plan_for memo: a build never replays one. A pooled query resolves to
  // its interned instance, whose key is warm; only a new one is hashed.
  query::QueryInterner& interner = service_.interner();
  std::size_t inserted = 0;
  for (Mapping& m : scheme_.mappings_for(msd)) {
    const query::Query* source = interner.intern(std::move(m.source));
    const query::Query* target = interner.intern(std::move(m.target));
    service_.insert_interned(source, target, now);
    ++inserted;
  }
  if (dictionary_ != nullptr) {
    for (const query::ConstraintView c : msd.constraints()) {
      if (c.has_value() && !c.value_is_prefix()) dictionary_->add(c.path_string(), c.value());
    }
  }
  if (stats != nullptr) {
    ++stats->files;
    stats->mappings_inserted += inserted;
    stats->file_bytes_stored += file_bytes;
  }
}

std::size_t IndexBuilder::republish(const xml::Element& descriptor, std::uint64_t now,
                                    const std::string* file_name,
                                    std::uint64_t file_bytes) {
  const query::Query msd = query::Query::most_specific(descriptor);
  if (file_name != nullptr) {
    store_.ensure(msd.key(), file_record(descriptor, *file_name, file_bytes));
  }
  std::size_t refreshed = 0;
  for (const auto& [source, target] : plan_for(msd)) {
    service_.insert_interned(source, target, now);
    ++refreshed;
  }
  return refreshed;
}

std::size_t IndexBuilder::remove_file(const xml::Element& descriptor) {
  const query::Query msd = query::Query::most_specific(descriptor);

  // Remove the file record itself first.
  const Id file_key = msd.key();
  // Copy the records first: removal mutates the vector being walked.
  const std::vector<storage::Record> records = *store_.get(file_key).records;
  for (const storage::Record& r : records) {
    store_.remove(file_key, r);
  }

  // Cascade: a mapping (s ; t) may be removed once its target key t no
  // longer leads anywhere -- initially only the MSD qualifies (the file is
  // gone). Each removal that empties a source key makes mappings pointing at
  // that key removable in turn. Probe-only: a query the pool has never seen
  // is in no partition, and without a pooled MSD nothing can cascade.
  const query::QueryInterner& interner = service_.interner();
  const query::Query* interned_msd = interner.find_existing(msd);
  if (interned_msd == nullptr) return 0;
  std::vector<InternedMapping> mappings;
  for (const Mapping& m : scheme_.mappings_for(msd)) {
    const query::Query* source = interner.find_existing(m.source);
    const query::Query* target = interner.find_existing(m.target);
    if (source != nullptr && target != nullptr) mappings.emplace_back(source, target);
  }
  std::vector<bool> removed(mappings.size(), false);
  // Interned refs make key identity a pointer comparison.
  std::unordered_set<const query::Query*> dead_keys{interned_msd};
  std::size_t total_removed = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < mappings.size(); ++i) {
      if (removed[i]) continue;
      if (!dead_keys.contains(mappings[i].second)) continue;
      bool source_now_empty = false;
      if (service_.remove_interned(mappings[i].first, mappings[i].second, source_now_empty)) {
        ++total_removed;
      }
      removed[i] = true;
      progress = true;
      if (source_now_empty) dead_keys.insert(mappings[i].first);
    }
  }
  return total_removed;
}

}  // namespace dhtidx::index
