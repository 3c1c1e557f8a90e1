#include "index/twine.hpp"

#include <map>
#include <string>

#include "index/builder.hpp"
#include "xml/parser.hpp"

namespace dhtidx::index {

using query::Query;

std::vector<Query> TwineIndexer::strands(const Query& msd) {
  // Group the MSD constraints by top-level field.
  // dhtidx-lint: allow(hot-path-map) "sorted field order fixes the strand emission order; a handful of entries per article"
  std::map<std::string_view, std::vector<std::size_t>> fields;
  const auto& constraints = msd.constraints();
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    fields[constraints[i].first_step()].push_back(i);
  }

  auto project = [&](std::initializer_list<const char*> names) {
    std::vector<std::size_t> keep;
    for (const char* name : names) {
      const auto it = fields.find(name);
      if (it == fields.end()) return Query{};  // field absent: empty marker
      for (const std::size_t i : it->second) keep.push_back(i);
    }
    return msd.keep_constraints(keep);
  };

  std::vector<Query> strands;
  // dhtidx-lint: allow(query-by-value) "the lambda consumes q into the strand vector; by value expresses the ownership transfer"
  auto add = [&](Query q) {
    if (!q.has_constraints()) return;
    for (const Query& existing : strands) {
      if (existing == q) return;
    }
    strands.push_back(std::move(q));
  };
  // Single-field strands.
  for (const auto& [field, indices] : fields) {
    if (field == "size") continue;  // administrative, never queried
    add(msd.keep_constraints(indices));
  }
  // The combinations users query by (same key set as the paper's schemes).
  add(project({"author", "title"}));
  add(project({"conf", "year"}));
  add(project({"author", "year"}));
  return strands;
}

std::size_t TwineIndexer::publish(const xml::Element& descriptor,
                                  const std::string& file_name,
                                  std::uint64_t file_bytes) {
  const Query msd = Query::most_specific(descriptor);
  const storage::Record record =
      IndexBuilder::file_record(descriptor, file_name, file_bytes);

  // One authoritative copy under the complete key...
  store_.put(msd.key(), record);
  std::size_t copies = 1;
  // ...and one full description replica per strand. (Twine replicates the
  // resource description, not the file blob; the blob stays with the MSD.)
  storage::Record strand_record = record;
  strand_record.virtual_payload_bytes = 0;
  for (const Query& strand : strands(msd)) {
    store_.put(strand.key(), strand_record);
    ++copies;
  }
  copies_stored_ += copies;
  return copies;
}

TwineIndexer::Resolution TwineIndexer::resolve(const Query& q) {
  Resolution resolution;
  const auto got = store_.get(q.key());  // one round trip, traffic accounted
  for (const storage::Record& record : *got.records) {
    const xml::Element descriptor = xml::parse(record.payload);
    if (q.matches(descriptor)) {
      resolution.results.push_back(Query::most_specific(descriptor));
    }
  }
  return resolution;
}

}  // namespace dhtidx::index
