// Indexing schemes (Figure 8).
//
// A scheme decides under which queries a file is indexed, and which more
// specific query each index entry points to. Schemes are expressed as *field
// rules*: fields are the top-level elements of a descriptor (author, title,
// conf, year, ...), a rule maps a set of source fields to a set of target
// fields (or directly to the MSD). For a given MSD, each rule instantiates
// one query-to-query mapping by projecting the MSD onto the rule's field
// sets. By construction every generated source covers its target.
//
// The three schemes of Section V-B are provided, and arbitrary schemes can be
// declared for other descriptor vocabularies (see examples/music_catalog).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "query/query.hpp"

namespace dhtidx::index {

/// A query-to-query index mapping; source always covers target.
struct Mapping {
  query::Query source;
  query::Query target;
};

/// One level of an indexing scheme: project the MSD onto `source_fields` to
/// get the index key, and onto `target_fields` (or the full MSD) to get the
/// entry it points to.
struct FieldRule {
  std::vector<std::string> source_fields;
  std::vector<std::string> target_fields;  ///< ignored when target_is_msd
  bool target_is_msd = false;
};

/// A prefix index level (Section IV-C: "one can create an index with all
/// the files of an author that start with the letter 'A'"): the index key is
/// a prefix constraint over one field (e.g. author/last ^= "S"), pointing to
/// the projection of the MSD onto `target_fields` (or the MSD itself).
struct PrefixRule {
  std::vector<std::string> path;           ///< constraint path, e.g. {author,last}
  std::size_t prefix_length = 1;
  std::vector<std::string> target_fields;  ///< must include path.front()
  bool target_is_msd = false;
};

/// A sub-field index level: the index key is the exact value of one nested
/// field. This is the "Last name" index of Figure 4: author/last = Smith
/// points to the full author queries of all Smiths.
struct PathRule {
  std::vector<std::string> path;           ///< constraint path, e.g. {author,last}
  std::vector<std::string> target_fields;  ///< must include path.front()
  bool target_is_msd = false;
};

/// The paper's evaluation schemes.
enum class SchemeKind { kSimple, kFlat, kComplex };

std::string to_string(SchemeKind kind);

/// A declarative indexing scheme.
class IndexingScheme {
 public:
  IndexingScheme(std::string name, std::vector<FieldRule> rules);

  /// Simple (Figure 8 left): author|title -> author+title -> MSD;
  /// conf|year -> conf+year -> MSD.
  static IndexingScheme simple();

  /// Flat (Figure 8 center): every key of the simple scheme points directly
  /// to the MSD ("the index query length is always 2").
  static IndexingScheme flat();

  /// Complex (Figure 8 right): like simple, but the author path is split
  /// through author+conference and author+conference+year, giving a deeper
  /// hierarchy ("allows us to observe the effect of hierarchy depth").
  static IndexingScheme complex();

  /// The worked example of Figures 4-6: the simple scheme plus the
  /// "Last name" index (author/last -> full author names).
  static IndexingScheme figure4();

  static IndexingScheme make(SchemeKind kind);

  const std::string& name() const { return name_; }
  const std::vector<FieldRule>& rules() const { return rules_; }

  /// Adds a prefix index level. Returns *this for chaining.
  /// Throws InvariantError when the rule could violate covering.
  IndexingScheme& add_prefix_rule(PrefixRule rule);

  const std::vector<PathRule>& path_rules() const { return path_rules_; }

  /// Adds a sub-field index level. Returns *this for chaining.
  /// Throws InvariantError when the rule could violate covering.
  IndexingScheme& add_path_rule(PathRule rule);

  /// Instantiates every applicable rule for the given MSD. Rules whose
  /// source or target fields are absent from the descriptor are skipped.
  std::vector<Mapping> mappings_for(const query::Query& msd) const;

  /// Projects `msd` onto the constraints whose top-level field is listed.
  /// Exposed for tests and tools.
  static query::Query project(const query::Query& msd,
                              const std::vector<std::string>& fields);

 private:
  std::string name_;
  std::vector<FieldRule> rules_;
  std::vector<PrefixRule> prefix_rules_;
  std::vector<PathRule> path_rules_;
};

}  // namespace dhtidx::index
