// Queries over semi-structured descriptors, and the covering partial order.
//
// A Query is a conjunctive predicate over XML descriptors, written in the
// paper's XPath subset (Section III-B). It consists of a root element name
// and a set of constraints; each constraint names a field by its path from
// the root and optionally requires an exact value:
//
//     /article[author/first=John][author/last=Smith][conf=INFOCOM]
//
// The paper's location-path style is accepted on input too, where the last
// step of a path is the value: /article/author/last/Smith.
//
// Queries are *normalized*: constraints are sorted and deduplicated, so two
// equivalent XPath spellings produce the same canonical string and hence the
// same DHT key (footnote 1 of the paper). The covering relation q' covers q
// (q' ⊒ q) holds when every descriptor matching q also matches q'; for the
// conjunctive queries of this subset it is decided exactly by constraint
// implication.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/id.hpp"
#include "xml/node.hpp"

namespace dhtidx::query {

/// One conjunct of a query: the field at `path` (relative to the root
/// element) must exist and, if `value` is set, its text must equal it —
/// or begin with it when `value_is_prefix` is set (Section IV-C: "more
/// generic queries can be obtained from more specific queries by removing
/// only portions of element names", e.g. an index of all authors starting
/// with the letter "A"). When `descendant` is true the path may match at
/// any depth (XPath //).
struct Constraint {
  std::vector<std::string> path;      ///< element names; "*" matches any name
  std::optional<std::string> value;   ///< exact or prefix text, or presence-only
  bool descendant = false;            ///< true for // paths
  bool value_is_prefix = false;       ///< value is a prefix pattern (^= syntax)

  /// "author/last" convenience rendering of the path.
  std::string path_string() const;

  auto operator<=>(const Constraint&) const = default;
};

/// A normalized conjunctive query. Regular value type.
class Query {
 public:
  Query() = default;
  explicit Query(std::string root) : root_(std::move(root)) {}

  /// Parses the XPath subset (see parser.hpp for the grammar).
  /// Throws ParseError on malformed input.
  static Query parse(std::string_view text);

  /// The most specific query (MSD) of a descriptor: one value constraint per
  /// leaf element. Satisfies msd.matches(descriptor) and is covered by every
  /// query the descriptor matches.
  static Query most_specific(const xml::Element& descriptor);

  const std::string& root() const { return root_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  bool has_constraints() const { return !constraints_.empty(); }

  /// Adds a constraint and re-normalizes. Returns *this for chaining.
  Query& add_constraint(Constraint constraint);

  /// Convenience: add_field("author/last", "Smith").
  Query& add_field(std::string_view slash_path, std::string value);

  /// Convenience: presence-only constraint.
  Query& add_presence(std::string_view slash_path);

  /// Convenience: prefix constraint, add_prefix("author/last", "S").
  Query& add_prefix(std::string_view slash_path, std::string prefix);

  /// Canonical text form: deterministic for equivalent queries; this is what
  /// gets hashed into the DHT key.
  const std::string& canonical() const;

  /// DHT key of the canonical form. Memoized: the SHA-1 runs once per query
  /// object and is invalidated together with the canonical cache whenever a
  /// constraint is added. Copies and moves carry the warm caches along, so a
  /// query handed down a lookup walk is hashed at most once.
  const Id& key() const {
    if (!key_cached_) {
      key_cache_ = Id::hash(canonical());
      key_cached_ = true;
    }
    return key_cache_;
  }

  /// Serialized size used for traffic accounting.
  std::size_t byte_size() const { return canonical().size(); }

  /// True when `doc` satisfies the root name and every constraint.
  bool matches(const xml::Element& doc) const;

  /// True when *this covers `other`: every descriptor matching `other` also
  /// matches *this. Exact for wildcard-free queries; sound (never falsely
  /// true) in the presence of wildcards and descendant paths.
  bool covers(const Query& other) const;

  /// A 64-bit filter for covers(): one bit per hashed (path, value) pair of
  /// every exact-value, anchored, wildcard-free constraint. constraint_implies
  /// satisfies such a constraint only with an identical one, so
  /// a.covers(b) implies (a.signature() & ~b.signature()) == 0, and a query
  /// with a bit outside b's signature cannot cover b. Prefix, presence-only,
  /// descendant (//) and wildcard-step constraints add no bits. Computed in
  /// the same pass as canonical() and cached with it, so it is warm wherever
  /// the canonical form is (every interned query).
  std::uint64_t signature() const {
    canonical();
    return signature_cache_;
  }

  /// True when *this is exactly the most specific query of `doc`.
  bool is_most_specific_of(const xml::Element& doc) const;

  /// All queries obtained by dropping exactly one constraint: the immediate
  /// generalizations used when looking up non-indexed queries (Section IV-B).
  std::vector<Query> drop_one_generalizations() const;

  /// Query with the constraints at the given (sorted, unique) positions kept.
  Query keep_constraints(const std::vector<std::size_t>& keep) const;

  bool operator==(const Query& other) const {
    return root_ == other.root_ && constraints_ == other.constraints_;
  }
  bool operator<(const Query& other) const { return canonical() < other.canonical(); }

 private:
  void normalize();
  void invalidate_cache() {
    canonical_cache_.clear();
    key_cached_ = false;
  }

  std::string root_;
  std::vector<Constraint> constraints_;  // kept sorted & unique
  // Lazily computed caches (not part of the query's value). Like any lazy
  // const-method cache these are not synchronized: a Query shared across
  // threads must have canonical()/key() called once before it is shared
  // (QueryInterner::intern does exactly that).
  mutable std::string canonical_cache_;
  mutable std::uint64_t signature_cache_ = 0;  // valid while canonical_cache_ is
  mutable Id key_cache_;
  mutable bool key_cached_ = false;
};

/// Hash functor over canonical form for unordered containers.
struct QueryHasher {
  std::size_t operator()(const Query& q) const {
    return std::hash<std::string>{}(q.canonical());
  }
};

/// True when constraint `general` is implied by constraint `specific` (every
/// document satisfying `specific` satisfies `general`). Exposed for tests.
bool constraint_implies(const Constraint& specific, const Constraint& general);

}  // namespace dhtidx::query
