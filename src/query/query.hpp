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
//
// Layout: a Query keeps one copy of its text, the canonical string, built at
// exact size whenever the query is normalized. Each constraint is a 16-byte
// record of offsets into that string (path and value), a step count and
// flags; constraints() hands out read-only ConstraintViews of those records.
// A quoted value is stored escaped in the string, so the unescaped text of a
// value holding ' or \ is also kept on the side. Constraint stays the value
// type callers build queries from. Only key() is lazy: the canonical string
// and the covers() signature are computed when the query is built.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <ranges>
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

namespace detail {

/// One constraint of a Query as it sits in the canonical string,
/// "[" "//"? path ("^"? "=" value | "=*")? "]", with the value quoted as
/// 'value' when it needs quoting. The value's offset follows from the path's
/// end and the flags.
struct ConstraintRecord {
  std::uint32_t path_offset = 0;  ///< first byte of the path text
  std::uint32_t path_size = 0;
  std::uint32_t value_size = 0;   ///< the value as written: escaped, unquoted
  std::uint16_t steps = 0;
  std::uint8_t flags = 0;         ///< ConstraintFlag bits
};
static_assert(sizeof(ConstraintRecord) == 16);

enum ConstraintFlag : std::uint8_t {
  kHasValue = 1,
  kDescendant = 2,
  kPrefix = 4,
  kQuoted = 8,
  kEscaped = 16,   ///< the value holds ' or \, so its written form differs
  kWildcard = 32,  ///< some step is "*"
};

}  // namespace detail

/// Read-only view of one constraint of a Query. Valid while that query lives
/// unmodified. Views compare in the order of Constraint::operator<=>: path
/// steps as a sequence, then the value (none first), then //, then ^=.
class ConstraintView {
 public:
  /// The path as written, steps separated by '/': "author/last".
  std::string_view path_text() const { return {base_ + rec_->path_offset, rec_->path_size}; }
  std::string path_string() const { return std::string{path_text()}; }
  std::size_t steps() const { return rec_->steps; }
  std::string_view first_step() const { return path_text().substr(0, path_text().find('/')); }
  /// True when the path is exactly `path`, step by step.
  bool has_path(const std::vector<std::string>& path) const;
  bool has_wildcard_step() const { return flag(detail::kWildcard); }

  bool has_value() const { return flag(detail::kHasValue); }
  /// The value, unescaped; empty for a presence-only constraint.
  std::string_view value() const {
    return flag(detail::kEscaped) ? std::string_view{*raw_} : value_text();
  }
  /// The value as written in the canonical string: escaped, without quotes.
  /// The escape is a prefix code, so equality and prefix tests may compare
  /// this text; order and matching need value().
  std::string_view value_text() const { return {base_ + value_offset(), rec_->value_size}; }
  bool descendant() const { return flag(detail::kDescendant); }
  bool value_is_prefix() const { return flag(detail::kPrefix); }

  /// This constraint's text in the canonical string: "[author/last=Smith]".
  std::string_view text() const;

  /// The constraint as a value, to build another query from.
  Constraint to_constraint() const;

  friend std::strong_ordering operator<=>(ConstraintView a, ConstraintView b);
  friend bool operator==(ConstraintView a, ConstraintView b) { return (a <=> b) == 0; }

 private:
  friend class Query;

  ConstraintView(const char* base, const detail::ConstraintRecord* rec, const std::string* raw)
      : base_(base), rec_(rec), raw_(raw) {}

  bool flag(detail::ConstraintFlag f) const { return (rec_->flags & f) != 0; }
  std::size_t value_offset() const {
    return rec_->path_offset + rec_->path_size + (flag(detail::kPrefix) ? 2 : 1) +
           (flag(detail::kQuoted) ? 1 : 0);
  }

  const char* base_;                     ///< the text the record's offsets index
  const detail::ConstraintRecord* rec_;
  const std::string* raw_;               ///< unescaped value, read only when kEscaped
};

/// A normalized conjunctive query. Regular value type.
class Query {
 public:
  Query() : canonical_("/") {}
  explicit Query(std::string_view root);

  /// `constraints` under `root`, sorted and deduplicated.
  Query(std::string_view root, const std::vector<Constraint>& constraints);

  /// Parses the XPath subset (see parser.hpp for the grammar).
  /// Throws ParseError on malformed input.
  static Query parse(std::string_view text);

  /// The most specific query (MSD) of a descriptor: one value constraint per
  /// leaf element. Satisfies msd.matches(descriptor) and is covered by every
  /// query the descriptor matches.
  static Query most_specific(const xml::Element& descriptor);

  std::string_view root() const {
    const std::string_view text{canonical_};
    return text.substr(1, text.find('[') - 1);
  }
  /// The constraints in canonical order, as views: a random-access range.
  auto constraints() const {
    return std::views::iota(std::size_t{0}, records_.size()) |
           std::views::transform([this](std::size_t i) { return constraint(i); });
  }
  bool has_constraints() const { return !records_.empty(); }

  /// Adds a constraint and re-normalizes. Returns *this for chaining.
  Query& add_constraint(const Constraint& constraint);

  /// Convenience: add_field("author/last", "Smith").
  Query& add_field(std::string_view slash_path, std::string_view value);

  /// Convenience: presence-only constraint.
  Query& add_presence(std::string_view slash_path);

  /// Convenience: prefix constraint, add_prefix("author/last", "S").
  Query& add_prefix(std::string_view slash_path, std::string_view prefix);

  /// Canonical text form: deterministic for equivalent queries; this is what
  /// gets hashed into the DHT key.
  const std::string& canonical() const { return canonical_; }

  /// DHT key of the canonical form. Memoized: the SHA-1 runs once per query
  /// object. Copies and moves carry the warm cache along, so a query handed
  /// down a lookup walk is hashed at most once.
  const Id& key() const {
    if (!key_cached_) {
      key_cache_ = Id::hash(canonical_);
      key_cached_ = true;
    }
    return key_cache_;
  }

  /// Serialized size used for traffic accounting.
  std::size_t byte_size() const { return canonical_.size(); }

  /// True when `doc` satisfies the root name and every constraint.
  bool matches(const xml::Element& doc) const;

  /// True when *this covers `other`: every descriptor matching `other` also
  /// matches *this. Exact for wildcard-free queries; sound (never falsely
  /// true) in the presence of wildcards and descendant paths.
  bool covers(const Query& other) const;

  /// A 64-bit filter for covers(): up to four bits per hashed (path, value)
  /// pair of every exact-value, anchored, wildcard-free constraint.
  /// constraint_implies satisfies such a constraint only with an identical
  /// one, which sets identical bits, so a.covers(b) implies
  /// (a.signature() & ~b.signature()) == 0, and a query with a bit outside
  /// b's signature cannot cover b. Prefix, presence-only, descendant (//) and
  /// wildcard-step constraints add no bits. Computed with the canonical
  /// string.
  std::uint64_t signature() const { return signature_; }

  /// True when *this is exactly the most specific query of `doc`.
  bool is_most_specific_of(const xml::Element& doc) const;

  /// All queries obtained by dropping exactly one constraint: the immediate
  /// generalizations used when looking up non-indexed queries (Section IV-B).
  std::vector<Query> drop_one_generalizations() const;

  /// Query with the constraints at the given (sorted, unique) positions kept.
  Query keep_constraints(const std::vector<std::size_t>& keep) const;

  /// Equal queries have equal canonical strings, and the other way round.
  bool operator==(const Query& other) const { return canonical_ == other.canonical_; }
  bool operator<(const Query& other) const { return canonical_ < other.canonical_; }

 private:
  class Draft;

  /// Sorts and deduplicates `parts` and copies their text into a new query
  /// under `root`.
  static Query assemble(std::string_view root, std::vector<ConstraintView>& parts);
  static ConstraintView view(const char* base, const detail::ConstraintRecord* rec,
                             const std::string* raw) {
    return ConstraintView{base, rec, raw};
  }
  ConstraintView constraint(std::size_t i) const {
    return ConstraintView{canonical_.data(), &records_[i], raw_ ? &raw_[i] : nullptr};
  }

  Query& add(std::string_view slash_path, std::optional<std::string_view> value, bool prefix);

  std::string canonical_;                        // exact size; records index it
  std::vector<detail::ConstraintRecord> records_;  // canonical order
  // Unescaped values, one slot per record, only for queries with a kEscaped
  // value. Immutable once built, so copies share it.
  std::shared_ptr<const std::string[]> raw_;
  std::uint64_t signature_ = 0;
  // The lazy key. Like any lazy const-method cache it is not synchronized: a
  // Query shared across threads must have key() called once before it is
  // shared (QueryInterner::intern does exactly that).
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
bool constraint_implies(ConstraintView specific, ConstraintView general);

}  // namespace dhtidx::query
