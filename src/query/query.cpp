#include "query/query.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace dhtidx::query {

using detail::ConstraintRecord;

namespace {

bool name_matches(std::string_view pattern, std::string_view name) {
  return pattern == "*" || pattern == name;
}

/// Does every step of `pattern` (with wildcards) match the step of
/// `concrete` at the same position? Both paths hold the same number of steps.
bool steps_match(std::string_view pattern, std::string_view concrete) {
  for (;;) {
    const std::size_t p = pattern.find('/');
    const std::size_t c = concrete.find('/');
    if (!name_matches(pattern.substr(0, p), concrete.substr(0, c))) return false;
    if (p == std::string_view::npos) return true;
    pattern.remove_prefix(p + 1);
    concrete.remove_prefix(c + 1);
  }
}

/// Does `pattern` (with wildcards) match `concrete` segment-by-segment?
bool path_matches_exact(ConstraintView pattern, ConstraintView concrete) {
  if (pattern.steps() != concrete.steps()) return false;
  if (pattern.path_text() == concrete.path_text()) return true;
  return pattern.has_wildcard_step() && steps_match(pattern.path_text(), concrete.path_text());
}

/// Does `pattern` match a suffix of `concrete`?
bool path_matches_suffix(ConstraintView pattern, ConstraintView concrete) {
  if (pattern.steps() > concrete.steps()) return false;
  std::string_view tail = concrete.path_text();
  for (std::size_t skip = concrete.steps() - pattern.steps(); skip > 0; --skip) {
    tail.remove_prefix(tail.find('/') + 1);
  }
  if (pattern.path_text() == tail) return true;
  return pattern.has_wildcard_step() && steps_match(pattern.path_text(), tail);
}

/// Collects elements reached by following the '/'-separated `path` (one or
/// more steps) from `node`.
void resolve_path(const xml::Element& node, std::string_view path,
                  std::vector<const xml::Element*>& out) {
  const std::size_t slash = path.find('/');
  const std::string_view step = path.substr(0, slash);
  for (const xml::Element& child : node.children()) {
    if (!name_matches(step, child.name())) continue;
    if (slash == std::string_view::npos) {
      out.push_back(&child);
    } else {
      resolve_path(child, path.substr(slash + 1), out);
    }
  }
}

/// Collects elements reached by `path` starting from *any* descendant of
/// `node` (inclusive of node's children at any depth): the // semantics.
void resolve_path_anywhere(const xml::Element& node, std::string_view path,
                           std::vector<const xml::Element*>& out) {
  resolve_path(node, path, out);
  for (const xml::Element& child : node.children()) {
    resolve_path_anywhere(child, path, out);
  }
}

bool is_blank(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

bool needs_quoting(std::string_view value) {
  // '*' must be quoted because an unquoted "=*" means presence-only, and a
  // blank at either end because the parser trims blanks around a bare value.
  return value.empty() || value.find_first_of("[]=/'\\*") != std::string_view::npos ||
         is_blank(value.front()) || is_blank(value.back());
}

/// The signature bits of an exact, anchored, wildcard-free constraint: four
/// 6-bit slices of one hash of its canonical text "[path=value]", so a
/// function of the path and the exact value alone. Two slices may pick the
/// same bit.
std::uint64_t signature_bits(std::string_view constraint_text) {
  const std::uint64_t hash = std::hash<std::string_view>{}(constraint_text);
  std::uint64_t bits = 0;
  for (int slice = 0; slice < 4; ++slice) {
    bits |= std::uint64_t{1} << ((hash >> (6 * slice)) & 63);
  }
  return bits;
}

/// Path order of Constraint::operator<=> (steps compared as a sequence) on
/// '/'-joined paths: '/' ranks below every byte a step can hold.
std::strong_ordering compare_paths(std::string_view a, std::string_view b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] == b[i]) continue;
    if (a[i] == '/') return std::strong_ordering::less;
    if (b[i] == '/') return std::strong_ordering::greater;
    return static_cast<unsigned char>(a[i]) <=> static_cast<unsigned char>(b[i]);
  }
  return a.size() <=> b.size();
}

}  // namespace

std::string Constraint::path_string() const { return join(path, "/"); }

bool ConstraintView::has_path(const std::vector<std::string>& path) const {
  if (path.size() != steps()) return false;
  std::string_view rest = path_text();
  for (const std::string& step : path) {
    const std::size_t slash = rest.find('/');
    if (rest.substr(0, slash) != step) return false;
    rest.remove_prefix(slash == std::string_view::npos ? rest.size() : slash + 1);
  }
  return true;
}

std::string_view ConstraintView::text() const {
  const std::size_t begin = rec_->path_offset - (descendant() ? 3 : 1);
  const std::size_t path_end = rec_->path_offset + rec_->path_size;
  std::size_t end = path_end + (steps() > 1 ? 2 : 0) + 1;  // "=*]" or "]"
  if (has_value()) end = value_offset() + rec_->value_size + (flag(detail::kQuoted) ? 2 : 1);
  return {base_ + begin, end - begin};
}

Constraint ConstraintView::to_constraint() const {
  Constraint c;
  c.path = split(path_text(), '/');
  if (has_value()) c.value = std::string{value()};
  c.descendant = descendant();
  c.value_is_prefix = value_is_prefix();
  return c;
}

std::strong_ordering operator<=>(ConstraintView a, ConstraintView b) {
  if (const auto order = compare_paths(a.path_text(), b.path_text()); order != 0) return order;
  if (a.has_value() != b.has_value()) return a.has_value() <=> b.has_value();
  if (a.has_value()) {
    if (const auto order = a.value() <=> b.value(); order != 0) return order;
  }
  if (a.descendant() != b.descendant()) return a.descendant() <=> b.descendant();
  return a.value_is_prefix() <=> b.value_is_prefix();
}

/// Constraints rendered in any order into one scratch buffer, each in its
/// canonical form; finish() sorts, deduplicates and copies them into a query.
class Query::Draft {
 public:
  /// The calling thread's draft, emptied. Its buffers keep their capacity
  /// from one query to the next, so building a query costs just the two
  /// exact-size allocations of its canonical string and records.
  static Draft& scratch() {
    thread_local Draft draft;
    draft.text_.clear();
    draft.records_.clear();
    draft.escaped_.clear();
    draft.parts_.clear();
    return draft;
  }

  /// Starts a constraint; step() adds its path steps and close() ends it.
  void open(bool descendant) {
    text_.push_back('[');
    if (descendant) text_ += "//";
    ConstraintRecord& r = records_.emplace_back();
    r.path_offset = static_cast<std::uint32_t>(text_.size());
    if (descendant) r.flags |= detail::kDescendant;
  }

  void step(std::string_view name) {
    ConstraintRecord& r = records_.back();
    if (name.find('/') != std::string_view::npos) {
      throw InvariantError("constraint path step must not contain '/'");
    }
    if (r.steps == std::numeric_limits<std::uint16_t>::max()) {
      throw InvariantError("constraint path has too many steps");
    }
    if (r.steps > 0) text_.push_back('/');
    text_ += name;
    ++r.steps;
    if (name == "*") r.flags |= detail::kWildcard;
  }

  void close(std::optional<std::string_view> value, bool prefix) {
    ConstraintRecord& r = records_.back();
    if (r.steps == 0) throw InvariantError("constraint path must not be empty");
    r.path_size = static_cast<std::uint32_t>(text_.size() - r.path_offset);
    if (value) {
      r.flags |= detail::kHasValue;
      if (prefix) {
        r.flags |= detail::kPrefix;
        text_.push_back('^');
      }
      text_.push_back('=');
      if (needs_quoting(*value)) {
        r.flags |= detail::kQuoted;
        text_.push_back('\'');
        const std::size_t begin = text_.size();
        for (const char c : *value) {
          if (c == '\'' || c == '\\') text_.push_back('\\');
          text_.push_back(c);
        }
        r.value_size = static_cast<std::uint32_t>(text_.size() - begin);
        if (r.value_size != value->size()) {
          r.flags |= detail::kEscaped;
          escaped_.emplace_back(records_.size() - 1, std::string{*value});
        }
        text_.push_back('\'');
      } else {
        text_ += *value;
        r.value_size = static_cast<std::uint32_t>(value->size());
      }
    } else if (r.steps > 1) {
      // Multi-step presence constraints need the explicit marker; a bare
      // multi-step path would re-parse with its last step as a value.
      text_ += "=*";
    }
    text_.push_back(']');
    if (text_.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw InvariantError("query text exceeds 4 GiB");
    }
  }

  void add(const Constraint& c) {
    open(c.descendant);
    for (const std::string& name : c.path) step(name);
    close(c.value, c.value_is_prefix);
  }

  /// One exact-value constraint per leaf element under `node`.
  void add_leaves(const xml::Element& node, std::vector<std::string_view>& path) {
    for (const xml::Element& child : node.children()) {
      path.push_back(child.name());
      if (child.children().empty()) {
        open(false);
        for (const std::string_view name : path) step(name);
        close(child.text().empty() ? std::nullopt : std::optional<std::string_view>{child.text()},
              false);
      } else {
        add_leaves(child, path);
      }
      path.pop_back();
    }
  }

  /// Views of other queries' constraints to assemble with the drafted ones.
  std::vector<ConstraintView>& parts() { return parts_; }

  /// The drafted constraints, plus those of `base` when given, and any
  /// parts(), under `root`.
  Query finish(std::string_view root, const Query* base = nullptr) {
    if (base != nullptr) {
      for (const ConstraintView c : base->constraints()) parts_.push_back(c);
    }
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const std::string* raw = nullptr;
      for (const auto& [index, value] : escaped_) {
        if (index == i) raw = &value;
      }
      parts_.push_back(view(text_.data(), &records_[i], raw));
    }
    return assemble(root, parts_);
  }

 private:
  Draft() = default;

  std::string text_;
  std::vector<ConstraintRecord> records_;
  std::vector<std::pair<std::size_t, std::string>> escaped_;  // (record, unescaped value)
  std::vector<ConstraintView> parts_;
};

Query::Query(std::string_view root) : Query{Draft::scratch().finish(root)} {}

Query::Query(std::string_view root, const std::vector<Constraint>& constraints) {
  Draft& draft = Draft::scratch();
  for (const Constraint& c : constraints) draft.add(c);
  *this = draft.finish(root);
}

Query Query::assemble(std::string_view root, std::vector<ConstraintView>& parts) {
  if (root.find('[') != std::string_view::npos) {
    throw InvariantError("query root must not contain '['");
  }
  std::sort(parts.begin(), parts.end());
  parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
  std::size_t size = 1 + root.size();
  bool escaped = false;
  for (const ConstraintView c : parts) {
    size += c.text().size();
    escaped = escaped || c.flag(detail::kEscaped);
  }
  if (size > std::numeric_limits<std::uint32_t>::max()) {
    throw InvariantError("query text exceeds 4 GiB");
  }
  Query q;
  std::string text(size, '\0');  // exact capacity: the string is never appended to
  std::size_t at = 0;
  text[at++] = '/';
  at += root.copy(text.data() + at, root.size());
  q.records_.reserve(parts.size());
  for (const ConstraintView c : parts) {
    const std::string_view piece = c.text();
    ConstraintRecord r = *c.rec_;
    r.path_offset = static_cast<std::uint32_t>(at + (c.descendant() ? 3 : 1));
    q.records_.push_back(r);
    if (c.has_value() && !c.value_is_prefix() && !c.descendant() && !c.has_wildcard_step()) {
      q.signature_ |= signature_bits(piece);
    }
    at += piece.copy(text.data() + at, piece.size());
  }
  q.canonical_ = std::move(text);
  if (escaped) {
    auto raw = std::make_shared<std::string[]>(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (parts[i].flag(detail::kEscaped)) raw[i] = *parts[i].raw_;
    }
    q.raw_ = std::move(raw);
  }
  return q;
}

Query Query::most_specific(const xml::Element& descriptor) {
  Draft& draft = Draft::scratch();
  std::vector<std::string_view> path;
  draft.add_leaves(descriptor, path);
  return draft.finish(descriptor.name());
}

Query& Query::add_constraint(const Constraint& constraint) {
  Draft& draft = Draft::scratch();
  draft.add(constraint);
  return *this = draft.finish(root(), this);
}

Query& Query::add(std::string_view slash_path, std::optional<std::string_view> value,
                  bool prefix) {
  Draft& draft = Draft::scratch();
  draft.open(false);
  for (std::size_t start = 0;;) {
    const std::size_t slash = slash_path.find('/', start);
    draft.step(slash_path.substr(start, slash - start));
    if (slash == std::string_view::npos) break;
    start = slash + 1;
  }
  draft.close(value, prefix);
  return *this = draft.finish(root(), this);
}

Query& Query::add_field(std::string_view slash_path, std::string_view value) {
  return add(slash_path, value, false);
}

Query& Query::add_presence(std::string_view slash_path) {
  return add(slash_path, std::nullopt, false);
}

Query& Query::add_prefix(std::string_view slash_path, std::string_view prefix) {
  return add(slash_path, prefix, true);
}

bool Query::matches(const xml::Element& doc) const {
  if (!name_matches(root(), doc.name())) return false;
  std::vector<const xml::Element*> found;
  for (const ConstraintView c : constraints()) {
    found.clear();
    if (c.descendant()) {
      resolve_path_anywhere(doc, c.path_text(), found);
    } else {
      resolve_path(doc, c.path_text(), found);
    }
    if (!c.has_value()) {
      if (found.empty()) return false;
      continue;
    }
    const std::string_view value = c.value();
    const bool any = std::any_of(found.begin(), found.end(), [&](const xml::Element* e) {
      return c.value_is_prefix() ? starts_with(e->text(), value) : e->text() == value;
    });
    if (!any) return false;
  }
  return true;
}

bool constraint_implies(ConstraintView specific, ConstraintView general) {
  // Value: a presence requirement is implied by anything on the same field.
  // An exact requirement needs the identical exact value. A prefix
  // requirement is implied by any exact value or longer/equal prefix that
  // begins with it ([last^=S] is implied by [last=Smith] and [last^=Smi]).
  // Both compare the escaped text, which preserves equality and prefixes.
  if (general.has_value()) {
    if (!specific.has_value()) return false;
    if (general.value_is_prefix()) {
      if (!starts_with(specific.value_text(), general.value_text())) return false;
    } else if (specific.value_is_prefix() || specific.value_text() != general.value_text()) {
      return false;
    }
  }
  // Path location. `general` belongs to the covering (weaker) query, so its
  // path pattern must be satisfied wherever `specific` pins the field.
  if (!general.descendant() && !specific.descendant()) {
    return path_matches_exact(general, specific);
  }
  if (general.descendant()) {
    // general's path can match at any depth; specific pins an exact path (or
    // itself floats, in which case suffix matching is still the sound check).
    return path_matches_suffix(general, specific);
  }
  // general is anchored but specific floats: a document can satisfy the
  // floating constraint at a different position, so no implication.
  return false;
}

bool Query::covers(const Query& other) const {
  const std::string_view r = root();
  if (r != "*" && r != other.root()) return false;
  for (const ConstraintView general : constraints()) {
    const bool implied = std::ranges::any_of(other.constraints(), [&](ConstraintView specific) {
      return constraint_implies(specific, general);
    });
    if (!implied) return false;
  }
  return true;
}

bool Query::is_most_specific_of(const xml::Element& doc) const {
  return *this == most_specific(doc);
}

std::vector<Query> Query::drop_one_generalizations() const {
  const auto all = constraints();
  std::vector<Query> result;
  result.reserve(all.size());
  for (std::size_t drop = 0; drop < all.size(); ++drop) {
    std::vector<ConstraintView>& parts = Draft::scratch().parts();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (i != drop) parts.push_back(all[i]);
    }
    result.push_back(assemble(root(), parts));
  }
  return result;
}

Query Query::keep_constraints(const std::vector<std::size_t>& keep) const {
  const auto all = constraints();
  std::vector<ConstraintView>& parts = Draft::scratch().parts();
  for (const std::size_t i : keep) {
    if (i >= all.size()) throw InvariantError("keep_constraints: index out of range");
    parts.push_back(all[i]);
  }
  return assemble(root(), parts);
}

}  // namespace dhtidx::query
