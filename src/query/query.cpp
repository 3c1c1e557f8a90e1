#include "query/query.hpp"

#include <algorithm>
#include <functional>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace dhtidx::query {

namespace {

bool is_wildcard(const std::string& step) { return step.size() == 1 && step[0] == '*'; }

bool name_matches(const std::string& pattern, const std::string& name) {
  return pattern == "*" || pattern == name;
}

/// Does `pattern` (with wildcards) match `concrete` segment-by-segment?
bool path_matches_exact(const std::vector<std::string>& pattern,
                        const std::vector<std::string>& concrete) {
  if (pattern.size() != concrete.size()) return false;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (!name_matches(pattern[i], concrete[i])) return false;
  }
  return true;
}

/// Does `pattern` match a suffix of `concrete`?
bool path_matches_suffix(const std::vector<std::string>& pattern,
                         const std::vector<std::string>& concrete) {
  if (pattern.size() > concrete.size()) return false;
  const std::size_t offset = concrete.size() - pattern.size();
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (!name_matches(pattern[i], concrete[offset + i])) return false;
  }
  return true;
}

/// Collects elements reached by following `path[index..]` from `node`.
void resolve_path(const xml::Element& node, const std::vector<std::string>& path,
                  std::size_t index, std::vector<const xml::Element*>& out) {
  if (index == path.size()) {
    out.push_back(&node);
    return;
  }
  for (const xml::Element& child : node.children()) {
    if (name_matches(path[index], child.name())) {
      resolve_path(child, path, index + 1, out);
    }
  }
}

/// Collects elements reached by `path` starting from *any* descendant of
/// `node` (inclusive of node's children at any depth): the // semantics.
void resolve_path_anywhere(const xml::Element& node, const std::vector<std::string>& path,
                           std::vector<const xml::Element*>& out) {
  resolve_path(node, path, 0, out);
  for (const xml::Element& child : node.children()) {
    resolve_path_anywhere(child, path, out);
  }
}

void collect_leaf_constraints(const xml::Element& node, std::vector<std::string>& path,
                              std::vector<Constraint>& out) {
  for (const xml::Element& child : node.children()) {
    path.push_back(child.name());
    if (child.children().empty()) {
      Constraint c;
      c.path = path;
      if (!child.text().empty()) c.value = child.text();
      out.push_back(std::move(c));
    } else {
      collect_leaf_constraints(child, path, out);
    }
    path.pop_back();
  }
}

bool needs_quoting(std::string_view value) {
  // '*' must be quoted because an unquoted "=*" means presence-only.
  return value.empty() ||
         value.find_first_of("[]=/'\\*") != std::string_view::npos;
}

void append_quoted(std::string& out, std::string_view value) {
  out.push_back('\'');
  for (const char c : value) {
    if (c == '\'' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('\'');
}

/// The signature bit of an exact, anchored, wildcard-free constraint, picked
/// by a hash of its canonical text "[path=value]": a function of the path
/// and the exact value alone.
std::uint64_t signature_bit(std::string_view constraint_text) {
  return std::uint64_t{1} << (std::hash<std::string_view>{}(constraint_text) % 64);
}

}  // namespace

std::string Constraint::path_string() const { return join(path, "/"); }

Query Query::most_specific(const xml::Element& descriptor) {
  Query q{descriptor.name()};
  std::vector<std::string> path;
  collect_leaf_constraints(descriptor, path, q.constraints_);
  q.normalize();
  return q;
}

Query& Query::add_constraint(Constraint constraint) {
  if (constraint.path.empty()) {
    throw InvariantError("constraint path must not be empty");
  }
  constraints_.push_back(std::move(constraint));
  normalize();
  return *this;
}

Query& Query::add_field(std::string_view slash_path, std::string value) {
  Constraint c;
  c.path = split(slash_path, '/');
  c.value = std::move(value);
  return add_constraint(std::move(c));
}

Query& Query::add_presence(std::string_view slash_path) {
  Constraint c;
  c.path = split(slash_path, '/');
  return add_constraint(std::move(c));
}

Query& Query::add_prefix(std::string_view slash_path, std::string prefix) {
  Constraint c;
  c.path = split(slash_path, '/');
  c.value = std::move(prefix);
  c.value_is_prefix = true;
  return add_constraint(std::move(c));
}

void Query::normalize() {
  std::sort(constraints_.begin(), constraints_.end());
  constraints_.erase(std::unique(constraints_.begin(), constraints_.end()),
                     constraints_.end());
  invalidate_cache();
}

const std::string& Query::canonical() const {
  if (!canonical_cache_.empty()) return canonical_cache_;
  std::string out = "/" + root_;
  std::uint64_t signature = 0;
  for (const Constraint& c : constraints_) {
    const std::size_t begin = out.size();
    out.push_back('[');
    if (c.descendant) out += "//";
    out += c.path_string();
    if (c.value) {
      if (c.value_is_prefix) out.push_back('^');
      out.push_back('=');
      if (needs_quoting(*c.value)) {
        append_quoted(out, *c.value);
      } else {
        out += *c.value;
      }
    } else if (c.path.size() > 1) {
      // Multi-step presence constraints need the explicit marker; a bare
      // multi-step path would re-parse with its last step as a value.
      out += "=*";
    }
    out.push_back(']');
    if (c.value && !c.value_is_prefix && !c.descendant &&
        std::none_of(c.path.begin(), c.path.end(), is_wildcard)) {
      signature |= signature_bit(std::string_view{out}.substr(begin));
    }
  }
  canonical_cache_ = std::move(out);
  signature_cache_ = signature;
  return canonical_cache_;
}

bool Query::matches(const xml::Element& doc) const {
  if (!name_matches(root_, doc.name())) return false;
  std::vector<const xml::Element*> found;
  for (const Constraint& c : constraints_) {
    found.clear();
    if (c.descendant) {
      resolve_path_anywhere(doc, c.path, found);
    } else {
      resolve_path(doc, c.path, 0, found);
    }
    if (!c.value) {
      if (found.empty()) return false;
      continue;
    }
    const bool any = std::any_of(found.begin(), found.end(), [&](const xml::Element* e) {
      return c.value_is_prefix ? starts_with(e->text(), *c.value)
                               : e->text() == *c.value;
    });
    if (!any) return false;
  }
  return true;
}

bool constraint_implies(const Constraint& specific, const Constraint& general) {
  // Value: a presence requirement is implied by anything on the same field.
  // An exact requirement needs the identical exact value. A prefix
  // requirement is implied by any exact value or longer/equal prefix that
  // begins with it ([last^=S] is implied by [last=Smith] and [last^=Smi]).
  if (general.value) {
    if (!specific.value) return false;
    if (general.value_is_prefix) {
      if (specific.value_is_prefix && specific.value->size() < general.value->size()) {
        return false;  // shorter prefix is weaker, not stronger
      }
      if (!starts_with(*specific.value, *general.value)) return false;
    } else {
      if (specific.value_is_prefix || *specific.value != *general.value) return false;
    }
  }
  // Path location. `general` belongs to the covering (weaker) query, so its
  // path pattern must be satisfied wherever `specific` pins the field.
  if (!general.descendant && !specific.descendant) {
    return path_matches_exact(general.path, specific.path);
  }
  if (general.descendant) {
    // general's path can match at any depth; specific pins an exact path (or
    // itself floats, in which case suffix matching is still the sound check).
    return path_matches_suffix(general.path, specific.path);
  }
  // general is anchored but specific floats: a document can satisfy the
  // floating constraint at a different position, so no implication.
  return false;
}

bool Query::covers(const Query& other) const {
  if (root_ != "*" && root_ != other.root_) return false;
  for (const Constraint& general : constraints_) {
    const bool implied =
        std::any_of(other.constraints_.begin(), other.constraints_.end(),
                    [&](const Constraint& specific) {
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
  std::vector<Query> result;
  result.reserve(constraints_.size());
  for (std::size_t drop = 0; drop < constraints_.size(); ++drop) {
    Query q{root_};
    for (std::size_t i = 0; i < constraints_.size(); ++i) {
      if (i != drop) q.constraints_.push_back(constraints_[i]);
    }
    q.normalize();
    result.push_back(std::move(q));
  }
  return result;
}

Query Query::keep_constraints(const std::vector<std::size_t>& keep) const {
  Query q{root_};
  for (const std::size_t i : keep) {
    if (i >= constraints_.size()) throw InvariantError("keep_constraints: index out of range");
    q.constraints_.push_back(constraints_[i]);
  }
  q.normalize();
  return q;
}

}  // namespace dhtidx::query
