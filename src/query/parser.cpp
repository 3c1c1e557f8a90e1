#include "query/parser.hpp"

#include <cctype>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dhtidx::query {

namespace {

/// Intermediate parse tree: a chain/branch structure mirroring the XPath
/// text before flattening into constraints.
struct PNode {
  std::string name;
  bool descendant = false;              // preceded by //
  std::optional<std::string> value;     // explicit =value
  bool presence_marker = false;         // explicit =*
  bool prefix_value = false;            // explicit ^=value
  std::vector<PNode> children;          // nested predicates or tail chain
};

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Query parse() {
    skip_ws();
    expect('/');
    if (peek() == '/') fail("descendant axis is not allowed on the root element");
    PNode root;
    root.name = parse_name();
    parse_predicates(root);
    skip_ws();
    if (peek() == '/') {
      take();
      root.children.push_back(parse_chain());
    }
    skip_ws();
    if (!at_end()) fail("trailing characters after query");
    return flatten(root);
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(message + " (at offset " + std::to_string(pos_) + " of \"" +
                     std::string{input_} + "\")");
  }

  bool at_end() const { return pos_ >= input_.size(); }
  char peek() const { return at_end() ? '\0' : input_[pos_]; }
  char take() {
    if (at_end()) fail("unexpected end of query");
    return input_[pos_++];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }
  void skip_ws() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
  }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
           c == '.' || c == ':';
  }

  std::string parse_name() {
    skip_ws();
    if (peek() == '*') {
      take();
      return "*";
    }
    std::string name;
    while (!at_end() && is_name_char(peek())) name.push_back(take());
    if (name.empty()) fail("expected element name");
    return name;
  }

  std::string parse_quoted_value() {
    expect('\'');
    std::string value;
    for (;;) {
      if (at_end()) fail("unterminated quoted value");
      const char c = take();
      if (c == '\\') {
        value.push_back(take());
      } else if (c == '\'') {
        return value;
      } else {
        value.push_back(c);
      }
    }
  }

  std::string parse_bare_value() {
    std::string value;
    while (!at_end() && peek() != ']' && peek() != '[') value.push_back(take());
    while (!value.empty() && std::isspace(static_cast<unsigned char>(value.back()))) {
      value.pop_back();
    }
    if (value.empty()) fail("expected value after '='");
    return value;
  }

  /// Parses segment ('/' segment)* ('=' value)? predicate*, returning the
  /// head node of the chain (each further segment is the single child of the
  /// previous one).
  PNode parse_chain() {
    PNode head;
    // '//' descendant prefix. Inside a predicate both slashes are present;
    // after a tail separator the caller has already consumed one of them.
    if (peek() == '/') {
      take();
      if (peek() == '/') take();
      head.descendant = true;
    }
    head.name = parse_name();
    PNode* tail = &head;
    for (;;) {
      skip_ws();
      if (peek() == '/' ) {
        take();
        PNode next;
        next.name = parse_name();
        tail->children.push_back(std::move(next));
        tail = &tail->children.back();
        continue;
      }
      if (peek() == '=' || peek() == '^') {
        if (peek() == '^') {
          take();
          tail->prefix_value = true;
        }
        expect('=');
        skip_ws();
        if (peek() == '\'') {
          tail->value = parse_quoted_value();
        } else if (peek() == '*' && !tail->prefix_value) {
          take();
          tail->presence_marker = true;
        } else {
          tail->value = parse_bare_value();
        }
        skip_ws();
      }
      break;
    }
    parse_predicates(*tail);
    return head;
  }

  void parse_predicates(PNode& node) {
    for (;;) {
      skip_ws();
      if (peek() != '[') return;
      take();
      node.children.push_back(parse_chain());
      skip_ws();
      expect(']');
    }
  }

  /// Converts the parse tree into a normalized Query.
  Query flatten(const PNode& root) {
    if (root.value || root.presence_marker) {
      fail("the root element cannot carry a value");
    }
    std::vector<Constraint> constraints;
    std::vector<std::string> path;
    for (const PNode& child : root.children) {
      flatten_subtree(child, path, /*descendant=*/child.descendant, constraints);
    }
    return Query{root.name, constraints};
  }

  void flatten_subtree(const PNode& node, std::vector<std::string>& path, bool descendant,
                       std::vector<Constraint>& constraints) {
    if (node.descendant && !path.empty()) {
      fail("'//' is only supported at the start of a constraint path");
    }
    path.push_back(node.name);
    if (node.children.empty()) {
      Constraint c;
      c.descendant = descendant;
      if (node.value) {
        c.path = path;
        c.value = node.value;
        c.value_is_prefix = node.prefix_value;
      } else if (node.presence_marker || path.size() == 1) {
        c.path = path;  // presence-only
      } else {
        // Paper convention: the last segment is the value of the rest.
        c.path.assign(path.begin(), path.end() - 1);
        c.value = path.back();
      }
      constraints.push_back(std::move(c));
    } else {
      if (node.value || node.presence_marker) {
        fail("a value may only terminate a constraint path");
      }
      for (const PNode& child : node.children) {
        flatten_subtree(child, path, descendant, constraints);
      }
    }
    path.pop_back();
  }

  std::string_view input_;
  std::size_t pos_ = 0;
};

}  // namespace

Query parse_query(std::string_view text) { return Parser{text}.parse(); }

}  // namespace dhtidx::query

namespace dhtidx::query {

Query Query::parse(std::string_view text) { return parse_query(text); }

}  // namespace dhtidx::query
