#include "xml/parser.hpp"

#include <cctype>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace dhtidx::xml {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Element parse_document() {
    skip_prolog();
    Element root = parse_element(1);
    skip_misc();
    if (!at_end()) fail("trailing content after root element");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < input_.size(); ++i) {
      if (input_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw ParseError(message + " at line " + std::to_string(line) + ", column " +
                     std::to_string(column));
  }

  bool at_end() const { return pos_ >= input_.size(); }

  char peek() const { return at_end() ? '\0' : input_[pos_]; }

  char take() {
    if (at_end()) fail("unexpected end of document");
    return input_[pos_++];
  }

  bool consume(std::string_view literal) {
    if (input_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  void expect(std::string_view literal) {
    if (!consume(literal)) fail("expected '" + std::string{literal} + "'");
  }

  void skip_whitespace() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
  }

  void skip_comment() {
    expect("<!--");
    while (!consume("-->")) {
      if (at_end()) fail("unterminated comment");
      ++pos_;
    }
  }

  void skip_misc() {
    for (;;) {
      skip_whitespace();
      if (input_.substr(pos_, 4) == "<!--") {
        skip_comment();
      } else {
        break;
      }
    }
  }

  void skip_prolog() {
    skip_whitespace();
    if (consume("<?xml")) {
      while (!consume("?>")) {
        if (at_end()) fail("unterminated XML declaration");
        ++pos_;
      }
    }
    skip_misc();
  }

  static bool is_name_start(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
           c == '-' || c == '.';
  }

  std::string parse_name() {
    if (at_end() || !is_name_start(peek())) fail("expected name");
    std::string name;
    while (!at_end() && is_name_char(peek())) name.push_back(take());
    return name;
  }

  std::string parse_attribute_value() {
    const char quote = take();
    if (quote != '"' && quote != '\'') fail("expected quoted attribute value");
    std::string raw;
    while (peek() != quote) {
      if (at_end()) fail("unterminated attribute value");
      raw.push_back(take());
    }
    take();  // closing quote
    return decode_entities(raw);
  }

  Element parse_element(std::size_t depth) {
    if (depth > kMaxDepth) {
      fail("elements nested deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    expect("<");
    Element element{parse_name()};
    for (;;) {
      skip_whitespace();
      if (consume("/>")) return element;
      if (consume(">")) break;
      const std::string key = parse_name();
      skip_whitespace();
      expect("=");
      skip_whitespace();
      element.set_attribute(key, parse_attribute_value());
    }
    parse_content(element, depth);
    return element;
  }

  void parse_content(Element& element, std::size_t depth) {
    std::string decoded;  // final text content
    std::string raw;      // pending character data, not yet entity-decoded
    const auto flush = [&] {
      decoded += decode_entities(raw);
      raw.clear();
    };
    for (;;) {
      if (at_end()) fail("unterminated element <" + element.name() + ">");
      if (input_.substr(pos_, 4) == "<!--") {
        skip_comment();
      } else if (consume("<![CDATA[")) {
        flush();  // CDATA content is literal: it must bypass entity decoding
        while (!consume("]]>")) {
          if (at_end()) fail("unterminated CDATA section");
          decoded.push_back(take());
        }
      } else if (input_.substr(pos_, 2) == "</") {
        pos_ += 2;
        const std::string closing = parse_name();
        if (closing != element.name()) {
          fail("mismatched closing tag </" + closing + "> for <" + element.name() + ">");
        }
        skip_whitespace();
        expect(">");
        flush();
        element.set_text(std::string{trim(decoded)});
        return;
      } else if (peek() == '<') {
        element.add_child(parse_element(depth + 1));
      } else {
        raw.push_back(take());
      }
    }
  }

  std::string_view input_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string decode_entities(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '&') {
      out.push_back(text[i]);
      continue;
    }
    const std::size_t end = text.find(';', i);
    if (end == std::string_view::npos) throw ParseError("unterminated entity reference");
    const std::string_view entity = text.substr(i + 1, end - i - 1);
    if (entity == "lt") {
      out.push_back('<');
    } else if (entity == "gt") {
      out.push_back('>');
    } else if (entity == "amp") {
      out.push_back('&');
    } else if (entity == "apos") {
      out.push_back('\'');
    } else if (entity == "quot") {
      out.push_back('"');
    } else if (!entity.empty() && entity[0] == '#') {
      const bool hex = entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X');
      const std::optional<std::uint32_t> parsed =
          hex ? parse_number<std::uint32_t>(entity.substr(2), 16)
              : parse_number<std::uint32_t>(entity.substr(1));
      if (!parsed) {
        throw ParseError("malformed character reference &" + std::string{entity} + ";");
      }
      const std::uint32_t code = *parsed;
      if (code == 0 || code > 0x10FFFF) {
        throw ParseError("character reference out of range");
      }
      // Encode as UTF-8.
      if (code < 0x80) {
        out.push_back(static_cast<char>(code));
      } else if (code < 0x800) {
        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else if (code < 0x10000) {
        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else {
        out.push_back(static_cast<char>(0xF0 | (code >> 18)));
        out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      }
    } else {
      throw ParseError("unknown entity &" + std::string{entity} + ";");
    }
    i = end;
  }
  return out;
}

Element parse(std::string_view document) { return Parser{document}.parse_document(); }

}  // namespace dhtidx::xml
