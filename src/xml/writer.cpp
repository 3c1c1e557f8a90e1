#include "xml/writer.hpp"

namespace dhtidx::xml {

namespace {

void append_escaped(std::string& out, std::string_view text, bool in_attribute) {
  for (const char c : text) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      case '"':
        if (in_attribute) {
          out += "&quot;";
        } else {
          out.push_back(c);
        }
        break;
      default:
        out.push_back(c);
    }
  }
}

void write_element(std::string& out, const Element& element, const WriteOptions& options,
                   int depth) {
  const std::string indent =
      options.pretty ? std::string(static_cast<std::size_t>(depth * options.indent_width), ' ')
                     : std::string{};
  out += indent;
  out.push_back('<');
  out += element.name();
  for (const auto& [key, value] : element.attributes()) {
    out.push_back(' ');
    out += key;
    out += "=\"";
    append_escaped(out, value, /*in_attribute=*/true);
    out.push_back('"');
  }
  if (element.children().empty() && element.text().empty()) {
    out += "/>";
    if (options.pretty) out.push_back('\n');
    return;
  }
  out.push_back('>');
  if (element.children().empty()) {
    append_escaped(out, element.text(), /*in_attribute=*/false);
  } else {
    if (options.pretty) out.push_back('\n');
    for (const Element& child : element.children()) {
      write_element(out, child, options, depth + 1);
    }
    if (!element.text().empty()) {
      out += options.pretty ? indent + std::string(static_cast<std::size_t>(options.indent_width), ' ')
                            : std::string{};
      append_escaped(out, element.text(), /*in_attribute=*/false);
      if (options.pretty) out.push_back('\n');
    }
    out += indent;
  }
  out += "</";
  out += element.name();
  out.push_back('>');
  if (options.pretty) out.push_back('\n');
}

}  // namespace

std::string write(const Element& root, const WriteOptions& options) {
  std::string out;
  if (options.declaration) out += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  write_element(out, root, options, 0);
  return out;
}

}  // namespace dhtidx::xml
