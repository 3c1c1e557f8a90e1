// Recursive-descent parser for the XML subset used by descriptors.
//
// Supported: one root element, nested elements, attributes with single- or
// double-quoted values, character data, the five predefined entities, XML
// declarations, comments, and CDATA sections. Not supported (not needed for
// descriptor documents): DTDs, processing instructions other than the
// declaration, and namespaces (colons are treated as ordinary name chars).
#pragma once

#include <cstddef>
#include <string_view>

#include "xml/node.hpp"

namespace dhtidx::xml {

/// Deepest element nesting parse() accepts (the root is level 1). Documents
/// the library writes nest at most 4 levels. The cap bounds the parser's
/// recursion and the recursive destructor of the tree it returns, so a
/// hostile document gets a ParseError instead of a stack overflow.
inline constexpr std::size_t kMaxDepth = 256;

/// Parses a complete document and returns its root element.
/// Throws dhtidx::ParseError with a line/column diagnostic on malformed input.
Element parse(std::string_view document);

/// Decodes the five predefined XML entities (and numeric character
/// references) in `text`.
std::string decode_entities(std::string_view text);

}  // namespace dhtidx::xml
