// XML serialization.
#pragma once

#include <string>

#include "xml/node.hpp"

namespace dhtidx::xml {

/// Options controlling serialization layout.
struct WriteOptions {
  bool pretty = true;      ///< indent children on their own lines
  int indent_width = 2;    ///< spaces per nesting level when pretty
  bool declaration = false;  ///< emit <?xml version="1.0"?> first
};

/// Serializes an element subtree.
std::string write(const Element& root, const WriteOptions& options = {});

}  // namespace dhtidx::xml
