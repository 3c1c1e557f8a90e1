// A small XML document object model.
//
// File descriptors in the paper are semi-structured XML documents (Figure 1).
// This DOM supports exactly what descriptors and their queries need: nested
// elements, attributes, and text content. Elements are regular value types so
// that descriptors can be copied, compared and stored freely.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dhtidx::xml {

/// An XML element: name, attributes, text content, and child elements.
///
/// Mixed content is simplified: all character data directly inside an element
/// is concatenated into `text`. This matches descriptor-style documents where
/// an element holds either text or children.
class Element {
 public:
  Element() = default;
  explicit Element(std::string name) : name_(std::move(name)) {}
  Element(std::string name, std::string text)
      : name_(std::move(name)), text_(std::move(text)) {}

  const std::string& name() const { return name_; }

  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  const std::map<std::string, std::string>& attributes() const { return attributes_; }
  void set_attribute(const std::string& key, std::string value) {
    attributes_[key] = std::move(value);
  }
  std::optional<std::string> attribute(const std::string& key) const;

  const std::vector<Element>& children() const { return children_; }
  std::vector<Element>& children() { return children_; }

  /// Appends a child and returns a reference to it (stable until the next
  /// mutation of the child list).
  Element& add_child(Element child);

  /// Convenience: appends <name>text</name>.
  Element& add_child(std::string name, std::string text);

  /// First child with the given name, or nullptr.
  const Element* child(std::string_view name) const;

  /// All children with the given name.
  std::vector<const Element*> children_named(std::string_view name) const;

  /// Depth-first search for the first descendant (not including this element)
  /// with the given name, or nullptr.
  const Element* find_descendant(std::string_view name) const;

  /// Total number of elements in this subtree, including this one.
  std::size_t subtree_size() const;

  /// Approximate serialized size in bytes (used for traffic/storage
  /// accounting without materializing the string).
  std::size_t byte_size() const;

  bool operator==(const Element& other) const;

 private:
  std::string name_;
  std::string text_;
  std::map<std::string, std::string> attributes_;
  std::vector<Element> children_;
};

}  // namespace dhtidx::xml
