#include "biblio/article.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"

namespace dhtidx::biblio {

using query::Query;

xml::Element Article::descriptor() const {
  xml::Element root{"article"};
  xml::Element author{"author"};
  author.add_child("first", first_name);
  author.add_child("last", last_name);
  root.add_child(std::move(author));
  root.add_child("title", title);
  root.add_child("conf", conference);
  root.add_child("year", std::to_string(year));
  root.add_child("size", std::to_string(file_bytes));
  return root;
}

query::Query Article::msd() const { return Query::most_specific(descriptor()); }

query::Query Article::author_query() const {
  Query q{"article"};
  q.add_field("author/first", first_name);
  q.add_field("author/last", last_name);
  return q;
}

query::Query Article::title_query() const {
  Query q{"article"};
  q.add_field("title", title);
  return q;
}

query::Query Article::conference_query() const {
  Query q{"article"};
  q.add_field("conf", conference);
  return q;
}

query::Query Article::year_query() const {
  Query q{"article"};
  q.add_field("year", std::to_string(year));
  return q;
}

query::Query Article::author_title_query() const {
  Query q = author_query();
  q.add_field("title", title);
  return q;
}

query::Query Article::author_year_query() const {
  Query q = author_query();
  q.add_field("year", std::to_string(year));
  return q;
}

query::Query Article::conference_year_query() const {
  Query q{"article"};
  q.add_field("conf", conference);
  q.add_field("year", std::to_string(year));
  return q;
}

query::Query Article::author_conference_query() const {
  Query q = author_query();
  q.add_field("conf", conference);
  return q;
}

query::Query Article::author_conference_year_query() const {
  Query q = author_conference_query();
  q.add_field("year", std::to_string(year));
  return q;
}

Article article_from_descriptor(const xml::Element& descriptor) {
  if (descriptor.name() != "article") {
    throw ParseError("descriptor root must be <article>, got <" + descriptor.name() + ">");
  }
  const xml::Element* author = descriptor.child("author");
  const xml::Element* title = descriptor.child("title");
  const xml::Element* conf = descriptor.child("conf");
  const xml::Element* year = descriptor.child("year");
  if (!author || !title || !conf || !year) {
    throw ParseError("descriptor is missing a required field");
  }
  const xml::Element* first = author->child("first");
  const xml::Element* last = author->child("last");
  if (!first || !last) throw ParseError("author must have <first> and <last>");

  Article a;
  a.first_name = first->text();
  a.last_name = last->text();
  a.title = title->text();
  a.conference = conf->text();
  const std::optional<int> year_value = parse_number<int>(year->text());
  if (!year_value) throw ParseError("malformed <year>: " + year->text());
  a.year = *year_value;
  if (const xml::Element* size = descriptor.child("size")) {
    const std::optional<std::uint64_t> bytes = parse_number<std::uint64_t>(size->text());
    if (!bytes) throw ParseError("malformed <size>: " + size->text());
    a.file_bytes = *bytes;
  }
  return a;
}

}  // namespace dhtidx::biblio
