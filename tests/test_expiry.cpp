// Soft-state expiry and republish: index entries age out unless their
// publisher re-announces them (standard DHT soft-state maintenance; the
// read/write side of Section IV-C).
#include <gtest/gtest.h>

#include "biblio/article.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"

namespace dhtidx::index {
namespace {

using query::Query;

biblio::Article article(int i, const std::string& last) {
  biblio::Article a;
  a.id = static_cast<std::size_t>(i);
  a.first_name = "F" + std::to_string(i);
  a.last_name = last;
  a.title = "Title " + std::to_string(i);
  a.conference = "CONF";
  a.year = 2000 + i;
  a.file_bytes = 1000;
  return a;
}

class ExpiryTest : public ::testing::Test {
 protected:
  /// `q` as a ref into the service's query pool (nullptr when unpooled).
  const Query* pooled(const Query& q) { return service_.interner().find_existing(q); }

  dht::Ring ring_ = dht::Ring::with_nodes(12);
  net::TrafficLedger ledger_;
  storage::DhtStore store_{ring_, ledger_};
  IndexService service_{ring_, ledger_};
  IndexBuilder builder_{service_, store_, IndexingScheme::simple()};
};

TEST_F(ExpiryTest, StampsRecordedAndRefreshed) {
  const biblio::Article a = article(1, "Smith");
  builder_.index_file(a.descriptor(), a.file_name(), a.file_bytes, nullptr, /*now=*/5);
  const Id node = service_.node_for(a.author_query());
  const auto stamp = service_.state_at(node).refresh_stamp(pooled(a.author_query()),
                                                           pooled(a.author_title_query()));
  ASSERT_TRUE(stamp.has_value());
  EXPECT_EQ(*stamp, 5u);

  builder_.republish(a.descriptor(), /*now=*/9);
  EXPECT_EQ(service_.state_at(node)
                .refresh_stamp(pooled(a.author_query()), pooled(a.author_title_query()))
                .value(),
            9u);
}

TEST_F(ExpiryTest, StaleEntriesExpire) {
  const biblio::Article a = article(1, "Smith");
  builder_.index_file(a.descriptor(), a.file_name(), a.file_bytes, nullptr, /*now=*/1);
  EXPECT_GT(service_.totals().mappings, 0u);
  const std::size_t removed = service_.expire(/*cutoff=*/2);
  EXPECT_EQ(removed, 6u);  // all six simple-scheme mappings
  EXPECT_EQ(service_.totals().mappings, 0u);
  EXPECT_TRUE(service_.lookup(a.author_query()).targets.empty());
}

TEST_F(ExpiryTest, RepublishKeepsEntriesAlive) {
  const biblio::Article a = article(1, "Smith");
  const biblio::Article b = article(2, "Doe");
  builder_.index_file(a.descriptor(), a.file_name(), a.file_bytes, nullptr, /*now=*/1);
  builder_.index_file(b.descriptor(), b.file_name(), b.file_bytes, nullptr, /*now=*/1);

  // Only a's publisher stays alive and republishes.
  builder_.republish(a.descriptor(), /*now=*/10);
  const std::size_t removed = service_.expire(/*cutoff=*/5);
  EXPECT_GT(removed, 0u);

  LookupEngine engine{service_, store_, {CachePolicy::kNone}};
  EXPECT_TRUE(engine.resolve(a.author_query(), a.msd()).found);
  // b's entries are gone: its author key no longer resolves.
  EXPECT_TRUE(service_.lookup(b.author_query()).targets.empty());
}

TEST_F(ExpiryTest, SharedEntriesSurviveIfAnyPublisherRefreshes) {
  // Two articles at the same conference+year share the conf->conf+year
  // entry; one publisher refreshing keeps the shared entry alive.
  const biblio::Article a = article(1, "Smith");
  biblio::Article b = article(2, "Doe");
  b.year = a.year;  // same conf+year as a
  builder_.index_file(a.descriptor(), a.file_name(), a.file_bytes, nullptr, /*now=*/1);
  builder_.index_file(b.descriptor(), b.file_name(), b.file_bytes, nullptr, /*now=*/1);
  builder_.republish(a.descriptor(), /*now=*/10);
  service_.expire(/*cutoff=*/5);

  // The shared conference chain still resolves for a.
  LookupEngine engine{service_, store_, {CachePolicy::kNone}};
  const auto outcome = engine.resolve(a.conference_query(), a.msd());
  EXPECT_TRUE(outcome.found);
  // b's msd is no longer reachable from the shared conf+year key.
  const auto targets = service_.lookup(a.conference_year_query()).targets;
  const auto has_target = [&](const query::Query& wanted) {
    return std::any_of(targets.begin(), targets.end(),
                       [&](const query::Query* t) { return *t == wanted; });
  };
  EXPECT_TRUE(has_target(a.msd()));
  EXPECT_FALSE(has_target(b.msd()));
}

TEST_F(ExpiryTest, ExpireWithFreshCutoffIsNoOp) {
  const biblio::Article a = article(3, "Roe");
  builder_.index_file(a.descriptor(), a.file_name(), a.file_bytes, nullptr, /*now=*/7);
  EXPECT_EQ(service_.expire(/*cutoff=*/7), 0u);  // stamp == cutoff survives
  EXPECT_EQ(service_.expire(/*cutoff=*/8), 6u);
}

TEST_F(ExpiryTest, RemoveClearsStamps) {
  const biblio::Article a = article(4, "Poe");
  builder_.index_file(a.descriptor(), a.file_name(), a.file_bytes, nullptr, /*now=*/3);
  builder_.remove_file(a.descriptor());
  const Id node = service_.node_for(a.author_query());
  EXPECT_FALSE(service_.state_at(node)
                   .refresh_stamp(pooled(a.author_query()), pooled(a.author_title_query()))
                   .has_value());
}

}  // namespace
}  // namespace dhtidx::index
