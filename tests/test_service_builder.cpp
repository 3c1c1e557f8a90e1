#include <gtest/gtest.h>

#include "biblio/article.hpp"
#include "common/error.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/service.hpp"
#include "storage/dht_store.hpp"

namespace dhtidx::index {
namespace {

using query::Query;

biblio::Article article_a() {
  biblio::Article a;
  a.id = 0;
  a.first_name = "John";
  a.last_name = "Smith";
  a.title = "TCP";
  a.conference = "SIGCOMM";
  a.year = 1989;
  a.file_bytes = 315635;
  return a;
}

biblio::Article article_b() {
  biblio::Article a;
  a.id = 1;
  a.first_name = "John";
  a.last_name = "Smith";
  a.title = "IPv6";
  a.conference = "INFOCOM";
  a.year = 1996;
  a.file_bytes = 312352;
  return a;
}

biblio::Article article_c() {
  biblio::Article a;
  a.id = 2;
  a.first_name = "Alan";
  a.last_name = "Doe";
  a.title = "Wavelets";
  a.conference = "INFOCOM";
  a.year = 1996;
  a.file_bytes = 259827;
  return a;
}

class ServiceTest : public ::testing::Test {
 protected:
  dht::Ring ring_ = dht::Ring::with_nodes(16);
  net::TrafficLedger ledger_;
  IndexService service_{ring_, ledger_};
  storage::DhtStore store_{ring_, ledger_};
};

TEST_F(ServiceTest, InsertThenLookupReturnsTarget) {
  const biblio::Article a = article_a();
  service_.insert(a.author_query(), a.author_title_query());
  const auto reply = service_.lookup(a.author_query());
  ASSERT_EQ(reply.targets.size(), 1u);
  EXPECT_EQ(*reply.targets[0], a.author_title_query());
  EXPECT_EQ(reply.node, ring_.successor(a.author_query().key()));
}

TEST_F(ServiceTest, LookupOfUnknownKeyIsEmpty) {
  EXPECT_TRUE(service_.lookup(Query::parse("/article/title/Nada")).targets.empty());
}

TEST_F(ServiceTest, MultipleTargetsAccumulate) {
  // The Author index maps John/Smith to both of Smith's articles (Figure 5).
  service_.insert(article_a().author_query(), article_a().author_title_query());
  service_.insert(article_b().author_query(), article_b().author_title_query());
  const auto reply = service_.lookup(article_a().author_query());
  EXPECT_EQ(reply.targets.size(), 2u);
}

TEST_F(ServiceTest, DuplicateInsertIsIdempotent) {
  const biblio::Article a = article_a();
  service_.insert(a.author_query(), a.author_title_query());
  service_.insert(a.author_query(), a.author_title_query());
  EXPECT_EQ(service_.lookup(a.author_query()).targets.size(), 1u);
  EXPECT_EQ(service_.totals().mappings, 1u);
}

TEST_F(ServiceTest, ArbitraryLinkingRejected) {
  // Section IV-D: a file can only be indexed at keys covering it. Linking
  // "Doe" to a Smith article must fail.
  const Query doe = Query::parse("/article/author/last/Doe");
  EXPECT_THROW(service_.insert(doe, article_a().msd()), InvariantError);
  // Sanity: a covering key is accepted.
  const Query smith = Query::parse("/article/author/last/Smith");
  service_.insert(smith, article_a().msd());
}

TEST_F(ServiceTest, RemoveReportsEmptySource) {
  const biblio::Article a = article_a();
  service_.insert(a.author_query(), a.author_title_query());
  bool empty = false;
  EXPECT_TRUE(service_.remove(a.author_query(), a.author_title_query(), empty));
  EXPECT_TRUE(empty);
  EXPECT_FALSE(service_.remove(a.author_query(), a.author_title_query(), empty));
}

TEST_F(ServiceTest, RemoveKeepsOtherTargets) {
  service_.insert(article_a().author_query(), article_a().author_title_query());
  service_.insert(article_b().author_query(), article_b().author_title_query());
  bool empty = true;
  service_.remove(article_a().author_query(), article_a().author_title_query(), empty);
  EXPECT_FALSE(empty);
  EXPECT_EQ(service_.lookup(article_a().author_query()).targets.size(), 1u);
}

TEST_F(ServiceTest, LookupTrafficAccounted) {
  service_.insert(article_a().author_query(), article_a().author_title_query());
  ledger_.reset();
  service_.lookup(article_a().author_query());
  EXPECT_EQ(ledger_.queries.messages(), 1u);
  EXPECT_EQ(ledger_.responses.messages(), 1u);
  EXPECT_GT(ledger_.responses.bytes(),
            article_a().author_title_query().byte_size());
}

TEST_F(ServiceTest, TotalsAggregate) {
  service_.insert(article_a().author_query(), article_a().author_title_query());
  service_.insert(article_b().author_query(), article_b().author_title_query());
  service_.insert(article_c().author_query(), article_c().author_title_query());
  const auto totals = service_.totals();
  EXPECT_EQ(totals.mappings, 3u);
  EXPECT_EQ(totals.keys, 2u);  // Smith key shared by a and b
  EXPECT_GT(totals.bytes, 0u);
}

class BuilderTest : public ServiceTest {
 protected:
  IndexBuilder builder_{service_, store_, IndexingScheme::simple()};
};

TEST_F(BuilderTest, IndexFileStoresRecordAndMappings) {
  const biblio::Article a = article_a();
  BuildStats stats;
  builder_.index_file(a.descriptor(), a.file_name(), a.file_bytes, &stats);
  EXPECT_EQ(stats.files, 1u);
  EXPECT_EQ(stats.mappings_inserted, 6u);
  // The file is retrievable under its MSD key.
  const auto got = store_.get(a.msd().key());
  ASSERT_EQ(got.records->size(), 1u);
  EXPECT_EQ((*got.records)[0].kind, "file:" + a.file_name());
  EXPECT_EQ((*got.records)[0].virtual_payload_bytes, a.file_bytes);
}

TEST_F(BuilderTest, SharedEntriesAreNotDuplicated) {
  // a and b share the author, so the author key holds two targets but the
  // author->author+title entries are distinct; conf+year keys are distinct.
  builder_.index_file(article_a().descriptor(), "a.pdf", 1, nullptr);
  builder_.index_file(article_b().descriptor(), "b.pdf", 1, nullptr);
  const auto reply = service_.lookup(article_a().author_query());
  EXPECT_EQ(reply.targets.size(), 2u);
}

TEST_F(BuilderTest, RemoveFileCascadesPrivateEntries) {
  const biblio::Article a = article_a();
  builder_.index_file(a.descriptor(), "a.pdf", 100, nullptr);
  const std::size_t removed = builder_.remove_file(a.descriptor());
  EXPECT_EQ(removed, 6u);
  EXPECT_TRUE(store_.get(a.msd().key()).records->empty());
  EXPECT_TRUE(service_.lookup(a.author_query()).targets.empty());
  EXPECT_TRUE(service_.lookup(a.conference_query()).targets.empty());
  EXPECT_EQ(service_.totals().mappings, 0u);
}

TEST_F(BuilderTest, RemoveFileKeepsSharedEntries) {
  // b and c share INFOCOM/1996: removing b must keep the conf and year
  // entries that c still needs.
  builder_.index_file(article_b().descriptor(), "b.pdf", 100, nullptr);
  builder_.index_file(article_c().descriptor(), "c.pdf", 100, nullptr);
  builder_.remove_file(article_b().descriptor());
  // conf -> conf+year survives for c.
  const auto conf_reply = service_.lookup(article_c().conference_query());
  ASSERT_EQ(conf_reply.targets.size(), 1u);
  EXPECT_EQ(*conf_reply.targets[0], article_c().conference_year_query());
  // conf+year still resolves to c's MSD only.
  const auto cy_reply = service_.lookup(article_c().conference_year_query());
  ASSERT_EQ(cy_reply.targets.size(), 1u);
  EXPECT_EQ(*cy_reply.targets[0], article_c().msd());
  // b's own author entry is gone.
  EXPECT_TRUE(service_.lookup(article_b().author_title_query()).targets.empty());
}

TEST_F(BuilderTest, RemoveFileOfAnUnindexedFileInternsNothing) {
  // b shares a's author, so one of its mapping queries is pooled; c shares
  // nothing. Neither was indexed: removing them must not grow the pool (a
  // lookup of absent queries never interns) and removes no mapping.
  builder_.index_file(article_a().descriptor(), "a.pdf", 100, nullptr);
  const std::size_t pooled = service_.interner().size();
  const std::size_t mappings = service_.totals().mappings;
  EXPECT_EQ(builder_.remove_file(article_b().descriptor()), 0u);
  EXPECT_EQ(builder_.remove_file(article_c().descriptor()), 0u);
  EXPECT_EQ(service_.interner().size(), pooled);
  EXPECT_EQ(service_.totals().mappings, mappings);
  EXPECT_EQ(service_.lookup(article_a().author_query()).targets.size(), 1u);
}

TEST_F(BuilderTest, ReindexAfterRemoveRestoresAccess) {
  const biblio::Article a = article_a();
  builder_.index_file(a.descriptor(), "a.pdf", 100, nullptr);
  builder_.remove_file(a.descriptor());
  builder_.index_file(a.descriptor(), "a.pdf", 100, nullptr);
  EXPECT_EQ(service_.lookup(a.author_query()).targets.size(), 1u);
  EXPECT_EQ(store_.get(a.msd().key()).records->size(), 1u);
}

TEST_F(BuilderTest, ShortCircuitEntryForPopularContent) {
  // Section IV-C: add (q6 ; d1) to speed up lookups of a popular file.
  const biblio::Article a = article_a();
  builder_.index_file(a.descriptor(), "a.pdf", 100, nullptr);
  const Query q6 = Query::parse("/article/author/last/Smith");
  builder_.add_shortcircuit(q6, a.msd());
  const auto reply = service_.lookup(q6);
  ASSERT_EQ(reply.targets.size(), 1u);
  EXPECT_EQ(*reply.targets[0], a.msd());
  // Still impossible to alias unrelated content.
  EXPECT_THROW(builder_.add_shortcircuit(Query::parse("/article/author/last/Doe"), a.msd()),
               InvariantError);
}

}  // namespace
}  // namespace dhtidx::index
