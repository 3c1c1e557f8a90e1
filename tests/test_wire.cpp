// Wire-format and transport tests: every message round-trips through the
// codec, malformed buffers are rejected with a typed CodecError (never UB),
// transports deliver deterministically, and the message bus accounts each
// frame in exactly one ledger category.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/rss.hpp"
#include "net/bus.hpp"
#include "net/codec.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"

namespace dhtidx::net {
namespace {

Message sample_message() {
  Message m = Message::request(Action::kLookup, Id::hash("alice"), Id::hash("bob"));
  m.request_id = 0x0123456789ABCDEFull;
  m.payload = {"/conference[@name='ICDCS']", "second item"};
  return m;
}

std::string corrupted(std::string frame, std::size_t offset, char value) {
  frame[offset] = value;
  return frame;
}

// --- Codec round trips ------------------------------------------------------

TEST(Codec, EveryContextActionStatusRoundTrips) {
  for (std::size_t c = 0; c < kContextCount; ++c) {
    for (std::size_t a = 0; a < kActionCount; ++a) {
      for (std::size_t s = 0; s < kStatusCount; ++s) {
        Message m;
        m.context = static_cast<Context>(c);
        m.action = static_cast<Action>(a);
        m.status = static_cast<Status>(s);
        m.request_id = c * 100 + a * 10 + s;
        m.from = Id::hash("from" + std::to_string(a));
        m.to = Id::hash("to" + std::to_string(s));
        m.payload = {"payload", ""};
        const Message back = codec::decode(codec::encode(m));
        ASSERT_EQ(back, m) << to_string(m.context) << "/" << to_string(m.action) << "/"
                           << to_string(m.status);
      }
    }
  }
}

TEST(Codec, BinaryPayloadSurvivesVerbatim) {
  Message m = sample_message();
  std::string blob;
  for (int i = 0; i < 256; ++i) blob.push_back(static_cast<char>(i));
  m.payload = {blob, std::string(3, '\0'), ""};
  const Message back = codec::decode(codec::encode(m));
  EXPECT_EQ(back, m);
  EXPECT_EQ(back.payload[0].size(), 256u);
}

TEST(Codec, EmptyAndManyItemPayloadsRoundTrip) {
  Message empty = sample_message();
  empty.payload.clear();
  EXPECT_EQ(codec::decode(codec::encode(empty)), empty);
  EXPECT_EQ(codec::encode(empty).size(), codec::kHeaderBytes);

  Message many = sample_message();
  many.payload.clear();
  for (int i = 0; i < 1000; ++i) many.payload.push_back("item " + std::to_string(i));
  EXPECT_EQ(codec::decode(codec::encode(many)), many);
}

TEST(Codec, EncodedSizeMatchesEncodeWithoutSerializing) {
  for (const Message& m :
       {sample_message(), Message::request(Action::kPing, Id{}, Id::hash("x")),
        Message::ack_to(sample_message())}) {
    EXPECT_EQ(codec::encoded_size(m), codec::encode(m).size());
  }
  Message big = sample_message();
  big.payload.assign(50, std::string(1000, 'x'));
  EXPECT_EQ(codec::encoded_size(big), codec::encode(big).size());
}

TEST(Codec, FrameLayoutIsTheDocumentedHeader) {
  const Message m = sample_message();
  const std::string frame = codec::encode(m);
  ASSERT_GE(frame.size(), codec::kHeaderBytes);
  EXPECT_EQ(static_cast<std::uint8_t>(frame[0]), codec::kMagic0);
  EXPECT_EQ(static_cast<std::uint8_t>(frame[1]), codec::kMagic1);
  EXPECT_EQ(static_cast<std::uint8_t>(frame[2]), codec::kWireVersion);
  EXPECT_EQ(static_cast<std::uint8_t>(frame[3]), static_cast<std::uint8_t>(m.context));
  EXPECT_EQ(static_cast<std::uint8_t>(frame[4]), static_cast<std::uint8_t>(m.action));
  EXPECT_EQ(static_cast<std::uint8_t>(frame[5]), static_cast<std::uint8_t>(m.status));
  // request_id, little-endian.
  std::uint64_t id = 0;
  for (int i = 7; i >= 0; --i) {
    id = (id << 8) | static_cast<std::uint8_t>(frame[6 + i]);
  }
  EXPECT_EQ(id, m.request_id);
}

// --- Codec rejection: malformed input is a typed error, never UB -----------

TEST(Codec, EveryTruncatedPrefixIsRejected) {
  const std::string frame = codec::encode(sample_message());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    try {
      codec::decode(std::string_view{frame.data(), len});
      FAIL() << "prefix of length " << len << " decoded successfully";
    } catch (const codec::CodecError& e) {
      ASSERT_EQ(e.kind(), codec::CodecError::Kind::kTruncated)
          << "prefix length " << len << ": " << e.what();
    }
  }
}

TEST(Codec, BadMagicIsRejected) {
  const std::string frame = codec::encode(sample_message());
  for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
    try {
      codec::decode(corrupted(frame, offset, '\x00'));
      FAIL() << "bad magic byte " << offset << " accepted";
    } catch (const codec::CodecError& e) {
      EXPECT_EQ(e.kind(), codec::CodecError::Kind::kBadMagic);
    }
  }
}

TEST(Codec, VersionSkewIsRejected) {
  const std::string frame = codec::encode(sample_message());
  for (const int version : {0, codec::kWireVersion + 1, 0xFF}) {
    try {
      codec::decode(corrupted(frame, 2, static_cast<char>(version)));
      FAIL() << "version " << version << " accepted";
    } catch (const codec::CodecError& e) {
      EXPECT_EQ(e.kind(), codec::CodecError::Kind::kVersionSkew);
    }
  }
}

TEST(Codec, OutOfRangeEnumBytesAreRejected) {
  const std::string frame = codec::encode(sample_message());
  const struct {
    std::size_t offset;
    char value;
  } cases[] = {
      {3, static_cast<char>(kContextCount)},  // context
      {4, static_cast<char>(kActionCount)},   // action
      {5, static_cast<char>(kStatusCount)},   // status
      {3, '\x7F'},
      {4, '\xFF'},
  };
  for (const auto& c : cases) {
    try {
      codec::decode(corrupted(frame, c.offset, c.value));
      FAIL() << "enum byte at offset " << c.offset << " accepted";
    } catch (const codec::CodecError& e) {
      EXPECT_EQ(e.kind(), codec::CodecError::Kind::kBadField);
    }
  }
}

TEST(Codec, OversizedItemLengthIsRejectedWithoutAllocating) {
  Message m = sample_message();
  m.payload = {"tiny"};
  std::string frame = codec::encode(m);
  // Patch the first item's u32 length prefix to something above the cap; the
  // decoder must reject it instead of trusting it and allocating 4 GiB.
  frame[codec::kHeaderBytes + 0] = '\xFF';
  frame[codec::kHeaderBytes + 1] = '\xFF';
  frame[codec::kHeaderBytes + 2] = '\xFF';
  frame[codec::kHeaderBytes + 3] = '\xFF';
  try {
    codec::decode(frame);
    FAIL() << "oversized item length accepted";
  } catch (const codec::CodecError& e) {
    EXPECT_EQ(e.kind(), codec::CodecError::Kind::kOversized);
  }
}

TEST(Codec, EncodeRejectsPayloadsOverTheCaps) {
  Message too_many = sample_message();
  too_many.payload.assign(codec::kMaxPayloadItems + 1, "");
  EXPECT_THROW(codec::encode(too_many), codec::CodecError);

  Message too_big = sample_message();
  too_big.payload = {std::string(codec::kMaxItemBytes + 1, 'x')};
  try {
    codec::encode(too_big);
    FAIL() << "oversized item encoded";
  } catch (const codec::CodecError& e) {
    EXPECT_EQ(e.kind(), codec::CodecError::Kind::kOversized);
  }
}

TEST(Codec, TrailingBytesAreRejected) {
  const std::string frame = codec::encode(sample_message());
  try {
    codec::decode(frame + "x");
    FAIL() << "trailing byte accepted";
  } catch (const codec::CodecError& e) {
    EXPECT_EQ(e.kind(), codec::CodecError::Kind::kTrailingBytes);
  }
}

TEST(Codec, RandomBuffersNeverCrashTheDecoder) {
  std::mt19937 rng{20260808};
  std::uniform_int_distribution<int> byte{0, 255};
  std::uniform_int_distribution<std::size_t> length{0, 300};
  int decoded = 0;
  for (int i = 0; i < 5000; ++i) {
    std::string buffer(length(rng), '\0');
    for (char& c : buffer) c = static_cast<char>(byte(rng));
    try {
      codec::decode(buffer);
      ++decoded;  // vanishingly unlikely, but legal
    } catch (const codec::CodecError&) {
      // expected: typed rejection
    }
  }
  SUCCEED() << decoded << " random buffers happened to be valid frames";
}

TEST(Codec, MutatedValidFramesAreRejectedOrReencodable) {
  // Single-byte mutations of a valid frame must either decode to a message
  // that re-encodes cleanly or throw CodecError -- nothing else.
  std::mt19937 rng{7};
  const std::string frame = codec::encode(sample_message());
  std::uniform_int_distribution<std::size_t> pos{0, frame.size() - 1};
  std::uniform_int_distribution<int> byte{0, 255};
  for (int i = 0; i < 2000; ++i) {
    std::string mutant = frame;
    mutant[pos(rng)] = static_cast<char>(byte(rng));
    try {
      const Message m = codec::decode(mutant);
      EXPECT_EQ(codec::decode(codec::encode(m)), m);
    } catch (const codec::CodecError&) {
      // fine
    }
  }
}

// --- Transports -------------------------------------------------------------

/// Test sink collecting delivered messages and their wire sizes.
struct CollectingSink : MessageSink {
  std::vector<Message> messages;
  std::vector<std::uint64_t> sizes;
  void on_message(const Message& message, std::uint64_t wire_bytes) override {
    messages.push_back(message);
    sizes.push_back(wire_bytes);
  }
};

TEST(EventQueueTransport, DeliversInSendOrderAndAdvancesTheClock) {
  EventQueueTransport transport;
  CollectingSink sink;
  transport.set_sink(&sink);

  std::vector<Message> sent;
  for (int i = 0; i < 5; ++i) {
    Message m = sample_message();
    m.request_id = static_cast<std::uint64_t>(i);
    sent.push_back(m);
    transport.send(m);
  }
  EXPECT_TRUE(sink.messages.empty());  // nothing delivered before pump
  EXPECT_FALSE(transport.idle());

  while (!transport.idle()) transport.pump();
  ASSERT_EQ(sink.messages.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sink.messages[i], sent[i]) << "frame " << i << " out of order";
  }
  EXPECT_DOUBLE_EQ(transport.clock_ms(), 1.0);  // all sent at t=0, one 1 ms hop
  EXPECT_EQ(transport.delivered(), 5u);
}

TEST(EventQueueTransport, TwoIdenticalRunsProduceIdenticalTraces) {
  const auto run = [](int frames) {
    EventQueueTransport transport;
    CollectingSink sink;
    transport.set_sink(&sink);
    for (int i = 0; i < frames; ++i) {
      Message m = sample_message();
      m.request_id = static_cast<std::uint64_t>(i * 31 % 17);
      transport.send(m);
      if (i % 7 == 0) transport.pump();
    }
    while (!transport.idle()) transport.pump();
    return transport.delivery_fingerprint();
  };
  EXPECT_EQ(run(50), run(50));
  EXPECT_NE(run(50), run(49));  // one delivery fewer, another fingerprint
}

TEST(EventQueueTransport, ReentrantSendDuringDeliveryIsSafe) {
  EventQueueTransport transport;

  // A sink that responds to every request it sees, from inside delivery.
  struct EchoSink : MessageSink {
    EventQueueTransport* transport = nullptr;
    std::vector<Message> delivered;
    void on_message(const Message& message, std::uint64_t) override {
      delivered.push_back(message);
      if (message.context == Context::kRequest) {
        transport->send(Message::response_to(message));
      }
    }
  } sink;
  sink.transport = &transport;
  transport.set_sink(&sink);

  transport.send(sample_message());
  while (!transport.idle()) transport.pump();
  ASSERT_EQ(sink.delivered.size(), 2u);
  EXPECT_EQ(sink.delivered[0].context, Context::kRequest);
  EXPECT_EQ(sink.delivered[1].context, Context::kResponse);
  EXPECT_DOUBLE_EQ(transport.clock_ms(), 2.0);  // request hop + response hop
}

// --- Message bus ------------------------------------------------------------

/// Runs `request` through the bus, answered with an empty reply.
Message round_trip(MessageBus& bus, const Message& request) {
  return bus.exchange(request, Message::response_to(request));
}

TEST(MessageBus, ExchangeRoundTripsAndAccountsBothLegs) {
  EventQueueTransport transport;
  MessageBus bus{transport};

  Message request = Message::request(Action::kLookup, Id{}, Id::hash("server"));
  request.payload = {"/author[@name='Smith']"};
  Message reply = Message::response_to(request);
  reply.payload = {"result"};
  const Message response = bus.exchange(request, reply);

  EXPECT_EQ(response.context, Context::kResponse);
  EXPECT_EQ(response.action, Action::kLookup);
  EXPECT_NE(response.request_id, 0u);
  EXPECT_EQ(response.payload, std::vector<std::string>{"result"});
  EXPECT_EQ(bus.exchanges(), 1u);

  const TrafficLedger& m = bus.measured();
  EXPECT_EQ(m.queries.messages(), 1u);
  EXPECT_EQ(m.responses.messages(), 1u);
  EXPECT_EQ(m.total_messages(), 2u);  // nothing double-counted
  EXPECT_GT(m.queries.bytes(), 0u);
  EXPECT_GT(m.responses.bytes(), 0u);
}

TEST(MessageBus, ExchangeWorksOverTheEventQueue) {
  EventQueueTransport transport;
  MessageBus bus{transport};
  Message request = Message::request(Action::kFetch, Id{}, Id::hash("node"));
  const Message response = round_trip(bus, request);
  EXPECT_EQ(response.context, Context::kResponse);
  EXPECT_GT(transport.clock_ms(), 0.0);
}

TEST(MessageBus, PostAppliesAtDeliveryAndAcksUnderRouting) {
  EventQueueTransport transport;
  MessageBus bus{transport};

  Message publish = Message::request(Action::kPublish, Id::hash("a"), Id::hash("b"));
  bus.post(publish);
  // No ack until the frame is delivered.
  EXPECT_EQ(bus.measured().routing.messages(), 0u);
  EXPECT_EQ(bus.pending_posts(), 1u);
  bus.sync();
  EXPECT_EQ(bus.pending_posts(), 0u);
  EXPECT_EQ(bus.posts(), 1u);

  const TrafficLedger& m = bus.measured();
  EXPECT_EQ(m.maintenance.messages(), 1u);  // the publish itself
  EXPECT_EQ(m.routing.messages(), 1u);      // its ack
  EXPECT_EQ(m.total_messages(), 2u);
}

TEST(MessageBus, CategoriesAreExclusivePerAction) {
  EventQueueTransport transport;
  MessageBus bus{transport};

  round_trip(bus, Message::request(Action::kLookup, Id{}, Id::hash("n")));
  round_trip(bus, Message::request(Action::kPing, Id{}, Id::hash("n")));
  bus.post(Message::request(Action::kShortcut, Id::hash("n"), Id::hash("m")));
  bus.post(Message::request(Action::kReplicate, Id::hash("n"), Id::hash("m")));
  bus.post(Message::request(Action::kStore, Id{}, Id::hash("n")));
  bus.sync();

  const TrafficLedger& m = bus.measured();
  EXPECT_EQ(m.queries.messages(), 1u);      // lookup request
  EXPECT_EQ(m.responses.messages(), 1u);    // lookup response
  EXPECT_EQ(m.cache.messages(), 1u);        // shortcut
  EXPECT_EQ(m.maintenance.messages(), 2u);  // replicate + store
  // ping request + ping response + 3 acks.
  EXPECT_EQ(m.routing.messages(), 5u);
  EXPECT_EQ(m.retries.messages(), 0u);

  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  for (const TrafficLedger::NamedCategory& category : m.categories()) {
    bytes += category.stats->bytes();
    messages += category.stats->messages();
  }
  EXPECT_EQ(m.total_bytes(), bytes);
  EXPECT_EQ(m.total_messages(), messages);
}

TEST(MessageBus, RecordLostChargesRetriesOnly) {
  EventQueueTransport transport;
  MessageBus bus{transport};
  const Message m = sample_message();
  bus.record_lost(m);
  bus.record_lost(m);
  EXPECT_EQ(bus.measured().retries.messages(), 2u);
  EXPECT_EQ(bus.measured().retries.bytes(), 2 * codec::encoded_size(m));
  EXPECT_EQ(bus.measured().total_messages(), 2u);
  EXPECT_EQ(transport.delivered(), 0u);  // lost frames never reach the wire
}

TEST(MessageBus, DrainedTransportWithoutResponseThrows) {
  Message orphan = Message::request(Action::kLookup, Id{}, Id::hash("gone"));
  // A delivered request is always answered, so emulate a lost reply by using
  // a transport that drops everything.
  struct DropTransport : Transport {
    const char* name() const override { return "drop"; }
    std::uint64_t send(const Message& m) override { return codec::encoded_size(m); }
    void pump() override {}
    bool idle() const override { return true; }
  } dropper;
  MessageBus lossy{dropper};
  EXPECT_THROW(round_trip(lossy, orphan), Error);
}

// --- Message bus dedup (PROTOCOL.md §5) ---------------------------------------

TEST(MessageBus, RequestWithAnIdTheBusNeverAssignedThrows) {
  EventQueueTransport transport;
  MessageBus bus{transport};
  const Message response =
      round_trip(bus, Message::request(Action::kLookup, Id{}, Id::hash("n")));

  Message stray = Message::request(Action::kLookup, Id{}, Id::hash("n"));
  stray.request_id = 0;
  EXPECT_THROW(bus.on_message(stray, codec::encoded_size(stray)), Error);
  stray.request_id = response.request_id + 1;  // the counter's next id
  EXPECT_THROW(bus.on_message(stray, codec::encoded_size(stray)), Error);
  EXPECT_EQ(bus.duplicates_detected(), 0u);
}

TEST(MessageBus, LateCopyOfAFinishedExchangesRequestIsADuplicate) {
  EventQueueTransport transport;
  MessageBus bus{transport};
  // First answers are charged to `responses`; a resent reply would be a
  // timeout.
  Message request = Message::request(Action::kLookup, Id{}, Id::hash("n"));
  request.request_id = round_trip(bus, request).request_id;
  ASSERT_EQ(bus.measured().responses.messages(), 1u);

  bus.on_message(request, codec::encoded_size(request));
  EXPECT_EQ(bus.measured().responses.messages(), 1u);  // not answered again
  EXPECT_EQ(bus.duplicates_detected(), 1u);
  EXPECT_EQ(bus.measured().duplicates.messages(), 1u);
  EXPECT_EQ(bus.timeouts(), 0u);  // the exchange is over: no response is resent
  EXPECT_TRUE(transport.idle());
}

TEST(MessageBus, StateStaysFlatOverAHundredThousandRpcs) {
  // The bus remembers nothing of a finished RPC: an id below its counter
  // that is no longer in flight was already answered or acked. So once its
  // tables have their working size, more traffic holds no more heap.
  if (heap_in_use_bytes() == 0) GTEST_SKIP() << "no heap reading on this platform";
  EventQueueTransport transport;
  MessageBus bus{transport};
  const Id server = Id::hash("server");
  const Id home = Id::hash("home");
  const auto rpcs = [&](int count) {
    for (int i = 0; i < count; ++i) {
      round_trip(bus, Message::request(Action::kLookup, Id{}, server));
      bus.post(Message::request(Action::kPublish, server, home));
    }
    bus.sync();
  };
  rpcs(1000);
  const std::uint64_t before = heap_in_use_bytes();
  rpcs(100000);
  const std::uint64_t after = heap_in_use_bytes();
  EXPECT_EQ(bus.exchanges(), 101000u);
  EXPECT_EQ(bus.posts(), 101000u);
  EXPECT_LE(after, before + 64 * 1024)
      << "the bus grew by " << (after - before) << " B over 100,000 exchanges and posts";
}

}  // namespace
}  // namespace dhtidx::net
