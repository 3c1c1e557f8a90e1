// Typed messages exchanged between nodes.
//
// Every RPC in the system — index publish/lookup, record store/fetch,
// replication and repair — is expressed as a net::Message travelling through a
// net::Transport (see transport.hpp). A message is one of three kinds
// (request, response, ack), carries an action code naming the RPC, a status
// code on the reply leg, a correlation id, the endpoint ids, and an opaque
// payload of byte strings whose meaning is defined per action (PROTOCOL.md).
//
// Messages are plain value types: the wire representation lives entirely in
// net::codec (codec.hpp), which the transport applies to every frame it
// queues.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/id.hpp"

namespace dhtidx::net {

/// The three legs of an RPC. Requests open an exchange, responses answer with
/// a payload, acks confirm one-way operations without carrying data.
enum class Context : std::uint8_t {
  kRequest = 0,
  kResponse = 1,
  kAck = 2,
};

/// RPC action codes. The numeric values are part of the wire format — append
/// new actions at the end, never renumber (see PROTOCOL.md §Versioning).
enum class Action : std::uint8_t {
  kPing = 0,       // liveness probe; empty payload
  kPublish = 1,    // index layer: add a source→target mapping
  kLookup = 2,     // index layer: resolve a query's target list
  kSearchAll = 3,  // index layer: lookup issued by exhaustive-search descent
  kReplicate = 4,  // index/storage layer: push a copy to a successor replica
  kRepair = 5,     // index/storage layer: re-create a mapping lost to churn
  kStore = 6,      // storage layer: put a record at the responsible node
  kFetch = 7,      // storage layer: get the records under a key
  kRemove = 8,     // storage layer: delete the records under a key
  kShortcut = 9,   // cache layer: install a shortcut on the lookup path
};

/// Number of distinct actions; used for dispatch tables and validation.
inline constexpr std::size_t kActionCount = 10;

/// Response status codes.
enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kError = 2,
};

inline constexpr std::size_t kContextCount = 3;
inline constexpr std::size_t kStatusCount = 3;

const char* to_string(Context context);
const char* to_string(Action action);
const char* to_string(Status status);

/// One message on the wire. `from`/`to` are node ids on the identifier
/// circle; the zero id denotes the client endpoint, which is not a DHT
/// member. `request_id` correlates the legs of one exchange and is assigned
/// by the bus — leave it zero when constructing messages by hand.
struct Message {
  Context context = Context::kRequest;
  Action action = Action::kPing;
  Status status = Status::kOk;
  std::uint64_t request_id = 0;
  Id from;
  Id to;
  std::vector<std::string> payload;

  bool operator==(const Message&) const = default;

  /// Convenience factory for the request leg of an exchange.
  static Message request(Action action, const Id& from, const Id& to) {
    Message m;
    m.context = Context::kRequest;
    m.action = action;
    m.from = from;
    m.to = to;
    return m;
  }

  /// Builds the response leg: same action and correlation id, endpoints
  /// swapped. The payload starts empty.
  static Message response_to(const Message& req) {
    Message m;
    m.context = Context::kResponse;
    m.action = req.action;
    m.request_id = req.request_id;
    m.from = req.to;
    m.to = req.from;
    return m;
  }

  /// Builds the ack leg for a one-way operation: header only, no payload.
  static Message ack_to(const Message& req) {
    Message m = response_to(req);
    m.context = Context::kAck;
    return m;
  }
};

}  // namespace dhtidx::net
