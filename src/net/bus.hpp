// RPC message bus: pairs requests with responses over any Transport and
// accounts every frame's serialized size into a measured TrafficLedger.
//
// The bus only carries frames. It never calls back into the services: they
// change and read their own state at the call, then hand it the frames.
//
//   * exchange(request, reply) — a request/response round trip. The caller
//     builds the reply from the node's state; the bus sends it when the
//     request is delivered. Nothing mutates a service while the bus pumps,
//     so it is the reply the node would build at delivery.
//
//   * post(message) — a one-way operation (publish, replicate, repair,
//     shortcut install) the caller has already applied. Its delivery is
//     acknowledged with a header-only ack, so one-way traffic still exercises
//     the full taxonomy. sync() pumps until every post has been delivered.
//
// Idempotent delivery (wire version 2, PROTOCOL.md §5): request ids come
// from one bus-wide counter, and the bus keeps state only while an RPC is in
// flight. Every id below the counter was assigned here, so a request whose
// id is below it but no longer in flight was already answered or acked: a
// duplicated, replayed or retransmission-crossed frame is discarded by its
// id. When the transport drains without the expected response/ack (an
// adversarial drop), exchange() and sync() retransmit the original frame
// under a bounded end-to-end timeout budget (kMaxRetransmits) whose backoff
// follows kRetryPolicy and is charged to the transport's virtual clock.
//
// The measured ledger mirrors the analytic one kept by the services, but its
// byte counts come from codec frame sizes instead of the paper's per-message
// estimate. Categorization by action keeps the two comparable:
// lookup/search-all/fetch/remove → queries (+ their reply legs → responses),
// shortcut → cache, publish/store/replicate/repair → maintenance,
// ping and all acks → routing, lost frames → retries, retransmissions →
// timeouts, discarded duplicate deliveries → duplicates, codec-rejected
// frames → rejected.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "net/message.hpp"
#include "net/retry.hpp"
#include "net/stats.hpp"
#include "net/transport.hpp"

namespace dhtidx::net {

class MessageBus : public MessageSink {
 public:
  /// End-to-end budget: how many times one frame may be retransmitted before
  /// exchange()/sync() give up. The waits between retransmissions follow
  /// kRetryPolicy's backoff schedule (its attempts_per_replica is not used).
  static constexpr std::size_t kMaxRetransmits = 12;

  explicit MessageBus(Transport& transport) : transport_(transport) {
    transport_.set_sink(this);
  }

  /// Runs one request/response exchange. Assigns the correlation id to both
  /// legs, sends the request, sends `reply` when the request is delivered
  /// (and again for each duplicate of it), pumps until the response arrives,
  /// and returns it. Whenever the transport drains idle without the response,
  /// the same frame — same id — is retransmitted under the timeout budget.
  /// Throws Error once the budget is exhausted.
  Message exchange(Message request, Message reply);

  /// Sends a one-way message, acknowledged with a header-only ack when it is
  /// delivered. Delivery happens on a later pump or sync().
  void post(Message message);

  /// Pumps the transport until idle and every post has been delivered,
  /// retransmitting undelivered posts (in id order, for determinism) under
  /// the same timeout budget as exchange(). Throws Error once the budget is
  /// exhausted with posts still pending.
  void sync();

  /// Accounts one failed delivery attempt of `message` (crash or drop) under
  /// the `retries` category. The frame never reaches the transport.
  void record_lost(const Message& message);

  /// MessageSink: dispatches a delivered frame.
  void on_message(const Message& message, std::uint64_t wire_bytes) override;

  /// MessageSink: accounts a frame the codec rejected.
  void on_rejected(std::uint64_t wire_bytes) override;

  TrafficLedger& measured() { return measured_; }
  const TrafficLedger& measured() const { return measured_; }
  Transport& transport() { return transport_; }
  const Transport& transport() const { return transport_; }

  std::uint64_t exchanges() const { return exchanges_; }
  std::uint64_t posts() const { return posts_; }

  /// Timeout-driven retransmissions performed (requests, responses, posts).
  std::uint64_t timeouts() const { return timeouts_; }
  /// Duplicate deliveries detected and discarded by id-based dedup.
  std::uint64_t duplicates_detected() const { return duplicates_; }
  /// Frames the codec rejected before they reached dispatch.
  std::uint64_t rejected_frames() const { return rejected_; }
  /// One-way posts sent but not yet delivered.
  std::size_t pending_posts() const { return pending_posts_.size(); }

 private:
  /// One exchange, from its first send until exchange() returns or throws.
  struct InFlight {
    Message reply;
    bool answered = false;
    std::optional<Message> response;  ///< the response leg, once it arrived
  };

  void account(const Message& message, std::uint64_t wire_bytes);

  /// Counts one discarded duplicate delivery into the ledger.
  void discard_duplicate(std::uint64_t wire_bytes);

  /// Charges the backoff before retransmission `round` (1-based) to the
  /// transport's virtual clock. Exponential per kRetryPolicy, capped so a
  /// deep budget cannot blow up virtual time.
  void backoff(std::size_t round);

  Transport& transport_;
  TrafficLedger measured_;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t exchanges_ = 0;
  std::uint64_t posts_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t rejected_ = 0;

  // The only state keyed by request id, and none of it outlives its RPC.
  std::unordered_map<std::uint64_t, InFlight> in_flight_;
  // Undelivered posts, each kept for timeout-driven retransmission.
  std::unordered_map<std::uint64_t, Message> pending_posts_;
  // Delivered posts whose ack has not arrived yet. The first ack erases its
  // id, so a later copy finds nothing; only acks lost on the wire stay.
  std::unordered_set<std::uint64_t> unacked_;
};

}  // namespace dhtidx::net
