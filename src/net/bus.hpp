// RPC message bus: pairs requests with responses over any Transport and
// accounts every frame's serialized size into a measured TrafficLedger.
//
// Two interaction shapes:
//
//   * exchange(request, serve) — a request/response round trip. `serve` runs
//     at the frame's virtual delivery time and builds the response from live
//     node state.
//
//   * post(message, apply) — a one-way operation (publish, replicate,
//     repair, shortcut install). `apply` runs at delivery and the bus sends
//     a header-only ack back, so one-way traffic still exercises the full
//     taxonomy. sync() pumps until every posted message has been applied.
//
// Idempotent delivery (wire version 2, PROTOCOL.md §5): request ids come
// from one bus-wide counter, and the bus keeps state only while an RPC is in
// flight. Every id below the counter was assigned here, so a request whose
// id is below it but no longer in flight was already served or applied: a
// duplicated, replayed or retransmission-crossed frame is discarded by its
// id, and the non-idempotent appliers (publish/remove/replicate/shortcut
// install) run exactly once per id. When the transport drains without the
// expected response/ack (an adversarial drop), exchange() and sync()
// retransmit the original frame under a bounded end-to-end timeout budget
// (kMaxRetransmits) whose backoff follows kRetryPolicy and is charged to the
// transport's virtual clock.
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
#include <functional>
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
  /// Builds the response for a delivered request.
  using Server = std::function<Message(const Message&)>;
  /// Applies a delivered one-way message.
  using Applier = std::function<void(const Message&)>;

  /// End-to-end budget: how many times one frame may be retransmitted before
  /// exchange()/sync() give up. The waits between retransmissions follow
  /// kRetryPolicy's backoff schedule (its attempts_per_replica is not used).
  static constexpr std::size_t kMaxRetransmits = 12;

  explicit MessageBus(Transport& transport) : transport_(transport) {
    transport_.set_sink(this);
  }

  /// Runs one request/response exchange. Assigns the correlation id, sends
  /// the request, pumps the transport until the response arrives, and
  /// returns it. Whenever the transport drains idle without the response
  /// (request or response leg lost), the same frame — same id — is
  /// retransmitted under the timeout budget; receivers dedup by id, and the
  /// serve side retransmits its recorded response instead of serving twice.
  /// Throws Error once the budget is exhausted.
  Message exchange(Message request, const Server& serve);

  /// Sends a one-way message whose effect is `apply`, acknowledged with a
  /// header-only ack. Delivery happens on a later pump or sync().
  void post(Message message, Applier apply);

  /// Pumps the transport until idle and every pending post has been applied,
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
  /// One-way posts sent but not yet applied.
  std::size_t pending_posts() const { return pending_posts_.size(); }

 private:
  /// One exchange, from its first send until exchange() returns or throws.
  struct InFlight {
    explicit InFlight(const Server* serve) : server(serve) {}
    const Server* server;
    /// The response this bus served, resent when a duplicate request
    /// arrives, so a lost response leg heals without running `serve` twice.
    std::optional<Message> served;
    /// The response leg, once it arrived.
    std::optional<Message> response;
  };

  struct PendingPost {
    Applier apply;
    Message message;  ///< retained for timeout-driven retransmission
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
  // Server/Applier pointers stay valid because exchange()/sync() pump within
  // the caller's scope.
  std::unordered_map<std::uint64_t, InFlight> in_flight_;
  std::unordered_map<std::uint64_t, PendingPost> pending_posts_;
  // Applied posts whose ack has not arrived yet. The first ack erases its
  // id, so a later copy finds nothing; only acks lost on the wire stay.
  std::unordered_set<std::uint64_t> unacked_;
};

}  // namespace dhtidx::net
