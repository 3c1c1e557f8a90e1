#include "net/bus.hpp"

#include <algorithm>
#include <vector>

#include "net/codec.hpp"

namespace dhtidx::net {

Message MessageBus::exchange(Message request, Message reply) {
  const std::uint64_t id = next_request_id_++;
  request.request_id = id;
  reply.request_id = id;
  InFlight& rpc = in_flight_.try_emplace(id).first->second;
  rpc.reply = std::move(reply);
  ++exchanges_;
  try {
    account(request, transport_.send(request));

    // Pump until the response frame lands. If the transport drains idle
    // first, the request or its response leg was lost: retransmit the
    // identical frame (same id — receivers dedup) under the end-to-end
    // timeout budget.
    std::size_t retransmits = 0;
    while (!rpc.response) {
      if (!transport_.idle()) {
        transport_.pump();
        continue;
      }
      if (retransmits >= kMaxRetransmits) {
        throw Error{"message bus: transport drained without a response to " +
                    std::string(to_string(request.action)) + " #" +
                    std::to_string(id) + " after " + std::to_string(retransmits) +
                    " retransmissions"};
      }
      ++retransmits;
      ++timeouts_;
      backoff(retransmits);
      // dhtidx-lint: allow(ledger-discipline) "bus-private wire ledger, see record_lost"
      measured_.timeouts.record(transport_.send(request));
    }
  } catch (...) {
    in_flight_.erase(id);  // a failed exchange leaves nothing behind either
    throw;
  }
  Message response = std::move(*rpc.response);
  in_flight_.erase(id);
  return response;
}

void MessageBus::post(Message message) {
  const std::uint64_t id = next_request_id_++;
  message.request_id = id;
  ++posts_;
  account(message, transport_.send(message));
  // send() only queues, so the entry is in place before delivery acks it.
  pending_posts_.emplace(id, std::move(message));
}

void MessageBus::sync() {
  std::size_t rounds = 0;
  for (;;) {
    while (!transport_.idle()) {
      transport_.pump();
    }
    if (pending_posts_.empty()) return;
    // Fully drained with posts still pending: those frames were lost on the
    // wire. Retransmit them in ascending id order (the map iteration order is
    // not deterministic, the sort is) under the timeout budget.
    if (rounds >= kMaxRetransmits) {
      throw Error{"message bus: " + std::to_string(pending_posts_.size()) +
                  " posted messages were never delivered"};
    }
    ++rounds;
    backoff(rounds);
    std::vector<std::uint64_t> ids;
    ids.reserve(pending_posts_.size());
    for (const auto& [id, message] : pending_posts_) {
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    for (const std::uint64_t id : ids) {
      const auto it = pending_posts_.find(id);
      if (it == pending_posts_.end()) continue;  // delivered earlier this round
      ++timeouts_;
      // dhtidx-lint: allow(ledger-discipline) "bus-private wire ledger, see record_lost"
      measured_.timeouts.record(transport_.send(it->second));
    }
  }
}

void MessageBus::record_lost(const Message& message) {
  // dhtidx-lint: allow(ledger-discipline) "measured_ is the bus's own wire ledger, not the analytic one; it is written single-threaded at send/delivery time and never routed through active()"
  measured_.retries.record(codec::encoded_size(message));
}

void MessageBus::on_message(const Message& message, std::uint64_t wire_bytes) {
  // Frames are accounted at send time (the send-side knows the category);
  // delivery only answers, acks and dedups. Every leg dedups by request id,
  // so adversarial duplication or retransmission crossings are answered or
  // acked at most once.
  const std::uint64_t id = message.request_id;
  if (message.context == Context::kRequest) {
    if (const auto it = in_flight_.find(id); it != in_flight_.end()) {
      InFlight& rpc = it->second;
      if (!rpc.answered) {
        rpc.answered = true;
        account(rpc.reply, transport_.send(rpc.reply));
      } else {
        // Duplicate of a request we already answered: the peer
        // retransmitted, so our response leg must have been lost — resend
        // the same reply.
        discard_duplicate(wire_bytes);
        ++timeouts_;
        // dhtidx-lint: allow(ledger-discipline) "bus-private wire ledger, see record_lost"
        measured_.timeouts.record(transport_.send(rpc.reply));
      }
      return;
    }
    if (const auto post = pending_posts_.find(id); post != pending_posts_.end()) {
      pending_posts_.erase(post);
      unacked_.insert(id);
      const Message ack = Message::ack_to(message);
      account(ack, transport_.send(ack));
      return;
    }
    if (id == 0 || id >= next_request_id_) {
      throw Error{"message bus: request #" + std::to_string(id) +
                  " was never sent by this bus"};
    }
    // This bus assigned the id, and it is no longer in flight: the request
    // was already answered or acked.
    discard_duplicate(wire_bytes);
    return;
  }
  if (message.context == Context::kResponse) {
    if (const auto it = in_flight_.find(id); it != in_flight_.end() && !it->second.response) {
      it->second.response = message;
    } else {
      // A duplicate copy, a retransmitted response crossing the original, or
      // a response outliving its exchange.
      discard_duplicate(wire_bytes);
    }
    return;
  }
  // Ack leg: confirms delivery of a one-way post; accounting happened at
  // send time. Only the dedup bookkeeping remains.
  if (unacked_.erase(id) == 0) {
    discard_duplicate(wire_bytes);
  }
}

void MessageBus::on_rejected(std::uint64_t wire_bytes) {
  ++rejected_;
  // dhtidx-lint: allow(ledger-discipline) "bus-private wire ledger, see record_lost"
  measured_.rejected.record(wire_bytes);
}

void MessageBus::discard_duplicate(std::uint64_t wire_bytes) {
  ++duplicates_;
  // dhtidx-lint: allow(ledger-discipline) "bus-private wire ledger, see record_lost"
  measured_.duplicates.record(wire_bytes);
}

void MessageBus::backoff(std::size_t round) {
  if (round == 0) return;
  // Exponential per kRetryPolicy, capped at 32x so a deep retransmission
  // budget cannot dominate the virtual clock (and thus convergence times).
  const double cap = kRetryPolicy.backoff_ms * 32.0;
  double wait = kRetryPolicy.backoff_ms;
  for (std::size_t i = 1; i < round && wait < cap; ++i) {
    wait *= kRetryPolicy.backoff_multiplier;
  }
  transport_.wait(std::min(wait, cap));
}

void MessageBus::account(const Message& message, std::uint64_t wire_bytes) {
  // Acks and pings are pure overhead, kin to substrate routing.
  if (message.context == Context::kAck || message.action == Action::kPing) {
    // dhtidx-lint: allow(ledger-discipline) "measured_ is the bus's private wire ledger (see record_lost); every write in this function shares that contract"
    measured_.routing.record(wire_bytes);
    return;
  }
  switch (message.action) {
    case Action::kShortcut:
      // dhtidx-lint: allow(ledger-discipline) "bus-private wire ledger, see record_lost"
      measured_.cache.record(wire_bytes);
      return;
    case Action::kPublish:
    case Action::kReplicate:
    case Action::kRepair:
    case Action::kStore:
      // dhtidx-lint: allow(ledger-discipline) "bus-private wire ledger, see record_lost"
      measured_.maintenance.record(wire_bytes);
      return;
    default:
      break;
  }
  if (message.context == Context::kRequest) {
    // dhtidx-lint: allow(ledger-discipline) "bus-private wire ledger, see record_lost"
    measured_.queries.record(wire_bytes);
  } else {
    // dhtidx-lint: allow(ledger-discipline) "bus-private wire ledger, see record_lost"
    measured_.responses.record(wire_bytes);
  }
}

}  // namespace dhtidx::net
