#include "net/transport.hpp"

#include <string>
#include <utility>

#include "common/rng.hpp"
#include "net/chaos.hpp"
#include "net/codec.hpp"

namespace dhtidx::net {

std::uint64_t EventQueueTransport::send(const Message& message) {
  std::string frame = codec::encode(message);
  const std::uint64_t wire_bytes = frame.size();
  double deliver_at_ms = clock_ms_ + kHopDelayMs;
  if (chaos_ != nullptr) {
    const FramePlan plan = chaos_->plan_frame(message.from, message.to);
    switch (plan.fault) {
      case FrameFault::kDrop:
        // The frame vanishes on the wire. The sender still paid for it, so
        // the wire size is returned as usual.
        return wire_bytes;
      case FrameFault::kCorrupt:
        chaos_->corrupt(frame);
        break;
      case FrameFault::kDuplicate:
        queue_.push(PendingFrame{deliver_at_ms, next_sequence_++, frame});
        break;
      case FrameFault::kDelay:
      case FrameFault::kReorder:
        deliver_at_ms += plan.extra_delay_ms;
        break;
      case FrameFault::kNone:
        break;
    }
  }
  queue_.push(PendingFrame{deliver_at_ms, next_sequence_++, std::move(frame)});
  return wire_bytes;
}

void EventQueueTransport::pump() {
  while (!queue_.empty()) {
    // Move out before popping: the sink may send() re-entrantly, and the
    // queue must not hold a popped-but-live reference meanwhile. Moving
    // leaves the heap node's ordering keys intact, so pop() re-heapifies
    // correctly, and the buffer changes hands without a copy.
    PendingFrame next = std::move(const_cast<PendingFrame&>(queue_.top()));
    queue_.pop();
    if (next.deliver_at_ms > clock_ms_) {
      clock_ms_ = next.deliver_at_ms;
    }
    // A damaged frame still consumed the wire and its delivery slot, so the
    // fingerprint counts it, but its payload never reaches the sink.
    fingerprint_ = mix_seed(fingerprint_, next.sequence);
    Message message;
    try {
      message = codec::decode(next.frame);
    } catch (const codec::CodecError&) {
      ++rejected_;
      if (sink_ != nullptr) {
        sink_->on_rejected(next.frame.size());
      }
      continue;
    }
    ++delivered_;
    if (sink_ != nullptr) {
      sink_->on_message(message, next.frame.size());
    }
  }
}

}  // namespace dhtidx::net
