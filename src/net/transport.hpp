// Message transport.
//
// A Transport moves Messages from sender to receiver and reports the wire
// size of each frame. send() only queues: nothing reaches the sink before
// pump(), so a caller's state is settled before any delivery runs.
//
// EventQueueTransport is the one implementation, a deterministic
// discrete-event queue. send() encodes the frame and schedules it one
// constant hop delay (1 ms) later; pump() delivers queued frames in
// (deliver_at, sequence) order, decoding each one, so every delivered message
// has survived a real round trip. Because the hop delay is constant, the
// delivery order equals send order unless chaos delays a frame. Every frame
// is encoded on its own and queued alone, so chaos faults act on single
// frames.
//
// Transports know nothing about RPC semantics; pairing requests with
// responses and accounting bytes into a TrafficLedger is the MessageBus's job
// (bus.hpp).
#pragma once

#include <cstdint>
#include <queue>
#include <string>

#include "net/message.hpp"

namespace dhtidx::net {

class ChaosInjector;

/// Receives delivered messages together with their wire size in bytes.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void on_message(const Message& message, std::uint64_t wire_bytes) = 0;

  /// A frame arrived but the codec rejected it (corruption, version skew).
  /// Default: ignore — only accounting layers care.
  virtual void on_rejected(std::uint64_t wire_bytes) { (void)wire_bytes; }
};

/// Common transport interface. send() returns the frame's wire size so the
/// caller can account bytes even before delivery happens.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual const char* name() const = 0;

  /// Queues one message for delivery by a later pump(); never delivers
  /// from inside the call. Returns its wire size.
  virtual std::uint64_t send(const Message& message) = 0;

  /// Delivers every message currently queued (and any sent during delivery).
  virtual void pump() = 0;

  /// True when nothing is in flight.
  virtual bool idle() const = 0;

  /// Lets protocol layers charge wall-free waiting (retransmission backoff)
  /// to the transport's notion of time. Virtual-time transports advance
  /// their clock; the default ignores it.
  virtual void wait(double ms) { (void)ms; }

  void set_sink(MessageSink* sink) { sink_ = sink; }

 protected:
  MessageSink* sink_ = nullptr;
};

/// Deterministic discrete-event transport. Virtual time only: the clock
/// advances to each frame's delivery instant as pump() drains the queue.
class EventQueueTransport : public Transport {
 public:
  /// Virtual latency of every frame. Constant, so the delivery order is
  /// exactly the send order (FIFO) unless chaos delays a frame.
  static constexpr double kHopDelayMs = 1.0;

  const char* name() const override { return "event-queue"; }

  std::uint64_t send(const Message& message) override;
  void pump() override;
  bool idle() const override { return queue_.empty(); }

  double clock_ms() const { return clock_ms_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t rejected() const { return rejected_; }

  /// Advances virtual time without delivering anything: queued frames keep
  /// their schedule, so waiting can make in-flight frames "arrive" on the
  /// next pump. Used by the bus to charge retransmission backoff.
  void wait(double ms) override {
    if (ms > 0.0) clock_ms_ += ms;
  }

  /// Attaches the chaos adversary consulted on every send (nullptr: none).
  void set_chaos(ChaosInjector* chaos) { chaos_ = chaos; }

  /// Deterministic fingerprint of the delivery history: a 64-bit rolling
  /// hash (mix_seed) of the sequence numbers in the order frames left the
  /// queue, rejected frames included. Two runs with the same seed and
  /// configuration must produce equal values. Constant memory, however long
  /// the run.
  std::uint64_t delivery_fingerprint() const { return fingerprint_; }

 private:
  struct PendingFrame {
    double deliver_at_ms;
    std::uint64_t sequence;
    std::string frame;

    // Min-heap on (deliver_at, sequence): std::priority_queue keeps the
    // *largest* element on top, so "greater" here means "delivered later".
    bool operator<(const PendingFrame& other) const {
      if (deliver_at_ms != other.deliver_at_ms) {
        return deliver_at_ms > other.deliver_at_ms;
      }
      return sequence > other.sequence;
    }
  };

  double clock_ms_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t rejected_ = 0;
  std::priority_queue<PendingFrame> queue_;
  std::uint64_t fingerprint_ = 0;
  ChaosInjector* chaos_ = nullptr;
};

}  // namespace dhtidx::net
