// Decorators the traced run attaches at the dht and net layer boundaries.
//
// Each forwards every call unchanged to the object it wraps and records a
// span around it, so outcomes, ledgers and wire bytes stay exactly those of
// the undecorated world (the equivalence tests pin this). Untraced
// runs never construct them.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "dht/dht.hpp"
#include "net/transport.hpp"
#include "trace.hpp"

namespace perfbench {

/// A dht::Dht that counts and times every routing call of the wrapped one.
/// Safe to call from several threads: the counter is atomic and spans go to
/// per-thread buffers.
class TracedDht final : public dhtidx::dht::Dht {
 public:
  explicit TracedDht(dhtidx::dht::Dht& inner) : inner_(inner) {}

  dhtidx::dht::LookupResult lookup(const dhtidx::Id& key) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    const ScopedSpan span{SpanName::kDhtLookup};
    return inner_.lookup(key);
  }

  std::vector<dhtidx::Id> replica_set(const dhtidx::Id& key, std::size_t count) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    const ScopedSpan span{SpanName::kDhtReplicaSet};
    return inner_.replica_set(key, count);
  }

  std::vector<dhtidx::Id> node_ids() const override { return inner_.node_ids(); }
  std::size_t size() const override { return inner_.size(); }

  /// lookup() plus replica_set() calls so far.
  std::uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  dhtidx::dht::Dht& inner_;
  std::atomic<std::uint64_t> calls_{0};
};

/// A net::Transport that times send() (encode plus enqueue or coalesce) and
/// pump() (decode plus queue handling, with dispatch as child spans) of the
/// wrapped transport. The bus sets this object's sink; the wrapped
/// transport's sink must be a DispatchForwarder in front of the bus.
class TracedTransport final : public dhtidx::net::Transport {
 public:
  explicit TracedTransport(dhtidx::net::Transport& inner) : inner_(inner) {}

  const char* name() const override { return inner_.name(); }

  std::uint64_t send(const dhtidx::net::Message& message) override {
    const ScopedSpan span{SpanName::kNetSend};
    return inner_.send(message);
  }

  void pump() override {
    const ScopedSpan span{SpanName::kNetPump};
    inner_.pump();
  }

  bool idle() const override { return inner_.idle(); }
  void wait(double ms) override { inner_.wait(ms); }

 private:
  dhtidx::net::Transport& inner_;
};

/// The wrapped transport's sink: times each delivered frame's dispatch (bus
/// dedup plus serve or apply) and forwards it to the bus.
class DispatchForwarder final : public dhtidx::net::MessageSink {
 public:
  explicit DispatchForwarder(dhtidx::net::MessageSink& bus) : bus_(bus) {}

  void on_message(const dhtidx::net::Message& message, std::uint64_t wire_bytes) override {
    const ScopedSpan span{SpanName::kNetDispatch};
    bus_.on_message(message, wire_bytes);
  }

  void on_rejected(std::uint64_t wire_bytes) override { bus_.on_rejected(wire_bytes); }

 private:
  dhtidx::net::MessageSink& bus_;
};

}  // namespace perfbench
