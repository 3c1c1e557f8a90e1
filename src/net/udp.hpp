// UDP loopback transport.
//
// Real datagrams over 127.0.0.1: every frame produced by net::codec is small
// enough for a single datagram (the codec caps payload items; the examples/
// demo keeps frames well under the usual 64 KiB limit). Each endpoint binds
// its own socket; peers are registered Id → port, so `Message::to` selects
// the destination. This transport exists for the end-to-end examples/ demo
// and the loopback round-trip test — simulations use the in-process or
// event-queue transports.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/id.hpp"
#include "net/transport.hpp"

namespace dhtidx::net {

class UdpTransport : public Transport {
 public:
  /// Binds a datagram socket on 127.0.0.1. Port 0 (the default) asks the
  /// kernel for an ephemeral port; read it back with port(). Throws
  /// dhtidx::Error when socket setup fails.
  explicit UdpTransport(std::uint16_t port = 0);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  const char* name() const override { return "udp"; }

  /// The locally bound port.
  std::uint16_t port() const { return port_; }

  /// Registers the destination port for a node id. send() to an unregistered
  /// id throws.
  void add_peer(const Id& node, std::uint16_t port);

  /// Encodes and transmits one datagram to the peer registered for
  /// `message.to`. Returns the frame size.
  std::uint64_t send(const Message& message) override;

  /// Drains every datagram already queued in the kernel (non-blocking).
  void pump() override;

  /// Waits up to `timeout_ms` for at least one datagram, then drains the
  /// queue. Returns false on timeout.
  bool poll_and_pump(int timeout_ms);

  /// The kernel owns the receive queue, so in-flight frames are invisible
  /// here; callers coordinate with poll_and_pump().
  bool idle() const override { return true; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::unordered_map<Id, std::uint16_t, IdHasher> peers_;
};

}  // namespace dhtidx::net
