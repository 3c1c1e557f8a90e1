#include "net/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "net/codec.hpp"

namespace dhtidx::net {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  // strerror's static buffer is fine here: this throws on the single thread
  // that owns the socket, and the message is copied into the string at once.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  throw TransportError{what + ": " + std::strerror(errno)};
}

sockaddr_in loopback_address(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

UdpTransport::UdpTransport(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    throw_errno("udp socket");
  }
  sockaddr_in addr = loopback_address(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw_errno("udp bind");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw_errno("udp getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void UdpTransport::add_peer(const Id& node, std::uint16_t port) {
  peers_[node] = port;
}

std::uint64_t UdpTransport::send(const Message& message) {
  const auto peer = peers_.find(message.to);
  if (peer == peers_.end()) {
    throw NotFoundError{"udp peer " + message.to.brief()};
  }
  const std::string frame = codec::encode(message);
  const sockaddr_in addr = loopback_address(peer->second);
  const ssize_t sent =
      ::sendto(fd_, frame.data(), frame.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (sent < 0 || static_cast<std::size_t>(sent) != frame.size()) {
    throw_errno("udp sendto");
  }
  return frame.size();
}

void UdpTransport::pump() {
  char buffer[65536];
  for (;;) {
    const ssize_t received = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (received < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      throw_errno("udp recv");
    }
    Message message;
    try {
      message = codec::decode(
          std::string_view{buffer, static_cast<std::size_t>(received)});
    } catch (const codec::CodecError&) {
      // A malformed datagram (foreign sender, corruption) must not kill the
      // pump loop; report it and keep draining.
      if (sink_ != nullptr) {
        sink_->on_rejected(static_cast<std::uint64_t>(received));
      }
      continue;
    }
    if (sink_ != nullptr) {
      sink_->on_message(message, static_cast<std::uint64_t>(received));
    }
  }
}

bool UdpTransport::poll_and_pump(int timeout_ms) {
  // A signal interrupting poll() is not a timeout: retry with whatever part
  // of the budget is left (or forever for a negative/infinite timeout). Real
  // poll() failures surface as a typed TransportError, never as `false`.
  for (;;) {
    const auto started = std::chrono::steady_clock::now();
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) {
        if (timeout_ms > 0) {
          const auto elapsed_ms =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - started)
                  .count();
          timeout_ms = elapsed_ms >= timeout_ms
                           ? 0
                           : timeout_ms - static_cast<int>(elapsed_ms);
        }
        continue;
      }
      throw_errno("udp poll");
    }
    if (ready == 0) {
      return false;
    }
    pump();
    return true;
  }
}

}  // namespace dhtidx::net
