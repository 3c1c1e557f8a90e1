// Versioned binary wire format for net::Message.
//
// Layout (all integers little-endian, no padding):
//
//   offset  size  field
//   ------  ----  -----
//        0     2  magic 0xD1 0xDC
//        2     1  wire version (kWireVersion)
//        3     1  context (net::Context)
//        4     1  action (net::Action)
//        5     1  status (net::Status)
//        6     8  request_id
//       14    20  from (raw Id bytes)
//       34    20  to (raw Id bytes)
//       54     2  payload item count
//       56   ...  items: u32 length + raw bytes, repeated
//
// Guarantees:
//   * encode(m) then decode() yields a Message equal to m (round trip).
//   * decode() of any byte string either returns a valid Message or throws a
//     CodecError with a specific Kind — truncated, corrupted, or
//     version-skewed input is never undefined behaviour.
//   * encoded_size(m) == encode(m).size() without materializing the buffer,
//     which is what MessageBus::record_lost charges for a frame that never
//     reached the transport.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "net/message.hpp"

namespace dhtidx::net::codec {

/// Current wire format version. Bump on any layout *or semantic* change;
/// decoders reject other versions with CodecError::Kind::kVersionSkew (see
/// PROTOCOL.md). Version 2 keeps the v1 layout byte-for-byte but tightens
/// the request-id contract: ids are monotonically derived per sender, and v2
/// receivers deduplicate non-idempotent applies by id. A v1 peer would
/// double-apply retransmitted frames, so the versions must not interoperate.
inline constexpr std::uint8_t kWireVersion = 2;

/// First two bytes of every frame.
inline constexpr std::uint8_t kMagic0 = 0xD1;
inline constexpr std::uint8_t kMagic1 = 0xDC;

/// Fixed header size in bytes (everything before the payload items).
inline constexpr std::size_t kHeaderBytes = 56;

/// Per-item framing overhead (the u32 length prefix).
inline constexpr std::size_t kItemOverheadBytes = 4;

/// Sanity caps: a frame advertising more is rejected as corrupt rather than
/// triggering a huge allocation.
inline constexpr std::size_t kMaxPayloadItems = 0xFFFF;
inline constexpr std::size_t kMaxItemBytes = 1u << 24;

/// Decoding failure, classified so tests and callers can tell a short read
/// from a foreign or future-versioned frame.
class CodecError : public Error {
 public:
  enum class Kind {
    kTruncated,      // buffer ends before the advertised content
    kBadMagic,       // first two bytes are not a dhtidx frame
    kVersionSkew,    // frame version != kWireVersion
    kBadField,       // context/action/status byte outside the known range
    kOversized,      // advertised item count/length above the sanity caps
    kTrailingBytes,  // well-formed frame followed by extra bytes
  };

  CodecError(Kind kind, const std::string& what)
      : Error("codec: " + what), kind_(kind) {}

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

const char* to_string(CodecError::Kind kind);

/// Serializes `m` into a fresh buffer. Throws CodecError{kOversized} when the
/// payload exceeds the frame caps.
std::string encode(const Message& m);

/// Exact wire size of encode(m), computed without serializing.
std::uint64_t encoded_size(const Message& m);

/// Parses one frame occupying the whole buffer. Throws CodecError on any
/// malformed input.
Message decode(std::string_view buffer);

}  // namespace dhtidx::net::codec
