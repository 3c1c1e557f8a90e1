#include "net/codec.hpp"

#include <array>
#include <cstring>

namespace dhtidx::net::codec {
namespace {

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u16(std::string& out, std::uint16_t v) {
  put_u8(out, static_cast<std::uint8_t>(v & 0xFF));
  put_u8(out, static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    put_u8(out, static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    put_u8(out, static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

/// Bounds-checked sequential reader over the frame buffer.
class Reader {
 public:
  explicit Reader(std::string_view buffer) : buffer_(buffer) {}

  std::uint8_t u8() {
    need(1, "header");
    return static_cast<std::uint8_t>(buffer_[pos_++]);
  }

  std::uint16_t u16() {
    std::uint16_t v = u8();
    v |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(u8()) << 8);
    return v;
  }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      v |= static_cast<std::uint32_t>(u8()) << shift;
    }
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      v |= static_cast<std::uint64_t>(u8()) << shift;
    }
    return v;
  }

  Id id() {
    need(Id::kBytes, "id");
    std::array<std::uint8_t, Id::kBytes> bytes;
    std::memcpy(bytes.data(), buffer_.data() + pos_, Id::kBytes);
    pos_ += Id::kBytes;
    return Id{bytes};
  }

  std::string bytes(std::size_t n, const char* what) {
    need(n, what);
    std::string out(buffer_.substr(pos_, n));
    pos_ += n;
    return out;
  }

  std::size_t remaining() const { return buffer_.size() - pos_; }

 private:
  void need(std::size_t n, const char* what) {
    if (buffer_.size() - pos_ < n) {
      throw CodecError{CodecError::Kind::kTruncated,
                       std::string("frame truncated reading ") + what};
    }
  }

  std::string_view buffer_;
  std::size_t pos_ = 0;
};

void check_payload_caps(const Message& m) {
  if (m.payload.size() > kMaxPayloadItems) {
    throw CodecError{CodecError::Kind::kOversized,
                     "payload item count exceeds frame cap"};
  }
  for (const std::string& item : m.payload) {
    if (item.size() > kMaxItemBytes) {
      throw CodecError{CodecError::Kind::kOversized,
                       "payload item exceeds frame cap"};
    }
  }
}

}  // namespace

const char* to_string(CodecError::Kind kind) {
  switch (kind) {
    case CodecError::Kind::kTruncated:
      return "truncated";
    case CodecError::Kind::kBadMagic:
      return "bad-magic";
    case CodecError::Kind::kVersionSkew:
      return "version-skew";
    case CodecError::Kind::kBadField:
      return "bad-field";
    case CodecError::Kind::kOversized:
      return "oversized";
    case CodecError::Kind::kTrailingBytes:
      return "trailing-bytes";
  }
  return "?";
}

std::string encode(const Message& m) {
  check_payload_caps(m);
  std::string out;
  out.reserve(encoded_size(m));
  put_u8(out, kMagic0);
  put_u8(out, kMagic1);
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(m.context));
  put_u8(out, static_cast<std::uint8_t>(m.action));
  put_u8(out, static_cast<std::uint8_t>(m.status));
  put_u64(out, m.request_id);
  out.append(reinterpret_cast<const char*>(m.from.bytes().data()), Id::kBytes);
  out.append(reinterpret_cast<const char*>(m.to.bytes().data()), Id::kBytes);
  put_u16(out, static_cast<std::uint16_t>(m.payload.size()));
  for (const std::string& item : m.payload) {
    put_u32(out, static_cast<std::uint32_t>(item.size()));
    out.append(item);
  }
  return out;
}

std::uint64_t encoded_size(const Message& m) {
  std::uint64_t size = kHeaderBytes;
  for (const std::string& item : m.payload) {
    size += kItemOverheadBytes + item.size();
  }
  return size;
}

Message decode(std::string_view buffer) {
  Reader reader{buffer};
  if (reader.u8() != kMagic0 || reader.u8() != kMagic1) {
    throw CodecError{CodecError::Kind::kBadMagic, "not a dhtidx frame"};
  }
  const std::uint8_t version = reader.u8();
  if (version != kWireVersion) {
    throw CodecError{CodecError::Kind::kVersionSkew,
                     "frame version " + std::to_string(version) +
                         ", expected " + std::to_string(kWireVersion)};
  }

  Message m;
  const std::uint8_t context = reader.u8();
  if (context >= kContextCount) {
    throw CodecError{CodecError::Kind::kBadField, "unknown context byte"};
  }
  m.context = static_cast<Context>(context);

  const std::uint8_t action = reader.u8();
  if (action >= kActionCount) {
    throw CodecError{CodecError::Kind::kBadField, "unknown action byte"};
  }
  m.action = static_cast<Action>(action);

  const std::uint8_t status = reader.u8();
  if (status >= kStatusCount) {
    throw CodecError{CodecError::Kind::kBadField, "unknown status byte"};
  }
  m.status = static_cast<Status>(status);

  m.request_id = reader.u64();
  m.from = reader.id();
  m.to = reader.id();

  const std::uint16_t count = reader.u16();
  m.payload.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    const std::uint32_t length = reader.u32();
    if (length > kMaxItemBytes) {
      throw CodecError{CodecError::Kind::kOversized,
                       "payload item length exceeds frame cap"};
    }
    m.payload.push_back(reader.bytes(length, "payload item"));
  }
  if (reader.remaining() != 0) {
    throw CodecError{CodecError::Kind::kTrailingBytes,
                     std::to_string(reader.remaining()) +
                         " trailing bytes after frame"};
  }
  return m;
}

}  // namespace dhtidx::net::codec
