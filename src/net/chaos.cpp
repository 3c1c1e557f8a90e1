#include "net/chaos.hpp"

#include "net/codec.hpp"

namespace dhtidx::net {

const char* to_string(FrameFault fault) {
  switch (fault) {
    case FrameFault::kNone:
      return "none";
    case FrameFault::kDrop:
      return "drop";
    case FrameFault::kDuplicate:
      return "duplicate";
    case FrameFault::kReorder:
      return "reorder";
    case FrameFault::kDelay:
      return "delay";
    case FrameFault::kCorrupt:
      return "corrupt";
  }
  return "unknown";
}

FramePlan ChaosInjector::plan_frame(const Id& from, const Id& to) {
  FramePlan plan;
  // Partition blocks are absolute and draw nothing: a cut link loses every
  // frame, there is no coin that saves it.
  if (link_blocked(from, to)) {
    plan.fault = count(FrameFault::kDrop);
    return plan;
  }
  if (!scripted_frames_.empty()) {
    const FrameFault fault = scripted_frames_.front();
    scripted_frames_.pop_front();
    if (fault != FrameFault::kNone) {
      plan.fault = count(fault);
      if (fault == FrameFault::kDelay) plan.extra_delay_ms = kDelayMs;
      if (fault == FrameFault::kReorder) {
        plan.extra_delay_ms = frame_rng_.next_double() * kReorderWindowMs;
      }
    }
    return plan;
  }
  if (!profile_.enabled()) return plan;  // zero draws while disabled
  // Fixed coin order, first hit wins; a knob at probability zero flips no
  // coin, so enabling one fault kind never shifts another kind's stream.
  if (profile_.drop_probability > 0.0 && frame_rng_.next_bool(profile_.drop_probability)) {
    plan.fault = count(FrameFault::kDrop);
    return plan;
  }
  if (profile_.corrupt_probability > 0.0 &&
      frame_rng_.next_bool(profile_.corrupt_probability)) {
    plan.fault = count(FrameFault::kCorrupt);
    return plan;
  }
  if (profile_.duplicate_probability > 0.0 &&
      frame_rng_.next_bool(profile_.duplicate_probability)) {
    plan.fault = count(FrameFault::kDuplicate);
    return plan;
  }
  if (profile_.delay_probability > 0.0 &&
      frame_rng_.next_bool(profile_.delay_probability)) {
    plan.fault = count(FrameFault::kDelay);
    plan.extra_delay_ms = kDelayMs;
    return plan;
  }
  if (profile_.reorder_probability > 0.0 &&
      frame_rng_.next_bool(profile_.reorder_probability)) {
    plan.fault = count(FrameFault::kReorder);
    plan.extra_delay_ms = frame_rng_.next_double() * kReorderWindowMs;
    return plan;
  }
  return plan;
}

void ChaosInjector::corrupt(std::string& frame) {
  if (frame.empty()) return;
  // Flip one seeded bit anywhere in the frame (body corruption), then force a
  // bit in the magic/version prefix so the codec detects the damage with a
  // typed CodecError instead of decoding a different valid message. The codec
  // carries no checksum; see the file comment in chaos.hpp.
  const std::size_t bit = static_cast<std::size_t>(
      frame_rng_.next_below(static_cast<std::uint64_t>(frame.size()) * 8));
  frame[bit / 8] = static_cast<char>(
      static_cast<unsigned char>(frame[bit / 8]) ^ (1u << (bit % 8)));
  const std::size_t header_span = frame.size() < 3 ? frame.size() : 3;
  const std::size_t header_bit = static_cast<std::size_t>(
      frame_rng_.next_below(static_cast<std::uint64_t>(header_span) * 8));
  frame[header_bit / 8] = static_cast<char>(
      static_cast<unsigned char>(frame[header_bit / 8]) ^ (1u << (header_bit % 8)));
  // The forced flip could undo the first one; make sure the prefix really
  // differs from a well-formed header so the rejection is guaranteed.
  if (frame.size() >= 3 && static_cast<unsigned char>(frame[0]) == codec::kMagic0 &&
      static_cast<unsigned char>(frame[1]) == codec::kMagic1 &&
      static_cast<unsigned char>(frame[2]) == codec::kWireVersion) {
    frame[2] = static_cast<char>(static_cast<unsigned char>(frame[2]) ^ 0x80u);
  }
}

}  // namespace dhtidx::net
