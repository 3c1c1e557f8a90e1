// Deterministic network chaos injection.
//
// ChaosInjector generalizes FailureInjector from "crash + Bernoulli drop"
// into the full adversary a real deployment faces: per-frame drop, duplicate,
// reorder, delay and bit-corruption at the EventQueueTransport delivery
// queue, plus asymmetric partitions that also fail service-level deliveries.
// Everything is scripted or probabilistic from one seeded Rng, and the
// injector draws ZERO random numbers while its frame-fault profile is
// disabled, so wiring a ChaosInjector into an existing churn run leaves the
// shared random stream — and therefore every golden sweep JSON — untouched.
//
// Two planes:
//
//   * Delivery plane (inherited FailureInjector API): crash/recover,
//     scripted per-target failures, the drop coin, and — new here —
//     partitions. check_delivery() is what the index/storage retry loops
//     consult, so a partitioned node triggers the same replica failover as a
//     crashed one, but heals via heal() instead of recover().
//
//   * Frame plane (new): the EventQueueTransport asks plan_frame() what to do
//     with each encoded frame. Duplication/reordering/delay act on the
//     delivery queue (extra virtual latency makes frames overtake each
//     other); corruption mutates the encoded bytes so the codec's typed
//     rejection paths run end-to-end. Corruption always hits the detectable
//     header region (magic/version): the codec carries no checksum, so an
//     arbitrary payload flip could decode into a *different valid message*
//     and silently corrupt state — the simulator models the detectable class
//     and documents the limitation (DESIGN.md §14).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/id.hpp"
#include "common/rng.hpp"
#include "net/failure.hpp"

namespace dhtidx::net {

/// One adversarial action applied to a single frame in flight.
enum class FrameFault : std::uint8_t {
  kNone = 0,
  kDrop,       ///< the frame vanishes on the wire
  kDuplicate,  ///< a second identical copy is queued
  kReorder,    ///< seeded jitter delay, letting later frames overtake
  kDelay,      ///< fixed extra virtual latency (a slow link episode)
  kCorrupt,    ///< bit flips on the encoded bytes (typed codec rejection)
};

inline constexpr std::size_t kFrameFaultCount = 6;

const char* to_string(FrameFault fault);

/// What the transport should do with one frame.
struct FramePlan {
  FrameFault fault = FrameFault::kNone;
  double extra_delay_ms = 0.0;  ///< for kDelay/kReorder
};

/// Probabilistic per-frame fault mix. The coins are flipped in a fixed order
/// (drop, corrupt, duplicate, delay, reorder) and the first hit wins, so a
/// frame suffers at most one fault and replays are bit-identical for a fixed
/// seed. All-zero probabilities (the default) mean plan_frame() draws
/// nothing at all. How late a delayed or reordered frame arrives is
/// ChaosInjector's constant (kDelayMs, kReorderWindowMs).
struct ChaosProfile {
  double drop_probability = 0.0;
  double corrupt_probability = 0.0;
  double duplicate_probability = 0.0;
  double delay_probability = 0.0;
  double reorder_probability = 0.0;

  bool enabled() const {
    return drop_probability > 0.0 || corrupt_probability > 0.0 ||
           duplicate_probability > 0.0 || delay_probability > 0.0 ||
           reorder_probability > 0.0;
  }
};

/// Seeded adversary for the message layer. See the file comment for the two
/// planes; one ChaosInjector serves both so a single seed replays the whole
/// fault schedule.
class ChaosInjector : public FailureInjector {
 public:
  /// Extra virtual latency of a delayed frame (a slow-link episode).
  static constexpr double kDelayMs = 25.0;
  /// A reordered frame's jitter is drawn uniformly from [0, kReorderWindowMs).
  static constexpr double kReorderWindowMs = 8.0;

  /// The delivery-plane coin stream is seeded exactly like the base
  /// FailureInjector (golden churn runs replay unchanged); the frame plane
  /// draws from an independently derived stream so enabling frame faults
  /// never perturbs delivery-plane draws.
  explicit ChaosInjector(std::uint64_t seed = 0xc4a05, double drop_probability = 0.0)
      : FailureInjector(seed, drop_probability),
        frame_rng_(mix_seed(seed, 0xF4A9E17ull)) {}

  // --- frame plane -----------------------------------------------------------

  void set_profile(const ChaosProfile& profile) { profile_ = profile; }
  void clear_profile() { profile_ = ChaosProfile{}; }
  const ChaosProfile& profile() const { return profile_; }

  /// Scripts the next `count` frames (any link) to suffer `fault`
  /// deterministically. Scripted faults are consumed before any coin is
  /// flipped and draw no randomness themselves (except kReorder jitter and
  /// kCorrupt flip positions, which come from the frame stream).
  void script_frame_fault(FrameFault fault, std::size_t count = 1) {
    for (std::size_t i = 0; i < count; ++i) scripted_frames_.push_back(fault);
  }

  /// Decides the fate of one frame travelling from → to. Partition blocks
  /// are checked first (no draws), then the scripted queue (no coin draws),
  /// then the probabilistic profile; with partitions clear, no script and a
  /// disabled profile this consumes zero random numbers.
  FramePlan plan_frame(const Id& from, const Id& to);

  /// Applies the planned kCorrupt fault: flips a seeded bit somewhere in the
  /// frame *and* one in the magic/version header so the codec is guaranteed
  /// to reject the frame with a typed CodecError (see file comment).
  void corrupt(std::string& frame);

  std::uint64_t fault_count(FrameFault fault) const {
    return fault_counts_[static_cast<std::size_t>(fault)];
  }
  std::uint64_t dropped_frames() const { return fault_count(FrameFault::kDrop); }
  std::uint64_t duplicated_frames() const { return fault_count(FrameFault::kDuplicate); }
  std::uint64_t reordered_frames() const { return fault_count(FrameFault::kReorder); }
  std::uint64_t delayed_frames() const { return fault_count(FrameFault::kDelay); }
  std::uint64_t corrupted_frames() const { return fault_count(FrameFault::kCorrupt); }

  // --- partitions ------------------------------------------------------------

  /// Installs an asymmetric partition isolating `nodes`: traffic *into* the
  /// set (from any endpoint outside it, including the client) is cut; frames
  /// leaving the set still flow. Deliveries into the set fail with RpcError
  /// through check_delivery(), driving the same replica failover as a crash
  /// — but the nodes keep their disks and heal().
  void install_partition(const std::vector<Id>& nodes) {
    for (const Id& node : nodes) isolated_.insert(node);
  }

  /// Heals the partition.
  void heal() { isolated_.clear(); }

  /// True when the partition cuts the link from → to.
  bool link_blocked(const Id& from, const Id& to) const {
    return !isolated_.empty() && isolated_.contains(to) && !isolated_.contains(from);
  }

  std::size_t partitioned_count() const { return isolated_.size(); }

  /// Delivery plane: a partitioned target fails client-origin deliveries
  /// (all index/storage RPCs originate at the client endpoint, PROTOCOL.md)
  /// before the inherited scripted/crash/drop checks run — RNG-free, so
  /// partition-free runs keep the base class's exact draw sequence.
  void check_delivery(const Id& target) override {
    if (!isolated_.empty() && isolated_.contains(target)) {
      throw RpcError("node " + target.brief() + " is partitioned away");
    }
    FailureInjector::check_delivery(target);
  }

  /// True when every chaos mechanism is off: nothing crashed or partitioned,
  /// no scripted failures or frame faults armed, drop probability zero and
  /// the frame profile disabled. The auditor's post-healing
  /// convergence invariant requires this before it holds the index graph to
  /// converged-world standards.
  bool quiescent() const {
    return crashed_count() == 0 && scripted_count() == 0 &&
           drop_probability() == 0.0 && isolated_.empty() && scripted_frames_.empty() &&
           !profile_.enabled();
  }

 private:
  FrameFault count(FrameFault fault) {
    ++fault_counts_[static_cast<std::size_t>(fault)];
    return fault;
  }

  Rng frame_rng_;
  ChaosProfile profile_;
  std::deque<FrameFault> scripted_frames_;
  std::array<std::uint64_t, kFrameFaultCount> fault_counts_{};
  std::unordered_set<Id, IdHasher> isolated_;
};

}  // namespace dhtidx::net
