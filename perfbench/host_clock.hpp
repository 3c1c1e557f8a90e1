// Run time on a shared virtual machine: wall time less the host's steal time.
//
// On a KVM guest the hypervisor also runs other guests on this guest's CPUs.
// While it does, a runnable thread makes no progress but the wall clock runs
// on; the guest kernel counts that time per CPU as "steal" (/proc/stat). On
// a busy host the steal a phase suffers changes from minute to minute, and
// it moved the wall time of one fixed loop by up to 56% (NOTES.md). So the
// benchmark pins itself to as many CPUs as its workload runs threads (the
// library's worker threads inherit the mask) and times every phase as its
// wall time less the largest steal any pinned CPU suffered over it: the
// benchmark's two-thread phases end when both threads are done, so the
// thread that lost the most time sets the end. Where /proc/stat has no steal
// figures, run time is wall time.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

namespace perfbench {

class HostClock {
 public:
  struct Reading {
    std::chrono::steady_clock::time_point wall;
    std::vector<double> steal_s;  ///< steal so far of each pinned CPU, in cpus() order
  };

  /// Pins the calling thread, and so every thread it starts later, to
  /// `cpus` of the CPUs it may run on: the highest-numbered ones, away from
  /// CPU 0, which takes most interrupts. Call before starting any thread.
  explicit HostClock(std::size_t cpus);

  Reading now() const;

  static double wall_seconds(const Reading& from, const Reading& to);

  /// Wall seconds from `from` to `to` less the largest steal a pinned CPU
  /// suffered between them.
  double run_seconds(const Reading& from, const Reading& to) const;

  const std::vector<int>& cpus() const { return cpus_; }

 private:
  std::vector<int> cpus_;
  double seconds_per_tick_;
};

}  // namespace perfbench
