#include "host_clock.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

HostClock::HostClock(std::size_t cpus) {
  const long ticks = ::sysconf(_SC_CLK_TCK);
  seconds_per_tick_ = ticks > 0 ? 1.0 / static_cast<double>(ticks) : 0.01;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && cpus_.size() < std::max<std::size_t>(cpus, 1);
       --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
  std::sort(cpus_.begin(), cpus_.end());
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (const int cpu : cpus_) CPU_SET(cpu, &pinned);
  if (::sched_setaffinity(0, sizeof pinned, &pinned) != 0) cpus_.clear();
}

HostClock::Reading HostClock::now() const {
  Reading reading;
  reading.wall = std::chrono::steady_clock::now();
  reading.steal_s.assign(cpus_.size(), 0.0);
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return reading;
  // Lines "cpuN user nice system idle iowait irq softirq steal ...".
  char line[512];
  while (std::fgets(line, sizeof line, stat) != nullptr) {
    if (std::strncmp(line, "cpu", 3) != 0) break;
    char* cursor = line + 3;
    if (*cursor < '0' || *cursor > '9') continue;  // the all-CPU line
    const long cpu = std::strtol(cursor, &cursor, 10);
    const auto at = std::lower_bound(cpus_.begin(), cpus_.end(), static_cast<int>(cpu));
    if (at == cpus_.end() || *at != cpu) continue;
    unsigned long long steal_ticks = 0;
    for (int i = 0; i < 8; ++i) steal_ticks = std::strtoull(cursor, &cursor, 10);
    reading.steal_s[static_cast<std::size_t>(at - cpus_.begin())] =
        static_cast<double>(steal_ticks) * seconds_per_tick_;
  }
  std::fclose(stat);
  return reading;
}

double HostClock::wall_seconds(const Reading& from, const Reading& to) {
  return std::chrono::duration<double>(to.wall - from.wall).count();
}

double HostClock::run_seconds(const Reading& from, const Reading& to) const {
  double steal = 0.0;
  for (std::size_t i = 0; i < from.steal_s.size() && i < to.steal_s.size(); ++i) {
    steal = std::max(steal, to.steal_s[i] - from.steal_s[i]);
  }
  return std::max(wall_seconds(from, to) - steal, 0.0);
}

}  // namespace perfbench
