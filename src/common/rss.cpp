#include "common/rss.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__) && (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#include <malloc.h>
#define DHTIDX_HAVE_MALLINFO2 1
#endif

namespace dhtidx {

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  const std::uint64_t max_rss = static_cast<std::uint64_t>(usage.ru_maxrss);
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return max_rss;
#else
  // Linux and the BSDs report ru_maxrss in kilobytes.
  return max_rss * 1024;
#endif
#else
  return 0;
#endif
}

std::uint64_t heap_in_use_bytes() {
#ifdef DHTIDX_HAVE_MALLINFO2
  return mallinfo2().uordblks;
#else
  return 0;
#endif
}

}  // namespace dhtidx
