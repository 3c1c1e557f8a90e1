// Process memory high-water mark, and the heap bytes in use.
//
// The scale-frontier experiments budget bytes/node and bytes/article, which
// needs the real allocator footprint, not just the logical byte counters the
// index and store maintain. peak_rss_bytes() reports the process-wide
// resident-set high-water mark: monotone over the process lifetime, so a
// reading taken at the end of a run bounds everything the run ever held live
// at once (benches that compare cells run them smallest-first for this
// reason).
#pragma once

#include <cstdint>

namespace dhtidx {

/// Peak resident set size of the calling process in bytes, or 0 when the
/// platform provides no way to read it (the portable fallback: callers must
/// treat 0 as "unavailable", never as "no memory used").
std::uint64_t peak_rss_bytes();

/// Bytes the allocator has handed out and not yet taken back, over every
/// arena (glibc's mallinfo2().uordblks), or 0 where that is not available.
/// Unlike the RSS watermark it falls when memory is freed, so a difference
/// of two readings prices what one phase left allocated.
std::uint64_t heap_in_use_bytes();

}  // namespace dhtidx
