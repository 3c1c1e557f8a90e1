#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

namespace perfbench {

namespace {

static_assert(sizeof(Span) == 48, "write_spans documents a 48-byte record");

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<std::size_t> open;  ///< slots of the spans open on this thread
  std::uint32_t index = 0;
  std::int64_t session = -1;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry instance;
  return instance;
}

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_ambient{0};
thread_local ThreadBuffer* t_buffer = nullptr;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The calling thread's buffer, registered on first use. Buffers outlive
/// their threads: the library's worker threads exit long before the fold.
ThreadBuffer& local_buffer() {
  if (t_buffer == nullptr) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock{reg.mutex};
    reg.buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = reg.buffers.back().get();
    t_buffer->index = static_cast<std::uint32_t>(reg.buffers.size() - 1);
    t_buffer->spans.reserve(4096);
  }
  return *t_buffer;
}

}  // namespace

void enable_tracing() { g_enabled.store(true, std::memory_order_relaxed); }

bool tracing_enabled() { return g_enabled.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(SpanName name) {
  if (!tracing_enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  Span span;
  slot_ = buffer.spans.size();
  span.id = (static_cast<std::uint64_t>(buffer.index + 1) << 40) | (slot_ + 1);
  span.parent = buffer.open.empty() ? g_ambient.load(std::memory_order_relaxed)
                                    : buffer.spans[buffer.open.back()].id;
  span.session = buffer.session;
  span.name = name;
  span.thread = buffer.index;
  buffer.spans.push_back(span);
  buffer.open.push_back(slot_);
  id_ = span.id;
  buffer.spans[slot_].start_ns = now_ns();  // last, so bookkeeping is outside
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();  // first, for the same reason
  ThreadBuffer& buffer = *t_buffer;
  buffer.spans[slot_].end_ns = end;
  buffer.open.pop_back();
}

AmbientParent::AmbientParent(std::uint64_t parent)
    : previous_(g_ambient.exchange(parent, std::memory_order_relaxed)) {}

AmbientParent::~AmbientParent() { g_ambient.store(previous_, std::memory_order_relaxed); }

SessionScope::SessionScope(std::int64_t session) : previous_(-1) {
  if (!tracing_enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  previous_ = buffer.session;
  buffer.session = session;
}

SessionScope::~SessionScope() {
  if (t_buffer != nullptr) t_buffer->session = previous_;
}

std::vector<Span> take_spans() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  std::size_t total = 0;
  for (const auto& buffer : reg.buffers) total += buffer->spans.size();
  std::vector<Span> spans;
  spans.reserve(total);
  for (const auto& buffer : reg.buffers) {
    spans.insert(spans.end(), buffer->spans.begin(), buffer->spans.end());
    std::vector<Span>{}.swap(buffer->spans);
  }
  return spans;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  bool ok = std::fwrite("dhtspan1", 1, 8, file) == 8;
  if (ok && !spans.empty()) {
    ok = std::fwrite(spans.data(), sizeof(Span), spans.size(), file) == spans.size();
  }
  return std::fclose(file) == 0 && ok;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  const std::size_t n = spans.size();
  std::vector<std::int64_t> self(n);
  for (std::size_t i = 0; i < n; ++i) self[i] = spans[i].end_ns - spans[i].start_ns;

  std::vector<std::pair<std::uint64_t, std::size_t>> by_id(n);
  for (std::size_t i = 0; i < n; ++i) by_id[i] = {spans[i].id, i};
  std::sort(by_id.begin(), by_id.end());

  // (parent slot, child slot), grouped by parent and ordered by child start.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  edges.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].parent == 0) continue;
    const auto it = std::lower_bound(by_id.begin(), by_id.end(),
                                     std::pair<std::uint64_t, std::size_t>{spans[i].parent, 0});
    if (it == by_id.end() || it->first != spans[i].parent) continue;
    edges.emplace_back(it->second, i);
  }
  std::sort(edges.begin(), edges.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return spans[a.second].start_ns < spans[b.second].start_ns;
  });

  for (std::size_t e = 0; e < edges.size();) {
    const std::size_t parent = edges[e].first;
    const std::int64_t lo = spans[parent].start_ns;
    const std::int64_t hi = spans[parent].end_ns;
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool in_run = false;
    for (; e < edges.size() && edges[e].first == parent; ++e) {
      const Span& child = spans[edges[e].second];
      const std::int64_t start = std::max(child.start_ns, lo);
      const std::int64_t end = std::min(child.end_ns, hi);
      if (end <= start) continue;
      if (in_run && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    self[parent] -= covered;
  }
  return self;
}

std::array<NameTotals, kSpanNames> fold_by_name(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::array<NameTotals, kSpanNames> totals{};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = totals[static_cast<std::size_t>(spans[i].name)];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return totals;
}

double span_cost_ns(std::size_t samples) {
  if (!tracing_enabled()) return 0.0;
  ThreadBuffer& buffer = local_buffer();
  const std::size_t keep = buffer.spans.size();
  constexpr std::size_t kBatch = 1000;
  std::vector<double> per_span;
  for (std::size_t done = 0; done < samples; done += kBatch) {
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < kBatch; ++i) {
      const ScopedSpan span{SpanName::kSetup};
    }
    per_span.push_back(static_cast<double>(now_ns() - start) / kBatch);
    buffer.spans.resize(keep);
  }
  std::sort(per_span.begin(), per_span.end());
  return per_span[per_span.size() / 2];
}

}  // namespace perfbench
