// Span recorder for the benchmark's traced runs.
//
// A span covers one call the benchmark makes into a layer of the library
// (or, through the decorators in layers.hpp, one call a layer makes into the
// dht or net layer). Each span records its name, start, end, parent and the
// session it belongs to. Spans stay in per-thread buffers while the run is
// timed and are folded (and optionally written out) after every worker
// thread has been joined.
//
// Parents: a span opened while another span is open on the same thread is
// its child. A span opened on a thread with no open span -- a worker thread
// the library starts inside build_streaming_world or feed_streaming_world --
// takes the process-wide ambient parent, which the benchmark sets around
// those calls. Self time is a span's duration minus the union of the
// intervals its children cover, wherever those children ran.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Every span name the benchmark records.
enum class SpanName : std::uint32_t {
  kSetup,           ///< bench.setup: one world build, as setup_s times it
  kPass,            ///< bench.pass: one feed pass, as lookups_per_s times it
  kSimBuild,        ///< sim::build_streaming_world
  kSimFeed,         ///< sim::feed_streaming_world
  kCorpus,          ///< biblio::Corpus::generate
  kRequest,         ///< StreamingWorkload::request_at / QueryGenerator::next
  kResolve,         ///< LookupEngine::resolve
  kIndexFile,       ///< IndexBuilder::index_file
  kDhtLookup,       ///< dht::Dht::lookup (decorator)
  kDhtReplicaSet,   ///< dht::Dht::replica_set (decorator)
  kNetSend,         ///< net::Transport::send (decorator)
  kNetPump,         ///< net::Transport::pump (decorator)
  kNetDispatch,     ///< MessageSink::on_message in front of the bus (forwarder)
  kNetSync,         ///< net::MessageBus::sync
  kCount,
};

inline constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::kCount);

/// One recorded span. `id` is unique in the process and never 0; `parent`
/// is 0 for a root span. Times are steady-clock nanoseconds.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t session = -1;  ///< query index of the session, -1 outside one
  SpanName name = SpanName::kSetup;
  std::uint32_t thread = 0;   ///< index of the recording thread
};

/// Turns recording on for the rest of the process. Spans opened while it is
/// off cost one branch and record nothing.
void enable_tracing();
bool tracing_enabled();

/// Records one span over its own lifetime on the calling thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The span's id (0 when tracing is off).
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_ = 0;
  std::size_t slot_ = 0;
};

/// Makes `parent` the parent of spans opened on threads that have no open
/// span of their own, for the guard's lifetime. Set around library calls
/// that start worker threads.
class AmbientParent {
 public:
  explicit AmbientParent(std::uint64_t parent);
  ~AmbientParent();
  AmbientParent(const AmbientParent&) = delete;
  AmbientParent& operator=(const AmbientParent&) = delete;

 private:
  std::uint64_t previous_;
};

/// Tags the spans the calling thread opens with `session` for the guard's
/// lifetime.
class SessionScope {
 public:
  explicit SessionScope(std::int64_t session);
  ~SessionScope();
  SessionScope(const SessionScope&) = delete;
  SessionScope& operator=(const SessionScope&) = delete;

 private:
  std::int64_t previous_;
};

/// Every span recorded since the last call, thread by thread, emptying the
/// per-thread buffers as it goes (so the spans are held once, not twice).
/// Call only when no span is open and every recording thread has been
/// joined or is idle.
std::vector<Span> take_spans();

/// Writes `spans` as fixed-size little-endian records (the Span layout
/// above, 48 bytes each) after an 8-byte "dhtspan1" magic. Returns false
/// when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span. `spans` may come from any number of
/// threads; a parent id not found among them makes that span a root.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Per-name totals over a span set.
struct NameTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;  ///< summed durations
  std::int64_t self_ns = 0;   ///< summed self times
};
std::array<NameTotals, kSpanNames> fold_by_name(const std::vector<Span>& spans);

/// Median cost, in nanoseconds, of opening and closing one span on this
/// machine (recording must be enabled). Measures `samples` spans and then
/// discards them from the calling thread's buffer.
double span_cost_ns(std::size_t samples);

}  // namespace perfbench
