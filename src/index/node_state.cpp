#include "index/node_state.hpp"

#include <algorithm>
#include <functional>

namespace dhtidx::index {

namespace {
const IndexNodeState::SourceEntry kNoEntry{nullptr, {}};
}

std::vector<IndexNodeState::SourceEntry>::iterator IndexNodeState::lower_bound(
    const query::Query* source) {
  return std::ranges::lower_bound(entries_, source, std::less<const query::Query*>{},
                                  &SourceEntry::source);
}

std::vector<IndexNodeState::SourceEntry>::const_iterator IndexNodeState::find_entry(
    const query::Query* source) const {
  const auto it = std::ranges::lower_bound(entries_, source, std::less<const query::Query*>{},
                                           &SourceEntry::source);
  if (it == entries_.end() || it->source != source) return entries_.end();
  return it;
}

std::vector<const IndexNodeState::SourceEntry*> IndexNodeState::entries() const {
  std::vector<const SourceEntry*> view;
  view.reserve(entries_.size());
  for (const SourceEntry& entry : entries_) view.push_back(&entry);
  std::sort(view.begin(), view.end(), [](const SourceEntry* a, const SourceEntry* b) {
    return a->source->canonical() < b->source->canonical();
  });
  return view;
}

bool IndexNodeState::add(const query::Query* s, const query::Query* t, std::uint64_t now) {
  auto it = lower_bound(s);
  const bool inserted = it == entries_.end() || it->source != s;
  if (inserted) {
    it = entries_.insert(it, SourceEntry{s, {}});
  } else {
    auto& targets = it->targets;
    const auto pos = std::find_if(targets.begin(), targets.end(),
                                  [t](const TargetRef& r) { return r.target == t; });
    if (pos != targets.end()) {
      pos->stamp = now;  // republish refreshes
      return false;
    }
  }
  if (inserted) bytes_ += s->byte_size();
  bytes_ += t->byte_size();
  it->target_bytes += t->byte_size();
  it->targets.push_back(TargetRef{t, now, t->signature()});
  ++mapping_count_;
  return true;
}

std::size_t IndexNodeState::expire_older_than(std::uint64_t cutoff) {
  // Collect stale (source, target) pairs first; removal mutates entries_.
  // Storage order is pool-ref order, but neither the count nor what is left
  // depends on the order of the removals.
  std::vector<std::pair<const query::Query*, const query::Query*>> stale;
  for (const SourceEntry& entry : entries_) {
    for (const TargetRef& ref : entry.targets) {
      if (ref.stamp < cutoff) stale.emplace_back(entry.source, ref.target);
    }
  }
  for (const auto& [source, target] : stale) {
    bool unused = false;
    remove(source, target, unused);
  }
  return stale.size();
}

std::optional<std::uint64_t> IndexNodeState::refresh_stamp(
    const query::Query* source, const query::Query* target) const {
  const auto it = find_entry(source);
  if (it == entries_.end()) return std::nullopt;
  const auto pos = std::find_if(it->targets.begin(), it->targets.end(),
                                [target](const TargetRef& r) { return r.target == target; });
  if (pos == it->targets.end()) return std::nullopt;
  return pos->stamp;
}

const IndexNodeState::SourceEntry& IndexNodeState::entry_of(
    const query::Query* source) const {
  const auto it = find_entry(source);
  return it == entries_.end() ? kNoEntry : *it;
}

bool IndexNodeState::has_source(const query::Query* source) const {
  return find_entry(source) != entries_.end();
}

bool IndexNodeState::remove(const query::Query* source, const query::Query* target,
                            bool& source_now_empty) {
  source_now_empty = false;
  const auto it = lower_bound(source);
  if (it == entries_.end() || it->source != source) return false;
  auto& targets = it->targets;
  const auto pos = std::find_if(targets.begin(), targets.end(), [target](const TargetRef& r) {
    return r.target == target;
  });
  if (pos == targets.end()) return false;
  bytes_ -= target->byte_size();
  it->target_bytes -= target->byte_size();
  targets.erase(pos);
  --mapping_count_;
  if (targets.empty()) {
    bytes_ -= source->byte_size();
    entries_.erase(it);
    source_now_empty = true;
  }
  return true;
}

}  // namespace dhtidx::index
