#include "query/interner.hpp"

namespace dhtidx::query {

const Query* QueryInterner::intern_impl(Query&& q) {
  // Writers run in the serial intern phase (or a single-threaded cell): the
  // capability is structural, asserted rather than locked.
  intern_phase_.assert_exclusive();
  const auto it = pool_.find(std::string_view{q.canonical()});
  if (it != pool_.end()) return it->second.get();
  auto owned = std::make_unique<const Query>(std::move(q));
  owned->key();  // pre-warm: interned queries never race on the lazy key
  const Query* interned = owned.get();
  pool_.emplace(std::string_view{interned->canonical()}, std::move(owned));
  return interned;
}

}  // namespace dhtidx::query
