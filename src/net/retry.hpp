// The retry policy for RPCs issued against a lossy substrate, and the one
// attempt loop that applies it.
//
// A lookup that hits a dead node or a dropped message should not kill the
// whole session: the caller retries the same replica a bounded number of
// times, then fails over to the next replica. Every run uses one policy,
// kRetryPolicy: two attempts per replica, and a 200 ms wait before the retry.
// deliver_with_retries() is the loop that IndexService and DhtStore share. It
// reports each failed attempt to the caller, which charges the attempt as
// retry traffic in its TrafficLedger and records the lost frame on the bus.
// IndexService also adds each reported wait up as virtual time
// (retry_backoff_ms(), a simulation result field); the storage layer counts
// attempts only. The message bus reuses the backoff schedule for its
// timeout-driven retransmissions.
#pragma once

#include <cstddef>

#include "common/id.hpp"
#include "net/failure.hpp"

namespace dhtidx::net {

/// Attempt budget and backoff schedule for one replica.
struct RetryPolicy {
  /// Delivery attempts per replica before failing over (>= 1). The first
  /// attempt is not a retry; a policy of 1 means "no retries".
  std::size_t attempts_per_replica = 2;

  /// Virtual wait before retry k (1-based): backoff_ms * multiplier^(k-1).
  double backoff_ms = 200.0;
  double backoff_multiplier = 2.0;

  /// Backoff charged before the (attempt+1)-th delivery, where `attempt` is
  /// the 1-based attempt that just failed. Zero when no retry follows.
  ///
  /// Schedule: the first retry (attempt == 1) waits exactly backoff_ms — the
  /// multiplier kicks in from the second retry on. Attempt 0 is "nothing has
  /// failed yet" and waits nothing; tests/test_net.cpp pins the whole table.
  double backoff_before_retry(std::size_t attempt) const {
    if (attempt == 0 || attempt >= attempts_per_replica) return 0.0;
    double wait = backoff_ms;
    for (std::size_t i = 1; i < attempt; ++i) wait *= backoff_multiplier;
    return wait;
  }
};

/// The retry policy of every delivery and retransmission.
inline constexpr RetryPolicy kRetryPolicy{};

/// Attempts delivery to `target` under kRetryPolicy and returns true once an
/// attempt gets through. Each failed attempt calls `on_failure(wait_ms)` in
/// attempt order, where `wait_ms` is the backoff before the next attempt (0
/// after the last one). Without an injector every delivery succeeds.
template <typename OnFailure>
bool deliver_with_retries(FailureInjector* failures, const Id& target,
                          OnFailure&& on_failure) {
  if (failures == nullptr) return true;
  for (std::size_t attempt = 1; attempt <= kRetryPolicy.attempts_per_replica; ++attempt) {
    try {
      failures->check_delivery(target);
      return true;
    } catch (const RpcError&) {
      on_failure(kRetryPolicy.backoff_before_retry(attempt));
    }
  }
  return false;
}

}  // namespace dhtidx::net
