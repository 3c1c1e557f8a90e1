// Retry policy for RPCs issued against a lossy substrate.
//
// A lookup that hits a dead node or a dropped message should not kill the
// whole session: the caller retries the same replica a bounded number of
// times, then fails over to the next replica. The policy only describes the
// budget and the exponential backoff schedule; the caller owns the loop so it
// can account each failed attempt as retry traffic in the TrafficLedger.
// IndexService adds the backoff up as virtual time (retry_backoff_ms(), a
// simulation result field); the storage layer counts attempts only.
#pragma once

#include <cstddef>

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

}  // namespace dhtidx::net
