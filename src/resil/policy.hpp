// everest/resil/policy.hpp
//
// Resilience policies for the EVEREST runtime (paper §V-B: the runtime
// "adapts the execution" on the cluster). Everything here is deterministic
// on purpose: backoff jitter is a pure function of (seed, attempt), the
// circuit breaker runs on the simulated clock, and with_retry() advances
// simulated time through a caller-supplied wait hook — so a faulted run is
// exactly reproducible and testable bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "obs/trace.hpp"
#include "support/expected.hpp"

namespace everest::resil {

/// Exponential backoff with deterministic jitter and a bounded attempt
/// budget. backoff_us(n) is a pure function of (policy, n).
struct RetryPolicy {
  int max_attempts = 3;             // total tries, including the first
  double initial_backoff_us = 100.0;
  double backoff_multiplier = 2.0;
  double max_backoff_us = 50'000.0;
  double jitter = 0.2;              // +- fraction of the backoff
  std::uint64_t jitter_seed = 0x5eedULL;

  /// Backoff before retry number `attempt` (attempt >= 1 is the wait after
  /// the attempt-th failure). Deterministic, capped, jittered.
  [[nodiscard]] double backoff_us(int attempt) const;
};

/// An absolute time budget on some clock (simulated device clock or
/// wall clock; the policy does not care which).
struct Deadline {
  double deadline_us = -1.0;  // < 0: no deadline

  [[nodiscard]] bool enabled() const { return deadline_us >= 0.0; }
  [[nodiscard]] bool expired(double now_us) const {
    return enabled() && now_us > deadline_us;
  }
};

/// Per-device health tracker: after `failure_threshold` consecutive
/// failures the breaker opens and rejects work for `open_us` of clock time,
/// then half-opens to let one probe through. Success closes it again.
class CircuitBreaker {
public:
  struct Options {
    int failure_threshold = 3;
    double open_us = 1'000.0;
  };
  enum class State { Closed, Open, HalfOpen };

  CircuitBreaker() = default;
  explicit CircuitBreaker(Options options) : options_(options) {}

  /// Whether a call may proceed at clock time `now_us`. Transitions
  /// Open -> HalfOpen once the cooldown has elapsed.
  bool allow(double now_us);
  void on_success();
  void on_failure(double now_us);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] int consecutive_failures() const { return failures_; }
  /// Clock time at which an open breaker half-opens.
  [[nodiscard]] double open_until_us() const { return open_until_us_; }

private:
  Options options_;
  State state_ = State::Closed;
  int failures_ = 0;
  double open_until_us_ = 0.0;
};

/// Retry + deadline bundle used by the SDK entry points (basecamp
/// deploy_and_run, the CLI's --retry/--deadline-us flags).
struct ExecutionPolicy {
  RetryPolicy retry;
  Deadline deadline;
};

/// Checkpoint configuration for the dfg executor: snapshot fold state and
/// the stream cursor every `interval` elements (0 disables checkpointing,
/// so a mid-fold fault recomputes from the start of the stream).
struct CheckpointSpec {
  std::size_t interval = 0;
};

/// Runs `attempt` (a callable returning Expected<T> or Status) under the
/// retry policy. Retryable failures (Unavailable, DeadlineExceeded) back
/// off through `wait` — pass the device's host_wait_us so backoff advances
/// the simulated clock — and try again up to policy.max_attempts. When a
/// recorder is given, attempts/backoffs/outcomes land on resil.* metrics.
template <typename F>
auto with_retry(const RetryPolicy &policy, F &&attempt,
                const std::function<void(double)> &wait = nullptr,
                obs::TraceRecorder *recorder = nullptr,
                const std::string &op = "op") -> decltype(attempt()) {
  int budget = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int tried = 1;; ++tried) {
    auto result = attempt();
    if (result) {
      if (recorder && tried > 1)
        recorder->counter("resil.retry.recovered").add(1);
      return result;
    }
    const support::Error &err = result.error();
    if (!support::is_retryable(err.code_enum()) || tried >= budget) {
      if (recorder)
        recorder->counter("resil.retry.exhausted." + op).add(1);
      return result;
    }
    double backoff = policy.backoff_us(tried);
    if (recorder) {
      recorder->counter("resil.retry.attempts").add(1);
      recorder->histogram("resil.retry.backoff_us").record(backoff);
    }
    if (wait) wait(backoff);
  }
}

}  // namespace everest::resil
