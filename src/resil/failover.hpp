// everest/resil/failover.hpp
//
// Device failover for kernel launches: try a device under a retry policy;
// if its attempt budget is exhausted (or its circuit breaker is open)
// re-place the work on the next device of the group. This is the
// PCIe-vs-network trade-off of the EVEREST design environment made
// operational: work migrates across the devices that remain healthy. When
// every device fails the launch fails; the host-CPU path is the caller's
// (the serving layer's backend chain), not the group's.
//
// The group is thread-safe and its membership is dynamic: the serving
// layer's VF elasticity hot-plugs SR-IOV virtual functions in and out of a
// node's replica group at runtime (add_device / remove_last_device), and
// the group rotates the starting device per launch so plugged capacity
// actually spreads load instead of only absorbing failures. Degraded-mode
// accounting is the resil.* counters of the group's recorder.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "platform/xrt.hpp"
#include "resil/policy.hpp"
#include "support/expected.hpp"

namespace everest::resil {

struct FailoverOptions {
  RetryPolicy retry;              // per-device attempt budget
  Deadline deadline;              // per-launch deadline (watchdog abort)
  CircuitBreaker::Options breaker;
};

/// Where and how one launch finally ran.
struct FailoverOutcome {
  double latency_us = 0.0;
  std::string executed_on;  // device name
  int attempts = 0;         // total launch attempts across all devices
  bool degraded = false;    // did not run on the device tried first
};

/// A ring of devices, each behind a circuit breaker. Launch k tries device
/// k mod n first, then fails over through the rest in ring order. Breaker
/// cooldowns run on the group's timeline (the latest clock among its
/// devices), so a shed device is probed again once the others have moved
/// time forward; when every breaker is open the group waits out the shortest
/// cooldown and probes that device. Kernels must already be loaded on every
/// member device. Launches and membership changes serialize on an internal
/// mutex, so the group may be shared by concurrent dispatcher threads.
///
/// Counters (in `recorder`, or a private one when null):
/// resil.failover.runs (launches served off their first device),
/// resil.failover.device_exhausted (a device's attempt budget spent) and
/// resil.breaker.rejected (a device skipped by its open breaker), plus the
/// resil.retry.* counters of with_retry.
class FailoverGroup {
public:
  FailoverGroup(std::vector<platform::Device *> devices,
                FailoverOptions options = {},
                obs::TraceRecorder *recorder = nullptr);

  /// Launches `kernel` on the first healthy device that completes it within
  /// the policy; the last device error when every device fails.
  support::Expected<FailoverOutcome> run(const std::string &kernel,
                                         bool dataflow = false);

  /// Appends a device (fresh closed breaker) to the replica ring. The
  /// caller keeps ownership and must have loaded the kernels already.
  void add_device(platform::Device *device);
  /// Removes the most recently added device from the ring and returns it so
  /// the owner can unplug it. Fails when it would empty the group. Safe
  /// against in-flight launches: removal holds the same lock launches do.
  support::Expected<platform::Device *> remove_last_device();

  [[nodiscard]] CircuitBreaker::State breaker_state(std::size_t i) const;

private:
  mutable std::mutex mu_;
  std::vector<platform::Device *> devices_;
  std::vector<CircuitBreaker> breakers_;
  FailoverOptions options_;
  std::unique_ptr<obs::TraceRecorder> own_recorder_;  // when none was given
  obs::TraceRecorder *recorder_;
  std::size_t next_start_ = 0;  // rotation cursor
};

}  // namespace everest::resil
