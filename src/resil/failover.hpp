// everest/resil/failover.hpp
//
// Device failover for kernel launches: try the primary device under a retry
// policy; if its attempt budget is exhausted (or its circuit breaker is
// open) re-place the work on a backup device, and as a last resort fall
// back to a host-CPU execution estimate with degraded-mode accounting.
// This is the PCIe-vs-network trade-off of the EVEREST design environment
// made operational: work migrates across the devices that remain healthy.
//
// The group is thread-safe and its membership is dynamic: the serving
// layer's VF elasticity hot-plugs SR-IOV virtual functions in and out of a
// node's replica group at runtime (add_device / remove_last_device), and
// Placement::RoundRobin rotates the starting replica per launch so plugged
// capacity actually spreads load instead of only absorbing failures.
#pragma once

#include <cstdint>
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
  double host_fallback_us = -1.0; // host-CPU estimate; < 0 disables fallback
  /// How the group picks the device that a launch tries first. PrimaryFirst
  /// is the classic primary + ordered backups; RoundRobin rotates the start
  /// index per launch (replica load balancing), still failing over through
  /// the remaining devices in ring order.
  enum class Placement { PrimaryFirst, RoundRobin };
  Placement placement = Placement::PrimaryFirst;
};

/// Where and how one launch finally ran.
struct FailoverOutcome {
  double latency_us = 0.0;
  std::string executed_on;  // device name, or "host-cpu"
  int attempts = 0;         // total launch attempts across all devices
  bool degraded = false;    // did not run on the device tried first
};

/// Cumulative degraded-mode accounting.
struct FailoverStats {
  std::int64_t primary_runs = 0;
  std::int64_t failover_runs = 0;
  std::int64_t host_fallback_runs = 0;
  std::int64_t breaker_rejections = 0;
};

/// A primary device plus ordered backups, each behind a circuit breaker.
/// Breaker cooldowns run on the group's timeline (the latest clock among its
/// devices), so a shed device is probed again once the others have moved
/// time forward; when every breaker is open the group waits out the shortest
/// cooldown and probes that device. Kernels must already be loaded on every
/// member device. Launches, stats reads, and membership changes serialize on
/// an internal mutex, so the group may be shared by concurrent dispatcher
/// threads.
class FailoverGroup {
public:
  FailoverGroup(std::vector<platform::Device *> devices,
                FailoverOptions options = {},
                obs::TraceRecorder *recorder = nullptr);

  /// Launches `kernel` on the first healthy device that completes it within
  /// the policy, falling back to the host estimate when every device fails.
  support::Expected<FailoverOutcome> run(const std::string &kernel,
                                         bool dataflow = false);

  /// Appends a device (fresh closed breaker) to the replica ring. The
  /// caller keeps ownership and must have loaded the kernels already.
  void add_device(platform::Device *device);
  /// Removes the most recently added device from the ring and returns it so
  /// the owner can unplug it. Fails when it would empty the group. Safe
  /// against in-flight launches: removal holds the same lock launches do.
  support::Expected<platform::Device *> remove_last_device();

  [[nodiscard]] FailoverStats stats() const;
  [[nodiscard]] CircuitBreaker::State breaker_state(std::size_t i) const;

private:
  mutable std::mutex mu_;
  std::vector<platform::Device *> devices_;
  std::vector<CircuitBreaker> breakers_;
  FailoverOptions options_;
  obs::TraceRecorder *recorder_;
  FailoverStats stats_;
  std::size_t next_start_ = 0;  // RoundRobin rotation cursor
};

}  // namespace everest::resil
