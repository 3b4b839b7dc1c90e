#include "resil/failover.hpp"

#include <algorithm>
#include <optional>

namespace everest::resil {

using support::Error;
using support::Expected;

FailoverGroup::FailoverGroup(std::vector<platform::Device *> devices,
                             FailoverOptions options,
                             obs::TraceRecorder *recorder)
    : devices_(std::move(devices)),
      options_(std::move(options)),
      own_recorder_(recorder ? nullptr
                             : std::make_unique<obs::TraceRecorder>()),
      recorder_(recorder ? recorder : own_recorder_.get()) {
  breakers_.assign(devices_.size(), CircuitBreaker(options_.breaker));
}

Expected<FailoverOutcome> FailoverGroup::run(const std::string &kernel,
                                             bool dataflow) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = devices_.size();
  if (n == 0) return Error::unavailable("resil: failover group has no devices");
  int attempts = 0;
  const std::size_t start = next_start_++ % n;
  // Breakers run on the group's timeline: the latest clock among its
  // devices. A device's own clock stands still while its open breaker keeps
  // it idle, so judged on that clock the cooldown would never elapse.
  auto timeline_us = [&] {
    double now = 0.0;
    for (const platform::Device *dev : devices_)
      now = std::max(now, dev->now_us());
    return now;
  };
  std::optional<Error> last;
  for (std::size_t i = 0; i <= n; ++i) {
    std::size_t d = (start + i) % n;
    if (i == n) {
      // Every breaker is open, and with nothing launching the timeline would
      // never move: wait out the shortest remaining cooldown on that device
      // and launch there as its half-open probe.
      if (last) break;
      for (std::size_t j = 0; j < n; ++j)
        if (breakers_[j].open_until_us() < breakers_[d].open_until_us()) d = j;
      devices_[d]->host_wait_us(std::max(
          0.0, breakers_[d].open_until_us() - devices_[d]->now_us()));
      breakers_[d].allow(breakers_[d].open_until_us());  // Open -> HalfOpen
    }
    platform::Device &dev = *devices_[d];
    if (!breakers_[d].allow(timeline_us())) {
      recorder_->counter("resil.breaker.rejected").add(1);
      continue;
    }
    auto attempt = [&]() -> Expected<double> {
      ++attempts;
      return dev.run(kernel, dataflow, options_.deadline.deadline_us);
    };
    auto result = with_retry(
        options_.retry, attempt,
        [&](double us) { dev.host_wait_us(us); }, recorder_,
        "run." + dev.spec().name);
    if (result) {
      breakers_[d].on_success();
      // Landing anywhere but the device this launch tried first (the ring
      // start) means the launch was degraded.
      const bool degraded = d != start;
      if (degraded) recorder_->counter("resil.failover.runs").add(1);
      return FailoverOutcome{*result, dev.spec().name, attempts, degraded};
    }
    breakers_[d].on_failure(timeline_us());
    last = result.error();
    recorder_->counter("resil.failover.device_exhausted").add(1);
  }
  return last->with_context("resil: kernel '" + kernel +
                            "' failed on every device in the group");
}

void FailoverGroup::add_device(platform::Device *device) {
  std::lock_guard<std::mutex> lock(mu_);
  devices_.push_back(device);
  breakers_.emplace_back(options_.breaker);
}

Expected<platform::Device *> FailoverGroup::remove_last_device() {
  std::lock_guard<std::mutex> lock(mu_);
  if (devices_.size() <= 1) {
    return Error::unavailable(
        "resil: cannot remove the last device of a failover group");
  }
  platform::Device *device = devices_.back();
  devices_.pop_back();
  breakers_.pop_back();
  if (next_start_ >= devices_.size()) next_start_ = 0;
  return device;
}

CircuitBreaker::State FailoverGroup::breaker_state(std::size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  return breakers_[i].state();
}

}  // namespace everest::resil
