// everest/bench/median_time.hpp
//
// Wall-clock timing for the benches' speed tables: the median over a fixed
// number of repetitions, so one noisy run does not move a printed row.
#pragma once

#include <chrono>
#include <vector>

#include "support/stats.hpp"

namespace everest::bench {

/// Repetitions behind every median_ms row.
inline constexpr int kRepetitions = 9;

/// Median wall time of kRepetitions calls of `fn`, in milliseconds.
template <typename Fn>
double median_ms(Fn &&fn) {
  std::vector<double> ms;
  for (int i = 0; i < kRepetitions; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto stop = std::chrono::steady_clock::now();
    ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return support::median(std::move(ms));
}

}  // namespace everest::bench
