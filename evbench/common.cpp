#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace evbench {

const std::vector<MetricSpec> &end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "wall", ""},
      {"peak_rss_mb", "MB", "wall", ""},
      {"throughput_per_s", "1/s", "wall", ""},
      {"latency_p50_ms", "ms", "wall", ""},
  };
  return specs;
}

const std::vector<MetricSpec> &per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      // compile: CompileResult::timings, mean per compiled kernel (sweep).
      {"frontend.parse_ms", "ms", "wall", "throughput_per_s"},
      {"transforms.lower_teil_ms", "ms", "wall", "throughput_per_s"},
      {"transforms.canonicalize_ms", "ms", "wall", "throughput_per_s"},
      {"transforms.esn_reorder_ms", "ms", "wall", "throughput_per_s"},
      {"transforms.lower_loops_ms", "ms", "wall", "throughput_per_s"},
      {"transforms.base2_ms", "ms", "wall", "throughput_per_s"},
      {"hls.schedule_ms", "ms", "wall", "throughput_per_s"},
      {"olympus.estimate_ms", "ms", "wall", "throughput_per_s"},
      {"olympus.generate_ms", "ms", "wall", "throughput_per_s"},
      // compile: cache, pool and IR size.
      {"sdk.cache_lookup_ms", "ms", "wall", "latency_p50_ms"},
      {"sdk.cache_hit_ratio", "ratio", "none", "latency_p50_ms"},
      {"sdk.pass_cache_hit_ratio", "ratio", "none", "latency_p50_ms"},
      {"sdk.pool_efficiency", "ratio", "none", "throughput_per_s"},
      {"ir.loop_ops", "count", "none", "throughput_per_s"},
      {"sdk.allocs_per_kernel", "count", "none", "throughput_per_s"},
      // hpcc_n128: replayed harness calls, mean per suite.
      {"hpcc.compile_ms", "ms", "wall", "latency_p50_ms"},
      {"transforms.validate_ms", "ms", "wall", "latency_p50_ms"},
      {"platform.deploy_ms", "ms", "wall", "latency_p50_ms"},
      {"hpcc.host_ref_ms", "ms", "wall", "latency_p50_ms"},
      {"hpcc.stream.run_ms", "ms", "wall", "latency_p50_ms"},
      {"hpcc.gemm.run_ms", "ms", "wall", "latency_p50_ms"},
      {"hpcc.ptrans.run_ms", "ms", "wall", "latency_p50_ms"},
      {"hpcc.fft.run_ms", "ms", "wall", "latency_p50_ms"},
      {"hpcc.randomaccess.run_ms", "ms", "wall", "latency_p50_ms"},
      {"hpcc.linpack.run_ms", "ms", "wall", "latency_p50_ms"},
      {"hpcc.b_eff.run_ms", "ms", "wall", "latency_p50_ms"},
      {"platform.stream.device_sim_us", "sim_us", "sim", "platform.device_sim_us_geomean"},
      {"platform.gemm.device_sim_us", "sim_us", "sim", "platform.device_sim_us_geomean"},
      {"platform.ptrans.device_sim_us", "sim_us", "sim", "platform.device_sim_us_geomean"},
      {"platform.fft.device_sim_us", "sim_us", "sim", "platform.device_sim_us_geomean"},
      {"platform.randomaccess.device_sim_us", "sim_us", "sim", "platform.device_sim_us_geomean"},
      {"platform.linpack.device_sim_us", "sim_us", "sim", "platform.device_sim_us_geomean"},
      {"platform.b_eff.device_sim_us", "sim_us", "sim", "platform.device_sim_us_geomean"},
      {"platform.device_sim_us_geomean", "sim_us", "sim", "none (simulated device time of the generated code)"},
      // serve_*: the nominal rung, unless named per rung.
      {"serve.submit_us.p50", "us", "wall", "throughput_per_s"},
      {"serve.submit_us.p99", "us", "wall", "throughput_per_s"},
      {"serve.queue_wait_us.p50", "us", "wall", "bench.traced_p99_ms"},
      {"serve.queue_wait_us.p99", "us", "wall", "bench.traced_p99_ms"},
      {"serve.batch_exec_us.p50", "us", "wall", "latency_p50_ms"},
      {"serve.batch_exec_us.p99", "us", "wall", "throughput_per_s"},
      {"serve.batch_size_mean", "count", "none", "latency_p50_ms"},
      {"serve.forwarded_ratio", "ratio", "none", "bench.traced_p99_ms"},
      {"runtime.host_us_per_req", "us", "wall", "latency_p50_ms"},
      {"runtime.candidates_us", "us", "wall", "latency_p50_ms"},
      {"runtime.emission_score_us", "us", "wall", "latency_p50_ms"},
      {"runtime.greedy_pick_us", "us", "wall", "latency_p50_ms"},
      {"runtime.viterbi_step_us", "us", "wall", "latency_p50_ms"},
      {"runtime.decode_us", "us", "wall", "latency_p50_ms"},
      {"runtime.normalize_us", "us", "wall", "latency_p50_ms"},
      {"runtime.mix_us", "us", "wall", "latency_p50_ms"},
      {"runtime.clip_us", "us", "wall", "latency_p50_ms"},
      {"runtime.rescale_us", "us", "wall", "latency_p50_ms"},
      {"platform.device_busy_us", "sim_us", "sim", "none (simulated; no wall-clock effect expected)"},
      {"obs.events_retained", "count", "none", "peak_rss_mb"},
      {"serve.gen_late_ms", "ms", "wall", "bench.traced_p99_ms"},
      {"serve.rung1.p99_us", "us", "wall", "serve.max_rate_rps"},
      {"serve.rung2.p99_us", "us", "wall", "serve.max_rate_rps"},
      {"serve.rung3.p99_us", "us", "wall", "serve.max_rate_rps"},
      {"serve.rung4.p99_us", "us", "wall", "serve.max_rate_rps"},
      {"serve.allocs_per_req", "count", "none", "latency_p50_ms"},
      {"serve.max_rate_rps", "1/s", "wall", "throughput_per_s"},
      // every workload: the end-to-end median measured under tracing; minus
      // the untraced latency_p50_ms it is the tracing overhead.
      {"bench.traced_p50_ms", "ms", "wall", "none (tracing overhead)"},
      // every workload: the p99 of the same operations. Scheduling stalls
      // of a shared host make it too unsteady to bound end to end.
      {"bench.traced_p99_ms", "ms", "wall", "none (unbounded tail)"},
  };
  return specs;
}

void Report::set_setup(const std::vector<double> &samples) {
  std::string line = "setup samples (ms):";
  for (double s : samples) line += " " + fmt("%.3f", s * 1e3);
  note(line);
  set("setup_s", median(samples));
}

void Report::fail(const std::string &what) {
  correct = false;
  ++failed;
  note("FAIL: " + what);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  if (rank < 1) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

double mean(const std::vector<double> &values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double geomean(const std::vector<double> &values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt(const char *pattern, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, pattern, value);
  return buf;
}

}  // namespace evbench
