#include "hpcc/hpcc_benchmark.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "transforms/loop_eval.hpp"

#ifndef EVEREST_HPCC_DATA_DIR
#define EVEREST_HPCC_DATA_DIR "tests/data/hpcc"
#endif

namespace everest::hpcc {

using support::Error;
using support::Expected;
using support::Status;

Expected<HpccConfig> parse_hpcc_args(int argc, const char *const *argv) {
  HpccConfig config;
  auto number = [](const std::string &flag, const std::string &text,
                   double &out) -> Status {
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
      return Status::failure("hpcc: bad value '" + text + "' for " + flag,
                             support::ErrorCode::InvalidArgument);
    return Status::ok();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto eq = arg.find('=');
    std::string flag = arg.substr(0, eq);
    std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    double v = 0.0;
    if (flag == "--n") {
      if (auto s = number(flag, value, v); !s.is_ok()) return s.error();
      config.n = static_cast<std::int64_t>(v);
    } else if (flag == "--replications") {
      if (auto s = number(flag, value, v); !s.is_ok()) return s.error();
      config.replications = static_cast<int>(v);
    } else if (flag == "--target") {
      config.target = value;
    } else if (flag == "--format") {
      config.number_format = value;
    } else if (flag == "--data-dir") {
      config.data_dir = value;
    } else if (flag == "--seed") {
      if (auto s = number(flag, value, v); !s.is_ok()) return s.error();
      config.seed = static_cast<std::uint64_t>(v);
    } else if (flag == "--replicas") {
      if (auto s = number(flag, value, v); !s.is_ok()) return s.error();
      config.replicas = static_cast<int>(v);
    } else if (flag == "--tile-bytes") {
      if (auto s = number(flag, value, v); !s.is_ok()) return s.error();
      config.tile_bytes = static_cast<std::int64_t>(v);
    } else if (flag == "--world") {
      if (auto s = number(flag, value, v); !s.is_ok()) return s.error();
      config.beff_world = static_cast<int>(v);
    } else if (flag == "--out") {
      config.out = value;
    } else {
      return Error::invalid_argument("hpcc: unknown flag '" + flag + "'");
    }
  }
  if (config.n < 4)
    return Error::invalid_argument("hpcc: --n must be >= 4");
  if (config.replications < 1)
    return Error::invalid_argument("hpcc: --replications must be >= 1");
  if (config.beff_world < 2)
    return Error::invalid_argument("hpcc: --world must be >= 2");
  return config;
}

double peak_memory_gbps(const platform::DeviceSpec &spec) {
  if (spec.memory.hbm_channels > 0)
    return spec.memory.hbm_channels * spec.memory.hbm_gbps_per_channel;
  return spec.memory.ddr_gbps;
}

double peak_link_gbps(const platform::DeviceSpec &spec) {
  return spec.link.gbps / 8.0;  // LinkSpec carries gigabits/s
}

double network_peak_gbps(const platform::NetworkSpec &net) {
  return net.gbps / 8.0;
}

double max_rel_error(const numerics::Tensor &ref, const numerics::Tensor &got) {
  if (!ref.same_shape(got)) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  auto r = ref.data();
  auto g = got.data();
  for (std::size_t i = 0; i < r.size(); ++i) {
    double scale = std::max(1.0, std::abs(r[i]));
    worst = std::max(worst, std::abs(r[i] - g[i]) / scale);
  }
  return worst;
}

HpccHarness::HpccHarness(HpccConfig config) : config_(std::move(config)) {
  if (config_.data_dir.empty()) config_.data_dir = EVEREST_HPCC_DATA_DIR;
  basecamp_.attach_cache(&cache_);
}

Expected<std::string> HpccHarness::read_kernel(
    const std::string &filename) const {
  std::string path = config_.data_dir + "/" + filename;
  std::ifstream in(path);
  if (!in)
    return Error::not_found("hpcc: cannot read kernel source '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

sdk::CompileOptions HpccHarness::base_options() const {
  sdk::CompileOptions options;
  options.target = config_.target;
  options.number_format = config_.number_format;
  options.olympus.replicas = config_.replicas;
  options.olympus.plm_tile_bytes = config_.tile_bytes;
  return options;
}

Expected<sdk::CompileResult> HpccHarness::compile_kernel(
    const std::string &filename, const transforms::EklBindings &bindings) {
  return compile_kernel(filename, bindings, base_options());
}

Expected<sdk::CompileResult> HpccHarness::compile_kernel(
    const std::string &filename, const transforms::EklBindings &bindings,
    const sdk::CompileOptions &options) {
  auto source = read_kernel(filename);
  if (!source) return source.error();
  auto result = basecamp_.compile_ekl(*source, bindings, options);
  if (!result) return result.error().with_context("hpcc: " + filename);
  return result;
}

Expected<std::map<std::string, numerics::Tensor>> HpccHarness::run_compiled(
    const sdk::CompileResult &result,
    const std::map<std::string, numerics::Tensor> &inputs) const {
  if (!result.loop_ir)
    return Error::internal("hpcc: compile result carries no loop IR");
  return transforms::evaluate_loops(*result.loop_ir, inputs);
}

Expected<double> HpccHarness::best_device_us(const sdk::CompileResult &result) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < config_.replications; ++rep) {
    platform::Device device(result.device);
    auto us = basecamp_.deploy_and_run(device, result);
    if (!us) return us.error();
    best = std::min(best, *us);
  }
  return best;
}

void HpccHarness::fill_roofline(BenchmarkResult &r,
                                const sdk::CompileResult &c) const {
  double traffic = static_cast<double>(c.kernel.input_bytes) +
                   static_cast<double>(c.kernel.output_bytes);
  double peak = peak_memory_gbps(c.device);
  r.bytes = traffic;
  // bytes / (us * 1e3) == GB/s on the generated system's analytic timeline.
  double streamed_gbps = traffic / (c.estimate.total_us * 1e3);
  if (r.flops > 0.0) {
    double intensity = r.flops / traffic;  // flops per byte
    r.measured = r.flops / (c.estimate.total_us * 1e3);  // GFLOP/s
    r.roofline = peak * intensity;  // bandwidth-bound roofline
  } else {
    r.measured = streamed_gbps;
    r.roofline = peak;
  }
  // Either way the ratio reduces to streamed-vs-peak bandwidth, which the
  // Olympus contention model keeps within (0, 1]: effective bandwidth never
  // exceeds the channels' aggregate, and total_us >= memory_us.
  r.ratio = r.measured / r.roofline;
}

Expected<std::vector<BenchmarkResult>> run_suite(HpccHarness &harness) {
  std::vector<BenchmarkResult> results;
  for (auto &benchmark : make_suite()) {
    auto result = benchmark->run(harness);
    if (!result)
      return result.error().with_context("hpcc: " + benchmark->name());
    results.push_back(std::move(*result));
  }
  return results;
}

}  // namespace everest::hpcc
