// everest/hpcc/hpcc_benchmark.hpp
//
// Host-side harness for the HPCC-FPGA workload suite (pc2/HPCC_FPGA,
// arXiv:2004.11059), modeled on its shared/hpcc_benchmark.hpp: every
// benchmark owns a kernel source under tests/data/hpcc/, compiles it through
// the full Basecamp pipeline (frontend -> IR passes -> Olympus packing ->
// HLS estimate -> device model), executes it against the device timeline,
// and validates the compiled path against an independent scalar host
// reference with an `error < epsilon` self-check. The harness layer owns
// config parsing (problem size, replications, target), roofline computation
// from the device model's published HBM/DMA/network bandwidths, and the
// uniform result record every benchmark reports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "platform/network.hpp"
#include "sdk/basecamp.hpp"
#include "support/json.hpp"

namespace everest::hpcc {

/// Suite configuration (HPCC-FPGA's base_parameters equivalent).
struct HpccConfig {
  std::int64_t n = 64;        // problem size: vector length / matrix edge
  int replications = 2;       // timed device runs per benchmark (best-of)
  std::string target = "alveo-u55c";
  std::string number_format = "f64";
  std::string data_dir;       // kernel sources; default tests/data/hpcc
  std::uint64_t seed = 42;    // rng seed for input data
  int replicas = 4;           // Olympus kernel copies (memory lanes)
  std::int64_t tile_bytes = 256 * 1024;  // Olympus PLM tile (GEMM knob)
  int beff_world = 4;         // ZRLMPI ranks in the b_eff sweep
  std::string out = "BENCH_hpcc.json";
};

/// Parses --n= / --replications= / --target= / --format= / --data-dir= /
/// --seed= / --replicas= / --tile-bytes= / --world= / --out= flags; coded
/// error on unknown flags or unparsable values.
support::Expected<HpccConfig> parse_hpcc_args(int argc, const char *const *argv);

/// Uniform result record: what every benchmark reports.
struct BenchmarkResult {
  std::string name;
  std::string unit;       // "GB/s", "GFLOP/s", or "GUPS"
  std::string axis;       // the device-model axis this kernel stresses
  double measured = 0.0;  // in `unit`
  double roofline = 0.0;  // peak in `unit` from the device model
  double ratio = 0.0;     // measured / roofline; must land in (0, 1]
  double error = 0.0;     // validation error vs the host reference
  double epsilon = 0.0;   // per-benchmark acceptance bound
  bool validated = false; // error < epsilon
  double device_us = 0.0; // best end-to-end device run (deploy_and_run)
  double bytes = 0.0;     // memory traffic per invocation
  double flops = 0.0;     // scalar flops per invocation (0 for bandwidth kernels)
  support::Json extra = support::Json::object();  // per-benchmark detail
};

/// Roofline sources: the device model's published bandwidth numbers.
/// Aggregate external-memory bandwidth in GB/s (HBM pseudo-channels when
/// present, DDR otherwise).
double peak_memory_gbps(const platform::DeviceSpec &spec);
/// Host-link (PCIe DMA or network) payload bandwidth in GB/s.
double peak_link_gbps(const platform::DeviceSpec &spec);
/// Inter-FPGA fabric payload bandwidth in GB/s.
double network_peak_gbps(const platform::NetworkSpec &net);

/// Largest relative element error between two tensors (|ref - got| scaled
/// by max(1, |ref|)); +inf on shape mismatch.
double max_rel_error(const numerics::Tensor &ref, const numerics::Tensor &got);

/// The shared harness: owns the Basecamp instance, its compile cache, and
/// the timing/validation helpers every workload uses.
class HpccHarness {
public:
  explicit HpccHarness(HpccConfig config);

  [[nodiscard]] const HpccConfig &config() const { return config_; }
  [[nodiscard]] sdk::Basecamp &basecamp() { return basecamp_; }
  [[nodiscard]] sdk::CompileCache &cache() { return cache_; }

  /// Reads a kernel source from the configured data directory.
  [[nodiscard]] support::Expected<std::string> read_kernel(
      const std::string &filename) const;

  /// CompileOptions seeded from the config (target, format, replicas, PLM
  /// tile); workloads override fields (e.g. b_eff retargets cloudfpga).
  [[nodiscard]] sdk::CompileOptions base_options() const;

  /// Compiles `filename` through the full Basecamp pipeline.
  support::Expected<sdk::CompileResult> compile_kernel(
      const std::string &filename, const transforms::EklBindings &bindings);
  support::Expected<sdk::CompileResult> compile_kernel(
      const std::string &filename, const transforms::EklBindings &bindings,
      const sdk::CompileOptions &options);

  /// Functional compiled path: evaluates the loop-level IR the HLS engine
  /// scheduled — the last point where the kernel is still executable.
  support::Expected<std::map<std::string, numerics::Tensor>> run_compiled(
      const sdk::CompileResult &result,
      const std::map<std::string, numerics::Tensor> &inputs) const;

  /// Best end-to-end device time over config.replications runs, each on a
  /// fresh device (HPCC reports the best replication).
  support::Expected<double> best_device_us(const sdk::CompileResult &result);

  /// Fills the measured/roofline/ratio fields of `r` for a memory-bound
  /// compiled kernel: the bandwidth ratio is (traffic / total_us) against
  /// the device's peak memory bandwidth, which the Olympus contention model
  /// guarantees lands in (0, 1]. When `r.flops` is non-zero the headline
  /// `measured`/`roofline` are expressed in GFLOP/s at the kernel's
  /// arithmetic intensity; otherwise in GB/s.
  void fill_roofline(BenchmarkResult &r, const sdk::CompileResult &c) const;

private:
  HpccConfig config_;
  sdk::CompileCache cache_;
  sdk::Basecamp basecamp_;
};

/// One HPCC workload.
class HpccBenchmark {
public:
  HpccBenchmark(std::string name, std::string unit, std::string axis,
                double epsilon)
      : name_(std::move(name)), unit_(std::move(unit)), axis_(std::move(axis)),
        epsilon_(epsilon) {}
  virtual ~HpccBenchmark() = default;

  [[nodiscard]] const std::string &name() const { return name_; }
  [[nodiscard]] double epsilon() const { return epsilon_; }

  /// Compiles, executes, and validates the workload end to end.
  virtual support::Expected<BenchmarkResult> run(HpccHarness &harness) = 0;

protected:
  /// A result pre-filled with the benchmark's identity and epsilon.
  [[nodiscard]] BenchmarkResult make_result() const {
    BenchmarkResult r;
    r.name = name_;
    r.unit = unit_;
    r.axis = axis_;
    r.epsilon = epsilon_;
    return r;
  }

private:
  std::string name_;
  std::string unit_;
  std::string axis_;
  double epsilon_;
};

/// The seven HPCC-FPGA workloads, in canonical order: STREAM, GEMM, PTRANS,
/// FFT, RandomAccess, LINPACK, b_eff.
std::vector<std::unique_ptr<HpccBenchmark>> make_suite();

/// Runs the full suite; fails on the first benchmark error.
support::Expected<std::vector<BenchmarkResult>> run_suite(HpccHarness &harness);

}  // namespace everest::hpcc
