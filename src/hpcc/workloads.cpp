#include "hpcc/workloads.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "frontend/condrust_parser.hpp"
#include "platform/network.hpp"
#include "support/rng.hpp"
#include "transforms/teil_eval.hpp"

namespace everest::hpcc {

namespace {

using numerics::Shape;
using numerics::Tensor;
using support::Error;
using support::Expected;
using support::Json;

Tensor random_tensor(support::Pcg32 &rng, Shape shape, double lo = -1.0,
                     double hi = 1.0) {
  Tensor t(std::move(shape));
  for (double &v : t.data()) v = rng.uniform(lo, hi);
  return t;
}

/// Fetches one named output of the compiled run; infinity on absence keeps
/// the validation contract "error < epsilon" failing loudly.
double output_error(const std::map<std::string, Tensor> &outputs,
                    const std::string &name, const Tensor &ref) {
  auto it = outputs.find(name);
  if (it == outputs.end()) return std::numeric_limits<double>::infinity();
  return max_rel_error(ref, it->second);
}

}  // namespace

// --------------------------------------------------------------- STREAM

StreamBenchmark::StreamBenchmark()
    : HpccBenchmark("stream", "GB/s", "hbm-pseudo-channels", 1e-12) {}

Expected<BenchmarkResult> StreamBenchmark::run(HpccHarness &h) {
  const std::int64_t n = h.config().n;
  support::Pcg32 rng(h.config().seed ^ 0x53545245u);  // "STRE"
  transforms::EklBindings bind;
  bind.inputs.emplace("a", random_tensor(rng, {n}));
  bind.inputs.emplace("b", random_tensor(rng, {n}));
  const Tensor &a = bind.inputs.at("a");
  const Tensor &b = bind.inputs.at("b");

  auto compiled = h.compile_kernel("stream.ekl", bind);
  if (!compiled) return compiled.error();

  std::map<std::string, Tensor> ref;
  ref.emplace("copy", a);
  Tensor scale({n}), add({n}), triad({n});
  for (std::int64_t i = 0; i < n; ++i) {
    scale(i) = 0.42 * b(i);
    add(i) = a(i) + b(i);
    triad(i) = a(i) + 0.42 * b(i);
  }
  ref.emplace("scale", std::move(scale));
  ref.emplace("add", std::move(add));
  ref.emplace("triad", std::move(triad));

  auto outputs = h.run_compiled(*compiled, bind.inputs);
  if (!outputs) return outputs.error();

  BenchmarkResult r = make_result();
  for (const auto &[name, tensor] : ref)
    r.error = std::max(r.error, output_error(*outputs, name, tensor));
  r.validated = r.error < r.epsilon;
  h.fill_roofline(r, *compiled);
  auto us = h.best_device_us(*compiled);
  if (!us) return us.error();
  r.device_us = *us;
  r.extra.set("system_total_us", compiled->estimate.total_us);
  r.extra.set("effective_bandwidth_gbps",
              compiled->estimate.effective_bandwidth_gbps);
  return r;
}

// ----------------------------------------------------------------- GEMM

GemmBenchmark::GemmBenchmark()
    : HpccBenchmark("gemm", "GFLOP/s", "hls-scheduling+plm-tiling", 1e-9) {}

Expected<BenchmarkResult> GemmBenchmark::run(HpccHarness &h) {
  const std::int64_t n = h.config().n;
  support::Pcg32 rng(h.config().seed ^ 0x47454d4du);  // "GEMM"
  transforms::EklBindings bind;
  bind.inputs.emplace("a", random_tensor(rng, {n, n}));
  bind.inputs.emplace("b", random_tensor(rng, {n, n}));
  bind.inputs.emplace("c0", random_tensor(rng, {n, n}));
  const Tensor &a = bind.inputs.at("a");
  const Tensor &b = bind.inputs.at("b");
  const Tensor &c0 = bind.inputs.at("c0");

  auto compiled = h.compile_kernel("gemm.ekl", bind);
  if (!compiled) return compiled.error();

  Tensor c({n, n});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < n; ++k) acc += a(i, k) * b(k, j);
      c(i, j) = 0.5 * acc + 0.25 * c0(i, j);
    }
  }

  auto outputs = h.run_compiled(*compiled, bind.inputs);
  if (!outputs) return outputs.error();

  BenchmarkResult r = make_result();
  r.error = output_error(*outputs, "c", c);
  r.validated = r.error < r.epsilon;
  r.flops = static_cast<double>(transforms::teil_flop_count(*compiled->teil_ir));
  h.fill_roofline(r, *compiled);
  auto us = h.best_device_us(*compiled);
  if (!us) return us.error();
  r.device_us = *us;
  r.extra.set("plm_tile_bytes", compiled->olympus_options.plm_tile_bytes);
  r.extra.set("tiles", compiled->estimate.tiles);
  return r;
}

// --------------------------------------------------------------- PTRANS

PtransBenchmark::PtransBenchmark()
    : HpccBenchmark("ptrans", "GB/s", "hbm-pseudo-channels", 1e-12) {}

Expected<BenchmarkResult> PtransBenchmark::run(HpccHarness &h) {
  const std::int64_t n = h.config().n;
  support::Pcg32 rng(h.config().seed ^ 0x50545241u);  // "PTRA"
  transforms::EklBindings bind;
  bind.inputs.emplace("a", random_tensor(rng, {n, n}));
  bind.inputs.emplace("c", random_tensor(rng, {n, n}));
  const Tensor &a = bind.inputs.at("a");
  const Tensor &c = bind.inputs.at("c");

  auto compiled = h.compile_kernel("ptrans.ekl", bind);
  if (!compiled) return compiled.error();

  // b is indexed [j, i]: b(p, q) = a(p, q) + c(q, p) — A plus C transposed,
  // the PTRANS update relabeled onto the output's index order.
  Tensor b({n, n});
  double checksum = 0.0;
  for (std::int64_t p = 0; p < n; ++p) {
    for (std::int64_t q = 0; q < n; ++q) {
      b(p, q) = a(p, q) + c(q, p);
      checksum += b(p, q);
    }
  }

  auto outputs = h.run_compiled(*compiled, bind.inputs);
  if (!outputs) return outputs.error();

  BenchmarkResult r = make_result();
  r.error = output_error(*outputs, "b", b);
  r.error = std::max(
      r.error, output_error(*outputs, "checksum", Tensor::scalar(checksum)));
  r.validated = r.error < r.epsilon;
  h.fill_roofline(r, *compiled);
  auto us = h.best_device_us(*compiled);
  if (!us) return us.error();
  r.device_us = *us;
  r.extra.set("checksum", checksum);
  return r;
}

// ------------------------------------------------------------------ FFT

FftBenchmark::FftBenchmark()
    : HpccBenchmark("fft", "GFLOP/s", "hls-scheduling+packing", 1e-9) {}

Expected<BenchmarkResult> FftBenchmark::run(HpccHarness &h) {
  const std::int64_t N = h.config().n;   // transform length
  const std::int64_t B = 4;              // batched transforms
  support::Pcg32 rng(h.config().seed ^ 0x46465421u);  // "FFT!"
  transforms::EklBindings bind;
  bind.inputs.emplace("xr", random_tensor(rng, {B, N}));
  bind.inputs.emplace("xi", random_tensor(rng, {B, N}));
  Tensor cosm({N, N}), sinm({N, N});
  const double two_pi = 2.0 * 3.14159265358979323846;
  for (std::int64_t k = 0; k < N; ++k) {
    for (std::int64_t t = 0; t < N; ++t) {
      double angle = two_pi * static_cast<double>(k * t) /
                     static_cast<double>(N);
      cosm(k, t) = std::cos(angle);
      sinm(k, t) = std::sin(angle);
    }
  }
  bind.inputs.emplace("cosm", std::move(cosm));
  bind.inputs.emplace("sinm", std::move(sinm));
  const Tensor &xr = bind.inputs.at("xr");
  const Tensor &xi = bind.inputs.at("xi");
  const Tensor &cm = bind.inputs.at("cosm");
  const Tensor &sm = bind.inputs.at("sinm");

  auto compiled = h.compile_kernel("fft.ekl", bind);
  if (!compiled) return compiled.error();

  // Two independent contractions per output, matching the kernel's two
  // sum() terms (same accumulation order as the interpreter).
  Tensor yr({B, N}), yi({B, N});
  for (std::int64_t q = 0; q < B; ++q) {
    for (std::int64_t k = 0; k < N; ++k) {
      double rc = 0.0, rs = 0.0, ic = 0.0, is = 0.0;
      for (std::int64_t t = 0; t < N; ++t) {
        rc += xr(q, t) * cm(k, t);
        rs += xi(q, t) * sm(k, t);
        ic += xi(q, t) * cm(k, t);
        is += xr(q, t) * sm(k, t);
      }
      yr(q, k) = rc + rs;
      yi(q, k) = ic - is;
    }
  }

  auto outputs = h.run_compiled(*compiled, bind.inputs);
  if (!outputs) return outputs.error();

  BenchmarkResult r = make_result();
  r.error = std::max(output_error(*outputs, "yr", yr),
                     output_error(*outputs, "yi", yi));
  r.validated = r.error < r.epsilon;
  r.flops = static_cast<double>(transforms::teil_flop_count(*compiled->teil_ir));
  h.fill_roofline(r, *compiled);
  auto us = h.best_device_us(*compiled);
  if (!us) return us.error();
  r.device_us = *us;
  r.extra.set("batch", B);
  r.extra.set("transform_length", N);
  return r;
}

// --------------------------------------------------------- RandomAccess

RandomAccessBenchmark::RandomAccessBenchmark()
    : HpccBenchmark("randomaccess", "GUPS", "dma-latency", 1e-12) {}

Expected<RandomAccessGraph> make_randomaccess_graph(
    const std::string &source, runtime::Record initial_table) {
  auto graph = frontend::parse_condrust(source);
  if (!graph) return graph.error();
  const std::size_t size = initial_table.size();
  auto registry = std::make_shared<runtime::NodeRegistry>();
  registry->register_fold(
      "apply_update", std::move(initial_table),
      [size](const runtime::Record &state,
             const std::vector<const runtime::Record *> &in) {
        runtime::Record next = state;
        const runtime::Record &update = *in.at(0);
        auto slot = static_cast<std::int64_t>(std::llround(update.at(0)));
        slot = std::clamp<std::int64_t>(slot, 0,
                                        static_cast<std::int64_t>(size) - 1);
        next[static_cast<std::size_t>(slot)] += update.at(1);
        return next;
      });
  return RandomAccessGraph{*graph, std::move(registry)};
}

Expected<BenchmarkResult> RandomAccessBenchmark::run(HpccHarness &h) {
  const std::int64_t n = h.config().n;       // table slots
  const std::int64_t updates = 4 * n;        // HPCC's 4x table size
  support::Pcg32 rng(h.config().seed ^ 0x52414e44u);  // "RAND"
  transforms::EklBindings bind;
  bind.inputs.emplace("t", random_tensor(rng, {n}));
  Tensor idx({updates}), val({updates});
  for (std::int64_t u = 0; u < updates; ++u) {
    idx(u) = static_cast<double>(
        std::min<std::int64_t>(n - 1, static_cast<std::int64_t>(
                                          rng.uniform(0.0, 1.0) *
                                          static_cast<double>(n))));
    val(u) = rng.uniform(-1.0, 1.0);
  }
  bind.inputs.emplace("idx", std::move(idx));
  bind.inputs.emplace("val", std::move(val));
  const Tensor &t = bind.inputs.at("t");
  const Tensor &ix = bind.inputs.at("idx");
  const Tensor &vv = bind.inputs.at("val");

  // Probe kernel: the gather side of the update loop on the device.
  auto compiled = h.compile_kernel("randomaccess.ekl", bind);
  if (!compiled) return compiled.error();

  Tensor g({updates});
  for (std::int64_t u = 0; u < updates; ++u)
    g(u) = t(static_cast<std::int64_t>(ix(u))) + vv(u);

  auto outputs = h.run_compiled(*compiled, bind.inputs);
  if (!outputs) return outputs.error();

  BenchmarkResult r = make_result();
  r.error = output_error(*outputs, "g", g);

  // Functional update loop: the ordered dfg.fold against the table state,
  // validated exactly against a sequential host loop.
  auto condrust = h.read_kernel("randomaccess.rs");
  if (!condrust) return condrust.error();
  runtime::Record table(t.data().begin(), t.data().end());
  auto fold = make_randomaccess_graph(*condrust, table);
  if (!fold) return fold.error();
  runtime::Stream stream;
  for (std::int64_t u = 0; u < updates; ++u)
    stream.push_back({ix(u), vv(u)});
  auto folded = runtime::execute_dfg(*fold->graph, *fold->registry,
                                     {{"updates", stream}}, {.workers = 2});
  if (!folded) return folded.error();
  for (std::int64_t u = 0; u < updates; ++u)
    table[static_cast<std::size_t>(ix(u))] += vv(u);
  const auto &out_stream = folded->at("table");
  if (out_stream.size() != 1 || out_stream.front().size() != table.size()) {
    r.error = std::numeric_limits<double>::infinity();
  } else {
    for (std::size_t i = 0; i < table.size(); ++i) {
      double scale = std::max(1.0, std::abs(table[i]));
      r.error = std::max(r.error,
                         std::abs(table[i] - out_stream.front()[i]) / scale);
    }
  }
  r.validated = r.error < r.epsilon;

  // GUPS against the DMA/link roofline: every update moves a 16-byte
  // (index, value) record across the host link, so peak update rate is
  // link bandwidth / 16 bytes. End-to-end device time includes that DMA.
  auto us = h.best_device_us(*compiled);
  if (!us) return us.error();
  r.device_us = *us;
  r.measured = static_cast<double>(updates) / (r.device_us * 1e3);
  r.roofline = peak_link_gbps(compiled->device) / 16.0;
  r.ratio = r.measured / r.roofline;
  r.bytes = static_cast<double>(compiled->kernel.input_bytes +
                                compiled->kernel.output_bytes);
  r.extra.set("updates", updates);
  r.extra.set("table_slots", n);
  r.extra.set("link_latency_us", compiled->device.link.latency_us);
  return r;
}

// -------------------------------------------------------------- LINPACK

LinpackBenchmark::LinpackBenchmark()
    : HpccBenchmark("linpack", "GFLOP/s", "hls-scheduling", 1e-9) {}

Expected<BenchmarkResult> LinpackBenchmark::run(HpccHarness &h) {
  const std::int64_t n = h.config().n;
  support::Pcg32 rng(h.config().seed ^ 0x4c494e50u);  // "LINP"
  Tensor A = random_tensor(rng, {n, n});

  // Host LU with partial pivoting (the HPCL/LINPACK contract): PA = LU.
  Tensor LU = A;
  std::vector<std::int64_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (std::int64_t k = 0; k < n; ++k) {
    std::int64_t pivot = k;
    for (std::int64_t i = k + 1; i < n; ++i)
      if (std::abs(LU(i, k)) > std::abs(LU(pivot, k))) pivot = i;
    if (pivot != k) {
      for (std::int64_t j = 0; j < n; ++j) std::swap(LU(k, j), LU(pivot, j));
      std::swap(perm[static_cast<std::size_t>(k)],
                perm[static_cast<std::size_t>(pivot)]);
    }
    if (std::abs(LU(k, k)) < 1e-300) continue;
    for (std::int64_t i = k + 1; i < n; ++i) {
      LU(i, k) /= LU(k, k);
      for (std::int64_t j = k + 1; j < n; ++j)
        LU(i, j) -= LU(i, k) * LU(k, j);
    }
  }
  // Scaled residual max|PA - LU| / (n * max|A|).
  double max_a = 0.0;
  for (double v : A.data()) max_a = std::max(max_a, std::abs(v));
  double residual = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double lu = 0.0;
      std::int64_t kmax = std::min(i, j);
      for (std::int64_t k = 0; k <= kmax; ++k) {
        double lik = i == k ? 1.0 : LU(i, k);
        lu += lik * LU(k, j);
      }
      double pa = A(perm[static_cast<std::size_t>(i)], j);
      residual = std::max(residual, std::abs(pa - lu));
    }
  }
  residual /= static_cast<double>(n) * std::max(1.0, max_a);

  // The device executes the rank-1 Schur-complement update; validate the
  // compiled kernel differentially on random operands.
  transforms::EklBindings bind;
  bind.inputs.emplace("a", random_tensor(rng, {n, n}));
  bind.inputs.emplace("l", random_tensor(rng, {n}));
  bind.inputs.emplace("u", random_tensor(rng, {n}));
  const Tensor &a = bind.inputs.at("a");
  const Tensor &l = bind.inputs.at("l");
  const Tensor &u = bind.inputs.at("u");

  auto compiled = h.compile_kernel("linpack.ekl", bind);
  if (!compiled) return compiled.error();

  Tensor anew({n, n});
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j < n; ++j)
      anew(i, j) = a(i, j) - l(i) * u(j);

  auto outputs = h.run_compiled(*compiled, bind.inputs);
  if (!outputs) return outputs.error();

  BenchmarkResult r = make_result();
  r.error = std::max(residual, output_error(*outputs, "anew", anew));
  r.validated = r.error < r.epsilon;
  r.flops = static_cast<double>(transforms::teil_flop_count(*compiled->teil_ir));
  h.fill_roofline(r, *compiled);
  auto us = h.best_device_us(*compiled);
  if (!us) return us.error();
  r.device_us = *us;
  // A full factorization runs the update once per elimination step over a
  // shrinking trailing matrix: sum_k (n-k)^2 / n^2 ~= n/3 full-size steps.
  double lu_us = compiled->estimate.total_us * static_cast<double>(n) / 3.0;
  double lu_flops = 2.0 / 3.0 * static_cast<double>(n) *
                    static_cast<double>(n) * static_cast<double>(n);
  r.extra.set("lu_residual", residual);
  r.extra.set("factorization_us", lu_us);
  r.extra.set("factorization_gflops", lu_flops / (lu_us * 1e3));
  return r;
}

// ---------------------------------------------------------------- b_eff

BeffBenchmark::BeffBenchmark()
    : HpccBenchmark("b_eff", "GB/s", "inter-fpga-network", 1e-12) {}

Expected<BenchmarkResult> BeffBenchmark::run(HpccHarness &h) {
  const std::int64_t n = h.config().n;  // message elements per rank
  const int world = h.config().beff_world;
  const std::int64_t ranks = world - 1;  // rank 0 is the host
  support::Pcg32 rng(h.config().seed ^ 0x42454646u);  // "BEFF"
  transforms::EklBindings bind;
  bind.inputs.emplace("m", random_tensor(rng, {ranks, n}));
  const Tensor &m = bind.inputs.at("m");

  // b_eff runs on the network-attached cloudFPGA target.
  auto options = h.base_options();
  options.target = "cloudfpga";
  options.olympus.replicas = 1;
  auto compiled = h.compile_kernel("beff.ekl", bind, options);
  if (!compiled) return compiled.error();

  Tensor s({ranks});
  for (std::int64_t rr = 0; rr < ranks; ++rr) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < n; ++i) acc += m(rr, i);
    s(rr) = acc;
  }

  auto outputs = h.run_compiled(*compiled, bind.inputs);
  if (!outputs) return outputs.error();

  BenchmarkResult r = make_result();
  r.error = output_error(*outputs, "s", s);
  r.validated = r.error < r.epsilon;

  // Message-size sweep over the ZRLMPI fabric: broadcast + gather per size,
  // achieved payload bandwidth from the communicator's clock; b_eff is the
  // average across sizes (the HPCC b_eff aggregation).
  platform::NetworkSpec net;
  Json sweep = Json::array();
  double sum_gbps = 0.0;
  const std::int64_t sizes[] = {1 << 10, 1 << 12, 1 << 14,
                                1 << 16, 1 << 18, 1 << 20};
  int measured_sizes = 0;
  for (std::int64_t bytes : sizes) {
    platform::ZrlmpiCommunicator comm(world, net);
    if (auto st = comm.broadcast(0, bytes); !st.is_ok()) return st.error();
    if (auto st = comm.gather(0, bytes); !st.is_ok()) return st.error();
    double gbps =
        static_cast<double>(comm.bytes_moved()) / (comm.now_us() * 1e3);
    Json row = Json::object();
    row.set("message_bytes", bytes);
    row.set("achieved_gbps", gbps);
    row.set("messages", comm.messages());
    sweep.push_back(std::move(row));
    sum_gbps += gbps;
    ++measured_sizes;
  }

  r.measured = sum_gbps / measured_sizes;
  r.roofline = network_peak_gbps(net);
  r.ratio = r.measured / r.roofline;
  r.bytes = static_cast<double>(compiled->kernel.input_bytes +
                                compiled->kernel.output_bytes);
  auto us = h.best_device_us(*compiled);
  if (!us) return us.error();
  r.device_us = *us;
  r.extra.set("world_size", world);
  r.extra.set("sweep", std::move(sweep));
  return r;
}

// ---------------------------------------------------------------- suite

std::vector<std::unique_ptr<HpccBenchmark>> make_suite() {
  std::vector<std::unique_ptr<HpccBenchmark>> suite;
  suite.push_back(std::make_unique<StreamBenchmark>());
  suite.push_back(std::make_unique<GemmBenchmark>());
  suite.push_back(std::make_unique<PtransBenchmark>());
  suite.push_back(std::make_unique<FftBenchmark>());
  suite.push_back(std::make_unique<RandomAccessBenchmark>());
  suite.push_back(std::make_unique<LinpackBenchmark>());
  suite.push_back(std::make_unique<BeffBenchmark>());
  return suite;
}

}  // namespace everest::hpcc
