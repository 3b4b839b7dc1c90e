// everest/sdk/basecamp.hpp
//
// The basecamp entry point (paper §IV: "All tools within the SDK are wrapped
// under the basecamp command, which provides a single point of access to the
// users of the SDK"). One object wires the Fig. 2 flow end to end:
//
//   frontend (EKL / CFDlang / ConDRust / ONNX)
//     -> MLIR-like dialects (Fig. 5) -> teil -> esn ordering -> loops
//     -> HLS scheduling -> base2 format choice
//     -> Olympus system generation -> deployment on a device model.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hls/scheduler.hpp"
#include "ir/dialect.hpp"
#include "obs/trace.hpp"
#include "olympus/olympus.hpp"
#include "platform/xrt.hpp"
#include "resil/policy.hpp"
#include "sdk/compile_cache.hpp"
#include "sdk/options.hpp"
#include "support/expected.hpp"
#include "support/thread_pool.hpp"
#include "transforms/ekl_eval.hpp"

namespace everest::sdk {

/// Timing of one pipeline stage in milliseconds. Kept for compatibility;
/// values are now derived from the obs::TraceRecorder spans, so the two
/// views of a compile always agree.
struct StageTiming {
  std::string stage;
  double ms = 0.0;
};

/// Everything the pipeline produces for one kernel. The modules are
/// immutable once published and may be shared with the compile cache and
/// with other results (a cache hit hands out the cached modules themselves).
struct CompileResult {
  std::shared_ptr<const ir::Module> frontend_ir;  // ekl / cfdlang dialect
  std::shared_ptr<const ir::Module> teil_ir;
  std::shared_ptr<const ir::Module> loop_ir;
  std::shared_ptr<const ir::Module> system_ir;  // olympus dialect
  hls::KernelReport kernel;
  olympus::SystemEstimate estimate;
  olympus::Options olympus_options;  // the effective system configuration
  platform::DeviceSpec device;
  std::vector<StageTiming> timings;
  std::size_t ekl_source_lines = 0;
  int datapath_bits = 64;
};

/// One kernel of a multi-kernel compile (the Fig. 2 flow is run per kernel;
/// real deployments compile many variants, which is embarrassingly
/// parallel — see Basecamp::compile_many).
struct CompileJob {
  enum class Kind { Ekl, Cfdlang };
  Kind kind = Kind::Ekl;
  std::string name;                  // label for reports (e.g. source file)
  std::string source;
  transforms::EklBindings bindings;  // EKL only; ignored for CFDlang
  CompileOptions options;
};

/// The single point of access.
class Basecamp {
public:
  /// Registers the full dialect stack into the owned context.
  Basecamp();

  [[nodiscard]] ir::Context &context() { return ctx_; }

  /// The recorder every compile writes its pipeline-stage spans into (one
  /// span per Fig. 2 stage, category "sdk.pipeline"). Export it with
  /// obs::chrome_trace_json / obs::summary_table, or attach it to a
  /// platform::Device to put device DMA/kernel spans in the same trace.
  [[nodiscard]] obs::TraceRecorder &recorder() { return recorder_; }
  [[nodiscard]] const obs::TraceRecorder &recorder() const { return recorder_; }

  /// Resolves a target name to its device model.
  [[nodiscard]] support::Expected<platform::DeviceSpec> device_by_name(
      const std::string &name) const;

  /// Compiles an EKL kernel source through the full flow. Bindings provide
  /// shapes (and evaluation inputs for verification-style runs).
  support::Expected<CompileResult> compile_ekl(
      const std::string &source, const transforms::EklBindings &bindings,
      const CompileOptions &options = {});

  /// Compiles a CFDlang program through the same backend.
  support::Expected<CompileResult> compile_cfdlang(
      const std::string &source, const CompileOptions &options = {});

  /// Compiles every job, fanning the per-kernel pipelines across a thread
  /// pool of `parallel_jobs` workers (<= 1 compiles serially, in-line). The
  /// returned vector is index-aligned with `jobs` regardless of completion
  /// order, and each element is byte-identical to what a serial
  /// compile_ekl/compile_cfdlang call would have produced: the merge is
  /// deterministic, only wall-clock changes. Pool pressure is mirrored to
  /// the recorder as sdk.pool.queued / sdk.pool.active gauges.
  [[nodiscard]] std::vector<support::Expected<CompileResult>> compile_many(
      const std::vector<CompileJob> &jobs, int parallel_jobs = 1);

  /// Attaches a compile cache (not owned; may be shared across Basecamp
  /// instances and threads). Pass nullptr to detach. The cache's counters
  /// are mirrored onto this instance's recorder.
  void attach_cache(CompileCache *cache);
  [[nodiscard]] CompileCache *cache() const { return cache_; }

  /// Deploys the compiled system onto a device and runs one invocation;
  /// returns end-to-end microseconds on the device timeline.
  support::Expected<double> deploy_and_run(platform::Device &device,
                                           const CompileResult &result) const;

  /// Resilient variant: retries transient faults (injected DMA errors,
  /// alloc flakes, hung kernels) under `policy.retry`, advancing the
  /// device's simulated clock by each backoff; a run that completes past
  /// `policy.deadline` is treated as a retryable DeadlineExceeded failure.
  /// Retry activity lands on the recorder's resil.* metrics.
  support::Expected<double> deploy_and_run(platform::Device &device,
                                           const CompileResult &result,
                                           const resil::ExecutionPolicy &policy);

private:
  /// Runs the mid- and back-end on `teil_ir`, which it rewrites in place
  /// and publishes as const once canonicalize, esn and base2 are done.
  support::Expected<CompileResult> backend(
      std::shared_ptr<const ir::Module> frontend_ir,
      std::shared_ptr<ir::Module> teil_ir, const CompileOptions &options,
      std::vector<StageTiming> timings,
      const std::string &direct_fingerprint);

  /// Builds a CompileResult that shares a cache entry's modules; used by
  /// the direct-tier and content-tier hit paths.
  support::Expected<CompileResult> result_from_cache(
      std::shared_ptr<const ir::Module> frontend_ir, CompileCacheEntry entry,
      const CompileOptions &options, std::vector<StageTiming> timings) const;

  ir::Context ctx_;
  obs::TraceRecorder recorder_;
  CompileCache *cache_ = nullptr;

  /// Worker pool reused across compile_many batches (thread creation costs
  /// milliseconds — a per-batch pool would tax every warm-cache batch with
  /// it). Lazily created, grown when a batch asks for more workers; held by
  /// shared_ptr so a batch in flight keeps its pool alive across a grow.
  std::shared_ptr<support::ThreadPool> pool_;
  std::mutex pool_mutex_;
};

}  // namespace everest::sdk
