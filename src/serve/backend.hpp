// everest/serve/backend.hpp
//
// Execution backends of the serving layer. A Backend runs one *batch* — the
// concatenation of several requests' input records into streams — through
// the serving graph and returns the output streams. DfgBackend is the
// host-CPU path (the deterministic dfg executor); ElasticDeviceBackend is
// the one FPGA path: each batch is one simulated kernel launch (amortizing
// launch and DMA costs over the whole batch, surfacing injected device
// faults) placed by a resil::FailoverGroup over a set of devices — a fixed
// card is a one-VF group, a Cluster node's hot-plugged SR-IOV VFs a larger
// one — while an inner DfgBackend computes the functional result. The
// Server fails over across its backend list in order, so
// [ElasticDeviceBackend, DfgBackend] is "FPGA first, host CPU as the
// degraded fallback".
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "platform/xrt.hpp"
#include "resil/failover.hpp"
#include "runtime/dfg_executor.hpp"
#include "support/expected.hpp"

namespace everest::serve {

/// Runs batches against the serving graph. Implementations must be safe to
/// call from multiple dispatcher threads concurrently.
class Backend {
public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual const std::string &name() const = 0;
  /// The dfg.input stream names every request must populate.
  [[nodiscard]] virtual const std::vector<std::string> &input_names() const = 0;

  /// Executes one batch: every input stream holds one record per request, in
  /// batch order; every output stream must come back with the same length
  /// and order.
  virtual support::Expected<std::map<std::string, runtime::Stream>> run_batch(
      const std::map<std::string, runtime::Stream> &inputs) = 0;
};

/// Host-CPU backend over execute_dfg. Construction validates that the graph
/// is servable: it must contain a dfg.graph with at least one dfg.input and
/// every dfg.node / dfg.fold callee must be registered. Fold-free graphs run
/// each batch as one concatenated stream; graphs with dfg.fold stages (a
/// fold collapses the stream, so concatenation would fuse requests) run per
/// request — one element at a time, outputs re-concatenated in batch order —
/// so batched and unbatched results stay byte-identical either way.
class DfgBackend final : public Backend {
public:
  static support::Expected<std::unique_ptr<DfgBackend>> create(
      std::shared_ptr<const ir::Module> graph,
      std::shared_ptr<const runtime::NodeRegistry> registry,
      runtime::DfgExecOptions options = {},
      obs::TraceRecorder *recorder = nullptr);

  [[nodiscard]] const std::string &name() const override { return name_; }
  [[nodiscard]] const std::vector<std::string> &input_names() const override {
    return input_names_;
  }

  support::Expected<std::map<std::string, runtime::Stream>> run_batch(
      const std::map<std::string, runtime::Stream> &inputs) override;

private:
  DfgBackend(std::shared_ptr<const ir::Module> graph,
             std::shared_ptr<const runtime::NodeRegistry> registry,
             runtime::DfgExecOptions options, obs::TraceRecorder *recorder,
             std::vector<std::string> input_names, bool has_fold)
      : graph_(std::move(graph)), registry_(std::move(registry)),
        options_(options), recorder_(recorder),
        input_names_(std::move(input_names)), has_fold_(has_fold) {}

  std::string name_ = "host-cpu";
  std::shared_ptr<const ir::Module> graph_;
  std::shared_ptr<const runtime::NodeRegistry> registry_;
  runtime::DfgExecOptions options_;
  obs::TraceRecorder *recorder_;
  std::vector<std::string> input_names_;
  bool has_fold_ = false;
};

/// FPGA backend over a replica set of devices (SR-IOV virtual functions, or
/// one fixed card). Every batch is one simulated kernel launch placed by a
/// thread-safe resil::FailoverGroup, which rotates the first device per
/// launch (plugged capacity spreads load; injected faults fail over to the
/// next device in ring order), then the functional result is computed by
/// the wrapped host backend so batched, unbatched, and any-replica outputs
/// stay byte-identical. The group never falls back to the host itself: that
/// is the Server's backend chain, where it is accounted as degraded.
class ElasticDeviceBackend final : public Backend {
public:
  /// `devices` must be non-empty and have `kernel` already loaded; the
  /// caller keeps ownership of the devices. `options` carries the group's
  /// retry budget, launch watchdog and breakers.
  static support::Expected<std::unique_ptr<ElasticDeviceBackend>> create(
      std::string name, std::vector<platform::Device *> devices,
      std::string kernel, std::unique_ptr<DfgBackend> compute,
      resil::FailoverOptions options = {},
      obs::TraceRecorder *recorder = nullptr);

  [[nodiscard]] const std::string &name() const override { return name_; }
  [[nodiscard]] const std::vector<std::string> &input_names() const override {
    return compute_->input_names();
  }

  support::Expected<std::map<std::string, runtime::Stream>> run_batch(
      const std::map<std::string, runtime::Stream> &inputs) override;

  /// VF hot-plug: grows/shrinks the replica ring. remove_replica() returns
  /// the removed device so the owner can detach its VF; it fails rather
  /// than empty the ring.
  void add_replica(platform::Device *device) { group_.add_device(device); }
  support::Expected<platform::Device *> remove_replica() {
    return group_.remove_last_device();
  }

private:
  ElasticDeviceBackend(std::string name,
                       std::vector<platform::Device *> devices,
                       std::string kernel,
                       std::unique_ptr<DfgBackend> compute,
                       resil::FailoverOptions options,
                       obs::TraceRecorder *recorder)
      : name_(std::move(name)), kernel_(std::move(kernel)),
        group_(std::move(devices), std::move(options), recorder),
        compute_(std::move(compute)) {}

  std::string name_;
  std::string kernel_;
  resil::FailoverGroup group_;
  std::unique_ptr<DfgBackend> compute_;
};

}  // namespace everest::serve
