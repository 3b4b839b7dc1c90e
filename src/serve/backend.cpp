#include "serve/backend.hpp"

#include <algorithm>

namespace everest::serve {

support::Expected<std::unique_ptr<DfgBackend>> DfgBackend::create(
    std::shared_ptr<const ir::Module> graph,
    std::shared_ptr<const runtime::NodeRegistry> registry,
    runtime::DfgExecOptions options, obs::TraceRecorder *recorder) {
  if (!graph) {
    return support::Error::invalid_argument("serve: null serving graph");
  }
  if (!registry) {
    return support::Error::invalid_argument("serve: null node registry");
  }
  const ir::Operation *dfg = nullptr;
  graph->walk([&](const ir::Operation &op) {
    if (dfg == nullptr && op.name() == "dfg.graph") dfg = &op;
  });
  if (dfg == nullptr || dfg->num_regions() == 0 || dfg->region(0).empty()) {
    return support::Error::invalid_argument(
        "serve: module contains no dfg.graph to serve");
  }
  std::vector<std::string> input_names;
  bool has_fold = false;
  support::Status bad = support::Status::ok();
  for (const ir::Operation &op : dfg->region(0).front().operations()) {
    if (op.name() == "dfg.input") {
      input_names.push_back(op.attr_string("name"));
    } else if (op.name() == "dfg.fold") {
      // A fold collapses the whole stream into one record, so the batch
      // cannot be run as one concatenated stream — run_batch executes fold
      // graphs per request instead (each request's fold starts from the
      // initial state and sees only that request's records).
      has_fold = true;
      std::string callee = op.attr_string("callee");
      if (registry->find_fold(callee) == nullptr) {
        bad = support::Error::not_found(
            "serve: dfg.fold callee '" + callee + "' is not registered");
      }
    } else if (op.name() == "dfg.node") {
      std::string callee = op.attr_string("callee");
      if (registry->find_node(callee) == nullptr) {
        bad = support::Error::not_found(
            "serve: dfg.node callee '" + callee + "' is not registered");
      }
    }
  }
  if (!bad.is_ok()) return bad.error();
  if (input_names.empty()) {
    return support::Error::invalid_argument(
        "serve: serving graph declares no dfg.input streams");
  }
  return std::unique_ptr<DfgBackend>(
      new DfgBackend(std::move(graph), std::move(registry), options, recorder,
                     std::move(input_names), has_fold));
}

support::Expected<std::map<std::string, runtime::Stream>> DfgBackend::run_batch(
    const std::map<std::string, runtime::Stream> &inputs) {
  if (!has_fold_) {
    return runtime::execute_dfg(*graph_, *registry_, inputs, options_,
                                /*stats=*/nullptr, recorder_);
  }
  // Fold graphs: batching as one concatenated stream would fuse the
  // requests' data into a single fold state. Execute per request instead —
  // slice one record per input stream, run the graph, and concatenate the
  // per-request outputs back into batch-ordered streams. Each request's
  // input streams hold exactly one record, so every per-request output
  // stream has length one and the batch contract (same length and order as
  // the inputs) is preserved.
  std::size_t batch = 0;
  for (const auto &[name, stream] : inputs) {
    (void)name;
    batch = std::max(batch, stream.size());
  }
  std::map<std::string, runtime::Stream> outputs;
  for (std::size_t b = 0; b < batch; ++b) {
    std::map<std::string, runtime::Stream> slice;
    for (const auto &[name, stream] : inputs) {
      if (b >= stream.size()) {
        return support::Error::invalid_argument(
            "serve: ragged batch — input stream '" + name + "' has " +
            std::to_string(stream.size()) + " records, batch needs " +
            std::to_string(batch));
      }
      slice[name] = runtime::Stream{stream[b]};
    }
    auto result = runtime::execute_dfg(*graph_, *registry_, slice, options_,
                                       /*stats=*/nullptr, recorder_);
    if (!result) {
      return result.error().with_context("serve: fold graph, batch element " +
                                         std::to_string(b));
    }
    for (auto &[name, stream] : *result) {
      auto &out = outputs[name];
      out.insert(out.end(), stream.begin(), stream.end());
    }
  }
  return outputs;
}

support::Expected<std::unique_ptr<ElasticDeviceBackend>>
ElasticDeviceBackend::create(std::string name,
                             std::vector<platform::Device *> devices,
                             std::string kernel,
                             std::unique_ptr<DfgBackend> compute,
                             resil::FailoverOptions options,
                             obs::TraceRecorder *recorder) {
  if (devices.empty() ||
      std::find(devices.begin(), devices.end(), nullptr) != devices.end()) {
    return support::Error::invalid_argument(
        "serve: device backend '" + name + "' needs non-null devices");
  }
  if (!compute) {
    return support::Error::invalid_argument(
        "serve: device backend '" + name +
        "' needs a compute backend for functional results");
  }
  return std::unique_ptr<ElasticDeviceBackend>(new ElasticDeviceBackend(
      std::move(name), std::move(devices), std::move(kernel),
      std::move(compute), std::move(options), recorder));
}

support::Expected<std::map<std::string, runtime::Stream>>
ElasticDeviceBackend::run_batch(
    const std::map<std::string, runtime::Stream> &inputs) {
  // One launch per batch: this is the amortization batching buys, and the
  // hook where injected device faults (DMA flakes, hung kernels) surface.
  // The error code (and hence retryability) of a failed launch is preserved
  // so the Server's per-backend retry/breaker policy sees the real fault.
  auto launch = group_.run(kernel_, /*dataflow=*/true);
  if (!launch) {
    return launch.error().with_context("serve: device backend '" + name_ +
                                       "'");
  }
  return compute_->run_batch(inputs);
}

}  // namespace everest::serve
