// everest/runtime/dfg_executor.hpp
//
// Deterministic parallel executor for dfg.graph coordination programs
// (ConDRust semantics, paper §V-A.2: "provable determinism ... and exposes
// parallelism"). Stateless dfg.node stages run data-parallel over worker
// threads with order-restoring merges; dfg.fold stages run sequentially in
// stream order. The output is therefore bit-identical for any worker count —
// a property the tests check.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "obs/trace.hpp"
#include "platform/fault_injector.hpp"
#include "resil/policy.hpp"
#include "support/expected.hpp"

namespace everest::runtime {

/// Stream elements are flat double records (the coordination level is typed
/// by the frontend; execution uses this neutral representation).
using Record = std::vector<double>;
using Stream = std::vector<Record>;

/// A stateless operator: one record per input stream -> one output record.
using NodeFn =
    std::function<Record(const std::vector<const Record *> &inputs)>;

/// An ordered fold: (state, element inputs) -> new state. The final state is
/// broadcast as the single element of the output stream.
using FoldFn = std::function<Record(const Record &state,
                                    const std::vector<const Record *> &inputs)>;

/// Registry binding dfg callee names to executable operators.
class NodeRegistry {
public:
  void register_node(const std::string &name, NodeFn fn) {
    nodes_[name] = std::move(fn);
  }
  void register_fold(const std::string &name, Record initial_state, FoldFn fn) {
    folds_[name] = {std::move(initial_state), std::move(fn)};
  }
  [[nodiscard]] const NodeFn *find_node(const std::string &name) const {
    auto it = nodes_.find(name);
    return it == nodes_.end() ? nullptr : &it->second;
  }
  struct Fold {
    Record initial;
    FoldFn fn;
  };
  [[nodiscard]] const Fold *find_fold(const std::string &name) const {
    auto it = folds_.find(name);
    return it == folds_.end() ? nullptr : &it->second;
  }

private:
  std::map<std::string, NodeFn> nodes_;
  std::map<std::string, Fold> folds_;
};

/// Execution statistics.
struct DfgRunStats {
  std::size_t elements = 0;
  std::size_t node_invocations = 0;
  std::size_t fold_invocations = 0;
  int workers = 1;
  // Resilience accounting (non-zero only under fault injection).
  std::size_t faults_injected = 0;
  std::size_t element_retries = 0;
  std::size_t checkpoints_saved = 0;
  std::size_t checkpoint_restores = 0;
  std::size_t elements_replayed = 0;
};

/// Execution knobs beyond the worker count. Fault decisions are keyed by
/// (stage ordinal, element index, attempt) — pure functions of the
/// injector's seed — so faulted runs produce bit-identical outputs for any
/// worker count.
struct DfgExecOptions {
  int workers = 1;
  /// Consulted per node invocation (FaultSite::NodeInvoke) and per fold
  /// step (FaultSite::FoldStep); nullptr runs fault-free.
  platform::FaultInjector *faults = nullptr;
  /// Attempt budget for a faulted node invocation; exhausting it fails the
  /// run with Unavailable.
  resil::RetryPolicy retry{};
  /// Fold checkpointing: snapshot fold state + stream cursor every
  /// `interval` elements, so a mid-fold fault replays only the tail.
  resil::CheckpointSpec checkpoint{};
  /// Wall-clock budget per stage; a stage finishing past it fails the run
  /// with DeadlineExceeded. < 0 disables.
  double stage_deadline_us = -1.0;
};

/// Executes the first dfg.graph in `module` over the named input streams.
/// All input streams must have equal length (element-aligned). When
/// `recorder` is given, each stage bumps an invocation counter
/// ("dfg.node.<callee>" / "dfg.fold.<callee>"), every worker records a
/// wall-clock span per stage chunk (track "dfg.worker-<i>"), and the
/// resilience machinery mirrors its work to resil.* counters.
support::Expected<std::map<std::string, Stream>> execute_dfg(
    const ir::Module &module, const NodeRegistry &registry,
    const std::map<std::string, Stream> &inputs,
    const DfgExecOptions &options = {}, DfgRunStats *stats = nullptr,
    obs::TraceRecorder *recorder = nullptr);

}  // namespace everest::runtime
