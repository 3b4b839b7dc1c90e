#include "runtime/dfg_executor.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>

namespace everest::runtime {

namespace {

using ir::Operation;
using ir::Value;
using platform::FaultInjector;
using platform::FaultSite;
using platform::InjectedFault;
using support::Error;
using support::Expected;

/// Fault-decision salt for (stage, attempt): stages get independent
/// decision streams, and each retry attempt re-rolls.
std::uint64_t stage_salt(std::size_t stage, int attempt) {
  return static_cast<std::uint64_t>(stage) * 0x100000001b3ULL +
         static_cast<std::uint64_t>(attempt);
}

/// Applies a stateless node element-wise with `workers` threads. Elements
/// are written into a pre-sized output vector, so completion order cannot
/// perturb the result (order-restoring merge). Injected faults are decided
/// purely from (seed, stage, element, attempt), so the set of faulted
/// elements — and therefore the output and any failure — is identical for
/// every worker count. Each worker's chunk records one span on its own
/// track when a recorder is attached.
Expected<Stream> parallel_map(const NodeFn &fn, const std::string &callee,
                              const std::vector<const Stream *> &input_streams,
                              std::size_t count, const DfgExecOptions &options,
                              std::size_t stage,
                              std::atomic<std::size_t> &invocations,
                              std::atomic<std::size_t> &faults_injected,
                              std::atomic<std::size_t> &element_retries,
                              obs::TraceRecorder *recorder) {
  Stream out(count);
  int max_attempts =
      options.retry.max_attempts < 1 ? 1 : options.retry.max_attempts;
  std::mutex failed_mu;
  std::optional<std::size_t> first_failed;

  auto work = [&](std::size_t begin, std::size_t end, int worker) {
    std::optional<obs::TraceRecorder::Span> span;
    if (recorder) {
      span.emplace(recorder->span(callee, "dfg.stage",
                                  "dfg.worker-" + std::to_string(worker)));
      span->arg("elements", std::to_string(end - begin));
    }
    std::vector<const Record *> args(input_streams.size());
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t s = 0; s < input_streams.size(); ++s)
        args[s] = &(*input_streams[s])[i];
      bool ok = false;
      for (int attempt = 0; attempt < max_attempts; ++attempt) {
        out[i] = fn(args);
        invocations.fetch_add(1, std::memory_order_relaxed);
        if (!options.faults ||
            options.faults->decide(FaultSite::NodeInvoke, i,
                                   stage_salt(stage, attempt)) ==
                InjectedFault::None) {
          ok = true;
          break;
        }
        // The invocation's result was lost; roll the dice again.
        options.faults->tally(InjectedFault::NodeFault);
        faults_injected.fetch_add(1, std::memory_order_relaxed);
        element_retries.fetch_add(1, std::memory_order_relaxed);
      }
      if (!ok) {
        std::lock_guard<std::mutex> lock(failed_mu);
        if (!first_failed || i < *first_failed) first_failed = i;
      }
    }
  };

  int workers = options.workers;
  if (workers <= 1 || count < 2) {
    work(0, count, 0);
  } else {
    std::vector<std::thread> pool;
    std::size_t per = (count + static_cast<std::size_t>(workers) - 1) /
                      static_cast<std::size_t>(workers);
    for (int w = 0; w < workers; ++w) {
      std::size_t begin = static_cast<std::size_t>(w) * per;
      std::size_t end = std::min(begin + per, count);
      if (begin >= end) break;
      pool.emplace_back(work, begin, end, w);
    }
    for (auto &t : pool) t.join();
  }
  if (first_failed) {
    return Error::unavailable(
        "dfg exec: node '" + callee + "' lost element " +
        std::to_string(*first_failed) + " after " +
        std::to_string(max_attempts) + " attempts (injected node-fault)");
  }
  return out;
}

}  // namespace

Expected<std::map<std::string, Stream>> execute_dfg(
    const ir::Module &module, const NodeRegistry &registry,
    const std::map<std::string, Stream> &inputs, const DfgExecOptions &options,
    DfgRunStats *stats, obs::TraceRecorder *recorder) {
  const Operation *graph = nullptr;
  for (const Operation &op : module.body().operations()) {
    if (op.name() == "dfg.graph") {
      graph = &op;
      break;
    }
  }
  if (!graph)
    return Error::invalid_argument("dfg exec: no dfg.graph in module");
  if (options.workers < 1)
    return Error::invalid_argument("dfg exec: workers must be >= 1");

  std::map<const Value *, Stream> streams;
  std::map<std::string, Stream> outputs;
  std::size_t element_count = 0;
  bool have_count = false;
  std::atomic<std::size_t> node_invocations{0};
  std::atomic<std::size_t> faults_injected{0};
  std::atomic<std::size_t> element_retries{0};
  std::size_t fold_invocations = 0;
  std::size_t checkpoints_saved = 0;
  std::size_t checkpoint_restores = 0;
  std::size_t elements_replayed = 0;
  std::size_t stage_ordinal = 0;

  // Wall-clock budget per stage (node or fold). Checked when the stage
  // completes: a blown budget fails the run with DeadlineExceeded.
  auto stage_clock = [] { return std::chrono::steady_clock::now(); };
  auto stage_overrun =
      [&](const std::string &callee,
          std::chrono::steady_clock::time_point start) -> support::Status {
    if (options.stage_deadline_us < 0.0) return support::Status::ok();
    double elapsed_us =
        std::chrono::duration<double, std::micro>(stage_clock() - start)
            .count();
    if (elapsed_us <= options.stage_deadline_us) return support::Status::ok();
    if (recorder) recorder->counter("resil.deadline.stage_exceeded").add(1);
    return support::Status(Error::deadline_exceeded(
        "dfg exec: stage '" + callee + "' ran " + std::to_string(elapsed_us) +
        " us, past the " + std::to_string(options.stage_deadline_us) +
        " us stage deadline"));
  };

  for (const Operation &op : graph->region(0).front().operations()) {
    const std::string &name = op.name();

    if (name == "dfg.input") {
      auto it = inputs.find(op.attr_string("name"));
      if (it == inputs.end())
        return Error::invalid_argument("dfg exec: missing input stream '" +
                                       op.attr_string("name") + "'");
      if (have_count && it->second.size() != element_count)
        return Error::invalid_argument(
            "dfg exec: input streams must be element-aligned");
      element_count = it->second.size();
      have_count = true;
      streams[op.result(0)] = it->second;
      continue;
    }

    if (name == "dfg.output") {
      auto it = streams.find(op.operand(0));
      if (it == streams.end())
        return Error::invalid_argument(
            "dfg exec: output of unevaluated stream");
      outputs[op.attr_string("name")] = it->second;
      continue;
    }

    if (name == "dfg.node") {
      const NodeFn *fn = registry.find_node(op.attr_string("callee"));
      if (!fn)
        return Error::not_found("dfg exec: no registered operator '" +
                                op.attr_string("callee") + "'");
      std::vector<const Stream *> args;
      std::size_t count = 0;
      for (std::size_t i = 0; i < op.num_operands(); ++i) {
        const Stream &s = streams.at(op.operand(i));
        args.push_back(&s);
        count = std::max(count, s.size());
      }
      // Fold outputs have length 1 and broadcast; general case requires
      // aligned lengths.
      for (const Stream *s : args) {
        if (s->size() != count && s->size() != 1)
          return Error::invalid_argument(
              "dfg exec: stream length mismatch at node '" +
              op.attr_string("callee") + "'");
      }
      std::vector<Stream> broadcast_storage;
      std::vector<const Stream *> aligned = args;
      for (auto &s : aligned) {
        if (s->size() == 1 && count > 1) {
          broadcast_storage.emplace_back(count, (*s)[0]);
          s = &broadcast_storage.back();
        }
      }
      auto stage_start = stage_clock();
      auto result = parallel_map(*fn, op.attr_string("callee"), aligned, count,
                                 options, stage_ordinal, node_invocations,
                                 faults_injected, element_retries, recorder);
      ++stage_ordinal;
      if (!result) return result.error();
      if (auto s = stage_overrun(op.attr_string("callee"), stage_start);
          !s.is_ok())
        return s.error();
      streams[op.result(0)] = std::move(*result);
      if (recorder)
        recorder->counter("dfg.node." + op.attr_string("callee"))
            .add(static_cast<std::int64_t>(count));
      continue;
    }

    if (name == "dfg.fold") {
      const NodeRegistry::Fold *fold =
          registry.find_fold(op.attr_string("callee"));
      if (!fold)
        return Error::not_found("dfg exec: no registered fold '" +
                                op.attr_string("callee") + "'");
      std::vector<const Stream *> args;
      std::size_t count = 0;
      for (std::size_t i = 0; i < op.num_operands(); ++i) {
        const Stream &s = streams.at(op.operand(i));
        args.push_back(&s);
        count = std::max(count, s.size());
      }
      std::optional<obs::TraceRecorder::Span> span;
      if (recorder)
        span.emplace(recorder->span(op.attr_string("callee"), "dfg.fold",
                                    "dfg.fold"));
      auto stage_start = stage_clock();

      // Sequential fold with optional checkpointing: snapshot (state,
      // cursor) every `interval` elements; an injected fold fault restores
      // the latest snapshot and replays from there instead of recomputing
      // the whole stream. Replayed steps are bit-identical because the fold
      // function is pure, so the final state matches a fault-free run.
      Record state = fold->initial;
      Record ckpt_state = fold->initial;
      std::size_t ckpt_cursor = 0;
      std::size_t interval = options.checkpoint.interval;
      std::uint64_t incarnation = 0;
      std::size_t fold_restores = 0;
      const std::size_t max_restores = 16 + 4 * count;
      std::vector<const Record *> element(args.size());
      std::size_t i = 0;
      while (i < count) {
        if (interval > 0 && i > ckpt_cursor && i % interval == 0) {
          ckpt_state = state;
          ckpt_cursor = i;
          ++checkpoints_saved;
        }
        if (options.faults &&
            options.faults->decide(FaultSite::FoldStep, i,
                                   stage_salt(stage_ordinal, 0) +
                                       incarnation) !=
                InjectedFault::None) {
          options.faults->tally(InjectedFault::FoldFault);
          faults_injected.fetch_add(1, std::memory_order_relaxed);
          if (++fold_restores > max_restores)
            return Error::unavailable(
                "dfg exec: fold '" + op.attr_string("callee") +
                "' exceeded its fault budget (" +
                std::to_string(max_restores) + " restores)");
          ++incarnation;
          ++checkpoint_restores;
          elements_replayed += i - ckpt_cursor;
          state = ckpt_state;
          i = ckpt_cursor;
          if (recorder) recorder->counter("resil.checkpoint.restored").add(1);
          continue;
        }
        for (std::size_t s = 0; s < args.size(); ++s)
          element[s] = args[s]->size() == 1 ? &(*args[s])[0] : &(*args[s])[i];
        state = fold->fn(state, element);
        ++fold_invocations;
        ++i;
      }
      ++stage_ordinal;
      if (auto s = stage_overrun(op.attr_string("callee"), stage_start);
          !s.is_ok())
        return s.error();
      if (recorder)
        recorder->counter("dfg.fold." + op.attr_string("callee"))
            .add(static_cast<std::int64_t>(count));
      streams[op.result(0)] = Stream{state};
      continue;
    }

    return Error::unsupported("dfg exec: unsupported op '" + name + "'");
  }

  if (recorder) {
    if (checkpoints_saved > 0)
      recorder->counter("resil.checkpoint.saved")
          .add(static_cast<std::int64_t>(checkpoints_saved));
    if (elements_replayed > 0)
      recorder->counter("resil.checkpoint.replayed_elements")
          .add(static_cast<std::int64_t>(elements_replayed));
    if (element_retries.load() > 0)
      recorder->counter("resil.dfg.element_retries")
          .add(static_cast<std::int64_t>(element_retries.load()));
  }
  if (stats) {
    stats->elements = element_count;
    stats->node_invocations = node_invocations.load();
    stats->fold_invocations = fold_invocations;
    stats->workers = options.workers;
    stats->faults_injected = faults_injected.load();
    stats->element_retries = element_retries.load();
    stats->checkpoints_saved = checkpoints_saved;
    stats->checkpoint_restores = checkpoint_restores;
    stats->elements_replayed = elements_replayed;
  }
  return outputs;
}

}  // namespace everest::runtime
