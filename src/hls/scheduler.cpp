#include "hls/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "support/strings.hpp"
#include "support/table.hpp"

namespace everest::hls {

namespace {

using ir::Operation;
using ir::Value;
using support::Error;
using support::Expected;

bool is_float_arith(const std::string &name) {
  static const char *ops[] = {"arith.addf", "arith.subf", "arith.mulf",
                              "arith.divf", "arith.minf", "arith.maxf",
                              "arith.negf", "arith.exp",  "arith.log",
                              "arith.sqrt", "arith.cmpf"};
  return std::find(std::begin(ops), std::end(ops), name) != std::end(ops);
}

/// Follows a loop nest down to the innermost body, multiplying trip counts.
const ir::Block *innermost_body(const Operation &for_op, std::int64_t &trips) {
  trips *= std::max<std::int64_t>(for_op.attr_int("trip_count", 1), 1);
  const ir::Block &body = for_op.region(0).front();
  for (const Operation &op : body.operations()) {
    if (op.name() == "scf.for") return innermost_body(op, trips);
  }
  return &body;
}

/// The root buffer an access targets (load: operand 0; store: operand 1).
const Value *accessed_buffer(const Operation &op) {
  if (op.name() == "memref.load") return op.operand(0);
  if (op.name() == "memref.store") return op.operand(1);
  return nullptr;
}

struct StageSchedule {
  StageReport report;
};

StageSchedule schedule_stage(const Operation &for_op, const HlsOptions &opt,
                             std::size_t index) {
  StageSchedule out;
  StageReport &r = out.report;
  r.label = "nest" + std::to_string(index);

  std::int64_t trips = 1;
  const ir::Block *body = innermost_body(for_op, trips);
  r.trip_count = trips;

  // ASAP schedule of the innermost body (straight-line; scf.yield ignored).
  std::map<const Value *, int> ready_at;   // when a value becomes available
  std::map<const Operation *, int> start;  // issue cycle per op
  std::map<std::string, int> op_counts;
  int end_time = 1;

  for (const Operation &op : body->operations()) {
    if (op.name() == "scf.yield" || op.name() == "scf.for") continue;
    OpSpec spec = op_spec(op.name(), opt.datapath_bits);
    int t = 0;
    for (std::size_t i = 0; i < op.num_operands(); ++i) {
      auto it = ready_at.find(op.operand(i));
      if (it != ready_at.end()) t = std::max(t, it->second);
    }
    start[&op] = t;
    int done = t + spec.latency;
    end_time = std::max(end_time, done);
    for (std::size_t k = 0; k < op.num_results(); ++k)
      ready_at[op.result(k)] = done;
    ++op_counts[op.name()];

    if (op.name() == "memref.load") ++r.loads;
    if (op.name() == "memref.store") ++r.stores;
    if (is_float_arith(op.name())) ++r.flops;
  }
  r.depth = std::max(end_time, 1);

  // resMII: per-buffer port pressure.
  std::map<const Value *, std::pair<int, int>> per_buffer;  // loads, stores
  for (const Operation &op : body->operations()) {
    const Value *buf = accessed_buffer(op);
    if (!buf) continue;
    if (op.name() == "memref.load") per_buffer[buf].first++;
    else per_buffer[buf].second++;
  }
  int res_mii = 1;
  for (const auto &[buf, counts] : per_buffer) {
    res_mii = std::max(
        res_mii, (counts.first + opt.mem_read_ports - 1) / opt.mem_read_ports);
    res_mii = std::max(res_mii, (counts.second + opt.mem_write_ports - 1) /
                                    opt.mem_write_ports);
  }

  // recMII: loop-carried accumulation — a store whose stored value depends on
  // a load from the same buffer at the SAME address every iteration. When
  // the access is indexed by the innermost induction variable, consecutive
  // iterations touch different addresses and the dependence distance exceeds
  // the II window (HLS pipelines it at II=1).
  const Value *innermost_iv =
      body->num_arguments() > 0 ? &body->argument(0) : nullptr;
  int rec_mii = 1;
  for (const Operation &store : body->operations()) {
    if (store.name() != "memref.store") continue;
    const Value *buf = store.operand(1);
    bool varies_per_iteration = false;
    for (std::size_t i = 2; i < store.num_operands(); ++i) {
      if (store.operand(i) == innermost_iv) varies_per_iteration = true;
    }
    if (varies_per_iteration) continue;
    // Breadth-first over the stored value's def chain within the body.
    std::set<const Operation *> visited;
    std::vector<const Operation *> frontier;
    if (const Operation *def = store.operand(0)->defining_op())
      frontier.push_back(def);
    while (!frontier.empty()) {
      const Operation *def = frontier.back();
      frontier.pop_back();
      if (!visited.insert(def).second) continue;
      if (def->name() == "memref.load" && def->operand(0) == buf) {
        OpSpec store_spec = op_spec("memref.store", opt.datapath_bits);
        int length = start.at(&store) + store_spec.latency -
                     start.at(def);
        rec_mii = std::max(rec_mii, std::max(length, 1));
        r.has_recurrence = true;
      }
      for (std::size_t i = 0; i < def->num_operands(); ++i) {
        if (const Operation *next = def->operand(i)->defining_op())
          frontier.push_back(next);
      }
    }
  }

  r.ii = std::max(res_mii, rec_mii);
  if (opt.enable_pipelining) {
    r.latency_cycles = r.depth + static_cast<std::int64_t>(r.ii) *
                                     std::max<std::int64_t>(r.trip_count - 1, 0);
  } else {
    r.latency_cycles = static_cast<std::int64_t>(r.depth) * r.trip_count;
  }

  // Area with functional-unit sharing across II slots.
  for (const auto &[name, count] : op_counts) {
    OpSpec spec = op_spec(name, opt.datapath_bits);
    std::int64_t units = (count + r.ii - 1) / r.ii;
    r.area += spec.area * units;
  }
  return out;
}

}  // namespace

Expected<KernelReport> schedule_kernel(const ir::Module &loops,
                                       const HlsOptions &options) {
  const Operation *func = nullptr;
  for (const Operation &op : loops.body().operations()) {
    if (op.name() == "func.func") {
      func = &op;
      break;
    }
  }
  if (!func) return Error::invalid_argument("hls: no func.func in module");

  KernelReport report;
  report.name = func->attr_string("sym_name");
  report.clock_mhz = options.clock_mhz;

  std::size_t nest_index = 0;
  for (const Operation &op : func->region(0).front().operations()) {
    if (op.name() == "memref.alloc") {
      std::int64_t bytes = op.attr_int("bytes");
      std::string kind = op.attr_string("kind", "");
      if (kind == "input") {
        report.input_bytes += bytes;  // external: streamed over the bus
      } else if (kind == "output") {
        report.output_bytes += bytes;
      } else {
        // Only internal buffers occupy on-fabric BRAM; I/O-tagged buffers
        // live in HBM/DDR behind the AXI interfaces Olympus generates.
        report.buffer_bytes += bytes;
        report.area.brams += brams_for_bytes(bytes);
      }
    } else if (op.name() == "scf.for") {
      auto stage = schedule_stage(op, options, nest_index++);
      report.total_cycles += stage.report.latency_cycles;
      report.area += stage.report.area;
      report.stages.push_back(std::move(stage.report));
    }
  }
  if (report.stages.empty())
    return Error::invalid_argument("hls: kernel has no loop nests to schedule");

  // Dataflow (read/execute/write pipelining, ref [16]): stages overlap, so
  // steady-state cost is the slowest stage; other stages contribute their
  // fill depth once.
  std::int64_t max_stage = 0;
  std::int64_t fill = 0;
  for (const auto &s : report.stages) {
    max_stage = std::max(max_stage, s.latency_cycles);
    fill += s.depth;
  }
  report.dataflow_cycles = max_stage + fill;
  return report;
}

std::string render_report(const KernelReport &r) {
  std::string out;
  out += "== EVEREST HLS synthesis report: " + r.name + " ==\n";
  out += "clock: " + support::format_double(r.clock_mhz) + " MHz\n";
  support::Table t({"stage", "trips", "depth", "II", "cycles", "loads",
                    "stores", "flops", "rec"});
  for (const auto &s : r.stages) {
    t.add_row({s.label, std::to_string(s.trip_count), std::to_string(s.depth),
               std::to_string(s.ii), std::to_string(s.latency_cycles),
               std::to_string(s.loads), std::to_string(s.stores),
               std::to_string(s.flops), s.has_recurrence ? "yes" : "no"});
  }
  out += t.render();
  out += "total cycles (sequential): " + std::to_string(r.total_cycles) +
         "  (" + support::format_double(r.latency_us(false)) + " us)\n";
  out += "total cycles (dataflow):   " + std::to_string(r.dataflow_cycles) +
         "  (" + support::format_double(r.latency_us(true)) + " us)\n";
  out += "area: " + std::to_string(r.area.luts) + " LUT, " +
         std::to_string(r.area.ffs) + " FF, " + std::to_string(r.area.dsps) +
         " DSP, " + std::to_string(r.area.brams) + " BRAM\n";
  out += "host traffic: in " + support::format_bytes(static_cast<double>(r.input_bytes)) +
         ", out " + support::format_bytes(static_cast<double>(r.output_bytes)) +
         "; PLM " + support::format_bytes(static_cast<double>(r.buffer_bytes)) + "\n";
  return out;
}

// --------------------------------------------------------- JSON round trip

namespace {

support::Json resources_to_json(const Resources &a) {
  auto j = support::Json::object();
  j.set("luts", a.luts);
  j.set("ffs", a.ffs);
  j.set("dsps", a.dsps);
  j.set("brams", a.brams);
  return j;
}

Resources resources_from_json(const support::Json &j) {
  return Resources{j["luts"].as_int(), j["ffs"].as_int(), j["dsps"].as_int(),
                   j["brams"].as_int()};
}

}  // namespace

support::Json report_to_json(const KernelReport &report) {
  auto j = support::Json::object();
  j.set("name", report.name);
  j.set("total_cycles", report.total_cycles);
  j.set("dataflow_cycles", report.dataflow_cycles);
  j.set("clock_mhz", report.clock_mhz);
  j.set("area", resources_to_json(report.area));
  j.set("input_bytes", report.input_bytes);
  j.set("output_bytes", report.output_bytes);
  j.set("buffer_bytes", report.buffer_bytes);
  auto stages = support::Json::array();
  for (const auto &s : report.stages) {
    auto stage = support::Json::object();
    stage.set("label", s.label);
    stage.set("trip_count", s.trip_count);
    stage.set("depth", s.depth);
    stage.set("ii", s.ii);
    stage.set("latency_cycles", s.latency_cycles);
    stage.set("loads", s.loads);
    stage.set("stores", s.stores);
    stage.set("flops", s.flops);
    stage.set("has_recurrence", s.has_recurrence);
    stage.set("area", resources_to_json(s.area));
    stages.push_back(std::move(stage));
  }
  j.set("stages", std::move(stages));
  return j;
}

support::Expected<KernelReport> report_from_json(const support::Json &json) {
  if (!json.is_object() || !json["name"].is_string() ||
      !json["stages"].is_array() || !json["area"].is_object())
    return support::Error::invalid_argument(
        "hls report: malformed JSON kernel report");
  KernelReport r;
  r.name = json["name"].as_string();
  r.total_cycles = json["total_cycles"].as_int();
  r.dataflow_cycles = json["dataflow_cycles"].as_int();
  r.clock_mhz = json["clock_mhz"].as_number();
  r.area = resources_from_json(json["area"]);
  r.input_bytes = json["input_bytes"].as_int();
  r.output_bytes = json["output_bytes"].as_int();
  r.buffer_bytes = json["buffer_bytes"].as_int();
  for (std::size_t i = 0; i < json["stages"].size(); ++i) {
    const auto &stage = json["stages"][i];
    if (!stage.is_object() || !stage["label"].is_string())
      return support::Error::invalid_argument(
          "hls report: malformed JSON stage entry");
    StageReport s;
    s.label = stage["label"].as_string();
    s.trip_count = stage["trip_count"].as_int();
    s.depth = static_cast<int>(stage["depth"].as_int());
    s.ii = static_cast<int>(stage["ii"].as_int());
    s.latency_cycles = stage["latency_cycles"].as_int();
    s.loads = static_cast<int>(stage["loads"].as_int());
    s.stores = static_cast<int>(stage["stores"].as_int());
    s.flops = static_cast<int>(stage["flops"].as_int());
    s.has_recurrence = stage["has_recurrence"].as_bool();
    s.area = resources_from_json(stage["area"]);
    r.stages.push_back(std::move(s));
  }
  return r;
}

}  // namespace everest::hls
