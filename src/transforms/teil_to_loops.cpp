#include "transforms/teil_to_loops.hpp"

#include <map>
#include <vector>

#include "ir/builder.hpp"

namespace everest::transforms {

namespace {

using ir::Attribute;
using ir::Operation;
using ir::Type;
using ir::Value;
using support::Error;
using support::Expected;

constexpr std::int64_t kElementBytes = 8;  // f64 datapath by default

/// Builds one scf.for nest over `shape`. Returns a builder positioned inside
/// the innermost body (before its scf.yield) plus the induction variables.
struct LoopNest {
  ir::OpBuilder body;
  std::vector<Value *> ivs;
};

LoopNest emit_loop_nest(ir::OpBuilder b, const std::vector<std::int64_t> &shape) {
  std::vector<Value *> ivs;
  for (std::int64_t extent : shape) {
    Value *lo = b.constant_index(0);
    Value *hi = b.constant_index(extent);
    Value *step = b.constant_index(1);
    Operation &loop = b.create("scf.for", {lo, hi, step}, {},
                               {{"trip_count", extent}}, 1);
    ir::Block &body = loop.region(0).add_block();
    Value &iv = body.add_argument(Type::index());
    ivs.push_back(&iv);
    ir::OpBuilder inner(&body);
    Operation &yield = inner.create("scf.yield", {}, {});
    inner.set_insertion_point(&yield);
    b = inner;
  }
  return LoopNest{b, std::move(ivs)};
}

class LoopLowering {
public:
  explicit LoopLowering(const Operation &func) : func_(func) {}

  Expected<std::shared_ptr<ir::Module>> run() {
    auto out = std::make_shared<ir::Module>();
    Operation *fn = Operation::create(
        out->arena(), ir::Symbol("func.func"), {}, {},
        {{"sym_name", Attribute(func_.attr_string("sym_name"))}}, 1);
    ir::Block &body = fn->region(0).add_block();
    out->body().attach(fn);
    ir::OpBuilder b(&body);

    for (const Operation &op : func_.region(0).front().operations()) {
      if (auto s = lower(b, op); !s.is_ok())
        return Error::make(s.message());
    }
    return out;
  }

private:
  static std::vector<std::int64_t> shape_of(const Type &t) {
    return t.is_tensor() ? t.dims() : std::vector<std::int64_t>{};
  }

  Value *alloc_buffer(ir::OpBuilder &b, const Type &t,
                      ir::AttrDict extra = {}) {
    std::int64_t elems = t.is_tensor() ? t.num_elements() : 1;
    extra.set("bytes", Attribute(elems * kElementBytes));
    return b.create_value("memref.alloc", {}, t, std::move(extra));
  }

  Value *load(ir::OpBuilder &b, Value *buffer, std::vector<Value *> idx) {
    std::vector<Value *> operands{buffer};
    operands.insert(operands.end(), idx.begin(), idx.end());
    Type elem = buffer->type().is_tensor() ? buffer->type().element()
                                           : buffer->type();
    return b.create_value("memref.load", operands, elem);
  }

  void store(ir::OpBuilder &b, Value *value, Value *buffer,
             std::vector<Value *> idx) {
    std::vector<Value *> operands{value, buffer};
    operands.insert(operands.end(), idx.begin(), idx.end());
    b.create("memref.store", operands, {});
  }

  support::Status lower(ir::OpBuilder &b, const Operation &op) {
    const std::string &name = op.name();
    Type f64 = Type::floating(64);

    if (name == "teil.output") {
      Value *out = alloc_buffer(b, op.operand(0)->type(),
                                {{"name", Attribute(op.attr_string("name"))},
                                 {"kind", Attribute("output")}});
      b.create("memref.copy", {buffers_.at(op.operand(0)), out}, {});
      return support::Status::ok();
    }

    const Type &rt = op.result(0)->type();
    auto out_shape = shape_of(rt);

    if (name == "teil.input") {
      buffers_[op.result(0)] =
          alloc_buffer(b, rt,
                       {{"name", Attribute(op.attr_string("name"))},
                        {"kind", Attribute("input")}});
      return support::Status::ok();
    }

    Value *result = alloc_buffer(b, rt);
    buffers_[op.result(0)] = result;

    if (name == "teil.constant") {
      auto nest = emit_loop_nest(b, out_shape);
      Value *c = nest.body.constant_f64(op.attr_double("value"));
      store(nest.body, c, result, nest.ivs);
    } else if (name == "teil.iota") {
      auto nest = emit_loop_nest(b, out_shape);
      Value *as_f64 =
          nest.body.create_value("arith.sitofp", {nest.ivs[0]}, f64);
      store(nest.body, as_f64, result, nest.ivs);
    } else if (name == "teil.map") {
      auto nest = emit_loop_nest(b, out_shape);
      std::vector<Value *> args;
      for (std::size_t i = 0; i < op.num_operands(); ++i)
        args.push_back(load(nest.body, buffers_.at(op.operand(i)), nest.ivs));
      Value *v = emit_scalar_fn(nest.body, op.attr_string("fn"), args);
      if (!v) return support::Status::failure("teil->loops: unknown fn '" +
                                              op.attr_string("fn") + "'");
      store(nest.body, v, result, nest.ivs);
    } else if (name == "teil.broadcast") {
      auto map = op.attr("map")->as_int_vector();
      auto nest = emit_loop_nest(b, out_shape);
      std::size_t src_rank = shape_of(op.operand(0)->type()).size();
      std::vector<Value *> src_idx(src_rank, nullptr);
      for (std::size_t d = 0; d < map.size(); ++d) {
        if (map[d] >= 0)
          src_idx[static_cast<std::size_t>(map[d])] = nest.ivs[d];
      }
      Value *v = load(nest.body, buffers_.at(op.operand(0)), src_idx);
      store(nest.body, v, result, nest.ivs);
    } else if (name == "teil.reduce") {
      // Zero-init, then accumulate over the full source space.
      {
        auto init = emit_loop_nest(b, out_shape);
        Value *zero = init.body.constant_f64(0.0);
        store(init.body, zero, result, init.ivs);
      }
      auto src_shape = shape_of(op.operand(0)->type());
      auto axes = op.attr("axes")->as_int_vector();
      std::vector<bool> reduced(src_shape.size(), false);
      for (auto a : axes) reduced[static_cast<std::size_t>(a)] = true;
      // Reduced dims iterate outer, kept dims inner, so the accumulator
      // address changes every innermost iteration (no pipeline recurrence
      // when any output dim exists).
      std::vector<std::size_t> order;
      for (std::size_t d = 0; d < src_shape.size(); ++d)
        if (reduced[d]) order.push_back(d);
      for (std::size_t d = 0; d < src_shape.size(); ++d)
        if (!reduced[d]) order.push_back(d);
      std::vector<std::int64_t> nest_shape;
      for (std::size_t d : order) nest_shape.push_back(src_shape[d]);
      auto nest = emit_loop_nest(b, nest_shape);
      std::vector<Value *> src_idx(src_shape.size(), nullptr);
      for (std::size_t k = 0; k < order.size(); ++k)
        src_idx[order[k]] = nest.ivs[k];
      std::vector<Value *> out_idx;
      for (std::size_t d = 0; d < src_shape.size(); ++d) {
        if (!reduced[d]) out_idx.push_back(src_idx[d]);
      }
      Value *acc = load(nest.body, result, out_idx);
      Value *v = load(nest.body, buffers_.at(op.operand(0)), src_idx);
      Value *sum = nest.body.create_value("arith.addf", {acc, v}, f64);
      store(nest.body, sum, result, out_idx);
    } else if (name == "teil.gather") {
      auto nest = emit_loop_nest(b, out_shape);
      std::size_t r = shape_of(op.operand(0)->type()).size();
      std::vector<Value *> src_idx;
      for (std::size_t d = 0; d < r; ++d) {
        Value *fidx =
            load(nest.body, buffers_.at(op.operand(d + 1)), nest.ivs);
        Value *iidx = nest.body.create_value("arith.fptosi", {fidx},
                                             Type::index());
        src_idx.push_back(iidx);
      }
      Value *v = load(nest.body, buffers_.at(op.operand(0)), src_idx);
      store(nest.body, v, result, nest.ivs);
    } else if (name == "teil.stack") {
      std::vector<std::int64_t> part_shape(out_shape.begin(),
                                           out_shape.end() - 1);
      for (std::size_t p = 0; p < op.num_operands(); ++p) {
        auto nest = emit_loop_nest(b, part_shape);
        Value *v = load(nest.body, buffers_.at(op.operand(p)), nest.ivs);
        std::vector<Value *> out_idx = nest.ivs;
        out_idx.push_back(nest.body.constant_index(static_cast<std::int64_t>(p)));
        store(nest.body, v, result, out_idx);
      }
    } else if (name == "teil.transpose") {
      auto perm = op.attr("perm")->as_int_vector();
      auto src_shape = shape_of(op.operand(0)->type());
      auto nest = emit_loop_nest(b, src_shape);
      Value *v = load(nest.body, buffers_.at(op.operand(0)), nest.ivs);
      std::vector<Value *> out_idx(perm.size());
      for (std::size_t d = 0; d < perm.size(); ++d)
        out_idx[d] = nest.ivs[static_cast<std::size_t>(perm[d])];
      store(nest.body, v, result, out_idx);
    } else if (name == "teil.contract") {
      std::string ls = op.attr_string("lhs");
      std::string rs = op.attr_string("rhs");
      std::string os = op.attr_string("out");
      auto lhs_shape = shape_of(op.operand(0)->type());
      auto rhs_shape = shape_of(op.operand(1)->type());
      std::map<char, std::int64_t> ext;
      for (std::size_t d = 0; d < ls.size(); ++d) ext[ls[d]] = lhs_shape[d];
      for (std::size_t d = 0; d < rs.size(); ++d) ext[rs[d]] = rhs_shape[d];
      // Contracted letters iterate OUTER, output letters INNER: the store
      // address then varies with the innermost loop, so the accumulation is
      // not a pipeline recurrence (the loop order HLS tools pick for
      // II=1 reductions when an output dim exists).
      std::string all;
      for (auto &[c, e] : ext) {
        if (os.find(c) == std::string::npos) all += c;
      }
      all += os;
      {
        auto init = emit_loop_nest(b, out_shape);
        Value *zero = init.body.constant_f64(0.0);
        store(init.body, zero, result, init.ivs);
      }
      std::vector<std::int64_t> space;
      for (char c : all) space.push_back(ext[c]);
      auto nest = emit_loop_nest(b, space);
      auto pick = [&](const std::string &subs) {
        std::vector<Value *> idx;
        for (char c : subs) idx.push_back(nest.ivs[all.find(c)]);
        return idx;
      };
      Value *l = load(nest.body, buffers_.at(op.operand(0)), pick(ls));
      Value *r2 = load(nest.body, buffers_.at(op.operand(1)), pick(rs));
      Value *prod = nest.body.create_value("arith.mulf", {l, r2}, f64);
      Value *acc = load(nest.body, result, pick(os));
      Value *sum = nest.body.create_value("arith.addf", {acc, prod}, f64);
      store(nest.body, sum, result, pick(os));
    } else {
      return support::Status::failure("teil->loops: unsupported op '" + name +
                                      "'");
    }
    return support::Status::ok();
  }

  Value *emit_scalar_fn(ir::OpBuilder &b, const std::string &fn,
                        const std::vector<Value *> &a) {
    Type f64 = Type::floating(64);
    Type i1 = Type::integer(1);
    auto cmp = [&](const char *pred) {
      Value *c = b.create_value("arith.cmpf", {a[0], a[1]}, i1,
                                {{"predicate", Attribute(pred)}});
      Value *one = b.constant_f64(1.0);
      Value *zero = b.constant_f64(0.0);
      return b.create_value("arith.select", {c, one, zero}, f64);
    };
    if (fn == "add") return b.create_value("arith.addf", {a[0], a[1]}, f64);
    if (fn == "sub") return b.create_value("arith.subf", {a[0], a[1]}, f64);
    if (fn == "mul") return b.create_value("arith.mulf", {a[0], a[1]}, f64);
    if (fn == "div") return b.create_value("arith.divf", {a[0], a[1]}, f64);
    if (fn == "min") return b.create_value("arith.minf", {a[0], a[1]}, f64);
    if (fn == "max") return b.create_value("arith.maxf", {a[0], a[1]}, f64);
    if (fn == "neg") return b.create_value("arith.negf", {a[0]}, f64);
    if (fn == "exp") return b.create_value("arith.exp", {a[0]}, f64);
    if (fn == "sqrt") return b.create_value("arith.sqrt", {a[0]}, f64);
    if (fn == "cmp_le") return cmp("ole");
    if (fn == "cmp_lt") return cmp("olt");
    if (fn == "cmp_ge") return cmp("oge");
    if (fn == "cmp_gt") return cmp("ogt");
    if (fn == "cmp_eq") return cmp("oeq");
    if (fn == "cmp_ne") return cmp("one");
    if (fn == "select" && a.size() == 3) {
      Value *zero = b.constant_f64(0.0);
      Value *c = b.create_value("arith.cmpf", {a[0], zero}, Type::integer(1),
                                {{"predicate", Attribute("one")}});
      return b.create_value("arith.select", {c, a[1], a[2]}, f64);
    }
    return nullptr;
  }

  const Operation &func_;
  std::map<const Value *, Value *> buffers_;
};

}  // namespace

Expected<std::shared_ptr<ir::Module>> lower_teil_to_loops(
    const ir::Module &module) {
  const Operation *func = nullptr;
  for (const Operation &op : module.body().operations()) {
    if (op.name() == "teil.func") {
      func = &op;
      break;
    }
  }
  if (!func) return Error::make("teil->loops: no teil.func in module");
  return LoopLowering(*func).run();
}

}  // namespace everest::transforms
