#include "core/reconstruction.h"

#include "common/error.h"
#include "common/string_util.h"
#include "jit/schema.h"

namespace mystique::core {

namespace {

jit::Constant
argument_to_constant(const et::Argument& arg)
{
    jit::Constant c;
    switch (arg.kind) {
      case et::Argument::Kind::kNone:
        c.kind = jit::Constant::Kind::kNone;
        break;
      case et::Argument::Kind::kInt:
        c.kind = jit::Constant::Kind::kInt;
        c.int_value = arg.int_value;
        break;
      case et::Argument::Kind::kDouble:
        c.kind = jit::Constant::Kind::kFloat;
        c.float_value = arg.double_value;
        break;
      case et::Argument::Kind::kBool:
        c.kind = jit::Constant::Kind::kBool;
        c.bool_value = arg.bool_value;
        break;
      case et::Argument::Kind::kIntList:
        c.kind = jit::Constant::Kind::kIntList;
        c.int_list = arg.int_list;
        break;
      case et::Argument::Kind::kString:
        c.kind = jit::Constant::Kind::kString;
        c.string_value = arg.string_value;
        break;
      case et::Argument::Kind::kTensor:
      case et::Argument::Kind::kTensorList:
        c.kind = jit::Constant::Kind::kTensorInput;
        break;
    }
    return c;
}

/// The IValue of a tensor or tensor-list argument, read from the slots at
/// @p slot (advanced past the argument's tensors).
fw::IValue
tensor_argument(const et::Argument& arg, const int32_t*& slot, const TensorManager& tm)
{
    if (arg.kind == et::Argument::Kind::kTensor) {
        fw::IValue v(tm.get(*slot));
        slot += arg.tensors.size();
        return v;
    }
    std::vector<fw::Tensor> ts;
    ts.reserve(arg.tensors.size());
    for (std::size_t k = 0; k < arg.tensors.size(); ++k)
        ts.push_back(tm.get(*slot++));
    return fw::IValue(std::move(ts));
}

fw::IValue
argument_to_ivalue(const et::Argument& arg, const int32_t*& slot, const TensorManager& tm)
{
    switch (arg.kind) {
      case et::Argument::Kind::kNone:
        return fw::IValue::none();
      case et::Argument::Kind::kInt:
        return fw::IValue(arg.int_value);
      case et::Argument::Kind::kDouble:
        return fw::IValue(arg.double_value);
      case et::Argument::Kind::kBool:
        return fw::IValue(arg.bool_value);
      case et::Argument::Kind::kIntList:
        return fw::IValue(arg.int_list);
      case et::Argument::Kind::kString:
        return fw::IValue(arg.string_value);
      case et::Argument::Kind::kTensor:
      case et::Argument::Kind::kTensorList:
        return tensor_argument(arg, slot, tm);
    }
    return fw::IValue::none();
}

} // namespace

ReconstructedOp
Reconstructor::reconstruct(const et::Node& node, bool supported)
{
    ReconstructedOp op;
    op.node = &node;
    op.op_id = node.op_id.load(); // resolved by selection; invalid for unsupported ops
    op.kind = decide_kind(node, supported);
    if (op.kind != ReconstructedOp::Kind::kCompiledIr)
        return op;

    // ATen path (§4.3.1): schema → IR text → compiled function.
    const jit::FunctionSchema schema = jit::parse_schema(node.op_schema);
    if (schema.args.size() != node.inputs.size())
        MYST_THROW(ReplayError, "node " << node.id << " ('" << node.name << "'): "
                                        << node.inputs.size() << " recorded args vs "
                                        << schema.args.size() << " schema args");
    std::vector<jit::Constant> constants;
    constants.reserve(node.inputs.size());
    for (const auto& arg : node.inputs)
        constants.push_back(argument_to_constant(arg));

    const Compiled compiled = compile(jit::build_ir_text(schema, constants), node);
    op.fn = compiled.fn;
    op.ir_text = compiled.text;
    return op;
}

Reconstructor::Compiled
Reconstructor::compile(std::string_view ir_text, const et::Node& node)
{
    const TextProbe probe{ir_text, std::hash<std::string_view>{}(ir_text)};
    auto it = by_text_.find(probe);
    if (it == by_text_.end()) {
        // Named after the IR, not the node: every op sharing the text runs
        // it, so run() diagnostics must not point at one particular node.
        std::string name;
        name.reserve(node.name.size() + 19);
        name += node.name;
        name += "_ir";
        append_hex64(name, probe.hash);
        const jit::Function& fn = cu_.create_function(std::move(name), ir_text);
        it = by_text_.emplace(TextKey{std::string(ir_text), probe.hash}, &fn).first;
    }
    return {it->second, it->first.text};
}

void
Reconstructor::reserve(std::size_t distinct_texts)
{
    by_text_.reserve(distinct_texts);
    cu_.reserve(distinct_texts);
}

bool
execute_reconstructed(fw::Session& session, const ReconstructedOp& op,
                       const OpTensorSlots& slots, TensorManager& tm)
{
    if (op.kind == ReconstructedOp::Kind::kSkipped)
        return false;
    const et::Node& node = *op.node;

    const int32_t* in = slots.inputs.data();
    std::vector<fw::IValue> outputs;
    if (op.kind == ReconstructedOp::Kind::kCompiledIr) {
        // Only tensor-like, present arguments feed the compiled function.
        std::vector<fw::IValue> tensor_inputs;
        tensor_inputs.reserve(op.fn->num_inputs());
        for (const auto& arg : node.inputs) {
            if (arg.kind == et::Argument::Kind::kTensor ||
                arg.kind == et::Argument::Kind::kTensorList)
                tensor_inputs.push_back(tensor_argument(arg, in, tm));
        }
        outputs = op.fn->run(session, std::move(tensor_inputs));
    } else {
        std::vector<fw::IValue> inputs;
        inputs.reserve(node.inputs.size());
        for (const auto& arg : node.inputs)
            inputs.push_back(argument_to_ivalue(arg, in, tm));
        // Direct registry dispatch by interned identity (no name lookup on
        // the per-op replay path); unresolved ids fall back to the string
        // overload for its diagnostic.
        outputs = op.op_id != kInvalidOpId ? session.call(op.op_id, std::move(inputs))
                                           : session.call(node.name, std::move(inputs));
    }

    // Bind outputs back to their recorded tensors' slots for downstream
    // consumers (§4.4 intermediate-tensor forwarding).
    const int32_t* out = slots.outputs.data();
    const std::size_t n = std::min(outputs.size(), node.outputs.size());
    for (std::size_t i = 0; i < n; ++i) {
        const auto& rec = node.outputs[i];
        if (rec.kind == et::Argument::Kind::kTensor && outputs[i].is_tensor()) {
            tm.set(*out, outputs[i].tensor());
        } else if (rec.kind == et::Argument::Kind::kTensorList &&
                   outputs[i].is_tensor_list()) {
            const auto& ts = outputs[i].tensor_list();
            for (std::size_t k = 0; k < std::min(ts.size(), rec.tensors.size()); ++k)
                tm.set(out[k], ts[k]);
        }
        out += rec.tensors.size();
    }
    return true;
}

} // namespace mystique::core
