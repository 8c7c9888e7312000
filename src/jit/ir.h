#pragma once

/// @file
/// A textual IR mirroring TorchScript graphs, with builder, parser and an
/// interpreter ("CompilationUnit").  The replayer compiles every recorded
/// ATen operator into one of these callables during initialization, exactly
/// as the paper does with torch._C.parse_ir (§4.3.1):
///
///   graph(%self.1 : Tensor,
///         %other.1 : Tensor):
///     %4 : int = prim::Constant[value=1]()
///     %5 : Tensor = aten::add.Tensor(%self.1, %other.1, %4)
///     return (%5)
///
/// Non-tensor arguments recorded in the ET become prim::Constant nodes;
/// tensor arguments become graph inputs.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/op_id.h"
#include "framework/ivalue.h"
#include "jit/schema.h"

namespace mystique::fw {
class Session;
}

namespace mystique::jit {

/// A constant literal in the IR.
///
/// kTensorInput is a builder-side marker (never rendered): it flags an
/// argument position as a tensor supplied at call time, so that optional
/// Tensor? slots can distinguish "present tensor" from "recorded None".
struct Constant {
    enum class Kind { kNone, kInt, kFloat, kBool, kIntList, kString, kTensorInput };
    Kind kind = Kind::kNone;
    int64_t int_value = 0;
    double float_value = 0.0;
    bool bool_value = false;
    std::vector<int64_t> int_list;
    std::string string_value;

    /// Renders "prim::Constant[value=...]" payload text.
    std::string render() const;
    /// Converts to the runtime argument value.
    fw::IValue to_ivalue() const;
};

/// One IR node: either a prim::Constant or an operator call.
struct IrNode {
    std::vector<std::string> outputs;      ///< "%5"
    std::vector<std::string> output_types; ///< "Tensor"
    std::string op;                        ///< "prim::Constant" or "aten::addmm"
    Constant constant;                     ///< valid when op == prim::Constant
    std::vector<std::string> inputs;       ///< "%x.1", "%4"
};

/// A parsed graph.
struct Graph {
    std::vector<std::string> input_names; ///< "%self.1"
    std::vector<std::string> input_types; ///< "Tensor"
    std::vector<IrNode> nodes;
    std::vector<std::string> return_values;

    /// Renders canonical IR text.
    std::string render() const;
};

/// Builds IR text for one recorded operator invocation.
///
/// @param schema  the parsed operator schema
/// @param constant_args  per-argument constants; entries for tensor-like
///        positions are ignored (those become graph inputs).  Size must
///        equal schema.args.size().
std::string build_ir_text(const FunctionSchema& schema,
                          const std::vector<Constant>& constant_args);

/// Parses IR text into a Graph; throws ParseError on malformed input.
Graph parse_ir(std::string_view text);

/// A compiled callable over a Graph.
///
/// Construction compiles the graph into a *slot program*: every IR value
/// name maps to a dense slot index, each prim::Constant becomes an IValue
/// once, and every operator node becomes a step reading and writing slots.
/// A value or return that no input or earlier node defines throws
/// ReplayError here, at compile time.  The graph itself is not kept, so
/// run() does no string, hash or tree lookup: its environment is a vector
/// indexed by slot, and each value moves into the step that reads it last.
class Function {
  public:
    Function(std::string name, const Graph& graph);
    /// Compiles IR text straight into the same program as
    /// Function(name, parse_ir(ir_text)), without building the Graph.
    /// Malformed text throws ParseError, an undefined value ReplayError,
    /// whichever the text meets first.
    Function(std::string name, std::string_view ir_text);

    const std::string& name() const { return name_; }
    std::size_t num_inputs() const { return num_inputs_; }

    /// Executes the program: binds @p tensor_inputs to the graph inputs in
    /// order, dispatches operator steps through the session with the
    /// precompiled constants, and returns the graph's return values.
    std::vector<fw::IValue> run(fw::Session& sess,
                                std::vector<fw::IValue> tensor_inputs) const;

  private:
    /// One argument of a step: an environment slot or a compiled constant.
    struct Operand {
        uint32_t index = 0;
        bool constant = false; ///< index into constants_ instead of a slot
        bool last_use = false; ///< slot is never read again: move, not copy
    };
    struct Step {
        std::string op; ///< for lazy resolution and diagnostics only
        /// Interned identity of `op`, resolved at compile time (lazily for
        /// ops registered later) so dispatch never re-hashes the name.
        OpIdCache op_id;
        std::vector<Operand> args;
        std::vector<uint32_t> outputs; ///< slots
    };

    std::string name_;
    std::size_t num_inputs_ = 0; ///< inputs occupy slots [0, num_inputs_)
    std::vector<fw::IValue> constants_;
    std::vector<Step> steps_;
    std::vector<Operand> returns_;
    std::size_t num_slots_ = 0; ///< size of run()'s environment

    struct Builder; ///< the compiler both constructors feed (ir.cpp)
};

/// Owns compiled functions (torch._C.CompilationUnit analogue).
class CompilationUnit {
  public:
    /// Compiles a graph into a named function and retains it.
    const Function& create_function(std::string name, const Graph& graph);
    /// Compiles IR text into a named function and retains it (the same
    /// function as create_function(name, parse_ir(ir_text))).
    const Function& create_function(std::string name, std::string_view ir_text);

    const Function* find(const std::string& name) const;
    std::size_t size() const { return functions_.size(); }
    /// Room for @p n functions without regrowth.
    void reserve(std::size_t n) { functions_.reserve(n); }

  private:
    std::vector<std::unique_ptr<Function>> functions_;
};

} // namespace mystique::jit
