#include "jit/ir.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <span>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/string_util.h"
#include "framework/session.h"

namespace mystique::jit {

std::string
Constant::render() const
{
    switch (kind) {
      case Kind::kNone:
        return "prim::Constant()";
      case Kind::kInt:
        return strprintf("prim::Constant[value=%lld]()", static_cast<long long>(int_value));
      case Kind::kFloat: {
        std::ostringstream os;
        os << "prim::Constant[value=" << float_value;
        if (float_value == static_cast<int64_t>(float_value))
            os << ".";
        os << "]()";
        return os.str();
      }
      case Kind::kBool:
        return strprintf("prim::Constant[value=%s]()", bool_value ? "True" : "False");
      case Kind::kIntList: {
        std::ostringstream os;
        os << "prim::Constant[value=[";
        for (std::size_t i = 0; i < int_list.size(); ++i) {
            if (i > 0)
                os << ", ";
            os << int_list[i];
        }
        os << "]]()";
        return os.str();
      }
      case Kind::kString:
        return strprintf("prim::Constant[value=\"%s\"]()", string_value.c_str());
      case Kind::kTensorInput:
        break; // builder-side marker; never rendered
    }
    return "prim::Constant()";
}

fw::IValue
Constant::to_ivalue() const
{
    switch (kind) {
      case Kind::kNone: return fw::IValue::none();
      case Kind::kInt: return fw::IValue(int_value);
      case Kind::kFloat: return fw::IValue(float_value);
      case Kind::kBool: return fw::IValue(bool_value);
      case Kind::kIntList: return fw::IValue(int_list);
      case Kind::kString: return fw::IValue(string_value);
    }
    return fw::IValue::none();
}

namespace {

const char*
const_type_name(Constant::Kind k)
{
    switch (k) {
      case Constant::Kind::kNone: return "NoneType";
      case Constant::Kind::kInt: return "int";
      case Constant::Kind::kFloat: return "float";
      case Constant::Kind::kBool: return "bool";
      case Constant::Kind::kIntList: return "int[]";
      case Constant::Kind::kString: return "str";
    }
    return "?";
}

} // namespace

std::string
Graph::render() const
{
    std::ostringstream os;
    os << "graph(";
    for (std::size_t i = 0; i < input_names.size(); ++i) {
        if (i > 0)
            os << ",\n      ";
        os << input_names[i] << " : " << input_types[i];
    }
    os << "):\n";
    for (const auto& n : nodes) {
        os << "  ";
        for (std::size_t i = 0; i < n.outputs.size(); ++i) {
            if (i > 0)
                os << ", ";
            os << n.outputs[i] << " : " << n.output_types[i];
        }
        os << " = ";
        if (n.op == "prim::Constant") {
            os << n.constant.render();
        } else {
            os << n.op << "(";
            for (std::size_t i = 0; i < n.inputs.size(); ++i) {
                if (i > 0)
                    os << ", ";
                os << n.inputs[i];
            }
            os << ")";
        }
        os << "\n";
    }
    os << "  return (";
    for (std::size_t i = 0; i < return_values.size(); ++i) {
        if (i > 0)
            os << ", ";
        os << return_values[i];
    }
    os << ")\n";
    return os.str();
}

std::string
build_ir_text(const FunctionSchema& schema, const std::vector<Constant>& constant_args)
{
    MYST_CHECK_MSG(constant_args.size() == schema.args.size(),
                   "constant_args size mismatch for " << schema.qualified_name());
    Graph g;
    int next_id = 0;
    std::vector<std::string> call_inputs;

    // Tensor-like args become graph inputs; others become constants.  An
    // optional Tensor? slot recorded as None becomes a constant None.
    for (std::size_t i = 0; i < schema.args.size(); ++i) {
        const auto& arg = schema.args[i];
        const bool absent_optional =
            arg.type == "Tensor?" && constant_args[i].kind == Constant::Kind::kNone;
        if (arg.is_tensor_like() && !absent_optional) {
            std::string name = "%" + arg.name + "." + std::to_string(++next_id);
            g.input_names.push_back(name);
            g.input_types.push_back(arg.type);
            call_inputs.push_back(name);
            continue;
        }
        // Constant node.
        Constant value = constant_args[i];
        if (absent_optional)
            value = Constant{}; // None
        IrNode c;
        std::string vname = "%" + std::to_string(++next_id + 100);
        c.outputs = {vname};
        c.output_types = {const_type_name(value.kind)};
        c.op = "prim::Constant";
        c.constant = value;
        g.nodes.push_back(std::move(c));
        call_inputs.push_back(vname);
    }

    IrNode call;
    call.op = schema.qualified_name();
    call.inputs = std::move(call_inputs);
    const std::size_t n_rets = schema.returns.empty() ? 0 : schema.returns.size();
    for (std::size_t r = 0; r < n_rets; ++r) {
        call.outputs.push_back("%" + std::to_string(++next_id + 200));
        call.output_types.push_back(schema.returns[r]);
    }
    std::vector<std::string> rets = call.outputs;
    g.nodes.push_back(std::move(call));
    g.return_values = std::move(rets);
    return g.render();
}

namespace {

/// Bracket nesting per character for for_each_top_level: +1 opens, -1
/// closes, 0 for everything else.  A table lookup keeps the scan of every
/// character free of branches.
constexpr std::array<int8_t, 256> kNesting = [] {
    std::array<int8_t, 256> t{};
    t['('] = t['['] = t['<'] = 1;
    t[')'] = t[']'] = t['>'] = -1;
    return t;
}();

/// Calls @p fn with each trimmed, @p delim-separated piece of @p text at
/// nesting depth 0 — split_top_level's rule ((), [] and <> nest) without
/// materializing the pieces.
template <typename Fn>
void
for_each_top_level(std::string_view text, char delim, Fn&& fn)
{
    int depth = 0;
    const char* p = text.data();
    const char* const end = p + text.size();
    const char* start = p;
    for (; p != end; ++p) {
        depth += kNesting[static_cast<unsigned char>(*p)];
        if (*p == delim && depth == 0) {
            fn(trim(std::string_view(start, static_cast<std::size_t>(p - start))));
            start = p + 1;
        }
    }
    fn(trim(std::string_view(start, static_cast<std::size_t>(end - start))));
}

/// One node as the parser reports it: views of the IR text (or of a
/// Graph's strings when a Graph is compiled), valid during the call only.
template <typename Str>
struct NodeView {
    std::span<const Str> outputs;
    std::span<const Str> output_types;
    std::string_view op;
    Constant* constant = nullptr; ///< the payload of a prim::Constant node
    std::span<const Str> inputs;
};

/// The IR parser's per-line pieces, kept per thread: a plan build or
/// restore parses dozens of short texts in a row, and reusing the vectors'
/// capacity leaves a parse allocating only what its sink keeps.  A parse
/// never starts another on the same thread while it holds them.
struct ParseScratch {
    std::vector<std::string_view> outputs, output_types, inputs;
};

ParseScratch&
parse_scratch()
{
    thread_local ParseScratch scratch;
    return scratch;
}

/// Line-oriented IR parser over views of the text.  It reports each piece
/// to a sink in text order — sink.input(name, type) per graph input,
/// sink.node(view) per node line, sink.returns(values) per return line —
/// so a Graph (parse_ir) and a compiled Function read the same parse, and
/// nothing is copied that the sink does not keep.
class IrParser {
  public:
    explicit IrParser(std::string_view text)
        : text_(text), outputs_(parse_scratch().outputs),
          output_types_(parse_scratch().output_types), inputs_(parse_scratch().inputs)
    {
    }

    template <typename Sink>
    void parse(Sink& sink)
    {
        const std::size_t close = text_.find("):");
        if (close == std::string_view::npos)
            fail("missing '):'");
        parse_header(text_.substr(0, close), sink);
        std::string_view rest = text_.substr(close + 2);
        while (!rest.empty()) {
            const std::size_t nl = rest.find('\n');
            const std::string_view line = trim(rest.substr(0, nl));
            rest = nl == std::string_view::npos ? std::string_view() : rest.substr(nl + 1);
            if (line.empty())
                continue;
            if (starts_with(line, "return")) {
                parse_return(line, sink);
            } else {
                parse_node(line, sink);
            }
        }
    }

  private:
    [[noreturn]] static void fail(const std::string& msg)
    {
        MYST_THROW(ParseError, "IR: " << msg);
    }

    /// Splits "name : type" at its first ':'.
    static std::pair<std::string_view, std::string_view> typed_value(std::string_view t,
                                                                     const char* what)
    {
        const auto colon = t.find(':');
        if (colon == std::string_view::npos)
            fail(std::string(what) + " missing type: " + std::string(t));
        return {trim(t.substr(0, colon)), trim(t.substr(colon + 1))};
    }

    template <typename Sink>
    static void parse_header(std::string_view header, Sink& sink)
    {
        const auto lparen = header.find('(');
        if (lparen == std::string_view::npos || trim(header.substr(0, lparen)) != "graph")
            fail("expected 'graph('");
        for_each_top_level(header.substr(lparen + 1), ',', [&](std::string_view t) {
            if (t.empty())
                return;
            const auto [name, type] = typed_value(t, "graph input");
            sink.input(name, type);
        });
    }

    /// Parses all of @p t as a number; false when any of it is not.
    template <typename T>
    static bool parse_number(std::string_view t, T& out)
    {
        const auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), out);
        return ec == std::errc() && p == t.data() + t.size();
    }

    /// Parses a float payload as Constant::render() writes it: a whole
    /// value gets a '.' appended even when printed in exponent form
    /// ("1e+06.", "-1e+09."), so one '.' after an exponent is accepted.
    static bool parse_float(std::string_view t, double& out)
    {
        const auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), out);
        if (ec != std::errc())
            return false;
        const std::string_view parsed(t.data(), static_cast<std::size_t>(p - t.data()));
        const std::string_view rest = t.substr(parsed.size());
        return rest.empty() ||
               (rest == "." && parsed.find_first_of("eE") != std::string_view::npos);
    }

    static Constant parse_constant_payload(std::string_view expr)
    {
        Constant c;
        const auto lb = expr.find("[value=");
        if (lb == std::string_view::npos) {
            c.kind = Constant::Kind::kNone;
            return c;
        }
        // payload extends to the matching "]" before "()"
        const auto start = lb + 7;
        const auto end = expr.rfind("]()");
        if (end == std::string_view::npos || end < start)
            MYST_THROW(ParseError, "IR: malformed constant: " << expr);
        std::string_view payload = trim(expr.substr(start, end - start));
        if (payload == "True" || payload == "False") {
            c.kind = Constant::Kind::kBool;
            c.bool_value = payload == "True";
        } else if (!payload.empty() && payload.front() == '"') {
            c.kind = Constant::Kind::kString;
            c.string_value = std::string(payload.substr(1, payload.size() - 2));
        } else if (!payload.empty() && payload.front() == '[') {
            c.kind = Constant::Kind::kIntList;
            if (payload.size() > 2) // one allocation: elements = commas + 1
                c.int_list.reserve(
                    static_cast<std::size_t>(std::count(payload.begin(), payload.end(), ',')) + 1);
            for_each_top_level(payload.substr(1, payload.size() - 2), ',',
                               [&](std::string_view t) {
                                   if (t.empty())
                                       return;
                                   int64_t v = 0;
                                   if (!parse_number(t, v))
                                       MYST_THROW(ParseError,
                                                  "IR: bad int list element: " << t);
                                   c.int_list.push_back(v);
                               });
        } else if (payload.find('.') != std::string_view::npos ||
                   payload.find('e') != std::string_view::npos) {
            c.kind = Constant::Kind::kFloat;
            if (!parse_float(payload, c.float_value))
                MYST_THROW(ParseError, "IR: bad float constant: " << payload);
        } else {
            c.kind = Constant::Kind::kInt;
            if (!parse_number(payload, c.int_value))
                MYST_THROW(ParseError, "IR: bad int constant: " << payload);
        }
        return c;
    }

    template <typename Sink>
    void parse_node(std::string_view line, Sink& sink)
    {
        const auto eq = line.find(" = ");
        if (eq == std::string_view::npos)
            fail("node missing '=': " + std::string(line));
        outputs_.clear();
        output_types_.clear();
        inputs_.clear();
        for_each_top_level(line.substr(0, eq), ',', [&](std::string_view t) {
            const auto [name, type] = typed_value(t, "node output");
            outputs_.push_back(name);
            output_types_.push_back(type);
        });
        NodeView<std::string_view> node{outputs_, output_types_, {}, nullptr, {}};
        const std::string_view expr = trim(line.substr(eq + 3));
        if (starts_with(expr, "prim::Constant")) {
            Constant constant = parse_constant_payload(expr);
            node.op = "prim::Constant";
            node.constant = &constant;
            sink.node(node);
            return;
        }
        const auto lparen = expr.find('(');
        if (lparen == std::string_view::npos || expr.back() != ')')
            fail("node call malformed: " + std::string(expr));
        node.op = trim(expr.substr(0, lparen));
        for_each_top_level(expr.substr(lparen + 1, expr.size() - lparen - 2), ',',
                           [&](std::string_view t) {
                               if (!t.empty())
                                   inputs_.push_back(t);
                           });
        node.inputs = inputs_;
        sink.node(node);
    }

    template <typename Sink>
    void parse_return(std::string_view line, Sink& sink)
    {
        const auto lparen = line.find('(');
        const auto rparen = line.rfind(')');
        if (lparen == std::string_view::npos || rparen == std::string_view::npos ||
            rparen < lparen)
            fail("return malformed");
        inputs_.clear();
        for_each_top_level(line.substr(lparen + 1, rparen - lparen - 1), ',',
                           [&](std::string_view t) {
                               if (!t.empty())
                                   inputs_.push_back(t);
                           });
        sink.returns(std::span<const std::string_view>(inputs_));
    }

    std::string_view text_;
    /// Per-line scratch (parse_scratch()), reused across lines and texts.
    std::vector<std::string_view>&outputs_, &output_types_, &inputs_;
};

/// Constant::to_ivalue() for a constant about to be dropped: lists and
/// strings move instead of being copied.
fw::IValue
take_ivalue(Constant&& c)
{
    if (c.kind == Constant::Kind::kIntList)
        return fw::IValue(std::move(c.int_list));
    if (c.kind == Constant::Kind::kString)
        return fw::IValue(std::move(c.string_value));
    return c.to_ivalue();
}

/// The parse_ir sink: copies each piece into a Graph.
struct GraphBuilder {
    Graph graph;

    void input(std::string_view name, std::string_view type)
    {
        graph.input_names.emplace_back(name);
        graph.input_types.emplace_back(type);
    }

    void node(const NodeView<std::string_view>& view)
    {
        IrNode& node = graph.nodes.emplace_back();
        node.outputs.assign(view.outputs.begin(), view.outputs.end());
        node.output_types.assign(view.output_types.begin(), view.output_types.end());
        node.op = view.op;
        if (view.constant != nullptr)
            node.constant = std::move(*view.constant);
        node.inputs.assign(view.inputs.begin(), view.inputs.end());
    }

    void returns(std::span<const std::string_view> values)
    {
        graph.return_values.insert(graph.return_values.end(), values.begin(), values.end());
    }
};

} // namespace

Graph
parse_ir(std::string_view text)
{
    GraphBuilder builder;
    IrParser(text).parse(builder);
    return std::move(builder.graph);
}

/// Compiles a graph, piece by piece in text order, into its Function's slot
/// program — the sink both constructors feed.
struct Function::Builder {
    /// Compile-time bookkeeping, kept per thread like parse_scratch().
    struct Scratch {
        std::vector<std::pair<std::string_view, Operand>> defined;
        std::vector<bool> read_later;
    };
    static Scratch& scratch()
    {
        thread_local Scratch s;
        return s;
    }

    explicit Builder(Function& f) : fn(f), defined(scratch().defined) { defined.clear(); }

    Function& fn;
    /// Value name → operand, live only while compiling.  Per-op graphs hold
    /// a handful of values, so a backwards linear scan beats hashing; it
    /// also finds a redefined name's latest definition (each gets a fresh
    /// slot).  Names view the IR text or Graph being compiled.
    std::vector<std::pair<std::string_view, Operand>>& defined;
    uint32_t next_slot = 0;

    Operand lookup(std::string_view value, const char* what) const
    {
        for (auto it = defined.rbegin(); it != defined.rend(); ++it) {
            if (it->first == value)
                return it->second;
        }
        MYST_THROW(ReplayError, "IR " << what << " '" << value << "' undefined in " << fn.name_);
    }

    void input(std::string_view name, std::string_view /*type*/)
    {
        defined.emplace_back(name, Operand{next_slot++, false, false});
        ++fn.num_inputs_;
    }

    template <typename Str>
    void node(const NodeView<Str>& node)
    {
        if (node.constant != nullptr) {
            if (node.outputs.empty())
                MYST_THROW(ReplayError, "IR constant without an output in " << fn.name_);
            defined.emplace_back(
                node.outputs[0],
                Operand{static_cast<uint32_t>(fn.constants_.size()), true, false});
            fn.constants_.push_back(take_ivalue(std::move(*node.constant)));
            return;
        }
        Step& step = fn.steps_.emplace_back();
        step.op = node.op;
        // Resolve operator identities once at compile time (§4.3.4: all
        // reconstruction work happens during initialization).  Ops not yet
        // registered stay unresolved and are retried lazily by run().
        if (const fw::OpDef* def = fw::OpRegistry::instance().find(step.op))
            step.op_id.store(def->id);
        step.args.reserve(node.inputs.size());
        for (const auto& in : node.inputs)
            step.args.push_back(lookup(in, "value"));
        step.outputs.reserve(node.outputs.size());
        for (const auto& out : node.outputs) {
            step.outputs.push_back(next_slot);
            defined.emplace_back(out, Operand{next_slot++, false, false});
        }
    }

    template <typename Str>
    void returns(std::span<const Str> values)
    {
        for (const auto& r : values)
            fn.returns_.push_back(lookup(r, "return value"));
    }

    /// Last-use analysis, walking reads backwards: the first read of a slot
    /// met is its last, and may move the value out of the environment.
    void finish()
    {
        std::vector<bool>& read_later = scratch().read_later;
        read_later.assign(next_slot, false);
        auto mark = [&](Operand& a) {
            if (!a.constant && !read_later[a.index]) {
                a.last_use = true;
                read_later[a.index] = true;
            }
        };
        for (auto it = fn.returns_.rbegin(); it != fn.returns_.rend(); ++it)
            mark(*it);
        for (auto step = fn.steps_.rbegin(); step != fn.steps_.rend(); ++step)
            for (auto a = step->args.rbegin(); a != step->args.rend(); ++a)
                mark(*a);
        fn.num_slots_ = next_slot;
    }
};

Function::Function(std::string name, const Graph& graph) : name_(std::move(name))
{
    Builder builder(*this);
    for (std::size_t i = 0; i < graph.input_names.size(); ++i)
        builder.input(graph.input_names[i], graph.input_types[i]);
    for (const IrNode& node : graph.nodes) {
        Constant constant;
        NodeView<std::string> view{node.outputs, node.output_types, node.op, nullptr,
                                   node.inputs};
        if (node.op == "prim::Constant") {
            constant = node.constant;
            view.constant = &constant;
        }
        builder.node(view);
    }
    builder.returns(std::span<const std::string>(graph.return_values));
    builder.finish();
}

Function::Function(std::string name, std::string_view ir_text) : name_(std::move(name))
{
    Builder builder(*this);
    // Per-op graphs: a few inputs, and one node per remaining line.
    if (ir_text.find("prim::Constant") != std::string_view::npos)
        constants_.reserve(static_cast<std::size_t>(std::count(ir_text.begin(), ir_text.end(), '\n')));
    IrParser(ir_text).parse(builder);
    builder.finish();
}

std::vector<fw::IValue>
Function::run(fw::Session& sess, std::vector<fw::IValue> tensor_inputs) const
{
    if (tensor_inputs.size() != num_inputs_)
        MYST_THROW(ReplayError, "compiled fn '" << name_ << "' expects " << num_inputs_
                                                << " inputs, got " << tensor_inputs.size());
    std::vector<fw::IValue> env = std::move(tensor_inputs);
    env.resize(num_slots_);
    auto take = [&](const Operand& a) -> fw::IValue {
        if (a.constant)
            return constants_[a.index];
        if (a.last_use)
            return std::move(env[a.index]);
        return env[a.index];
    };

    for (const Step& step : steps_) {
        std::vector<fw::IValue> args;
        args.reserve(step.args.size());
        for (const Operand& a : step.args)
            args.push_back(take(a));
        OpId op_id = step.op_id.load();
        if (op_id == kInvalidOpId) {
            if (const fw::OpDef* def = fw::OpRegistry::instance().find(step.op)) {
                op_id = def->id;
                step.op_id.store(op_id);
            }
        }
        std::vector<fw::IValue> outs = op_id != kInvalidOpId
                                           ? sess.call(op_id, std::move(args))
                                           : sess.call(step.op, std::move(args));
        if (outs.size() < step.outputs.size())
            MYST_THROW(ReplayError, "'" << step.op << "' returned " << outs.size()
                                        << " values, IR expects " << step.outputs.size()
                                        << " in " << name_);
        for (std::size_t i = 0; i < step.outputs.size(); ++i)
            env[step.outputs[i]] = std::move(outs[i]);
    }

    std::vector<fw::IValue> rets;
    rets.reserve(returns_.size());
    for (const Operand& r : returns_)
        rets.push_back(take(r));
    return rets;
}

const Function&
CompilationUnit::create_function(std::string name, const Graph& graph)
{
    functions_.push_back(std::make_unique<Function>(std::move(name), graph));
    return *functions_.back();
}

const Function&
CompilationUnit::create_function(std::string name, std::string_view ir_text)
{
    functions_.push_back(std::make_unique<Function>(std::move(name), ir_text));
    return *functions_.back();
}

const Function*
CompilationUnit::find(const std::string& name) const
{
    for (const auto& f : functions_) {
        if (f->name() == name)
            return f.get();
    }
    return nullptr;
}

} // namespace mystique::jit
