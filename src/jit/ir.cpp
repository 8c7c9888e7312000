#include "jit/ir.h"

#include <charconv>
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

/// Line-oriented IR parser.
class IrParser {
  public:
    explicit IrParser(const std::string& text) : text_(text) {}

    Graph parse()
    {
        Graph g;
        std::string header = read_until("):");
        parse_header(header, g);
        std::string rest = text_.substr(pos_);
        for (const auto& raw_line : split(rest, '\n')) {
            const auto line = trim(raw_line);
            if (line.empty())
                continue;
            if (starts_with(line, "return")) {
                parse_return(line, g);
            } else {
                parse_node(line, g);
            }
        }
        return g;
    }

  private:
    [[noreturn]] void fail(const std::string& msg) const
    {
        MYST_THROW(ParseError, "IR: " << msg);
    }

    std::string read_until(const std::string& delim)
    {
        const auto p = text_.find(delim, pos_);
        if (p == std::string::npos)
            fail("missing '" + delim + "'");
        std::string out = text_.substr(pos_, p - pos_);
        pos_ = p + delim.size();
        return out;
    }

    void parse_header(const std::string& header, Graph& g)
    {
        const auto lparen = header.find('(');
        if (lparen == std::string::npos || trim(header.substr(0, lparen)) != "graph")
            fail("expected 'graph('");
        const std::string args = header.substr(lparen + 1);
        for (const auto& piece : split_top_level(args, ',')) {
            const auto t = trim(piece);
            if (t.empty())
                continue;
            const auto colon = t.find(':');
            if (colon == std::string_view::npos)
                fail("graph input missing type: " + std::string(t));
            g.input_names.emplace_back(trim(t.substr(0, colon)));
            g.input_types.emplace_back(trim(t.substr(colon + 1)));
        }
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
            const auto inner = payload.substr(1, payload.size() - 2);
            for (const auto& tok : split_top_level(inner, ',')) {
                const auto t = trim(tok);
                if (t.empty())
                    continue;
                int64_t v = 0;
                auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
                if (ec != std::errc())
                    MYST_THROW(ParseError, "IR: bad int list element: " << t);
                c.int_list.push_back(v);
            }
        } else if (payload.find('.') != std::string_view::npos ||
                   payload.find('e') != std::string_view::npos) {
            c.kind = Constant::Kind::kFloat;
            c.float_value = std::stod(std::string(payload));
        } else {
            c.kind = Constant::Kind::kInt;
            auto [p, ec] = std::from_chars(payload.data(), payload.data() + payload.size(),
                                           c.int_value);
            if (ec != std::errc())
                MYST_THROW(ParseError, "IR: bad int constant: " << payload);
        }
        return c;
    }

    void parse_node(std::string_view line, Graph& g)
    {
        const auto eq = line.find(" = ");
        if (eq == std::string_view::npos)
            fail("node missing '=': " + std::string(line));
        IrNode node;
        for (const auto& out : split_top_level(line.substr(0, eq), ',')) {
            const auto t = trim(out);
            const auto colon = t.find(':');
            if (colon == std::string_view::npos)
                fail("node output missing type: " + std::string(t));
            node.outputs.emplace_back(trim(t.substr(0, colon)));
            node.output_types.emplace_back(trim(t.substr(colon + 1)));
        }
        std::string_view expr = trim(line.substr(eq + 3));
        if (starts_with(expr, "prim::Constant")) {
            node.op = "prim::Constant";
            node.constant = parse_constant_payload(expr);
        } else {
            const auto lparen = expr.find('(');
            if (lparen == std::string_view::npos || expr.back() != ')')
                fail("node call malformed: " + std::string(expr));
            node.op = std::string(trim(expr.substr(0, lparen)));
            const auto inner = expr.substr(lparen + 1, expr.size() - lparen - 2);
            for (const auto& tok : split_top_level(inner, ',')) {
                const auto t = trim(tok);
                if (!t.empty())
                    node.inputs.emplace_back(t);
            }
        }
        g.nodes.push_back(std::move(node));
    }

    void parse_return(std::string_view line, Graph& g)
    {
        const auto lparen = line.find('(');
        const auto rparen = line.rfind(')');
        if (lparen == std::string_view::npos || rparen == std::string_view::npos)
            fail("return malformed");
        for (const auto& tok :
             split_top_level(line.substr(lparen + 1, rparen - lparen - 1), ',')) {
            const auto t = trim(tok);
            if (!t.empty())
                g.return_values.emplace_back(t);
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

} // namespace

Graph
parse_ir(const std::string& text)
{
    return IrParser(text).parse();
}

Function::Function(std::string name, const Graph& graph)
    : name_(std::move(name)), num_inputs_(graph.input_names.size())
{
    // Value name → operand, live only while compiling.  Per-op graphs hold
    // a handful of values, so a backwards linear scan beats hashing; it also
    // finds a redefined name's latest definition (each gets a fresh slot).
    std::vector<std::pair<const std::string*, Operand>> defined;
    uint32_t next_slot = 0;
    auto define = [&](const std::string& value, Operand op) { defined.emplace_back(&value, op); };
    for (const auto& in : graph.input_names)
        define(in, Operand{next_slot++, false, false});
    auto lookup = [&](const std::string& value, const char* what) {
        for (auto it = defined.rbegin(); it != defined.rend(); ++it) {
            if (*it->first == value)
                return it->second;
        }
        MYST_THROW(ReplayError, "IR " << what << " '" << value << "' undefined in " << name_);
    };

    for (const auto& node : graph.nodes) {
        if (node.op == "prim::Constant") {
            if (node.outputs.empty())
                MYST_THROW(ReplayError, "IR constant without an output in " << name_);
            define(node.outputs[0],
                   Operand{static_cast<uint32_t>(constants_.size()), true, false});
            constants_.push_back(node.constant.to_ivalue());
            continue;
        }
        Step step;
        step.op = node.op;
        // Resolve operator identities once at compile time (§4.3.4: all
        // reconstruction work happens during initialization).  Ops not yet
        // registered stay unresolved and are retried lazily by run().
        if (const fw::OpDef* def = fw::OpRegistry::instance().find(node.op))
            step.op_id.store(def->id);
        step.args.reserve(node.inputs.size());
        for (const auto& in : node.inputs)
            step.args.push_back(lookup(in, "value"));
        for (const auto& out : node.outputs) {
            step.outputs.push_back(next_slot);
            define(out, Operand{next_slot++, false, false});
        }
        steps_.push_back(std::move(step));
    }
    for (const auto& r : graph.return_values)
        returns_.push_back(lookup(r, "return value"));

    // Last-use analysis, walking reads backwards: the first read of a slot
    // met is its last, and may move the value out of the environment.
    std::vector<bool> read_later(next_slot, false);
    auto mark = [&](Operand& a) {
        if (!a.constant && !read_later[a.index]) {
            a.last_use = true;
            read_later[a.index] = true;
        }
    };
    for (auto it = returns_.rbegin(); it != returns_.rend(); ++it)
        mark(*it);
    for (auto step = steps_.rbegin(); step != steps_.rend(); ++step)
        for (auto a = step->args.rbegin(); a != step->args.rend(); ++a)
            mark(*a);

    num_slots_ = next_slot;
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
CompilationUnit::create_function(const std::string& name, const Graph& graph)
{
    functions_.push_back(std::make_unique<Function>(name, graph));
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
