/// Tests for schema parsing and the IR builder/parser/interpreter — the
/// reconstruction machinery of paper §4.3.1.

#include <gtest/gtest.h>

#include "common/error.h"
#include "framework/math.h"
#include "framework/op_registry.h"
#include "framework/session.h"
#include "jit/ir.h"
#include "jit/schema.h"

namespace mystique::jit {
namespace {

TEST(Schema, PaperExample)
{
    const FunctionSchema fs =
        parse_schema("aten::add.Tensor(Tensor self, Tensor other, *, Scalar alpha=1) -> Tensor");
    EXPECT_EQ(fs.name, "aten::add");
    EXPECT_EQ(fs.overload, "Tensor");
    EXPECT_EQ(fs.qualified_name(), "aten::add.Tensor");
    ASSERT_EQ(fs.args.size(), 3u);
    EXPECT_EQ(fs.args[0].name, "self");
    EXPECT_EQ(fs.args[0].type, "Tensor");
    EXPECT_FALSE(fs.args[0].kwarg_only);
    EXPECT_EQ(fs.args[2].name, "alpha");
    EXPECT_EQ(fs.args[2].type, "Scalar");
    EXPECT_TRUE(fs.args[2].kwarg_only);
    EXPECT_EQ(fs.args[2].default_value.value(), "1");
    ASSERT_EQ(fs.returns.size(), 1u);
    EXPECT_EQ(fs.returns[0], "Tensor");
}

TEST(Schema, AliasAnnotationsStripped)
{
    const FunctionSchema fs =
        parse_schema("aten::add_.Tensor(Tensor(a!) self, Tensor other) -> Tensor(a!)");
    EXPECT_EQ(fs.args[0].type, "Tensor");
    EXPECT_EQ(fs.returns[0], "Tensor");
}

TEST(Schema, SizedListsNormalized)
{
    const FunctionSchema fs =
        parse_schema("aten::max_pool2d(Tensor self, int[2] kernel_size, int[2] stride=[]) -> Tensor");
    EXPECT_EQ(fs.args[1].type, "int[]");
    EXPECT_EQ(fs.args[2].default_value.value(), "[]");
}

TEST(Schema, OptionalTensor)
{
    const FunctionSchema fs =
        parse_schema("aten::linear(Tensor input, Tensor weight, Tensor? bias=None) -> Tensor");
    EXPECT_EQ(fs.args[2].type, "Tensor?");
    EXPECT_TRUE(fs.args[2].is_tensor_like());
}

TEST(Schema, TupleReturns)
{
    const FunctionSchema fs = parse_schema(
        "aten::convolution_backward(Tensor g, Tensor i, Tensor w, int[] s, int[] p) -> "
        "(Tensor, Tensor, Tensor)");
    EXPECT_EQ(fs.returns.size(), 3u);
}

TEST(Schema, VoidReturn)
{
    const FunctionSchema fs = parse_schema("c10d::barrier(int pg) -> ()");
    EXPECT_TRUE(fs.returns.empty());
}

TEST(Schema, NoOverload)
{
    const FunctionSchema fs = parse_schema("aten::relu(Tensor self) -> Tensor");
    EXPECT_EQ(fs.overload, "");
    EXPECT_EQ(fs.qualified_name(), "aten::relu");
}

TEST(Schema, ListDefaultWithCommas)
{
    const FunctionSchema fs =
        parse_schema("fake::op(Tensor x, int[2] stride=[1, 1]) -> Tensor");
    EXPECT_EQ(fs.args[1].default_value.value(), "[1, 1]");
}

TEST(Schema, Malformed)
{
    EXPECT_THROW(parse_schema("no parens -> Tensor"), ParseError);
    EXPECT_THROW(parse_schema("aten::x(Tensor self"), ParseError);
    EXPECT_THROW(parse_schema("aten::x(Tensor self) Tensor"), ParseError);
    EXPECT_THROW(parse_schema("aten::x(Tensoronly) -> Tensor"), ParseError);
}

/// Property-style check: every schema registered by the framework parses,
/// and the qualified name round-trips to the registry key (this is what
/// guarantees replay can rebuild any recorded ATen/comm/custom op).
TEST(Schema, AllRegisteredSchemasParse)
{
    fw::ensure_ops_registered();
    const auto& reg = fw::OpRegistry::instance();
    int checked = 0;
    for (const auto& name : reg.names()) {
        const fw::OpDef* def = reg.find(name);
        if (def->schema.empty())
            continue;
        const FunctionSchema fs = parse_schema(def->schema);
        EXPECT_EQ(fs.qualified_name(), name) << "schema/name mismatch for " << name;
        ++checked;
    }
    EXPECT_GT(checked, 40);
}

TEST(Ir, ConstantRendering)
{
    Constant c;
    c.kind = Constant::Kind::kInt;
    c.int_value = 7;
    EXPECT_EQ(c.render(), "prim::Constant[value=7]()");
    c.kind = Constant::Kind::kBool;
    c.bool_value = true;
    EXPECT_EQ(c.render(), "prim::Constant[value=True]()");
    c.kind = Constant::Kind::kIntList;
    c.int_list = {1, 2};
    EXPECT_EQ(c.render(), "prim::Constant[value=[1, 2]]()");
    c.kind = Constant::Kind::kString;
    c.string_value = "cuda:0";
    EXPECT_EQ(c.render(), "prim::Constant[value=\"cuda:0\"]()");
    c.kind = Constant::Kind::kNone;
    EXPECT_EQ(c.render(), "prim::Constant()");
}

TEST(Ir, BuildTextMatchesPaperShape)
{
    const FunctionSchema fs =
        parse_schema("aten::add.Tensor(Tensor self, Tensor other, *, Scalar alpha=1) -> Tensor");
    std::vector<Constant> consts(3);
    consts[0].kind = Constant::Kind::kTensorInput;
    consts[1].kind = Constant::Kind::kTensorInput;
    consts[2].kind = Constant::Kind::kInt;
    consts[2].int_value = 1;
    const std::string ir = build_ir_text(fs, consts);
    // Same structure as the paper's §4.3.1 example.
    EXPECT_NE(ir.find("graph(%self."), std::string::npos);
    EXPECT_NE(ir.find("%other."), std::string::npos);
    EXPECT_NE(ir.find("prim::Constant[value=1]()"), std::string::npos);
    EXPECT_NE(ir.find("aten::add.Tensor("), std::string::npos);
    EXPECT_NE(ir.find("return ("), std::string::npos);
}

TEST(Ir, ParseRoundTrip)
{
    const FunctionSchema fs =
        parse_schema("aten::addmm(Tensor self, Tensor mat1, Tensor mat2, *, Scalar beta=1, "
                     "Scalar alpha=1) -> Tensor");
    std::vector<Constant> consts(5);
    consts[0].kind = consts[1].kind = consts[2].kind = Constant::Kind::kTensorInput;
    consts[3].kind = Constant::Kind::kFloat;
    consts[3].float_value = 1.0;
    consts[4].kind = Constant::Kind::kFloat;
    consts[4].float_value = 1.0;
    const std::string text = build_ir_text(fs, consts);
    const Graph g = parse_ir(text);
    EXPECT_EQ(g.input_names.size(), 3u);
    EXPECT_EQ(g.nodes.size(), 3u); // 2 constants + 1 call
    EXPECT_EQ(g.return_values.size(), 1u);
    // Re-render parses identically.
    const Graph g2 = parse_ir(g.render());
    EXPECT_EQ(g2.nodes.size(), g.nodes.size());
    EXPECT_EQ(g2.input_names, g.input_names);
}

TEST(Ir, OptionalNoneBecomesConstant)
{
    const FunctionSchema fs =
        parse_schema("aten::linear(Tensor input, Tensor weight, Tensor? bias=None) -> Tensor");
    std::vector<Constant> consts(3);
    consts[0].kind = consts[1].kind = Constant::Kind::kTensorInput;
    consts[2].kind = Constant::Kind::kNone;
    const std::string text = build_ir_text(fs, consts);
    const Graph g = parse_ir(text);
    EXPECT_EQ(g.input_names.size(), 2u); // bias is a constant None, not input
}

TEST(Ir, ParseErrors)
{
    EXPECT_THROW(parse_ir("not a graph"), ParseError);
    EXPECT_THROW(parse_ir("graph(%x : Tensor):\n  %1 : Tensor = broken\n  return (%1)\n"),
                 ParseError);
}

TEST(Ir, MalformedTextThrowsParseErrorFromBothEntryPoints)
{
    const char* malformed[] = {
        // header without the closing "):"
        "graph(%x : Tensor)\n  %1 : Tensor = aten::relu(%x)\n  return (%1)\n",
        // a node line without " = "
        "graph(%x : Tensor):\n  %1 : Tensor aten::relu(%x)\n  return (%1)\n",
        // a node output without a type
        "graph(%x : Tensor):\n  %1 = aten::relu(%x)\n  return (%1)\n",
        // an int-list element that is not an integer
        "graph(%x : Tensor):\n  %2 : int[] = prim::Constant[value=[2, x]]()\n"
        "  %1 : Tensor = aten::reshape(%x, %2)\n  return (%1)\n",
    };
    for (const char* text : malformed) {
        EXPECT_THROW(parse_ir(text), ParseError) << text;
        EXPECT_THROW(Function("f", std::string_view(text)), ParseError) << text;
    }
}

TEST(Ir, LargeWholeFloatConstantsRoundTripAndCompile)
{
    // A whole float prints in exponent form from 1e6 on, and render()
    // appends '.' to every whole float: "1e+06.", "-1e+09.".
    fw::SessionOptions opts;
    opts.mode = fw::ExecMode::kNumeric;
    fw::Session sess(opts);
    const FunctionSchema fs =
        parse_schema("aten::add.Tensor(Tensor self, Tensor other, *, Scalar alpha=1) -> Tensor");
    for (const double alpha : {1e6, -1e9}) {
        std::vector<Constant> consts(3);
        consts[0].kind = consts[1].kind = Constant::Kind::kTensorInput;
        consts[2].kind = Constant::Kind::kFloat;
        consts[2].float_value = alpha;
        const std::string text = build_ir_text(fs, consts);
        EXPECT_NE(text.find(alpha > 0 ? "[value=1e+06.]" : "[value=-1e+09.]"), std::string::npos)
            << text;
        const Graph g = parse_ir(text);
        ASSERT_EQ(g.nodes.size(), 2u) << text;
        EXPECT_EQ(g.nodes[0].constant.kind, Constant::Kind::kFloat);
        EXPECT_EQ(g.nodes[0].constant.float_value, alpha);
        EXPECT_EQ(g.render(), text);

        fw::Tensor a = sess.alloc({2});
        fw::Tensor b = sess.alloc({2});
        a.f32()[0] = a.f32()[1] = 1.0f;
        b.f32()[0] = b.f32()[1] = 2.0f;
        const Function from_text("from_text", std::string_view(text));
        const Function from_graph("from_graph", g);
        for (const Function* fn : {&from_text, &from_graph}) {
            auto outs = fn->run(sess, {fw::IValue(a), fw::IValue(b)});
            ASSERT_EQ(outs.size(), 1u) << fn->name();
            EXPECT_FLOAT_EQ(outs[0].tensor().f32()[1], static_cast<float>(1.0 + 2.0 * alpha))
                << fn->name();
        }
    }
    // Only one '.' after an exponent is what render() writes.
    for (const char* payload : {"1e+06..", "1.5.", "1e+06.0"}) {
        const std::string text = std::string("graph(%x : Tensor):\n"
                                             "  %2 : float = prim::Constant[value=") +
                                 payload +
                                 "]()\n  %1 : Tensor = aten::mul.Scalar(%x, %2)\n"
                                 "  return (%1)\n";
        EXPECT_THROW(parse_ir(text), ParseError) << payload;
        EXPECT_THROW(Function("f", std::string_view(text)), ParseError) << payload;
    }
}

TEST(Ir, CompiledFunctionExecutes)
{
    // The full §4.3.1 pipeline: schema → IR → compile → run through a session.
    fw::SessionOptions opts;
    opts.mode = fw::ExecMode::kNumeric;
    fw::Session sess(opts);

    const FunctionSchema fs =
        parse_schema("aten::add.Tensor(Tensor self, Tensor other, *, Scalar alpha=1) -> Tensor");
    std::vector<Constant> consts(3);
    consts[0].kind = consts[1].kind = Constant::Kind::kTensorInput;
    consts[2].kind = Constant::Kind::kInt;
    consts[2].int_value = 2; // out = a + 2*b
    CompilationUnit cu;
    const Function& fn =
        cu.create_function("aten::add", parse_ir(build_ir_text(fs, consts)));

    fw::Tensor a = sess.alloc({4});
    fw::Tensor b = sess.alloc({4});
    for (int i = 0; i < 4; ++i) {
        a.f32()[i] = static_cast<float>(i);
        b.f32()[i] = 10.0f;
    }
    auto outs = fn.run(sess, {fw::IValue(a), fw::IValue(b)});
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_FLOAT_EQ(outs[0].tensor().f32()[1], 21.0f);
}

TEST(Ir, WrongArityThrows)
{
    fw::SessionOptions opts;
    fw::Session sess(opts);
    const FunctionSchema fs = parse_schema("aten::relu(Tensor self) -> Tensor");
    std::vector<Constant> consts(1);
    consts[0].kind = Constant::Kind::kTensorInput;
    CompilationUnit cu;
    const Function& fn = cu.create_function("f", parse_ir(build_ir_text(fs, consts)));
    EXPECT_THROW(fn.run(sess, {}), ReplayError);
}

TEST(Ir, UndefinedValueThrowsAtCompile)
{
    const Graph undefined_input = parse_ir("graph(%x : Tensor):\n"
                                           "  %1 : Tensor = aten::relu(%y)\n"
                                           "  return (%1)\n");
    EXPECT_THROW(Function("f", undefined_input), ReplayError);
    const Graph undefined_return = parse_ir("graph(%x : Tensor):\n"
                                            "  %1 : Tensor = aten::relu(%x)\n"
                                            "  return (%2)\n");
    EXPECT_THROW(Function("f", undefined_return), ReplayError);
    // Defined later is still undefined at the point of use.
    const Graph use_before_def = parse_ir("graph(%x : Tensor):\n"
                                          "  %1 : Tensor = aten::relu(%2)\n"
                                          "  %2 : Tensor = aten::relu(%x)\n"
                                          "  return (%1)\n");
    EXPECT_THROW(Function("f", use_before_def), ReplayError);
}

TEST(Ir, RepeatedRunsSeeUnchangedConstants)
{
    // Constants compile to IValues once; a run copies them into each call and
    // must never move them out, or the next run would see None.
    fw::SessionOptions opts;
    opts.mode = fw::ExecMode::kNumeric;
    fw::Session sess(opts);
    const Function fn("add_then_reshape",
                      parse_ir("graph(%a : Tensor,\n"
                               "      %b : Tensor):\n"
                               "  %2 : int = prim::Constant[value=3]()\n"
                               "  %3 : Tensor = aten::add.Tensor(%a, %b, %2)\n"
                               "  %4 : int[] = prim::Constant[value=[2, 2]]()\n"
                               "  %5 : Tensor = aten::reshape(%3, %4)\n"
                               "  return (%5, %3)\n"));
    fw::Tensor a = sess.alloc({4});
    fw::Tensor b = sess.alloc({4});
    for (int i = 0; i < 4; ++i) {
        a.f32()[i] = static_cast<float>(i);
        b.f32()[i] = 1.0f;
    }
    for (int run = 0; run < 3; ++run) {
        auto outs = fn.run(sess, {fw::IValue(a), fw::IValue(b)});
        ASSERT_EQ(outs.size(), 2u) << "run " << run;
        EXPECT_EQ(outs[0].tensor().shape(), (fw::Shape{2, 2})) << "run " << run;
        EXPECT_FLOAT_EQ(outs[1].tensor().f32()[2], 5.0f) << "run " << run; // 2 + 3*1
    }
}

TEST(Ir, ValueReadTwicePassesToBothUses)
{
    // %x feeds both operands: the first read copies, only the last may move.
    fw::SessionOptions opts;
    opts.mode = fw::ExecMode::kNumeric;
    fw::Session sess(opts);
    const Function fn("square", parse_ir("graph(%x : Tensor):\n"
                                         "  %1 : Tensor = aten::mul.Tensor(%x, %x)\n"
                                         "  return (%1)\n"));
    fw::Tensor x = sess.alloc({2});
    x.f32()[0] = 3.0f;
    x.f32()[1] = -2.0f;
    auto outs = fn.run(sess, {fw::IValue(x)});
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_FLOAT_EQ(outs[0].tensor().f32()[0], 9.0f);
    EXPECT_FLOAT_EQ(outs[0].tensor().f32()[1], 4.0f);
}

TEST(CompilationUnit, FindByName)
{
    CompilationUnit cu;
    EXPECT_EQ(cu.find("missing"), nullptr);
    const FunctionSchema fs = parse_schema("aten::relu(Tensor self) -> Tensor");
    std::vector<Constant> consts(1);
    consts[0].kind = Constant::Kind::kTensorInput;
    cu.create_function("myfn", parse_ir(build_ir_text(fs, consts)));
    EXPECT_NE(cu.find("myfn"), nullptr);
    EXPECT_EQ(cu.size(), 1u);
}

} // namespace
} // namespace mystique::jit
