/// Tests for tensor classification and generation policies (§4.4).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/tensor_manager.h"
#include "framework/op_registry.h"

namespace mystique::core {
namespace {

et::TensorMeta
meta(int64_t uid, std::vector<int64_t> shape, const char* dtype = "float32")
{
    et::TensorMeta m;
    m.tensor_id = uid;
    m.storage_id = uid + 500;
    m.numel = fw::shape_numel(shape);
    m.itemsize = std::string(dtype) == "int64" ? 8 : 4;
    m.shape = std::move(shape);
    m.dtype = dtype;
    return m;
}

et::Node
make_node(int64_t id, std::string name)
{
    et::Node n;
    n.id = id;
    n.name = std::move(name);
    n.kind = et::NodeKind::kOperator;
    return n;
}

/// The tensor bound to recorded id @p uid (which the layout must know).
const fw::Tensor&
bound(const TensorManager& tm, int64_t uid)
{
    const int32_t slot = tm.layout().slot_of(uid);
    if (slot < 0)
        throw std::out_of_range("tensor " + std::to_string(uid) + " has no slot");
    return tm.get(slot);
}

fw::Session&
session()
{
    static fw::SessionOptions opts = [] {
        fw::SessionOptions o;
        o.mode = fw::ExecMode::kShapeOnly;
        return o;
    }();
    static fw::Session s(opts);
    return s;
}

TEST(TensorManager, ClassifiesExternalsAndIntermediates)
{
    // op0: relu(t1) -> t2 ; op1: relu(t2) -> t3.  t1 external; t2, t3
    // intermediates.
    et::Node n0 = make_node(0, "aten::relu");
    n0.inputs.push_back(et::Argument::from_tensor(meta(1, {4})));
    n0.outputs.push_back(et::Argument::from_tensor(meta(2, {4})));
    et::Node n1 = make_node(1, "aten::relu");
    n1.inputs.push_back(et::Argument::from_tensor(meta(2, {4})));
    n1.outputs.push_back(et::Argument::from_tensor(meta(3, {4})));

    TensorManager tm(session(), {});
    tm.analyze({&n0, &n1});
    EXPECT_EQ(tm.num_external(), 1u);
    EXPECT_EQ(tm.num_intermediate(), 2u);
}

TEST(TensorManager, ExternalsInstantiatedBeforeExecution)
{
    et::Node n0 = make_node(0, "aten::relu");
    n0.inputs.push_back(et::Argument::from_tensor(meta(1, {2, 3})));
    n0.outputs.push_back(et::Argument::from_tensor(meta(2, {2, 3})));
    TensorManager tm(session(), {});
    tm.analyze({&n0});
    tm.instantiate_externals();
    const fw::Tensor t = bound(tm, 1);
    EXPECT_EQ(t.shape(), (fw::Shape{2, 3}));
    // Intermediates are not pre-instantiated.
    EXPECT_THROW(bound(tm, 2), ReplayError);
}

TEST(TensorManager, BindOutputMakesIntermediateResolvable)
{
    et::Node n0 = make_node(0, "aten::relu");
    n0.inputs.push_back(et::Argument::from_tensor(meta(1, {4})));
    n0.outputs.push_back(et::Argument::from_tensor(meta(2, {4})));
    TensorManager tm(session(), {});
    tm.analyze({&n0});
    tm.instantiate_externals();
    fw::Tensor produced = session().alloc({4});
    tm.set(tm.layout().slot_of(2), produced);
    EXPECT_EQ(bound(tm, 2).impl(), produced.impl());
}

TEST(TensorManager, EmbeddingIndicesBoundedByTableRows)
{
    // embedding_bag(weight[100, 8], indices[64], offsets[16]) — indices must
    // land in [0, 100) and offsets must be monotone bag boundaries.
    et::Node n = make_node(0, "aten::embedding_bag");
    n.inputs.push_back(et::Argument::from_tensor(meta(1, {100, 8})));
    n.inputs.push_back(et::Argument::from_tensor(meta(2, {64}, "int64")));
    n.inputs.push_back(et::Argument::from_tensor(meta(3, {16}, "int64")));
    n.inputs.push_back(et::Argument::from_int(0));
    n.outputs.push_back(et::Argument::from_tensor(meta(4, {16, 8})));

    TensorManager tm(session(), {});
    tm.analyze({&n});
    tm.instantiate_externals();
    const fw::Tensor idx = bound(tm, 2);
    for (int64_t i = 0; i < idx.numel(); ++i) {
        EXPECT_GE(idx.i64()[i], 0);
        EXPECT_LT(idx.i64()[i], 100);
    }
    const fw::Tensor off = bound(tm, 3);
    EXPECT_EQ(off.i64()[0], 0);
    for (int64_t i = 1; i < off.numel(); ++i)
        EXPECT_GE(off.i64()[i], off.i64()[i - 1]);
    EXPECT_LE(off.i64()[off.numel() - 1], 64);
}

TEST(TensorManager, PolicyPropagatesThroughDeviceCopies)
{
    // host indices (external, uid 2) → to.device → device indices (uid 5)
    // → embedding_bag.  The generation policy must land on uid 2.
    et::Node copy = make_node(0, "aten::to.device");
    copy.inputs.push_back(et::Argument::from_tensor(meta(2, {64}, "int64")));
    copy.inputs.push_back(et::Argument::from_string("cuda:0"));
    copy.outputs.push_back(et::Argument::from_tensor(meta(5, {64}, "int64")));

    et::Node emb = make_node(1, "aten::embedding_bag");
    emb.inputs.push_back(et::Argument::from_tensor(meta(1, {50, 4})));
    emb.inputs.push_back(et::Argument::from_tensor(meta(5, {64}, "int64")));
    emb.inputs.push_back(et::Argument::from_tensor(meta(3, {8}, "int64")));
    emb.inputs.push_back(et::Argument::from_int(0));
    emb.outputs.push_back(et::Argument::from_tensor(meta(4, {8, 4})));

    TensorManager tm(session(), {});
    tm.analyze({&copy, &emb});
    tm.instantiate_externals();
    const fw::Tensor host_idx = bound(tm, 2);
    for (int64_t i = 0; i < host_idx.numel(); ++i)
        EXPECT_LT(host_idx.i64()[i], 50) << "policy did not propagate to host tensor";
}

TEST(TensorManager, NllTargetsBoundedByClasses)
{
    et::Node n = make_node(0, "aten::nll_loss");
    n.inputs.push_back(et::Argument::from_tensor(meta(1, {8, 10})));
    n.inputs.push_back(et::Argument::from_tensor(meta(2, {8}, "int64")));
    n.outputs.push_back(et::Argument::from_tensor(meta(3, {1})));
    TensorManager tm(session(), {});
    tm.analyze({&n});
    tm.instantiate_externals();
    const fw::Tensor target = bound(tm, 2);
    for (int64_t i = 0; i < 8; ++i) {
        EXPECT_GE(target.i64()[i], 0);
        EXPECT_LT(target.i64()[i], 10);
    }
}

TEST(TensorManager, ZipfConfigSkewsIndices)
{
    et::Node n = make_node(0, "aten::embedding_bag");
    n.inputs.push_back(et::Argument::from_tensor(meta(1, {10000, 4})));
    n.inputs.push_back(et::Argument::from_tensor(meta(2, {20000}, "int64")));
    n.inputs.push_back(et::Argument::from_tensor(meta(3, {16}, "int64")));
    n.inputs.push_back(et::Argument::from_int(0));
    n.outputs.push_back(et::Argument::from_tensor(meta(4, {16, 4})));

    EmbeddingGenConfig zipf;
    zipf.distribution = EmbeddingGenConfig::Distribution::kZipf;
    zipf.zipf_s = 1.3;
    TensorManager tm_z(session(), zipf);
    tm_z.analyze({&n});
    tm_z.instantiate_externals();
    EmbeddingGenConfig uni;
    uni.distribution = EmbeddingGenConfig::Distribution::kUniform;
    TensorManager tm_u(session(), uni);
    tm_u.analyze({&n});
    tm_u.instantiate_externals();

    auto head_mass = [](const fw::Tensor& idx) {
        int64_t head = 0;
        for (int64_t i = 0; i < idx.numel(); ++i)
            head += idx.i64()[i] < 100 ? 1 : 0;
        return static_cast<double>(head) / static_cast<double>(idx.numel());
    };
    const double zipf_head = head_mass(bound(tm_z, 2));
    const double uni_head = head_mass(bound(tm_u, 2));
    EXPECT_GT(zipf_head, uni_head * 5.0);
}

/// A small numeric plan with one external per generation policy, consumed
/// in descending-uid order so a change to the external generation order
/// shows up in the values: embedding_bag(weight 9, indices 7, offsets 5),
/// nll_loss(scores 4, targets 3), add(generic int64 2, generic int64 1).
struct PinnedPlan {
    et::Node emb = make_node(0, "aten::embedding_bag");
    et::Node nll = make_node(1, "aten::nll_loss");
    et::Node add = make_node(2, "aten::add.Tensor");

    PinnedPlan()
    {
        emb.inputs.push_back(et::Argument::from_tensor(meta(9, {20, 4})));
        emb.inputs.push_back(et::Argument::from_tensor(meta(7, {12}, "int64")));
        emb.inputs.push_back(et::Argument::from_tensor(meta(5, {3}, "int64")));
        emb.inputs.push_back(et::Argument::from_int(0));
        emb.outputs.push_back(et::Argument::from_tensor(meta(10, {3, 4})));
        nll.inputs.push_back(et::Argument::from_tensor(meta(4, {6, 5})));
        nll.inputs.push_back(et::Argument::from_tensor(meta(3, {6}, "int64")));
        nll.outputs.push_back(et::Argument::from_tensor(meta(11, {1})));
        add.inputs.push_back(et::Argument::from_tensor(meta(2, {4}, "int64")));
        add.inputs.push_back(et::Argument::from_tensor(meta(1, {4}, "int64")));
        add.outputs.push_back(et::Argument::from_tensor(meta(12, {4}, "int64")));
    }
    std::vector<const et::Node*> nodes() const { return {&emb, &nll, &add}; }
};

fw::SessionOptions
numeric_opts()
{
    fw::SessionOptions o;
    o.mode = fw::ExecMode::kNumeric;
    o.seed = 1234;
    return o;
}

TEST(TensorManager, ExternalsGeneratedInAscendingUidOrder)
{
    // The externals draw from the session RNG, so their generation order is
    // part of the replay's identity: uid 1 (generic int64) must be drawn
    // first and uid 2 second, although the plan consumes uid 2 first.
    const PinnedPlan plan;
    fw::Session sess(numeric_opts());
    TensorManager tm(sess, {});
    tm.analyze(plan.nodes());
    tm.instantiate_externals();

    fw::Session ref(numeric_opts());
    for (const int64_t uid : {1, 2}) {
        const fw::Tensor t = bound(tm, uid);
        for (int64_t i = 0; i < 4; ++i)
            EXPECT_EQ(t.i64()[i], ref.rng().uniform_int(0, 9)) << "uid " << uid;
    }
}

TEST(TensorManager, DigestPinnedForFixedSeed)
{
    // Recorded with the map-based TensorManager; the slot layout must mix
    // the same bindings, in the same (uid) order, into the same value.
    const PinnedPlan plan;
    fw::Session sess(numeric_opts());
    TensorManager tm(sess, {});
    tm.analyze(plan.nodes());
    tm.instantiate_externals();
    fw::Tensor out = sess.alloc({4}, fw::DType::kInt64, /*force_materialize=*/true);
    for (int64_t i = 0; i < 4; ++i)
        out.i64()[i] = 100 + i;
    tm.set(tm.layout().slot_of(12), out);
    EXPECT_EQ(tm.digest(), 7546499132297743226ULL);
}

TEST(TensorManager, SparseTensorIdsGetDenseAscendingSlots)
{
    // Ids far apart (foreign traces, hand-built plans) still get dense,
    // ascending slots.
    const int64_t big = int64_t{1} << 40;
    et::Node n0 = make_node(0, "aten::relu");
    n0.inputs.push_back(et::Argument::from_tensor(meta(big, {4})));
    n0.outputs.push_back(et::Argument::from_tensor(meta(7, {4})));
    et::Node n1 = make_node(1, "aten::relu");
    n1.inputs.push_back(et::Argument::from_tensor(meta(7, {4})));
    n1.outputs.push_back(et::Argument::from_tensor(meta(-3, {4})));

    const TensorLayout layout = TensorLayout::derive({&n0, nullptr, &n1});
    EXPECT_EQ(layout.uids, (std::vector<int64_t>{-3, 7, big}));
    EXPECT_EQ(layout.slot_of(big), 2);
    EXPECT_EQ(layout.slot_of(8), -1);
    ASSERT_EQ(layout.externals.size(), 1u);
    EXPECT_EQ(layout.externals[0].slot, 2);
    EXPECT_EQ(layout.num_intermediate, 2u);
    // The null entry (an op that does not execute) keeps its index, empty.
    EXPECT_TRUE(layout.op(1).inputs.empty());
    EXPECT_TRUE(layout.op(1).outputs.empty());
    ASSERT_EQ(layout.op(2).inputs.size(), 1u);
    EXPECT_EQ(layout.op(2).inputs[0], 1);
    EXPECT_EQ(layout.op(2).outputs[0], 0);

    TensorManager tm(session(), {}, layout);
    tm.instantiate_externals();
    EXPECT_EQ(bound(tm, big).shape(), (fw::Shape{4}));
    EXPECT_THROW(tm.get(1), ReplayError); // intermediate, not produced yet
}

TEST(TensorManager, UnknownTensorHasNoSlot)
{
    TensorManager tm(session(), {});
    tm.analyze({});
    EXPECT_EQ(tm.layout().slot_of(99), -1);
}

} // namespace
} // namespace mystique::core
