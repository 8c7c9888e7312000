/// Tests for IValue: tag semantics, the numeric coercions operators rely on,
/// and payload preservation across copies and moves.

#include <gtest/gtest.h>

#include "common/error.h"
#include "framework/ivalue.h"

namespace mystique::fw {
namespace {

static_assert(sizeof(IValue) <= 48, "IValue grew past its hot-path budget");

Tensor
shape_only(Shape shape)
{
    return Tensor::create(std::move(shape), DType::kFloat32, /*materialize=*/false);
}

TEST(IValue, UndefinedTensorBecomesNone)
{
    const IValue v{Tensor()};
    EXPECT_TRUE(v.is_none());
    EXPECT_EQ(v.tag(), IValue::Tag::kNone);
    EXPECT_THROW(v.tensor(), ReplayError);
    EXPECT_TRUE(v.referenced_tensors().empty());

    const IValue d{shape_only({2, 3})};
    EXPECT_TRUE(d.is_tensor());
    EXPECT_EQ(d.tensor().shape(), (Shape{2, 3}));
}

TEST(IValue, TagsFollowTheConstructor)
{
    EXPECT_EQ(IValue().tag(), IValue::Tag::kNone);
    EXPECT_EQ(IValue(std::vector<Tensor>{}).tag(), IValue::Tag::kTensorList);
    EXPECT_EQ(IValue(int64_t{3}).tag(), IValue::Tag::kInt);
    EXPECT_EQ(IValue(3).tag(), IValue::Tag::kInt);
    EXPECT_EQ(IValue(1.5).tag(), IValue::Tag::kDouble);
    EXPECT_EQ(IValue(true).tag(), IValue::Tag::kBool);
    EXPECT_EQ(IValue(std::vector<int64_t>{1, 2}).tag(), IValue::Tag::kIntList);
    EXPECT_EQ(IValue("x").tag(), IValue::Tag::kString);
    EXPECT_EQ(IValue(std::string("x")).tag(), IValue::Tag::kString);
}

TEST(IValue, BoolToIntCoercion)
{
    EXPECT_EQ(IValue(true).to_int(), 1);
    EXPECT_EQ(IValue(false).to_int(), 0);
    EXPECT_EQ(IValue(7).to_int(), 7);
    EXPECT_THROW(IValue(1.0).to_int(), ReplayError);
    EXPECT_THROW(IValue().to_int(), ReplayError);
}

TEST(IValue, IntToDoubleCoercion)
{
    EXPECT_DOUBLE_EQ(IValue(int64_t{-4}).to_double(), -4.0);
    EXPECT_DOUBLE_EQ(IValue(0.25).to_double(), 0.25);
    EXPECT_THROW(IValue(true).to_double(), ReplayError);
    EXPECT_THROW(IValue("1").to_double(), ReplayError);
}

TEST(IValue, IntToBoolCoercion)
{
    EXPECT_TRUE(IValue(2).to_bool());
    EXPECT_FALSE(IValue(0).to_bool());
    EXPECT_TRUE(IValue(true).to_bool());
    EXPECT_THROW(IValue(1.0).to_bool(), ReplayError);
}

TEST(IValue, MismatchedAccessorsThrow)
{
    EXPECT_THROW(IValue(1).int_list(), ReplayError);
    EXPECT_THROW(IValue(1).str(), ReplayError);
    EXPECT_THROW(IValue(1).tensor_list(), ReplayError);
    EXPECT_THROW(IValue("s").tensor(), ReplayError);
}

TEST(IValue, CopyAndMoveKeepThePayload)
{
    const Tensor t = shape_only({4});
    const std::vector<IValue> originals = {
        IValue(t),
        IValue(std::vector<Tensor>{t, shape_only({1})}),
        IValue(int64_t{1} << 40),
        IValue(-2.5),
        IValue(true),
        IValue(std::vector<int64_t>{3, 1, 4, 1, 5}),
        IValue(std::string(40, 'z')), // past the small-string buffer
    };
    auto same = [](const IValue& a, const IValue& b) {
        ASSERT_EQ(a.tag(), b.tag());
        switch (a.tag()) {
          case IValue::Tag::kNone: break;
          case IValue::Tag::kTensor: EXPECT_EQ(a.tensor().impl(), b.tensor().impl()); break;
          case IValue::Tag::kTensorList:
            ASSERT_EQ(a.tensor_list().size(), b.tensor_list().size());
            for (std::size_t i = 0; i < a.tensor_list().size(); ++i)
                EXPECT_EQ(a.tensor_list()[i].impl(), b.tensor_list()[i].impl());
            break;
          case IValue::Tag::kInt: EXPECT_EQ(a.to_int(), b.to_int()); break;
          case IValue::Tag::kDouble: EXPECT_EQ(a.to_double(), b.to_double()); break;
          case IValue::Tag::kBool: EXPECT_EQ(a.to_bool(), b.to_bool()); break;
          case IValue::Tag::kIntList: EXPECT_EQ(a.int_list(), b.int_list()); break;
          case IValue::Tag::kString: EXPECT_EQ(a.str(), b.str()); break;
        }
    };
    for (const IValue& v : originals) {
        IValue copy = v;
        same(copy, v);
        IValue assigned(0);
        assigned = v;
        same(assigned, v);
        const IValue moved = std::move(copy);
        same(moved, v);
        IValue move_assigned;
        move_assigned = std::move(assigned);
        same(move_assigned, v);
    }
    // A copied tensor handle shares the impl: one more owner, no deep copy.
    EXPECT_EQ(originals[0].referenced_tensors().size(), 1u);
    EXPECT_EQ(originals[1].referenced_tensors().size(), 2u);
}

} // namespace
} // namespace mystique::fw
